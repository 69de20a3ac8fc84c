"""Spans around the public functions of the lpn modules.

The tracer patches, from outside the package, every public function of
each lpn module (and draw_batch of the two example sources) with a
wrapper that records a span: name, parent, start and end.  Spans live in
flat arrays while the run goes and are written out when it ends.  A
span's self time is its duration minus the durations of its children;
the children of one span never overlap, since the program is
single-threaded.

Each span's self time is charged to one per-layer metric: the metric of
its own function if it has one, else the metric its parent was charged
to.  The layer times therefore add up to the time spent inside
lpn.cli.main, by construction.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Tuple

# the modules whose public functions are wrapped, in import order
MODULES = ("gf2", "instance", "instfile", "solvers", "online", "sq", "cli")

# span name -> the per-layer time metric its self time goes to; other
# spans inherit the metric of their parent.  online.run_online is
# resolved per call to online.tabled_s or online.simple_s.
TIME_METRIC = {
    "cli.main": "cli.self_s",
    "instance.draw_batch": "instance.draw_s",
    "solvers.recover_target": "solvers.recover_s",
    "solvers.mle_bruteforce": "solvers.mle_s",
    "instfile.generate_instance": "instfile.generate_s",
    "instfile.format_instance": "instfile.format_s",
    "instfile.write_instance": "instfile.write_s",
    "instfile.read_instance": "instfile.read_s",
    "online.run_online": None,
    "sq.basis_query_learner": "sq.basis_learn_s",
    "sq.kwise_answer": "sq.kwise_answer_s",
    "sq.kwise_to_unary_reduce": "sq.reduce_s",
    "sq.sq_dimension": "sq.dim_s",
    "gf2.rank_ints": "gf2.rank_s",
}

# generate_instance's draws are how it makes the instance, not examples
# a solver used, so spans inside it are not recorded
OPAQUE = {"instfile.generate_instance"}

COUNT_METRICS = (
    "instance.draw_calls", "instance.examples_drawn", "solvers.votes",
    "instfile.read_calls", "instfile.bytes_written", "instfile.bytes_read",
    "online.examples", "online.label_requests", "sq.kwise_answer_calls",
    "sq.tuples_enumerated", "sq.unary_queries", "gf2.rank_calls",
    "cli.commands",
)


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _path_bytes(args, kwargs, out) -> dict:
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _kwise_tuples(args, kwargs, out) -> dict:
    query, dist = _arg(args, kwargs, 0, "query"), _arg(args, kwargs, 2, "dist")
    sampled = type(_arg(args, kwargs, 3, "mode")).__name__ == "SampledNoisy"
    # computed, not counted: an exact answer walks all |D|^k tuples
    return {"tuples": 0 if sampled else len(dist.points) ** query.k}


# counts taken at a span's end from its arguments and result, by span name
NOTES: Dict[str, Callable[[tuple, dict, object], dict]] = {
    "instance.draw_batch":
        lambda args, kwargs, out: {"examples": int(_arg(args, kwargs, 1, "m"))},
    "instfile.read_instance": _path_bytes,
    "instfile.write_instance": _path_bytes,
    "solvers.recover_target": lambda args, kwargs, out: {
        "examples": out.examples_used,
        "votes": sum(o + z for o, z in out.per_bit_votes),
    },
    "online.run_online": lambda args, kwargs, out: {
        "engine": out.engine, "examples": out.processed,
        "label_requests": out.label_requests,
    },
    "sq.kwise_answer": _kwise_tuples,
}


class Tracer:
    """Records spans while installed; restores the originals on removal."""

    def __init__(self):
        self.names: List[str] = []
        self._name_id: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: Dict[int, dict] = {}
        self._stack: List[int] = []
        self._opaque = 0
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------

    def _name(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name(name)
        opaque = name in OPAQUE
        noter = NOTES.get(name)
        stack, name_of, parent, start, end = (
            self._stack, self.name_of, self.parent, self.start, self.end
        )

        def wrapper(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            if opaque:
                self._opaque += 1
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
                if opaque:
                    self._opaque -= 1
            if noter is not None:
                self.notes[idx] = noter(args, kwargs, out)
            return out

        return wrapper

    # -- installation ------------------------------------------------

    def install(self, lpn_modules: Dict[str, object]) -> None:
        """Wrap each module's public functions wherever lpn binds them."""
        targets: Dict[int, str] = {}
        for short in MODULES:
            mod = lpn_modules[short]
            public = getattr(mod, "__all__", None) or ["main"]
            for attr in public:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets[id(fn)] = f"{short}.{attr}"
        wrappers: Dict[int, Callable] = {}
        for mod in lpn_modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in targets:
                    if id(value) not in wrappers:
                        wrappers[id(value)] = self._wrap(targets[id(value)], value)
                    self._patch(mod, attr, wrappers[id(value)])
        instance = lpn_modules["instance"]
        for cls in (instance.ExampleSource, instance.ReplaySource):
            self._patch(cls, "draw_batch",
                        self._wrap("instance.draw_batch", cls.draw_batch))

    @contextlib.contextmanager
    def suspended(self):
        """Calls made inside this block record no spans."""
        self._opaque += 1
        try:
            yield
        finally:
            self._opaque -= 1

    def _patch(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), had))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original, had in reversed(self._patches):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- analysis ----------------------------------------------------

    def self_times(self) -> List[float]:
        n = len(self.name_of)
        own = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer times (self time, seconds) and counts."""
        out: Dict[str, float] = {m: 0.0 for m in TIME_METRIC.values() if m}
        out.update({"online.tabled_s": 0.0, "online.simple_s": 0.0})
        out.update({m: 0 for m in COUNT_METRICS})
        own = self.self_times()
        owner: List[str] = []
        recover_examples = 0
        for i in range(len(self.name_of)):
            name = self.names[self.name_of[i]]
            p = self.parent[i]
            if name in TIME_METRIC:
                metric = TIME_METRIC[name]
                if metric is None:  # online.run_online
                    engine = self.notes.get(i, {}).get("engine", "simple")
                    metric = f"online.{engine}_s"
            else:
                metric = owner[p] if p >= 0 else "cli.self_s"
            owner.append(metric)
            out[metric] += own[i]
            note = self.notes.get(i, {})
            if name == "instance.draw_batch":
                out["instance.draw_calls"] += 1
                out["instance.examples_drawn"] += note.get("examples", 0)
            elif name == "solvers.recover_target":
                out["solvers.votes"] += note.get("votes", 0)
                recover_examples += note.get("examples", 0)
            elif name == "instfile.read_instance":
                out["instfile.read_calls"] += 1
                out["instfile.bytes_read"] += note.get("bytes", 0)
            elif name == "instfile.write_instance":
                out["instfile.bytes_written"] += note.get("bytes", 0)
            elif name == "online.run_online":
                out["online.examples"] += note.get("examples", 0)
                out["online.label_requests"] += note.get("label_requests", 0)
            elif name == "sq.kwise_answer":
                out["sq.kwise_answer_calls"] += 1
                out["sq.tuples_enumerated"] += note.get("tuples", 0)
            elif name == "sq.sq_answer":
                out["sq.unary_queries"] += 1
            elif name == "gf2.rank_ints":
                out["gf2.rank_calls"] += 1
            elif name == "cli.main":
                out["cli.commands"] += 1
        votes = out["solvers.votes"]
        out["solvers.examples_per_vote"] = recover_examples / votes if votes else 0.0
        return out

    def command_time(self) -> float:
        """Total duration of the top-level (cli.main) spans."""
        return sum(
            self.end[i] - self.start[i]
            for i in range(len(self.name_of)) if self.parent[i] < 0
        )

    def dump(self, path: str) -> None:
        """Write the spans as JSON: names, then [name, parent, start, end]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "fields": ["name", "parent", "start_s", "end_s"],
                    "spans": [
                        [self.name_of[i], self.parent[i],
                         round(self.start[i], 7), round(self.end[i], 7)]
                        for i in range(len(self.name_of))
                    ],
                    "notes": {str(i): n for i, n in self.notes.items()},
                },
                fh,
            )
