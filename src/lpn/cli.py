"""Command line harness.

Subcommands: gen (write an instance file), solve (run a solver over
seeds and emit one CSV/JSON row per run), sq (statistical query
experiments), bias (predicted vs. simulated XOR chain bias).

Exit codes: 0 success, 1 usage error or a MemoryError, 2 I/O or file
format error, 3 example budget exceeded in at least one solve row.

LPN_THREADS > 1 fans independent solve rows out to worker processes;
rows are always emitted in seed order, so the output does not depend
on the worker count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional

import numpy as np

from .gf2 import BlockLayout, GaussStatus
from .instance import new_source
from .instfile import (
    InstanceFormatError,
    generate_instance,
    read_instance,
    replay_source,
    write_instance,
)
from .online import _check_bank, run_online
from .seeding import derive_seed
from .solvers import (
    GAUSS_MAX_K,
    MLE_MAX_K,
    SolverConfig,
    SolverStatus,
    _check_layout,
    choose_parameters,
    gaussian_baseline,
    mle_bruteforce,
    predicted_bias,
    recover_target,
    repetitions_for,
    xor_chain_oracle,
)
from . import sq as sqmod

SOLVE_COLUMNS = [
    "schema", "algo", "seed", "k", "eta", "a", "b", "blocks", "width",
    "matrices", "delta", "repetitions", "max_examples", "count", "status",
    "success", "examples_used", "wall_time_ms", "c_hat", "target",
    "predicted", "unknown", "errors", "ties", "max_vote_depth", "fill",
    "capacity",
]

SQ_COLUMNS = [
    "schema", "mode", "class", "seed", "eps", "tuples", "k", "d",
    "max_abs_correlation", "exact", "witness", "outcome", "estimate",
    "error_bound", "advantage", "hypothesis", "fired_tuple", "query",
    "target", "learned", "match", "queries",
]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def build_parser() -> _Parser:
    p = _Parser(prog="lpn", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", parents=[], help="write an instance file")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--eta", type=float, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--with-target", action="store_true")

    s = sub.add_parser("solve", help="run a solver over one or more seeds")
    s.add_argument("--algo", required=True,
                   choices=["bkw", "mle", "gauss", "online"])
    s.add_argument("--in", dest="in_path")
    s.add_argument("--k", type=int)
    s.add_argument("--eta", type=float)
    s.add_argument("--a", type=int)
    s.add_argument("--b", type=int)
    s.add_argument("--blocks", type=int)
    s.add_argument("--width", type=int)
    s.add_argument("--matrices", type=int)
    s.add_argument("--seeds", default="1",
                   help="a count N (seeds 0..N-1) or a comma list")
    s.add_argument("--delta", type=float, default=0.1)
    s.add_argument("--max-examples", type=int)
    s.add_argument("--out")
    s.add_argument("--format", choices=["csv", "json"], default="csv")

    q = sub.add_parser("sq", help="statistical query experiments")
    q.add_argument("mode", choices=["dim", "reduce", "basis-learn"])
    q.add_argument("--class", dest="cls", required=True,
                   help="e.g. parity:3-of-3 or conjunction:2-of-4")
    q.add_argument("--eps", type=float, default=0.05)
    q.add_argument("--tuples", type=int)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--query", default="labels-agree",
                   help=f"for reduce; one of {sorted(sqmod.QUERY_REGISTRY)}")
    q.add_argument("--out")
    q.add_argument("--format", choices=["csv", "json"], default="csv")

    b = sub.add_parser("bias", help="predicted vs. simulated chain bias")
    b.add_argument("--eta", type=float, required=True)
    b.add_argument("--s", type=int, required=True)
    b.add_argument("--trials", type=int, default=100_000)
    b.add_argument("--seed", type=int, default=0)
    return p


def _parse_seeds(spec: str) -> List[int]:
    try:
        if "," in spec:
            seeds = [int(tok) for tok in spec.split(",") if tok.strip() != ""]
        else:
            seeds = list(range(int(spec)))
    except ValueError:
        raise _UsageError(
            f"--seeds takes a count or a comma-separated list of integers, "
            f"not {spec!r}"
        ) from None
    if not seeds:
        raise _UsageError("--seeds must name at least one seed")
    if min(seeds) < 0:
        raise _UsageError(f"--seeds must be nonnegative, not {spec!r}")
    return seeds


def _emit(rows: List[Dict], columns: List[str], out: Optional[str],
          fmt: str) -> None:
    for row in rows:
        assert set(row) <= set(columns), sorted(set(row) - set(columns))
    if fmt == "json":
        text = json.dumps(
            [{c: row.get(c, "") for c in columns} for row in rows], indent=2
        ) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, restval="")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# solve


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _hex(v) -> str:
    """A BitVec as little-endian hex, or "" for none."""
    return "" if v is None else v.to_bytes_le().hex()


def _timed(row: Dict, solve, *args):
    """solve(*args), with its wall time in row["wall_time_ms"]."""
    t0 = time.perf_counter()
    out = solve(*args)
    row["wall_time_ms"] = _fmt((time.perf_counter() - t0) * 1e3)
    return out


def _solve_one(task: Dict) -> Dict:
    algo, seed, data = task["algo"], task["seed"], task["data"]
    cap, delta = task["max_examples"], task["delta"]
    row: Dict = {
        "schema": "lpn-solve/1",
        "algo": algo,
        "seed": seed,
        "delta": _fmt(delta),
        "max_examples": _fmt(cap),
    }
    if data is not None:
        k, eta = data.k, data.eta
    else:
        k, eta = task["k"], task["eta"]
        if k is None and algo == "online":
            k = task["blocks"] * task["width"]
    # refusals come before the source, whose target alone takes k bytes
    if algo == "bkw":
        if (task["a"] is None) != (task["b"] is None):
            raise _UsageError("--a and --b go together")
        if task["a"] is None:
            layout = choose_parameters(k, eta, delta).layout
        else:
            layout = BlockLayout(task["a"], task["b"])
            if layout.total < k:
                raise _UsageError("a*b must cover k")
        _check_layout(k, layout)
        cfg = SolverConfig(layout, repetitions_for(k, eta, delta, layout.a),
                           max_examples=cap)
    elif algo == "mle" and k > MLE_MAX_K:
        raise _UsageError(f"mle is capped at k={MLE_MAX_K}")
    elif algo == "gauss" and k > GAUSS_MAX_K:
        raise _UsageError(f"gauss is capped at k={GAUSS_MAX_K}")
    elif algo == "online":
        _check_bank(task["blocks"], task["width"], task["matrices"], k)
    src = (replay_source(data) if data is not None
           else new_source(k, eta, seed=seed))
    target = src.target
    row.update(k=k, eta=_fmt(src.eta), target=_hex(target))

    if algo == "bkw":
        row.update(a=layout.a, b=layout.b, repetitions=cfg.repetitions)
        out = _timed(row, recover_target, src, cfg, seed)
        row["examples_used"] = out.examples_used
    else:
        # a fixed number of draws, refused whole if a file holds fewer
        left = src.remaining()
        if algo == "online":
            if cap is None and left is None:
                raise _UsageError(
                    "online on a live source needs --max-examples")
            need = left if cap is None else cap
            row.update(blocks=task["blocks"], width=task["width"],
                       matrices=task["matrices"], count=need)
        else:
            need = cap if cap is not None else 2000 if algo == "mle" else 3 * k
        if left is not None and need > left:
            row.update(status=SolverStatus.BUDGET_EXCEEDED.value, success="",
                       examples_used=0)
            return row
        if algo == "online":
            out = _timed(row, run_online, src, task["blocks"], task["width"],
                         task["matrices"], need)
        else:
            words, labels, _ = src.draw_batch(need, packed=True)
            solver = mle_bruteforce if algo == "mle" else gaussian_baseline
            out = _timed(row, solver, words, labels, k)
        row["examples_used"] = src.draw_count

    if algo == "bkw":
        status, c_hat = out.status.value, out.c_hat
        success = out.status is SolverStatus.RECOVERED and (
            target is None or c_hat == target)
    elif algo == "mle":
        status, c_hat = "recovered", out
        success = None if target is None else c_hat == target
    elif algo == "gauss":
        solved = out.status is GaussStatus.SOLVED
        status, c_hat = out.status.value, out.solution if solved else None
        success = solved and (target is None or c_hat == target)
    else:
        status, c_hat = "completed", None
        success = None if out.errors is None else out.errors == 0
        row.update(
            predicted=out.predicted,
            unknown=out.unknown,
            errors="" if out.errors is None else out.errors,
            ties=out.ties,
            max_vote_depth=out.max_vote_depth,
            fill=sum(out.per_matrix_fill),
            capacity=out.capacity,
        )
    row.update(status=status, c_hat=_hex(c_hat), success=_fmt(success))
    return row


def cmd_solve(ns) -> int:
    if ns.in_path is None and ns.algo != "online":
        if ns.k is None or ns.eta is None:
            raise _UsageError("need --in FILE, or --k and --eta")
    if ns.in_path is None and ns.algo == "online" and ns.eta is None:
        raise _UsageError("need --in FILE, or --eta")
    if ns.in_path is not None and (ns.k is not None or ns.eta is not None):
        raise _UsageError("--in replaces --k/--eta")
    if ns.algo == "online":
        for flag in ("blocks", "width", "matrices"):
            value = getattr(ns, flag)
            if value is None:
                raise _UsageError("online needs --blocks, --width and --matrices")
            if value < 1:
                raise _UsageError(f"--{flag} must be at least 1")
    if not 0.0 < ns.delta < 1.0:
        raise _UsageError(f"--delta must lie in (0, 1), not {ns.delta!r}")
    if ns.max_examples is not None and ns.max_examples < 0:
        raise _UsageError("--max-examples must be nonnegative")
    if ns.max_examples == 0 and ns.algo in ("mle", "gauss"):
        raise _UsageError(f"--max-examples must be positive for {ns.algo}")
    seeds = _parse_seeds(ns.seeds)
    # one decode serves every seed; each row replays the same arrays
    data = read_instance(ns.in_path) if ns.in_path is not None else None
    tasks = [dict(vars(ns), seed=seed, data=data) for seed in seeds]
    raw_threads = os.environ.get("LPN_THREADS", "1") or "1"
    try:
        threads = int(raw_threads)
    except ValueError:
        raise _UsageError(
            f"LPN_THREADS must be an integer, not {raw_threads!r}"
        ) from None
    if threads > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(_solve_one, tasks))
    else:
        rows = [_solve_one(t) for t in tasks]
    _emit(rows, SOLVE_COLUMNS, ns.out, ns.format)
    budget = SolverStatus.BUDGET_EXCEEDED.value
    return 3 if any(r.get("status") == budget for r in rows) else 0


# ---------------------------------------------------------------------------
# sq


def cmd_sq(ns) -> int:
    if ns.tuples is not None and ns.tuples < 1:
        raise _UsageError("--tuples must be at least 1")
    if ns.mode == "basis-learn" and not ns.cls.startswith("parity:"):
        raise _UsageError(f"basis-learn needs a parity --class, not {ns.cls!r}")
    try:
        _, j, _ = sqmod._parse_class(ns.cls)
    except ValueError as exc:
        raise _UsageError(f"--class {ns.cls!r}: {exc}") from None
    if ns.mode == "dim":  # refused before any of the 2^j concepts is built
        sqmod._check_dim_size(1 << j)
    try:
        concepts, dist = sqmod.concept_class(ns.cls)
    except ValueError as exc:
        raise _UsageError(f"--class {ns.cls!r}: {exc}") from None
    row: Dict = {
        "schema": "lpn-sq/1",
        "mode": ns.mode,
        "class": ns.cls,
        "seed": ns.seed,
        "eps": _fmt(ns.eps),
    }
    rng = np.random.default_rng(derive_seed(ns.seed, "sq-cli"))
    if ns.mode == "dim":
        report = sqmod.sq_dimension(concepts, dist)
        row.update(
            d=report.d,
            max_abs_correlation=_fmt(report.max_abs_correlation),
            exact=_fmt(report.exact),
            witness=";".join(report.witness),
        )
    elif ns.mode == "reduce":
        target = concepts[int(rng.integers(0, len(concepts)))]
        query = sqmod.named_query(ns.query)
        oracle = sqmod.make_unary_oracle(target, dist)
        outcome = sqmod.kwise_to_unary_reduce(
            query, ns.eps, oracle, sqmod.UnlabeledDraws(dist),
            tuples_to_try=ns.tuples, seed=ns.seed,
        )
        row.update(
            query=query.name,
            k=query.k,
            target=target.name,
            outcome=outcome.kind,
            tuples=outcome.tuples_tried,
        )
        if outcome.kind == "estimate":
            row.update(estimate=_fmt(outcome.estimate),
                       error_bound=_fmt(outcome.error_bound))
        else:
            row.update(
                advantage=_fmt(outcome.advantage),
                hypothesis=outcome.hypothesis.name,
                fired_tuple="" if outcome.fired is None
                else str(outcome.fired[0]),
            )
    else:  # basis-learn
        k = dist.n
        target = concepts[int(rng.integers(0, len(concepts)))]
        learned = "parity:" + sqmod.basis_query_learner(k, target).to01()
        row.update(
            k=k,
            target=target.name,
            learned=learned,
            match=_fmt(learned == target.name),
            queries=k + 1,
        )
    _emit([row], SQ_COLUMNS, ns.out, ns.format)
    return 0


def cmd_bias(ns) -> int:
    if ns.seed < 0:
        raise _UsageError(f"--seed must be nonnegative, not {ns.seed}")
    pb = predicted_bias(ns.eta, ns.s)
    mc = xor_chain_oracle(ns.eta, ns.s, ns.trials, ns.seed)
    sigma = math.sqrt(max(pb * (1 - pb), 0.0) / ns.trials)
    verdict = "OK" if abs(mc - pb) <= 3 * sigma else "DEVIATES"
    print(f"predicted  {pb!r}")
    print(f"simulated  {mc!r}  (trials={ns.trials}, seed={ns.seed})")
    print(f"difference {abs(mc - pb):.6f}  (3*sigma = {3 * sigma:.6f})  {verdict}")
    return 0


def cmd_gen(ns) -> int:
    if ns.seed < 0:
        raise _UsageError(f"--seed must be nonnegative, not {ns.seed}")
    if ns.count < 0:
        raise _UsageError(f"--count must be nonnegative, not {ns.count}")
    data = generate_instance(ns.k, ns.count, ns.eta, ns.seed, ns.with_target)
    write_instance(ns.out, data)
    print(f"wrote {ns.out} (k={data.k}, count={data.count}, eta={data.eta!r})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    try:
        if ns.command == "gen":
            return cmd_gen(ns)
        if ns.command == "solve":
            return cmd_solve(ns)
        if ns.command == "sq":
            return cmd_sq(ns)
        return cmd_bias(ns)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InstanceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
