"""Command line harness.

Subcommands: gen (write an instance file), solve (run a solver over
seeds and emit one CSV/JSON row per run), sq (statistical query
experiments), bias (predicted vs. simulated XOR chain bias).

Exit codes: 0 success, 1 usage error, 2 I/O or file format error,
3 example budget exceeded in at least one solve row.

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
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional

import numpy as np

from .gf2 import BitVec, BlockLayout, GaussStatus
from .instance import LabeledExample, new_source
from .instfile import (
    InstanceFormatError,
    generate_instance,
    read_instance,
    replay_source,
    write_instance,
)
from .online import run_online
from .seeding import derive_seed
from .solvers import (
    MLE_MAX_K,
    SolverConfig,
    SolverStatus,
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
    s.add_argument("--profile", choices=["balanced", "shallow"],
                   default="balanced")
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
    if "," in spec:
        seeds = [int(tok) for tok in spec.split(",") if tok.strip() != ""]
    else:
        seeds = list(range(int(spec)))
    if not seeds:
        raise _UsageError("--seeds must name at least one seed")
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


def _draw_samples(src, m: int) -> Optional[List[LabeledExample]]:
    """The next m examples, or None if a finite source holds fewer."""
    left = src.remaining()
    if left is not None and m > left:
        return None
    bits, labels, start = src.draw_batch(m)
    return [
        LabeledExample(BitVec.from_bits_row(bits[i]), int(labels[i]), start + i)
        for i in range(m)
    ]


def _solve_one(task: Dict) -> Dict:
    algo = task["algo"]
    seed = task["seed"]
    row: Dict = {
        "schema": "lpn-solve/1",
        "algo": algo,
        "seed": seed,
        "delta": _fmt(task["delta"]),
        "max_examples": _fmt(task["max_examples"]),
    }
    data = task["data"]
    if data is not None:
        src = replay_source(data)
        k, eta = data.k, data.eta
        target = data.target
    else:
        k = task["k"]
        if k is None and algo == "online":
            k = task["blocks"] * task["width"]
        src = new_source(k, task["eta"], seed=seed)
        eta = float(src.eta)
        target = src.target.c
    row["k"] = k
    row["eta"] = _fmt(eta)
    row["target"] = target.to_bytes_le().hex() if target is not None else ""

    if algo == "bkw":
        if (task["a"] is None) != (task["b"] is None):
            raise _UsageError("--a and --b go together")
        if task["a"] is not None:
            layout = BlockLayout(task["a"], task["b"])
            if layout.total < k:
                raise _UsageError("a*b must cover k")
            cfg = SolverConfig(
                layout,
                repetitions=repetitions_for(k, eta, task["delta"], layout.a),
                delta=task["delta"],
                max_examples=task["max_examples"],
            )
        else:
            base = choose_parameters(k, eta, task["delta"], task["profile"])
            cfg = SolverConfig(
                base.layout, base.repetitions, base.delta,
                max_examples=task["max_examples"],
            )
        row.update(a=cfg.layout.a, b=cfg.layout.b,
                   repetitions=cfg.repetitions)
        res = recover_target(src, cfg, seed=seed)
        status = res.status.value
        c_hat = res.c_hat.c if res.c_hat is not None else None
        row["examples_used"] = res.examples_used
        row["wall_time_ms"] = _fmt(res.wall_time_s * 1e3)
        row["status"] = status
        row["c_hat"] = c_hat.to_bytes_le().hex() if c_hat is not None else ""
        recovered = status == SolverStatus.RECOVERED.value
        row["success"] = _fmt(
            recovered and (target is None or c_hat == target)
        )
        return row

    if algo == "mle":
        if k > MLE_MAX_K:
            raise _UsageError(f"mle is capped at k={MLE_MAX_K}")
        samples = _draw_samples(src, task["max_examples"] or 2000)
        if samples is None:
            row.update(status=SolverStatus.BUDGET_EXCEEDED.value, success="",
                       examples_used=src.draw_count)
            return row
        h = mle_bruteforce(samples, k)
        row.update(
            status="recovered",
            c_hat=h.c.to_bytes_le().hex(),
            examples_used=src.draw_count,
            success=_fmt(h.c == target) if target is not None else "",
        )
        return row

    if algo == "gauss":
        samples = _draw_samples(src, task["max_examples"] or 3 * k)
        if samples is None:
            row.update(status=SolverStatus.BUDGET_EXCEEDED.value, success="",
                       examples_used=src.draw_count)
            return row
        gr = gaussian_baseline(samples, k)
        solved = gr.status is GaussStatus.SOLVED
        row.update(
            status=gr.status.value,
            c_hat=gr.solution.to_bytes_le().hex() if solved else "",
            examples_used=src.draw_count,
            success=_fmt(solved and gr.solution == target)
            if target is not None
            else _fmt(solved),
        )
        return row

    # online
    g, w, t = task["blocks"], task["width"], task["matrices"]
    count = task["max_examples"]
    left = src.remaining()
    if count is None:
        if left is None:
            raise _UsageError("online on a live source needs --max-examples")
        count = left
    row.update(blocks=g, width=w, matrices=t, count=count)
    if left is not None and count > left:
        row.update(status=SolverStatus.BUDGET_EXCEEDED.value, success="",
                   examples_used=src.draw_count)
        return row
    rep = run_online(src, g, w, t, count)
    row.update(
        status="completed",
        predicted=rep.predicted,
        unknown=rep.unknown,
        errors="" if rep.errors is None else rep.errors,
        ties=rep.ties,
        max_vote_depth=rep.max_vote_depth,
        fill=sum(rep.per_matrix_fill),
        capacity=rep.capacity,
        examples_used=src.draw_count,
        success=_fmt(rep.errors == 0) if rep.errors is not None else "",
    )
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
    if ns.max_examples is not None and ns.max_examples < 0:
        raise _UsageError("--max-examples must be nonnegative")
    seeds = _parse_seeds(ns.seeds)
    # one decode serves every seed; each row replays the same arrays
    data = read_instance(ns.in_path) if ns.in_path is not None else None
    tasks = [
        {
            "algo": ns.algo,
            "seed": seed,
            "data": data,
            "k": ns.k,
            "eta": ns.eta,
            "a": ns.a,
            "b": ns.b,
            "blocks": ns.blocks,
            "width": ns.width,
            "matrices": ns.matrices,
            "delta": ns.delta,
            "max_examples": ns.max_examples,
            "profile": ns.profile,
        }
        for seed in seeds
    ]
    threads = int(os.environ.get("LPN_THREADS", "1") or "1")
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
    concepts, dist = sqmod.concept_class(ns.cls)
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
        mask = int(rng.integers(0, 1 << k))
        target = sqmod.parity_concept(mask, k)
        learned = sqmod.basis_query_learner(k, target)
        row.update(
            k=k,
            target=target.name,
            learned="parity:" + learned.c.to01(),
            match=_fmt(learned.c.bits == mask),
            queries=k + 1,
        )
    _emit([row], SQ_COLUMNS, ns.out, ns.format)
    return 0


def cmd_bias(ns) -> int:
    pb = predicted_bias(ns.eta, ns.s)
    mc = xor_chain_oracle(ns.eta, ns.s, ns.trials, ns.seed)
    sigma = math.sqrt(max(pb * (1 - pb), 0.0) / ns.trials)
    verdict = "OK" if abs(mc - pb) <= 3 * sigma else "DEVIATES"
    print(f"predicted  {pb!r}")
    print(f"simulated  {mc!r}  (trials={ns.trials}, seed={ns.seed})")
    print(f"difference {abs(mc - pb):.6f}  (3*sigma = {3 * sigma:.6f})  {verdict}")
    return 0


def cmd_gen(ns) -> int:
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
