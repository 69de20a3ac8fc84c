"""The three workloads: the lpn commands of one round, and their checks.

A round is a fixed list of CLI commands derived from the run's seed;
every round of a run repeats the same commands on the same inputs.  Each
command (an operation) comes with a check of its output, run after the
command and outside the timed span.  Why each workload exists, and what
it stresses, is in README.md.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Callable, Dict, List

import checks

ETA = 0.125

# bkw-live-k24: the AC-1 setting, a=3 blocks of b=8 bits.  With
# delta=1e-4 the solver's own bound (repetitions_for) puts every solve
# at failure probability <= 1e-4, so the few hundred solves that all
# runs of this workload make together fail with probability <= a few
# percent by that bound alone; the exact binomial tail of the 262-vote
# majority is about 2e-6 per solve.
BKW_K, BKW_A, BKW_B, BKW_DELTA, BKW_SEEDS = 24, 3, 8, 1e-4, 2
FRESH_EXAMPLES = 20_000

# file-k12: the default k=12 layout (a=2, b=6) at delta=1e-4 takes 79
# votes per bit; a solve then reads about 178k rows (sd 3k), and the file
# holds 200k, seven standard deviations more, because a replayed file
# that runs dry is a fault of its own.  The exact binomial tail of the
# 79-vote majority is about 2e-7 per solve.  k=16 would need a 0.9M-row
# file whose two parses alone take 10-20 s, too long a command to time
# more than twice in a run.
FILE_K, FILE_A, FILE_B = 12, 2, 6
FILE_COUNT, FILE_DELTA = 200_000, 1e-4
K20_COUNT = 4_000

# online-sq: g*w = 12 selects the tabled engine, g*w = 16 the simple one.
# A round is kept near 5 s, so that a run times each command five times
# or more and its mean is not at the mercy of one slow spell.
TABLED = dict(g=3, w=4, t=9, count=1_000_000, eta=ETA)
SIMPLE = dict(g=4, w=4, t=9, count=50_000, eta=0.0)
SQ_CLASS, SQ_J, REDUCE_CLASS, SQ_EPS, SQ_SEEDS = "parity:4-of-4", 4, "parity:2-of-4", 0.05, 2


@dataclass
class Outcome:
    problems: List[str]
    examples: int = 0  # examples_used over the command's solve rows
    fingerprint: str = ""  # must repeat exactly in every round of a run


@dataclass
class Op:
    argv: List[str]
    check: Callable[[str, bool], Outcome]  # (stdout, first round) -> Outcome


@dataclass
class Workload:
    name: str
    warmup: Callable[[str], List[List[str]]]  # workdir -> commands
    ops: Callable[[int, str, dict, dict], List[Op]]  # seed, workdir, lpn, ctx


def _fingerprint(rows: List[Dict[str, str]]) -> str:
    keep = [{c: v for c, v in r.items() if c != "wall_time_ms"} for r in rows]
    return repr(keep)


def _solve_outcome(text: str, per_row) -> Outcome:
    rows = checks.parse_rows(text)
    if not rows:
        return Outcome(["no rows printed"])
    problems: List[str] = []
    examples = 0
    for row in rows:
        problems += [f"seed {row.get('seed')}: {p}" for p in per_row(row)]
        try:
            examples += int(row.get("examples_used") or 0)
        except ValueError:
            pass
    return Outcome(problems, examples, _fingerprint(rows))


def _seed_list(first: int, n: int) -> str:
    """A --seeds value naming exactly seeds first..first+n-1."""
    return ",".join(str(first + i) for i in range(n)) + ("," if n == 1 else "")


# ---------------------------------------------------------------------------
# bkw-live-k24


def _bkw_ops(seed: int, workdir: str, lpn: dict, ctx: dict) -> List[Op]:
    ops = []
    for s in range(BKW_SEEDS * seed, BKW_SEEDS * seed + BKW_SEEDS):
        def check(text: str, first: bool, s=s) -> Outcome:
            bits, labels, _ = lpn["instance"].new_source(
                BKW_K, ETA, seed=s).draw_batch(FRESH_EXAMPLES)
            return _solve_outcome(text, lambda row: checks.check_bkw_row(
                row, BKW_K, BKW_A, BKW_B, ETA, fresh=(bits, labels)))

        ops.append(Op(
            ["solve", "--algo", "bkw", "--k", str(BKW_K), "--eta", str(ETA),
             "--a", str(BKW_A), "--b", str(BKW_B), "--delta", str(BKW_DELTA),
             "--seeds", _seed_list(s, 1)],
            check,
        ))
    return ops


def _bkw_warmup(workdir: str) -> List[List[str]]:
    return [["solve", "--algo", "bkw", "--k", "12", "--eta", str(ETA),
             "--a", "2", "--b", "6"]]


# ---------------------------------------------------------------------------
# file-k12


def _gen_op(path: str, k: int, count: int, seed: int, lpn: dict,
            ctx: dict) -> Op:
    def check(text: str, first: bool) -> Outcome:
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            dec = checks.decode_instance(raw)
        except checks.DecodeError as exc:
            return Outcome([f"{os.path.basename(path)}: {exc}"])
        problems = checks.check_decoded(dec, k, ETA, seed, count)
        if first:
            problems += checks.compare_with_reader(
                dec, lpn["instfile"].read_instance(path))
        ctx[path] = dec
        return Outcome(problems, 0, text + hashlib.sha256(raw).hexdigest())

    return Op(["gen", "--k", str(k), "--count", str(count), "--eta", str(ETA),
               "--seed", str(seed), "--out", path, "--with-target"], check)


def _file_ops(seed: int, workdir: str, lpn: dict, ctx: dict) -> List[Op]:
    f12 = os.path.join(workdir, "k12.lpn")
    f20 = os.path.join(workdir, "k20.lpn")

    def check_bkw(text: str, first: bool) -> Outcome:
        dec = ctx[f12]
        return _solve_outcome(text, lambda row: checks.check_bkw_row(
            row, FILE_K, FILE_A, FILE_B, ETA, expect_target=dec.target))

    def check_mle(text: str, first: bool) -> Outcome:
        dec = ctx[f20]
        return _solve_outcome(text, lambda row: checks.check_mle_row(
            row, dec.bits, dec.labels, dec.target))

    return [
        _gen_op(f12, FILE_K, FILE_COUNT, seed, lpn, ctx),
        _gen_op(f20, 20, K20_COUNT, seed, lpn, ctx),
        Op(["solve", "--algo", "bkw", "--in", f12, "--delta", str(FILE_DELTA),
            "--seeds", _seed_list(2 * seed, 2)], check_bkw),
        Op(["solve", "--algo", "mle", "--in", f20,
            "--max-examples", str(K20_COUNT)], check_mle),
    ]


def _file_warmup(workdir: str) -> List[List[str]]:
    path = os.path.join(workdir, "warm.lpn")
    return [
        ["gen", "--k", "8", "--count", "30000", "--eta", str(ETA), "--seed", "1",
         "--out", path, "--with-target"],
        ["solve", "--algo", "bkw", "--in", path],
        ["solve", "--algo", "mle", "--in", path, "--max-examples", "500"],
    ]


# ---------------------------------------------------------------------------
# online-sq


def _online_op(p: dict, seed: int) -> Op:
    def check(text: str, first: bool) -> Outcome:
        return _solve_outcome(text, lambda row: checks.check_online_row(
            row, p["g"], p["w"], p["t"], p["count"], noiseless=p["eta"] == 0))

    return Op(["solve", "--algo", "online", "--blocks", str(p["g"]),
               "--width", str(p["w"]), "--matrices", str(p["t"]),
               "--eta", str(p["eta"]), "--max-examples", str(p["count"]),
               "--seeds", _seed_list(seed, 1)], check)


def _sq_op(argv: List[str], per_row) -> Op:
    def check(text: str, first: bool) -> Outcome:
        rows = checks.parse_rows(text)
        if len(rows) != 1:
            return Outcome([f"expected one row, got {len(rows)}"])
        return Outcome(per_row(rows[0]), 0, _fingerprint(rows))

    return Op(["sq"] + argv, check)


def _online_sq_ops(seed: int, workdir: str, lpn: dict, ctx: dict) -> List[Op]:
    ops = [_online_op(TABLED, seed), _online_op(SIMPLE, seed)]
    for s in range(SQ_SEEDS * seed, SQ_SEEDS * seed + SQ_SEEDS):
        ops.append(_sq_op(["basis-learn", "--class", SQ_CLASS, "--seed", str(s)],
                          lambda row: checks.check_basis_row(row, SQ_J)))
    ops.append(_sq_op(
        ["reduce", "--class", REDUCE_CLASS, "--query", "labels-agree",
         "--eps", str(SQ_EPS), "--seed", str(seed)],
        lambda row: checks.check_reduce_row(row, SQ_EPS)))
    ops.append(_sq_op(["dim", "--class", SQ_CLASS],
                      lambda row: checks.check_dim_row(row, SQ_J)))
    return ops


def _online_sq_warmup(workdir: str) -> List[List[str]]:
    return [
        ["solve", "--algo", "online", "--blocks", "2", "--width", "3",
         "--matrices", "3", "--eta", str(ETA), "--max-examples", "5000"],
        ["solve", "--algo", "online", "--blocks", "4", "--width", "4",
         "--matrices", "2", "--eta", "0", "--max-examples", "500"],
        ["sq", "basis-learn", "--class", "parity:2-of-2"],
        ["sq", "reduce", "--class", "parity:1-of-2", "--query", "labels-agree"],
        ["sq", "dim", "--class", "parity:2-of-2"],
    ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("bkw-live-k24", _bkw_warmup, _bkw_ops),
        Workload("file-k12", _file_warmup, _file_ops),
        Workload("online-sq", _online_sq_warmup, _online_sq_ops),
    )
}
