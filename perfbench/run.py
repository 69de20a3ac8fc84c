"""Benchmark entry point for lpn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is the checkout's own
src/lpn, driven through lpn.cli.main.  The workload runs in one child
process (worker.py) pinned to one thread; a few more children only set
up and exit, so that set-up time is a mean of several.  The last stdout line is
one JSON object: correct, attempted, failed and metrics (the end-to-end
metrics, or with --trace 1 the per-layer ones).  Details of the run go
to .perfbench/results/ in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# extra processes that only import and warm up, for a mean set-up time
SETUP_PROBES = 4
# the whole run, probes included, must end well inside 180 s
DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "examples_per_s": "1/s",
    "examples_used": "count", "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "host.calib_s": "s",
    "instance.draw_s": "s", "instance.draw_calls": "count",
    "instance.examples_drawn": "count",
    "solvers.recover_s": "s", "solvers.votes": "count",
    "solvers.examples_per_vote": "examples/vote", "solvers.mle_s": "s",
    "instfile.generate_s": "s", "instfile.format_s": "s",
    "instfile.write_s": "s", "instfile.read_s": "s",
    "instfile.read_calls": "count", "instfile.bytes_written": "bytes",
    "instfile.bytes_read": "bytes",
    "online.tabled_s": "s", "online.simple_s": "s",
    "online.examples": "count", "online.label_requests": "count",
    "sq.basis_learn_s": "s", "sq.kwise_answer_s": "s",
    "sq.kwise_answer_calls": "count", "sq.tuples_enumerated": "count-computed",
    "sq.reduce_s": "s", "sq.unary_queries": "count", "sq.dim_s": "s",
    "gf2.rank_s": "s", "gf2.rank_calls": "count",
    "cli.self_s": "s", "cli.commands": "count",
    "trace.overhead_pct": "%", "trace.accounted_pct": "%",
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("LPN_THREADS", None)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: List[str], deadline: float) -> dict:
    """Run worker.py and return its JSON report, with setup_s added."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")] + args,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(), cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the deadline") from None
    finally:
        if proc.poll() is None:  # timed out or interrupted: leave no worker behind
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}:\n{err[-4000:]}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - t_spawn
    return report


def summarize(report: dict, setups: List[float], trace: bool) -> dict:
    rounds = report["rounds"]
    ops = [op for r in rounds for op in r["ops"]]
    wrong = [p for op in ops if op["exit"] == 0 for p in op["problems"]]
    correct = not wrong and not report["run_problems"]
    if trace:
        values = report["layers"]
        units = PER_LAYER
    else:
        # means over the run's rounds: the host alternates between a fast
        # and a slow state that each last about as long as a run, and a
        # mean weighs both by their share of the run where a median or a
        # minimum picks one of them
        wall = statistics.fmean(r["wall_s"] for r in rounds)
        cpu = statistics.fmean(r["cpu_s"] for r in rounds)
        examples = statistics.fmean(r["examples"] for r in rounds)
        values = {
            "wall_s": wall,
            "cpu_s": cpu,
            "examples_per_s": examples / wall,
            "examples_used": examples,
            "setup_s": statistics.fmean(setups),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        units = END_TO_END
    return {
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def parse_args(argv: Optional[List[str]] = None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ns = p.parse_args(argv)
    if ns.seed < 0 or ns.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return ns


def main(argv: Optional[List[str]] = None) -> int:
    ns = parse_args(argv)
    # on SIGTERM unwind through spawn()'s finally, which kills the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "lpn", "cli.py")):
        print(f"error: no lpn sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    out_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    common = ["--workload", ns.workload, "--seed", str(ns.seed),
              "--out-dir", out_dir]
    try:
        probe = common + ["--seconds", "0", "--setup-only"]
        # half of the probes before the workload and half after, so that
        # set-up is sampled over the whole run, not one moment
        setups = [spawn(probe, deadline)["setup_s"]
                  for _ in range(SETUP_PROBES // 2)]
        report = spawn(common + ["--seconds", str(ns.seconds),
                                 "--trace", str(ns.trace)], deadline)
        setups += [spawn(probe, deadline)["setup_s"]
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(report["setup_s"])
    result = summarize(report, setups, bool(ns.trace))
    name = f"{ns.workload}-seed{ns.seed}-trace{ns.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(ns), "result": result, "setups_s": setups,
                   "python": sys.version.split()[0], "report": report}, fh,
                  indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
