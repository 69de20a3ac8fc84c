"""One workload in one process: set up, run timed rounds, check, report.

Started by run.py with the checkout's src/ on PYTHONPATH and every
numeric library pinned to one thread.  Prints one JSON object as its
last stdout line; the lpn commands' own output is captured in memory.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out-dir DIR [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from typing import Dict, List

import numpy as np

from workloads import WORKLOADS


def host_calib() -> float:
    """Seconds for a fixed mix of interpreter and numpy work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc ^= (i * 2654435761) & 0xFFFF
    arr = np.random.default_rng(0).integers(0, 1 << 30, size=1_000_000)
    np.argsort(arr, kind="stable")
    return time.perf_counter() - t0


def import_lpn(root: str) -> Dict[str, object]:
    import lpn
    import lpn.cli
    import lpn.gf2
    import lpn.instance
    import lpn.instfile
    import lpn.online
    import lpn.solvers
    import lpn.sq

    src = os.path.join(root, "src", "lpn")
    if os.path.dirname(os.path.abspath(lpn.__file__)) != src:
        raise RuntimeError(f"imported lpn from {lpn.__file__}, not from {src}")
    mods = {name.split(".")[-1]: mod for name, mod in sys.modules.items()
            if name.startswith("lpn.")}
    mods["lpn"] = lpn
    return mods


def run_command(cli, argv: List[str]):
    """Run one lpn command: (exit code or None, stdout, stderr, wall, cpu)."""
    out, err = io.StringIO(), io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a crash is a failed operation, not a dead run
        code = None
        err.write(traceback.format_exc())
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return code, out.getvalue(), err.getvalue(), wall, cpu


def run_round(lpn: dict, ops, first: bool, fingerprints: List[str],
              untraced=contextlib.nullcontext) -> dict:
    """Run every op once, timing the commands and checking after each.

    untraced() is entered around the checks, so that a tracer records
    only what the commands themselves do.
    """
    wall = cpu = 0.0
    examples = 0
    records = []
    for i, op in enumerate(ops):
        code, text, err, w, c = run_command(lpn["cli"], op.argv)
        wall, cpu = wall + w, cpu + c
        rec = {"argv": op.argv, "exit": code, "wall_s": w, "cpu_s": c,
               "problems": []}
        if code != 0:
            rec["stderr"] = err[-2000:]
            fingerprint = f"exit {code}"
        else:
            with untraced():
                outcome = op.check(text, first)
            examples += outcome.examples
            rec["problems"] = outcome.problems
            fingerprint = outcome.fingerprint
        if first:
            fingerprints.append(fingerprint)
        elif fingerprint != fingerprints[i]:
            rec["problems"].append("output differs from the run's first round")
        rec["failed"] = code != 0 or bool(rec["problems"])
        records.append(rec)
    return {"wall_s": wall, "cpu_s": cpu, "examples": examples, "ops": records}


def thread_count() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 1


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    ns = p.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    workload = WORKLOADS[ns.workload]

    lpn = import_lpn(root)
    workdir = os.path.join(root, ".perfbench", "work", f"{ns.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for argv in workload.warmup(workdir):
            code, _, err, _, _ = run_command(lpn["cli"], argv)
            if code != 0:
                print(f"warm-up {argv} exited {code}:\n{err}", file=sys.stderr)
                return 1
        ready = time.monotonic()
        if ns.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        report = measure(ns, lpn, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["ready"] = ready
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["threads"] = thread_count()
    report["nproc"] = len(os.sched_getaffinity(0))
    if report["threads"] > report["nproc"]:
        report["run_problems"].append(
            f"{report['threads']} threads on {report['nproc']} cores")
    print(json.dumps(report))
    return 0


def measure(ns, lpn: dict, workload, workdir: str) -> dict:
    ctx: dict = {}
    ops = workload.ops(ns.seed, workdir, lpn, ctx)
    fingerprints: List[str] = []
    calib = [host_calib()]
    rounds = []
    run_problems: List[str] = []
    layers: Dict[str, float] = {}
    spans = 0
    if ns.trace:
        import tracer

        rounds.append(run_round(lpn, ops, True, fingerprints))
        tr = tracer.Tracer()
        tr.install(lpn)
        try:
            traced = run_round(lpn, ops, False, fingerprints, tr.suspended)
        finally:
            tr.remove()
        layers = tr.layer_metrics()
        spans = len(tr.name_of)
        tr.dump(os.path.join(ns.out_dir, f"{ns.workload}-seed{ns.seed}-spans.json"))
        untraced_wall = rounds[0]["wall_s"]
        layers["trace.overhead_pct"] = 100.0 * (traced["wall_s"] / untraced_wall - 1)
        layers["trace.accounted_pct"] = 100.0 * tr.command_time() / traced["wall_s"]
        run_problems += trace_problems(layers, traced)
        rounds.append(traced)
    else:
        t_begin = time.perf_counter()
        lengths: List[float] = []
        while True:
            r0 = time.perf_counter()
            rounds.append(run_round(lpn, ops, not rounds, fingerprints))
            lengths.append(time.perf_counter() - r0)
            elapsed = time.perf_counter() - t_begin
            if elapsed + statistics.median(lengths) > ns.seconds:
                break
    calib.append(host_calib())
    layers["host.calib_s"] = statistics.fmean(calib)
    return {"rounds": rounds, "calib_s": calib, "layers": layers,
            "spans": spans,
            "run_problems": run_problems}


def trace_problems(layers: Dict[str, float], traced: dict) -> List[str]:
    """Invariants between the trace and the rows of the traced round."""
    problems = []
    if layers["instance.examples_drawn"] != traced["examples"]:
        problems.append(
            f"instance.examples_drawn {layers['instance.examples_drawn']} != "
            f"examples_used {traced['examples']}")
    if not 95.0 <= layers["trace.accounted_pct"] <= 100.0:
        problems.append(
            f"spans cover {layers['trace.accounted_pct']:.2f}% of command time")
    return problems


if __name__ == "__main__":
    sys.exit(main())
