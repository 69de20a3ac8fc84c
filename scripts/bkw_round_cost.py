"""What one bkw solve of the benchmark's bkw command costs the host.

The command is `lpn solve --algo bkw --k 24 --eta 0.125 --a 3 --b 8
--delta 1e-4 --seeds S` on a live source.  For each seed this runs the
same solve twice in this process, after one warm-up solve: once bare,
timing wall and CPU time and counting minor page faults
(`resource.getrusage`), and once under `tracemalloc` for its peak of
traced memory, which tracing would otherwise slow.  It prints one
markdown row per seed and a median row.  Point PYTHONPATH at another
tree's `src` to measure that tree the same way.

    PYTHONPATH=src python3 scripts/bkw_round_cost.py [SEED ...]
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
import tracemalloc

from lpn.gf2 import BlockLayout
from lpn.instance import new_source
from lpn.solvers import SolverConfig, recover_target, repetitions_for

K, ETA, A, B, DELTA = 24, 0.125, 3, 8, 1e-4
SEEDS = [101, 102, 103, 104, 105]
CONFIG = SolverConfig(BlockLayout(A, B), repetitions_for(K, ETA, DELTA, A))


def solve(seed: int) -> int:
    """examples_used of one solve of the command at seed."""
    src = new_source(K, ETA, seed=seed)
    res = recover_target(src, CONFIG)
    assert res.c_hat == src.target, f"seed {seed} missed its target"
    return res.examples_used


def bare(seed: int):
    """(wall s, CPU s, minor faults) of one untraced solve."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0, c0 = time.perf_counter(), time.process_time()
    solve(seed)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    after = resource.getrusage(resource.RUSAGE_SELF)
    return wall, cpu, after.ru_minflt - before.ru_minflt


def traced_peak(seed: int) -> int:
    """tracemalloc peak, in bytes, of one solve."""
    tracemalloc.start()
    try:
        solve(seed)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv) -> None:
    seeds = [int(s) for s in argv] or SEEDS
    recover_target(new_source(12, ETA, seed=0),
                   SolverConfig(BlockLayout(2, 6), 5))  # warm-up
    print(f"layout {A}x{B}, {CONFIG.repetitions} votes per bit")
    print("| seed | wall s | CPU s | minor faults | tracemalloc peak MB |")
    print("|------|--------|-------|--------------|---------------------|")
    rows = []
    for seed in seeds:
        wall, cpu, faults = bare(seed)
        rows.append((wall, cpu, faults, traced_peak(seed) / 1e6))
        print(f"| {seed} | {wall:.3f} | {cpu:.3f} | {faults} "
              f"| {rows[-1][3]:.2f} |")
    med = [statistics.median(col) for col in zip(*rows)]
    print(f"| median | {med[0]:.3f} | {med[1]:.3f} | {med[2]:.0f} "
          f"| {med[3]:.2f} |")


if __name__ == "__main__":
    main(sys.argv[1:])
