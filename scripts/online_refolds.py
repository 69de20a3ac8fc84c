"""How much refolding the online decoder's captures cost.

A capture stores one row, and the later examples of its batch that
the same matrix captured, and whose first miss was the new slot, are
folded again from that matrix.  For three layouts on a live source
(seed SEED) this prints one markdown row each: the captures (label
requests), the refold calls and the examples they fold again, counted
by wrapping `_Decoder._advance` from outside, and the median wall time
of `run_online` over RUNS unwrapped runs.  The first two layouts are
the online commands of the benchmark's `online-sq` workload; the third
is a wide, capture-heavy one.

    PYTHONPATH=src python3 scripts/online_refolds.py
"""

from __future__ import annotations

import statistics
import time

from lpn import online
from lpn.instance import new_source
from lpn.online import run_online

SEED, RUNS = 3, 3
# (g, w, t, eta, examples)
LAYOUTS = [(4, 4, 9, 0.0, 50_000), (3, 4, 9, 0.125, 1_000_000),
           (31, 2, 40, 0.125, 5_000)]


def count_refolds(g, w, t, eta, count):
    """(captures, refold calls, refolded examples) of one run."""
    calls = [0, 0]
    advance = online._Decoder._advance

    def spy(self, xs, clean, idx, m, cap, res, ones):
        # a batch's first fold starts at its example 0, a refold after
        # the capture it follows
        if not len(idx) or idx[0] > 0:
            calls[0] += 1
            calls[1] += len(idx)
        advance(self, xs, clean, idx, m, cap, res, ones)

    online._Decoder._advance = spy
    try:
        rep = run_online(new_source(g * w, eta, seed=SEED), g, w, t, count)
    finally:
        online._Decoder._advance = advance
    return rep.unknown, calls[0], calls[1]


def main() -> None:
    print("| g | w | t | eta | examples | captures | refold calls "
          "| refolded examples | `run_online` (median) |")
    print("|---|---|---|-----|----------|----------|--------------"
          "|-------------------|-----------------------|")
    for g, w, t, eta, count in LAYOUTS:
        captures, calls, refolded = count_refolds(g, w, t, eta, count)
        times = []
        for _ in range(RUNS):
            src = new_source(g * w, eta, seed=SEED)
            t0 = time.perf_counter()
            run_online(src, g, w, t, count)
            times.append(time.perf_counter() - t0)
        print(f"| {g} | {w} | {t} | {eta} | {count:,} | {captures:,} "
              f"| {calls:,} | {refolded:,} "
              f"| {statistics.median(times) * 1e3:.0f} ms |")


if __name__ == "__main__":
    main()
