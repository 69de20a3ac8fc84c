"""The example count of bkw under the balanced profile, against k/lg k.

For k = 8, 12, ..., 48 at eta 0.125 and delta 0.1, prints one markdown
row per k: the layout choose_parameters picks (marked when a*b > k
pads it), the survivor model's predicted_examples, its log2, k/lg k,
and the mean measured examples_used of recover_target over seeds
0..SEEDS-1, with the measured/predicted ratio and the mean seconds per
solve.  A k is measured only
when its prediction, at the examples/s of the last measured k, fits in
MAX_SECONDS per solve.  The last line is the least-squares slope of
log2(predicted) against k/lg k; the paper's 2^O(k/log k) claim says
only that some such slope exists, so nothing is gated on it.

    PYTHONPATH=src python3 scripts/bkw_curve.py
"""

from __future__ import annotations

import math

import numpy as np

from lpn.instance import new_source
from lpn.solvers import choose_parameters, predicted_examples, recover_target

ETA, DELTA, SEEDS, MAX_SECONDS = 0.125, 0.1, 3, 60.0


def main() -> None:
    print("| k | layout | predicted | log2 | k/lg k | measured (mean) | ratio "
          "| s/solve |")
    print("|---|--------|-----------|------|--------|-----------------|-------"
          "|---------|")
    rate = math.inf
    xs, ys = [], []
    for k in range(8, 49, 4):
        config = choose_parameters(k, ETA, DELTA)
        layout = config.layout
        pred = predicted_examples(k, ETA, DELTA, layout)
        shape = f"{layout.a}x{layout.b}" + (" (padded)" if layout.total > k else "")
        measured = ratio = secs = "-"
        if pred / rate <= MAX_SECONDS:
            used, wall, exact = [], 0.0, 0
            for seed in range(SEEDS):
                src = new_source(k, ETA, seed=seed)
                res = recover_target(src, config)
                used.append(res.examples_used)
                wall += res.wall_time_s
                exact += res.c_hat == src.target
            rate = sum(used) / wall
            mean = sum(used) / SEEDS
            measured = f"{mean:,.0f} ({exact}/{SEEDS} exact)"
            ratio = f"{mean / pred:.3f}"
            secs = f"{wall / SEEDS:.2f}"
        xs.append(k / math.log2(k))
        ys.append(math.log2(pred))
        print(f"| {k} | {shape} | {pred:,.0f} | {ys[-1]:.2f} | {xs[-1]:.2f} "
              f"| {measured} | {ratio} | {secs} |")
    slope, _ = np.polyfit(xs, ys, 1)
    print(f"\nleast-squares slope of log2(predicted) on k/lg k: {slope:.2f}")


if __name__ == "__main__":
    main()
