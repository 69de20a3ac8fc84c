"""The k-wise to unary reduction against a sampled unary oracle.

For each class and each sample count N, this runs `lpn sq reduce`'s
reduction (labels-agree, eps EPS, TUPLES tuples) over seeds 0-9, its
unary oracle answering from N draws (`SampledNoisy(N, seed)`), and
prints one markdown row: the median wall time of a reduction, the
`tracemalloc` peak of the seed-0 run (taken in a separate, traced run),
how the runs ended (an estimate, a candidate that fired, or the label
marginal's short cut) and the correct runs.  A run is correct when its
estimate lies within `error_bound` of the exact k-wise answer, or when
its hypothesis has a positive exact advantage.  Each seed's target is
drawn from the class as `lpn sq reduce --seed S` draws it.

    PYTHONPATH=src python3 scripts/sq_sampled.py
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from collections import Counter

import numpy as np

from lpn import sq
from lpn.seeding import derive_seed

CLASSES = ["parity:2-of-4", "conjunction:2-of-3", "conjunction:3-of-5"]
SAMPLES = [10**3, 10**4, 10**5, 10**6]
EPS, TUPLES, SEEDS = 0.1, 30, range(10)
QUERY = sq.named_query("labels-agree")


def reduce_once(concepts, dist, samples, seed):
    """(target, outcome) of one reduction."""
    rng = np.random.default_rng(derive_seed(seed, "sq-cli"))
    target = concepts[int(rng.integers(0, len(concepts)))]
    oracle = sq.make_unary_oracle(target, dist,
                                  sq.SampledNoisy(samples, seed))
    out = sq.kwise_to_unary_reduce(QUERY, EPS, oracle,
                                   sq.UnlabeledDraws(dist),
                                   tuples_to_try=TUPLES, seed=seed)
    return target, out


def correct(target, dist, out) -> bool:
    if out.kind == "estimate":
        truth = sq.kwise_answer(QUERY, target, dist)
        return abs(out.estimate - truth) <= out.error_bound
    h = out.hypothesis
    agree = sq.SqQuery(lambda x, l: h.labels(x) == l, EPS)
    return sq.sq_answer(agree, target, dist) > 0.5


def main() -> None:
    print("| class | N | reduction (median) | `tracemalloc` peak "
          "| estimate / fired / marginal | correct runs |")
    print("|-------|---|--------------------|--------------------"
          "|-----------------------------|--------------|")
    for name in CLASSES:
        concepts, dist = sq.concept_class(name)
        for samples in SAMPLES:
            times, ends, right = [], Counter(), 0
            for seed in SEEDS:
                t0 = time.perf_counter()
                target, out = reduce_once(concepts, dist, samples, seed)
                times.append(time.perf_counter() - t0)
                ends[out.kind if out.kind == "estimate"
                     else "fired" if out.fired else "marginal"] += 1
                right += correct(target, dist, out)
            tracemalloc.start()
            try:
                reduce_once(concepts, dist, samples, 0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            print(f"| {name} | {samples:,} "
                  f"| {statistics.median(times) * 1e3:.0f} ms "
                  f"| {peak / 2**20:.1f} MiB "
                  f"| {ends['estimate']} / {ends['fired']} "
                  f"/ {ends['marginal']} "
                  f"| {right}/{len(SEEDS)} |")


if __name__ == "__main__":
    main()
