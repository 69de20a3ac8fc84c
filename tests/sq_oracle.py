"""Reference exact enumeration: one k-tuple of draws at a time.

This is the tuple-by-tuple form of `lpn.sq`'s chunked enumeration.  It
walks the |D|^k tuples with `itertools.product` in lexicographic order
of their point indices, asks an array predicate about one tuple at a
time (as a batch of one), and sums a non-uniform probability in that
order as the left-to-right product of the draws' weights.  The basis
learner's k+1 answers are recomputed with one scalar `eliminate` per
tuple.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

import numpy as np

from lpn.gf2 import back_substitute, eliminate
from lpn.sq import Concept, FiniteDistribution, KWiseQuery


def _enumerate(dist: FiniteDistribution, k: int, hit: Callable,
               *columns) -> float:
    """Pr[hit] over k draws; hit gets one k-tuple of entries per column."""
    n = len(dist.points)
    # product() over each column in lockstep yields the same index tuples
    args = zip(*(itertools.product(col, repeat=k) for col in columns))
    if dist.is_uniform:
        return sum(1 for a in args if hit(*a)) / n**k
    p = 0.0
    for a, ws in zip(args, itertools.product(dist.weights, repeat=k)):
        if hit(*a):
            p += math.prod(ws)
    return p


def _one_tuple(pred: Callable) -> Callable:
    return lambda *a: bool(pred(*(np.array([t]) for t in a))[0])


def kwise_answer(query: KWiseQuery, concept: Concept,
                 dist: FiniteDistribution) -> float:
    """The exact k-wise answer."""
    labels = concept.labels(dist.points_array).tolist()
    return _enumerate(dist, query.k, _one_tuple(query.predicate),
                      dist.points, labels)


def kwise_prob(dist: FiniteDistribution, pred: Callable, k: int) -> float:
    """UnlabeledDraws.kwise_prob: pred sees the points only."""
    return _enumerate(dist, k, _one_tuple(pred), dist.points)


def basis_answers(k: int, concept: Concept,
                  dist: FiniteDistribution) -> List[float]:
    """Pr[basis], then Pr[basis and the pinned parity has bit i] per i."""
    colmask = (1 << k) - 1

    @lru_cache(maxsize=None)
    def pinned(xs: Tuple[int, ...], ls: Tuple[int, ...]) -> Optional[int]:
        """The parity the draws pin down, or None if they are no basis."""
        pivots, _ = eliminate([x | l << k for x, l in zip(xs, ls)], colmask)
        return back_substitute(pivots, k) if len(pivots) == k else None

    labels = concept.labels(dist.points_array).tolist()
    answers = [_enumerate(dist, k, lambda xs, ls: pinned(xs, ls) is not None,
                          dist.points, labels)]
    for i in range(k):
        answers.append(_enumerate(
            dist, k,
            lambda xs, ls: (c := pinned(xs, ls)) is not None and (c >> i) & 1,
            dist.points, labels,
        ))
    return answers
