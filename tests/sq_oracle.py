"""Reference exact enumeration: one k-tuple of draws at a time.

This is the tuple-by-tuple form of `lpn.sq`'s chunked enumeration.  It
walks the |D|^k tuples with `itertools.product` in lexicographic order
of their point indices, asks an array predicate about one tuple at a
time (as a batch of one), and sums a non-uniform probability in that
order as the left-to-right product of the draws' weights.  The basis
learner's k+1 answers are recomputed with one scalar elimination per
tuple (`gf2_oracle.eliminate` and `back_substitute` on Python ints).

`kwise_to_unary_reduce` is the reduction one candidate at a time: one
`rng.choice` per tuple (`sample_tuple`), and a `Concept` built and
labelled for each of a candidate's two unary queries.  The oracle it is
given should answer each query afresh (`sq_answer` with the concept
itself).  `weak_advantage` scores a hypothesis against the concept
directly, without a query.

`sampled_sq_answer` and `sampled_kwise_answer` answer in `SampledNoisy`
mode per draw: one `rng.choice` of all N tuples on the oracle's lane,
the predicate run on every drawn row, and its hits counted over N.

`greedy_witness` is `sq_dimension`'s greedy scan pair by pair: each
candidate re-checks every pair of the chosen set with it against 1/d^3.
`exhaustive_witness` is its exhaustive search in one pass over every
mask in increasing numeric order, keeping each passing mask larger than
the last one kept.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from gf2_oracle import back_substitute, eliminate
from lpn.seeding import derive_seed
from lpn.sq import (
    Concept,
    FiniteDistribution,
    KWiseQuery,
    ReductionOutcome,
    SampledNoisy,
    SqQuery,
    UnlabeledDraws,
)


def weak_advantage(h: Concept, c: Concept, dist: FiniteDistribution) -> float:
    """Pr[h(x) = c(x)] - 1/2 under the distribution."""
    pts = dist.points
    agree = (h.labels(pts) == c.labels(pts)).astype(np.float64)
    return float(agree @ dist.weights) - 0.5


def greedy_witness(corr: np.ndarray, slack: float = 1e-12) -> List[int]:
    """Indices the greedy scan keeps, in order, given |correlations|."""
    chosen: List[int] = []
    for i in range(len(corr)):
        trial = chosen + [i]
        thr = 1.0 / len(trial) ** 3 + slack
        if all(corr[a, b] <= thr
               for x, a in enumerate(trial) for b in trial[x + 1:]):
            chosen = trial
    return chosen


def exhaustive_witness(corr: np.ndarray, slack: float = 1e-12) -> List[int]:
    """Indices of the subset the exhaustive search keeps, given
    |correlations|: the first passing mask of each new size wins."""
    n = len(corr)
    chosen = [0]
    for mask in range(1, 1 << n):
        if mask.bit_count() <= len(chosen):
            continue
        idx = [i for i in range(n) if (mask >> i) & 1]
        thr = 1.0 / len(idx) ** 3 + slack
        if all(corr[i, j] <= thr
               for a, i in enumerate(idx) for j in idx[a + 1:]):
            chosen = idx
    return chosen


def _enumerate(dist: FiniteDistribution, k: int, hit: Callable,
               *columns) -> float:
    """Pr[hit] over k draws; hit gets one k-tuple of entries per column,
    which are lists of Python scalars indexed like dist.points."""
    n = len(dist.points)
    # product() over each column in lockstep yields the same index tuples
    args = zip(*(itertools.product(col, repeat=k) for col in columns))
    if dist.is_uniform:
        return sum(1 for a in args if hit(*a)) / n**k
    p = 0.0
    for a, ws in zip(args, itertools.product(dist.weights.tolist(), repeat=k)):
        if hit(*a):
            p += math.prod(ws)
    return p


def _one_tuple(pred: Callable) -> Callable:
    return lambda *a: bool(pred(*(np.array([t]) for t in a))[0])


def kwise_answer(query: KWiseQuery, concept: Concept,
                 dist: FiniteDistribution) -> float:
    """The exact k-wise answer."""
    labels = concept.labels(dist.points).tolist()
    return _enumerate(dist, query.k, _one_tuple(query.predicate),
                      dist.points.tolist(), labels)


def _sampled(k: int, pred: Callable, concept: Concept,
             dist: FiniteDistribution, mode: SampledNoisy, lane: str
             ) -> Union[float, np.ndarray]:
    """The frequency of pred over mode.samples drawn k-tuples, counted
    row by row: a float for a (T,) predicate, (q,) for (T, q)."""
    pts = dist.points
    labels = concept.labels(pts)
    rng = np.random.default_rng(derive_seed(mode.seed, lane))
    idx = rng.choice(len(pts), size=(mode.samples, k), p=dist.weights)
    hits = np.asarray(pred(pts[idx], labels[idx]), dtype=bool)
    p = hits.sum(axis=0) / mode.samples
    return float(p) if np.ndim(p) == 0 else p


def sampled_sq_answer(query: SqQuery, concept: Concept,
                      dist: FiniteDistribution, mode: SampledNoisy
                      ) -> Union[float, np.ndarray]:
    return _sampled(1, lambda xs, ls: query.predicate(xs[:, 0], ls[:, 0]),
                    concept, dist, mode, "sq-sample")


def sampled_kwise_answer(query: KWiseQuery, concept: Concept,
                         dist: FiniteDistribution, mode: SampledNoisy
                         ) -> Union[float, np.ndarray]:
    return _sampled(query.k, query.predicate, concept, dist, mode,
                    "sq-sample-k")


def kwise_prob(dist: FiniteDistribution, pred: Callable, k: int) -> float:
    """UnlabeledDraws.kwise_prob: pred sees the points only."""
    return _enumerate(dist, k, _one_tuple(pred), dist.points.tolist())


def basis_answers(k: int, concept: Concept,
                  dist: FiniteDistribution) -> List[float]:
    """Pr[basis], then Pr[basis and the pinned parity has bit i] per i."""
    colmask = (1 << k) - 1

    @lru_cache(maxsize=None)
    def pinned(xs: Tuple[int, ...], ls: Tuple[int, ...]) -> Optional[int]:
        """The parity the draws pin down, or None if they are no basis."""
        pivots, _ = eliminate([x | l << k for x, l in zip(xs, ls)], colmask)
        return back_substitute(pivots, k) if len(pivots) == k else None

    points = dist.points.tolist()
    labels = concept.labels(dist.points).tolist()
    answers = [_enumerate(dist, k, lambda xs, ls: pinned(xs, ls) is not None,
                          points, labels)]
    for i in range(k):
        answers.append(_enumerate(
            dist, k,
            lambda xs, ls: (c := pinned(xs, ls)) is not None and (c >> i) & 1,
            points, labels,
        ))
    return answers


def sample_tuple(unlabeled: UnlabeledDraws, k: int,
                 rng: np.random.Generator) -> Tuple[int, ...]:
    """One tuple of k independent draws, from one rng.choice call."""
    dist = unlabeled.dist
    idx = rng.choice(len(dist.points), size=k, p=dist.weights)
    return tuple(int(dist.points[i]) for i in idx)


def _substituted(query: KWiseQuery, z: Tuple[int, ...], i: int,
                 lvec: Tuple[int, ...], n: int) -> Concept:
    """The candidate hypothesis h(x) = Q(z with x at position i, lvec)."""
    z_row = np.array(z, dtype=np.int64)
    free = np.arange(len(z)) == i - 1
    l_row = np.array(lvec, dtype=np.uint8)

    def labels(pts: np.ndarray) -> np.ndarray:
        xs = np.where(free, pts[:, None], z_row)
        ls = np.empty(xs.shape, dtype=np.uint8)
        ls[:] = l_row
        return np.asarray(query.predicate(xs, ls), dtype=np.uint8)

    return Concept(f"h[pos={i},labels={''.join(map(str, lvec))}]", n, labels)


def _complement(h: Concept) -> Concept:
    return Concept(f"not({h.name})", h.n, lambda pts: 1 - h.labels(pts))


def kwise_to_unary_reduce(
    query: KWiseQuery,
    eps: float,
    unary_oracle: Callable[[SqQuery], float],
    unlabeled: UnlabeledDraws,
    tuples_to_try: Optional[int] = None,
    seed: int = 0,
) -> ReductionOutcome:
    """Answer a k-wise query with unary queries plus unlabeled draws.

    Tries random tuples z, substituting a free variable at each
    position under each label pattern; whenever the unary oracle shows
    Pr[h and c=1] deviating from Pr[h]/2 by eps, that h (or its
    complement) correlates with the concept and is returned as a weak
    hypothesis.  If no candidate ever fires, the labels looked
    independent of the examples everywhere it matters, and the k-wise
    answer is estimated from unlabeled data alone by averaging over
    label patterns; the estimate is then good to 4*eps*(2^k - 1)/2^k.

    A biased label marginal short-circuits to a constant hypothesis.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    if tuples_to_try is not None and tuples_to_try < 1:
        raise ValueError("tuples_to_try must be at least 1")
    k = query.k
    n = unlabeled.dist.n
    tau = eps / 2

    p_one = unary_oracle(SqQuery(lambda x, l: l == 1, tau, "label-marginal"))
    if abs(p_one - 0.5) >= eps:
        bit = 1 if p_one > 0.5 else 0
        h = Concept(f"const:{bit}", n,
                    lambda pts: np.full(len(pts), bit, dtype=np.uint8))
        adv = unary_oracle(
            SqQuery(lambda x, l: h.labels(x) == l, tau, "const-agreement")
        ) - 0.5
        return ReductionOutcome(
            "weak_hypothesis", 0, hypothesis=h, advantage=adv
        )

    if tuples_to_try is None:
        tuples_to_try = math.ceil(4.0 / eps * math.log(1.0 / 0.05))
    rng = np.random.default_rng(derive_seed(seed, "kwise-reduce"))
    patterns = list(itertools.product((0, 1), repeat=k))
    for t in range(tuples_to_try):
        z = sample_tuple(unlabeled, k, rng)
        for i in range(1, k + 1):
            for lvec in patterns:
                h = _substituted(query, z, i, lvec, n)
                a = unary_oracle(
                    SqQuery(lambda x, l, h=h: (h.labels(x) == 1) & (l == 1),
                            tau, "h-and-1")
                )
                b = unary_oracle(
                    SqQuery(lambda x, l, h=h: h.labels(x) == 1, tau, "h-mass")
                )
                if abs(a - b / 2) >= eps:
                    hyp = h if a - b / 2 > 0 else _complement(h)
                    adv = unary_oracle(
                        SqQuery(lambda x, l: hyp.labels(x) == l, tau,
                                "h-agreement")
                    ) - 0.5
                    return ReductionOutcome(
                        "weak_hypothesis", t + 1, hypothesis=hyp,
                        advantage=adv, fired=(t, i, lvec),
                    )
    estimate = 0.0
    for lvec in patterns:
        l_row = np.array(lvec, dtype=np.uint8)
        estimate += unlabeled.kwise_prob(
            lambda xs: query.predicate(xs, np.broadcast_to(l_row, xs.shape)), k
        )
    estimate /= 2**k
    bound = 4.0 * eps * (2**k - 1) / 2**k
    return ReductionOutcome(
        "estimate", tuples_to_try, estimate=estimate, error_bound=bound
    )
