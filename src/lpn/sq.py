"""Statistical query oracles, dimension, and query-width reduction.

A statistical query asks for Pr[q(x, c(x))] over a distribution on
examples, answered only to within a tolerance; a k-wise query asks the
same about k-tuples of independent draws.  This module provides exact,
adversarial, and sampling oracle modes, the pairwise-correlation
dimension of a concept class, a reduction that answers k-wise queries
using unary ones (plus unlabeled data), and a parity learner that asks
one k-wise query per coordinate.

Everything is an array: a distribution holds int64 packed n-bit points
and float64 weights, a concept maps (m,) points to (m,) 0/1 labels, a
unary predicate maps the point and label columns to (m,) bools, or to
(m, q) bools for q events, and a k-wise predicate maps (T, k) point and
label arrays, one row per tuple of draws, to (T,) bools, or to (T, q)
bools for q events.  Exact k-wise answers enumerate the tuples in
chunks, so every query costs a few numpy calls per chunk.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from .gf2 import BitVec, eliminate
from .seeding import derive_seed

__all__ = [
    "Concept",
    "FiniteDistribution",
    "SqQuery",
    "KWiseQuery",
    "Exact",
    "AdversarialWorst",
    "SampledNoisy",
    "sq_answer",
    "kwise_answer",
    "make_unary_oracle",
    "SqDimReport",
    "sq_dimension",
    "UnlabeledDraws",
    "ReductionOutcome",
    "kwise_to_unary_reduce",
    "basis_query_learner",
    "parity_concept",
    "conjunction_concept",
    "concept_class",
    "named_query",
    "QUERY_REGISTRY",
]

KWISE_ENUM_CAP = 1 << 20
# tuples, or points for sq dim's correlations, per chunk of an exact
# enumeration
ENUM_CHUNK = 1 << 16
# tuples drawn per rng.choice call by UnlabeledDraws.sample_tuples
_DRAW_CHUNK = 1 << 10
# The widest input a uniform distribution may span: its 2^n points and
# weights take 16 MB at n = 20, so wider classes are refused before
# anything is allocated.
MAX_CLASS_WIDTH = 20
# The largest class sq_dimension takes: its correlation matrix is
# 128 MB at 2^12 concepts, and parity:j-of-j costs 8x per added bit.
MAX_DIM_CONCEPTS = 1 << 12
_EXACT_BELOW = 17  # sq_dimension searches smaller classes exhaustively


@dataclass(frozen=True)
class Concept:
    """A boolean function on n-bit inputs.

    labels maps an (m,) int64 array of packed inputs to their (m,) 0/1
    labels.
    """

    name: str
    n: int
    labels: Callable[[np.ndarray], np.ndarray]


def parity_concept(mask: int, n: int) -> Concept:
    """Parity of the coordinates selected by mask (mask 0 = constant 0)."""
    if mask >> n:
        raise ValueError("mask does not fit in n bits")
    name = "parity:" + BitVec(n, mask).to01()
    return Concept(
        name, n, lambda pts: np.bitwise_count(pts & mask) & 1
    )


def conjunction_concept(mask: int, n: int) -> Concept:
    """AND of the coordinates selected by mask (mask 0 = constant 1)."""
    if mask >> n:
        raise ValueError("mask does not fit in n bits")
    name = "conj:" + BitVec(n, mask).to01()
    return Concept(name, n, lambda pts: ((pts & mask) == mask).astype(np.uint8))


@dataclass(frozen=True, eq=False)
class FiniteDistribution:
    """A distribution over n-bit points: a read-only (N,) int64 array of
    distinct packed points and one of their float64 weights, both copied
    in.  is_uniform says whether every weight is equal.  Arrays do not
    compare with ==, so neither do distributions."""

    n: int
    points: np.ndarray
    weights: np.ndarray
    is_uniform: bool = field(init=False)

    def __post_init__(self):
        if not 0 <= self.n <= 63:
            raise ValueError(f"width n={self.n} is outside 0..63")
        points = np.asarray(self.points)
        weights = np.array(self.weights, dtype=np.float64)
        if points.ndim != 1 or points.shape != weights.shape or not len(points):
            raise ValueError("points and weights must be nonempty, equal length")
        if points.dtype.kind not in "iu":  # a cast would truncate 1.5 to 1
            raise ValueError("points must be integers that fit in n bits")
        if points.min() < 0 or int(points.max()) >> self.n:
            raise ValueError("points must fit in n bits")
        ordered = np.sort(points)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("points must be distinct")
        if not (weights >= 0.0).all():  # NaN fails too
            raise ValueError("weights must be nonnegative")
        if not abs(weights.sum() - 1.0) <= 1e-9:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "points", _frozen(points.astype(np.int64)))
        object.__setattr__(self, "weights", _frozen(weights))
        object.__setattr__(self, "is_uniform",
                           bool((weights == weights[0]).all()))

    @classmethod
    def uniform_over(cls, n: int) -> "FiniteDistribution":
        if not 0 <= n <= MAX_CLASS_WIDTH:
            raise ValueError(
                f"width n={n} is outside 0..MAX_CLASS_WIDTH={MAX_CLASS_WIDTH}:"
                " the uniform distribution lists all 2^n points"
            )
        size = 1 << n
        return cls(n, np.arange(size), np.full(size, 1.0 / size))

    @classmethod
    def from_pairs(cls, n: int, pairs: Sequence[Tuple[int, float]]
                   ) -> "FiniteDistribution":
        return cls(n, [p for p, _ in pairs], [w for _, w in pairs])


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _check_tau(tau: float) -> None:
    if not 0.0 < tau <= 1.0:
        raise ValueError("tolerance must lie in (0, 1]")


@dataclass(frozen=True)
class SqQuery:
    """Unary query: asks Pr[predicate(x, c(x))] within tolerance tau.

    predicate maps the (m,) point and label columns to (m,) bools for
    one event, or to (m, q) bools for q events asked at once.
    """

    predicate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    tau: float
    name: str = ""

    def __post_init__(self):
        _check_tau(self.tau)


@dataclass(frozen=True)
class KWiseQuery:
    """k-wise query over k independent draws and their labels.

    predicate maps (T, k) point and label arrays, row t holding the
    draws of tuple t in order, to (T,) bools for one event, or to (T, q)
    bools for q events asked at once.
    """

    k: int
    predicate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    tau: float
    name: str = ""

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        _check_tau(self.tau)


class Exact:
    """Answers are the true probabilities."""


@dataclass(frozen=True)
class AdversarialWorst:
    """Stress mode: the admissible answer farthest from 1/2, i.e. the
    truth pushed outward by the full tolerance (ties at 1/2 go up)."""


@dataclass(frozen=True)
class SampledNoisy:
    """Answers are empirical frequencies over `samples` fresh draws."""

    samples: int
    seed: int = 0


OracleMode = Union[Exact, AdversarialWorst, SampledNoisy]


def _draw(dist: FiniteDistribution, k: int, mode: SampledNoisy, lane: str
          ) -> Tuple[np.ndarray, np.ndarray]:
    """mode.samples tuples of k point indices from one rng.choice on the
    seed lane, grouped: the distinct rows in lexicographic order and how
    often each was drawn."""
    if mode.samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(derive_seed(mode.seed, lane))
    drawn = rng.choice(len(dist.points), size=(mode.samples, k),
                       p=dist.weights)
    rows = drawn[np.lexsort(drawn.T[::-1])]
    # sorted, a new tuple starts wherever a row differs from the last
    starts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]).any(1)])
    return rows[starts], np.diff(starts, append=len(rows))


def _answer(k: int, pred: Callable, tau: float, concept: Concept,
            dist: FiniteDistribution, mode: OracleMode, lane: str,
            drawn: Optional[Tuple[np.ndarray, np.ndarray]] = None
            ) -> Union[float, np.ndarray]:
    """Pr[pred] over k labelled draws: enumerated (adversarial: pushed out
    by tau), or the frequency over mode.samples tuples of one rng.choice
    on the seed lane, or over drawn, those tuples grouped by _draw once
    for many answers; a float for a (T,) predicate, (q,) for (T, q)."""
    pts = dist.points
    labels = concept.labels(pts)
    if isinstance(mode, SampledNoisy):
        if drawn is None:
            drawn = _draw(dist, k, mode, lane)
        p = _exact_probs(dist, k, pred, pts, labels, drawn=drawn)
    elif isinstance(mode, (Exact, AdversarialWorst)):
        p = _exact_probs(dist, k, pred, pts, labels)
        if isinstance(mode, AdversarialWorst):
            p = np.clip(np.where(p >= 0.5, p + tau, p - tau), 0.0, 1.0)
    else:
        raise TypeError(f"unsupported oracle mode {mode!r}")
    return float(p) if np.ndim(p) == 0 else p


def sq_answer(
    query: SqQuery,
    concept: Concept,
    dist: FiniteDistribution,
    mode: OracleMode = Exact(),
) -> Union[float, np.ndarray]:
    """Answer a unary query as the 1-wise query on the same predicate: a
    float for an (m,) predicate, or a (q,) array for an (m, q) one,
    entry e bit for bit the answer to event e alone."""
    return _answer(1, _unary(query), query.tau, concept, dist, mode,
                   "sq-sample")


def _unary(query: SqQuery) -> Callable:
    """query's predicate as a 1-wise one on (T, 1) columns."""
    return lambda xs, ls: query.predicate(xs[:, 0], ls[:, 0])


def _exact_probs(dist: FiniteDistribution, k: int, pred: Callable,
                 *columns: np.ndarray,
                 drawn: Optional[Tuple[np.ndarray, np.ndarray]] = None
                 ) -> np.ndarray:
    """Pr[event] over k independent draws from dist: by enumeration, or
    as the frequency over N drawn k-tuples of point indices, given as
    drawn = (distinct rows in lexicographic order, their draw counts).

    Each column is an array indexed like dist.points.  pred gets, for a
    chunk of T tuples of draws, one (T, k) array per column, and returns
    (T,) bools for one event or (T, q) bools for q events at once; the
    result is a 0-d or (q,) float64 array, one probability per event.
    Tuples are visited in lexicographic order of their point indices,
    ENUM_CHUNK at a time: every tuple, or each distinct drawn one once,
    its hits counted as often as it was drawn, over N.  A uniform
    probability is a count over n^k.  A non-uniform one sums each
    tuple's weight, the product of its draws' weights taken left to
    right, in tuple order, so neither chunking nor the number of events
    changes a single bit.  KWISE_ENUM_CAP bounds k >= 2 only: at k = 1
    the tuples are the distribution's own points.
    """
    n = len(dist.points)
    if drawn is None:
        total = visit = n**k
        if k > 1 and total > KWISE_ENUM_CAP:
            raise ValueError(
                f"{n}^{k} tuples exceed the enumeration cap of {KWISE_ENUM_CAP}"
            )
        place = n ** np.arange(k - 1, -1, -1, dtype=np.int64)
    else:
        rows, counts = drawn
        total, visit = int(counts.sum()), len(rows)
    sums = 0
    for start in range(0, visit, ENUM_CHUNK):
        part = slice(start, min(start + ENUM_CHUNK, visit))
        idx = (rows[part] if drawn is not None else
               np.arange(part.start, part.stop)[:, None] // place % n)
        hits = np.asarray(pred(*(col[idx] for col in columns)), dtype=bool)
        shape = hits.shape[1:]
        hits = hits.reshape(len(idx), -1)
        if drawn is not None or dist.is_uniform:
            sums = sums + (hits.sum(axis=0) if drawn is None
                           else counts[part] @ hits)
            continue
        w = dist.weights[idx[:, 0]]
        for j in range(1, k):
            w = w * dist.weights[idx[:, j]]
        # cumsum adds down each column in order, carrying the sum so far
        # into each chunk; a miss adds +0.0, which changes no sum
        terms = np.where(hits, w[:, None], 0.0)
        carried = np.broadcast_to(sums, (1, terms.shape[1]))
        sums = np.cumsum(np.vstack([carried, terms]), axis=0)[-1]
    probs = sums if drawn is None and not dist.is_uniform else sums / total
    return probs.reshape(shape)


def kwise_answer(
    query: KWiseQuery,
    concept: Concept,
    dist: FiniteDistribution,
    mode: OracleMode = Exact(),
) -> Union[float, np.ndarray]:
    """Answer a k-wise query; exact answers enumerate all |D|^k tuples.

    The answer is a float for a (T,) predicate, or a (q,) array for a
    (T, q) one, entry e bit for bit the answer to event e alone.
    """
    return _answer(query.k, query.predicate, query.tau, concept, dist, mode,
                   "sq-sample-k")


def make_unary_oracle(
    concept: Concept, dist: FiniteDistribution, mode: OracleMode = Exact()
) -> Callable[[SqQuery], Union[float, np.ndarray]]:
    """sq_answer about concept under dist; the concept's labels on the
    distribution's points are computed once, not once per query, and a
    SampledNoisy oracle draws and groups its samples once, the same
    draws every sq_answer in that mode makes."""
    pts = dist.points
    known = _frozen(np.array(concept.labels(pts)))
    cached = Concept(concept.name, concept.n,
                     lambda x: known if x is pts else concept.labels(x))
    drawn = (_draw(dist, 1, mode, "sq-sample")
             if isinstance(mode, SampledNoisy) else None)
    return lambda query: _answer(1, _unary(query), query.tau, cached, dist,
                                 mode, "sq-sample", drawn)


# ---------------------------------------------------------------------------
# dimension


@dataclass
class SqDimReport:
    d: int
    witness: List[str]
    max_abs_correlation: float
    exact: bool


def _corr_matrix(
    concepts: Sequence[Concept], dist: FiniteDistribution
) -> np.ndarray:
    """E[(-1)^(f(x) + g(x))] over dist for every pair of concepts, summed
    over slices of at most ENUM_CHUNK points and 2^22 concept-point
    entries, so memory grows with neither 2^n nor the class.  Each
    slice's product is added into the matrix a block of rows at a time,
    through one reused buffer and a weighted copy of the block's signs
    of at most 2^20 entries each, so no second matrix is made."""
    n = len(concepts)
    corr = np.zeros((n, n))
    step = min(ENUM_CHUNK, (1 << 22) // n)
    rows = max(1, (1 << 20) // max(n, step))
    buf = np.empty((min(rows, n), n))
    for start in range(0, len(dist.points), step):
        part = slice(start, start + step)
        labels = np.stack([c.labels(dist.points[part]) for c in concepts])
        signs = np.where(labels, -1.0, 1.0)
        for r in range(0, n, rows):
            out = buf[:min(rows, n - r)]
            np.matmul(signs[r:r + rows] * dist.weights[part], signs.T, out=out)
            corr[r:r + rows] += out
    return corr


def _check_dim_size(count: int) -> None:
    if count > MAX_DIM_CONCEPTS:
        raise ValueError(f"{count} concepts exceed sq_dimension's "
                         f"limit of MAX_DIM_CONCEPTS={MAX_DIM_CONCEPTS}")


def _largest_subset(corr: np.ndarray, slack: float) -> List[int]:
    """The subset an exhaustive search keeps: for each size from
    len(corr) down, the smallest passing mask (bit i for concept i),
    found by trying its top concept from low to high over the lower
    concepts that pass with it, pruned once too few of them are left."""

    def smallest(cands: List[int], size: int) -> Optional[List[int]]:
        if size == 0:
            return []
        for a in range(size - 1, len(cands)):
            below = [j for j in cands[:a] if ok[j][cands[a]]]
            if len(below) >= size - 1:
                rest = smallest(below, size - 1)
                if rest is not None:
                    return rest + [cands[a]]
        return None

    for size in range(len(corr), 1, -1):
        ok = (corr <= 1.0 / size**3 + slack).tolist()
        found = smallest(list(range(len(corr))), size)
        if found is not None:
            return found
    return [0]  # one concept has no pairs


def sq_dimension(
    concepts: Sequence[Concept],
    dist: FiniteDistribution,
) -> SqDimReport:
    """Largest subset whose pairwise correlations all stay within 1/d^3.

    Classes of at most _EXACT_BELOW - 1 concepts are searched
    exhaustively, from the largest size down; larger ones by a greedy
    scan in the given order that keeps the chosen set's largest
    |correlation|, then a verification pass over the witness.  More
    than MAX_DIM_CONCEPTS are refused.
    """
    if not concepts:
        raise ValueError("need at least one concept")
    _check_dim_size(len(concepts))
    corr = _corr_matrix(concepts, dist)
    np.abs(corr, out=corr)
    n = len(concepts)
    slack = 1e-12
    exact = n < _EXACT_BELOW
    if exact:
        chosen = _largest_subset(corr, slack)
    else:
        chosen = []
        worst = 0.0
        for i in range(n):
            # the pairs (j, i) for j already chosen, read as corr[j, i]
            trial = max(worst, corr[chosen, i].max(initial=0.0))
            if trial <= 1.0 / (len(chosen) + 1)**3 + slack:
                chosen.append(i)
                worst = trial
    # row by row, so no copy of the witness's block of corr is made
    idx = np.array(chosen)
    max_corr = max((corr[i, idx[a + 1:]].max(initial=0.0)
                    for a, i in enumerate(idx)), default=0.0)
    assert max_corr <= 1.0 / len(chosen)**3 + slack
    return SqDimReport(
        d=len(chosen),
        witness=[concepts[i].name for i in chosen],
        max_abs_correlation=float(max_corr),
        exact=exact,
    )


# ---------------------------------------------------------------------------
# k-wise to unary reduction


class UnlabeledDraws:
    """Label-free access to the example distribution.

    kwise_prob answers Pr[pred(x_1..x_k)] for independent draws exactly,
    by enumerating every k-tuple; pred maps a (T, k) array of points to
    (T,) bools, or to (T, q) bools for q events and a (q,) answer.
    """

    def __init__(self, dist: FiniteDistribution):
        self.dist = dist

    def sample_tuples(self, count: int, k: int, rng: np.random.Generator
                      ) -> Iterator[np.ndarray]:
        """count tuples of k independent draws, each a (k,) int64 array
        of points.  They are drawn _DRAW_CHUNK tuples per rng.choice
        call; a call for (T, k) indices takes the same doubles as T calls
        for k, so chunking does not change a draw."""
        for start in range(0, count, _DRAW_CHUNK):
            idx = rng.choice(len(self.dist.points),
                             size=(min(_DRAW_CHUNK, count - start), k),
                             p=self.dist.weights)
            yield from self.dist.points[idx]

    def kwise_prob(
        self, pred: Callable[[np.ndarray], np.ndarray], k: int
    ) -> Union[float, np.ndarray]:
        p = _exact_probs(self.dist, k, pred, self.dist.points)
        return float(p) if np.ndim(p) == 0 else p


@dataclass
class ReductionOutcome:
    """Either a weak hypothesis or an estimate of the k-wise answer.

    kind "weak_hypothesis": hypothesis agrees with the concept with
    probability at least 1/2 + advantage.  kind "estimate": estimate is
    within error_bound of the true k-wise probability, with
    error_bound = 4*eps*(2^k - 1)/2^k.
    """

    kind: str
    tuples_tried: int
    hypothesis: Optional[Concept] = None
    advantage: Optional[float] = None
    estimate: Optional[float] = None
    error_bound: Optional[float] = None
    fired: Optional[Tuple[int, int, Tuple[int, ...]]] = None


def _substitute(query: KWiseQuery, z: np.ndarray, free: np.ndarray,
                lvecs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Labels of candidates h(x) = Q(z with x at its free position, lvec)
    on the points pts, one row per candidate, from one predicate call.

    free is a (C, k) bool array with one True per row, lvecs the (C, k)
    uint8 label patterns; the result is (C, len(pts)) uint8.
    """
    c, k, m = len(free), len(z), len(pts)
    xs = np.where(free[:, None, :], pts[None, :, None], z)
    ls = np.repeat(lvecs, m, axis=0)
    out = query.predicate(xs.reshape(c * m, k), ls)
    return np.asarray(out, dtype=np.uint8).reshape(c, m)


def _hypothesis(query: KWiseQuery, z: np.ndarray, free: np.ndarray,
                lvec: np.ndarray, n: int, negate: bool) -> Concept:
    """The candidate h(x) = Q(z with x at its free position, lvec) of
    the (1, k) free and lvec rows, or its complement not(h)."""
    name = (f"h[pos={int(np.argmax(free)) + 1},"
            f"labels={''.join(map(str, lvec[0]))}]")
    return Concept(
        f"not({name})" if negate else name, n,
        lambda pts: _substitute(query, z, free, lvec, pts)[0] ^ int(negate),
    )


def kwise_to_unary_reduce(
    query: KWiseQuery,
    eps: float,
    unary_oracle: Callable[[SqQuery], Union[float, np.ndarray]],
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
    tuples_to_try defaults to ceil(4/eps * ln(1/0.05)).

    The tuples come from one rng.choice draw (per 1024 tuples), which
    takes the same doubles as one draw per tuple.  For each tuple, one
    unary query asks both events, h-and-1 and h-mass, of all k*2^k
    candidates (one query per chunk once the labels would pass
    ENUM_CHUNK entries), labelling the oracle's points under every
    candidate with one predicate call.  The first candidate in order
    that fires wins, and only it is built as a Concept.
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
    # candidate c is (position i, pattern lvec), in the order they are tried
    cands = [(i, lvec) for i in range(1, k + 1) for lvec in patterns]
    free = np.repeat(np.eye(k, dtype=bool), len(patterns), axis=0)
    lvecs = np.array(patterns * k, dtype=np.uint8).reshape(len(cands), k)
    per_call = max(1, ENUM_CHUNK // len(unlabeled.dist.points))
    for t, z in enumerate(unlabeled.sample_tuples(tuples_to_try, k, rng)):
        for c0 in range(0, len(cands), per_call):
            part = slice(c0, c0 + per_call)

            def events(x, l):
                h = _substitute(query, z, free[part], lvecs[part], x).T == 1
                return np.hstack([h & (l == 1)[:, None], h])

            ab = unary_oracle(SqQuery(events, tau, "h-and-1,h-mass"))
            gap = ab[:len(ab) // 2] - ab[len(ab) // 2:] / 2
            fires = np.flatnonzero(np.abs(gap) >= eps)
            if len(fires):
                c = c0 + fires[0]
                hyp = _hypothesis(query, z, free[c:c + 1], lvecs[c:c + 1],
                                  n, negate=gap[fires[0]] < 0)
                adv = unary_oracle(
                    SqQuery(lambda x, l: hyp.labels(x) == l, tau,
                            "h-agreement")
                ) - 0.5
                i, lvec = cands[c]
                return ReductionOutcome(
                    "weak_hypothesis", t + 1, hypothesis=hyp,
                    advantage=adv, fired=(t, i, lvec),
                )
    # the 2^k label patterns as the events of one enumeration, added up
    # in pattern order (cumsum adds left to right)
    probs = unlabeled.kwise_prob(lambda xs: np.column_stack([
        query.predicate(xs, np.broadcast_to(l_row, xs.shape))
        for l_row in lvecs[:len(patterns)]]), k)
    estimate = float(np.cumsum(probs)[-1]) / 2**k
    bound = 4.0 * eps * (2**k - 1) / 2**k
    return ReductionOutcome(
        "estimate", tuples_to_try, estimate=estimate, error_bound=bound
    )


# ---------------------------------------------------------------------------
# parity learning from basis queries


def _basis_query(k: int) -> KWiseQuery:
    """The learner's k+1 k-wise events, asked as one query.

    Event 0 is "the k draws form a basis"; event i is "they form a basis
    and the parity they pin down has bit i set".  The tolerance is
    nominal: the learner asks the exact oracle.
    """

    def events(xs: np.ndarray, ls: np.ndarray) -> np.ndarray:
        # one elimination per tuple serves all k+1 events; on a basis,
        # row i is coordinate i alone, its value in the label bit k
        rows = xs | ls.astype(np.int64) << k
        reduced, rank = eliminate(rows.view(np.uint64)[:, :, None], k)
        basis = rank == k
        bits = ((reduced[:, :, 0] >> np.uint64(k)) & np.uint64(1)).astype(bool)
        return np.column_stack([basis, bits & basis[:, None]])

    return KWiseQuery(k, events, 0.01, "basis")


def basis_query_learner(
    k: int,
    concept: Concept,
    dist: Optional[FiniteDistribution] = None,
) -> BitVec:
    """Learn a parity exactly with k+1 exact k-wise queries.

    One query measures the probability that k draws form a basis; then,
    for each coordinate i, one query asks for Pr[draws form a basis and
    the parity they pin down has bit i set].  Under any distribution
    with a positive basis probability the per-coordinate answers are
    either 0 or the full basis mass, so each bit is read off by
    comparing against half the basis probability.  All k+1 answers
    come from one kwise_answer call, one pass over the tuples; k is at
    most 62, and the concept and the distribution are both k bits wide.
    """
    if not 1 <= k <= 62:
        raise ValueError("the basis learner takes 1 <= k <= 62")
    if dist is None:
        dist = FiniteDistribution.uniform_over(k)
    if dist.n != k:
        raise ValueError("distribution width must equal k")
    if concept.n != k:
        raise ValueError("concept width must equal k")
    p_basis, *answers = kwise_answer(_basis_query(k), concept, dist)
    if p_basis <= 0.0:
        raise ValueError("distribution never yields a basis")
    bits = 0
    for i, ans in enumerate(answers):
        if ans > p_basis / 2:
            bits |= 1 << i
    return BitVec(k, bits)


# ---------------------------------------------------------------------------
# registries


def _parse_class(name: str) -> Tuple[Callable[[int, int], Concept], int, int]:
    """The concept maker, j and n of "parity:j-of-n" or
    "conjunction:j-of-n"; ValueError for any other name."""
    m = name.split(":")
    if len(m) != 2 or "-of-" not in m[1]:
        raise ValueError(f"cannot parse class {name!r}")
    try:
        j_s, n_s = m[1].split("-of-")
        j, n = int(j_s), int(n_s)
    except ValueError:
        raise ValueError(f"cannot parse class {name!r}") from None
    if not 0 < j <= n:
        raise ValueError("need 0 < j <= n")
    make = {"parity": parity_concept,
            "conjunction": conjunction_concept}.get(m[0])
    if make is None:
        raise ValueError(f"unknown class family {m[0]!r}")
    return make, j, n


def concept_class(name: str) -> Tuple[List[Concept], FiniteDistribution]:
    """Parse "parity:j-of-n" or "conjunction:j-of-n" into (class, dist).

    The class contains all 2^j masks over the first j of n coordinates;
    the distribution is uniform over {0,1}^n, so n is at most
    MAX_CLASS_WIDTH.
    """
    make, j, n = _parse_class(name)
    dist = FiniteDistribution.uniform_over(n)
    return [make(mask, n) for mask in range(1 << j)], dist


def _q_labels_agree() -> KWiseQuery:
    return KWiseQuery(2, lambda xs, ls: ls[:, 0] == ls[:, 1], 0.01,
                      "labels-agree")


def _q_label_is_first_coord() -> KWiseQuery:
    return KWiseQuery(1, lambda xs, ls: ls[:, 0] == xs[:, 0] & 1, 0.01,
                      "label-is-first-coord")


def _q_labels_differ() -> KWiseQuery:
    return KWiseQuery(2, lambda xs, ls: ls[:, 0] != ls[:, 1], 0.01,
                      "labels-differ")


QUERY_REGISTRY: Dict[str, Callable[[], KWiseQuery]] = {
    "labels-agree": _q_labels_agree,
    "labels-differ": _q_labels_differ,
    "label-is-first-coord": _q_label_is_first_coord,
}


def named_query(name: str) -> KWiseQuery:
    if name not in QUERY_REGISTRY:
        raise ValueError(
            f"unknown query {name!r}; known: {sorted(QUERY_REGISTRY)}"
        )
    return QUERY_REGISTRY[name]()
