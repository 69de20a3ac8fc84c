"""Statistical query oracles, dimension, and query-width reduction.

A statistical query asks for Pr[q(x, c(x))] over a distribution on
examples, answered only to within a tolerance; a k-wise query asks the
same about k-tuples of independent draws.  This module provides exact,
adversarial, and sampling oracle modes, the pairwise-correlation
dimension of a concept class, a reduction that answers k-wise queries
using unary ones (plus unlabeled data), and a parity learner that asks
one k-wise query per coordinate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .gf2 import BitVec, back_substitute, eliminate
from .instance import ParityTarget
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
    "weak_advantage",
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


@dataclass(frozen=True)
class Concept:
    """A boolean function on n-bit inputs, input packed into an int."""

    name: str
    n: int
    fn: Callable[[int], int]
    bulk: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, x: int) -> int:
        return int(self.fn(x))

    def labels(self, points: np.ndarray) -> np.ndarray:
        if self.bulk is not None:
            return np.asarray(self.bulk(points), dtype=np.uint8)
        return np.fromiter((self.fn(int(x)) for x in points), dtype=np.uint8,
                           count=len(points))


def parity_concept(mask: int, n: int) -> Concept:
    """Parity of the coordinates selected by mask (mask 0 = constant 0)."""
    if mask >> n:
        raise ValueError("mask does not fit in n bits")
    name = "parity:" + BitVec(n, mask).to01()
    return Concept(
        name, n,
        fn=lambda x: (x & mask).bit_count() & 1,
        bulk=lambda pts: (np.bitwise_count(pts & mask) & 1).astype(np.uint8),
    )


def conjunction_concept(mask: int, n: int) -> Concept:
    """AND of the coordinates selected by mask (mask 0 = constant 1)."""
    if mask >> n:
        raise ValueError("mask does not fit in n bits")
    name = "conj:" + BitVec(n, mask).to01()
    return Concept(
        name, n,
        fn=lambda x: int(x & mask == mask),
        bulk=lambda pts: ((pts & mask) == mask).astype(np.uint8),
    )


@dataclass(frozen=True)
class FiniteDistribution:
    """A distribution over n-bit points, packed ints with weights."""

    n: int
    points: Tuple[int, ...]
    weights: Tuple[float, ...]
    is_uniform: bool = False

    def __post_init__(self):
        if len(self.points) != len(self.weights) or not self.points:
            raise ValueError("points and weights must be nonempty, equal length")
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be distinct")
        if any(p >> self.n or p < 0 for p in self.points):
            raise ValueError("points must fit in n bits")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")

    @classmethod
    def uniform_over(cls, n: int) -> "FiniteDistribution":
        size = 1 << n
        return cls(n, tuple(range(size)), tuple([1.0 / size] * size), True)

    @classmethod
    def from_pairs(cls, n: int, pairs: Sequence[Tuple[int, float]]
                   ) -> "FiniteDistribution":
        return cls(n, tuple(p for p, _ in pairs), tuple(w for _, w in pairs))

    @property
    def points_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=np.int64)

    @property
    def weights_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=np.float64)


def _check_tau(tau: float) -> None:
    if not 0.0 < tau <= 1.0:
        raise ValueError("tolerance must lie in (0, 1]")


@dataclass(frozen=True)
class SqQuery:
    """Unary query: asks Pr[predicate(x, c(x))] within tolerance tau."""

    predicate: Callable[[int, int], int]
    tau: float
    name: str = ""

    def __post_init__(self):
        _check_tau(self.tau)


@dataclass(frozen=True)
class KWiseQuery:
    """k-wise query over k independent draws and their labels."""

    k: int
    predicate: Callable[[Tuple[int, ...], Tuple[int, ...]], int]
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


def _distort(p: float, tau: float, mode: OracleMode) -> float:
    if isinstance(mode, Exact):
        return p
    if isinstance(mode, AdversarialWorst):
        shifted = p + tau if p >= 0.5 else p - tau
        return min(1.0, max(0.0, shifted))
    raise TypeError(f"unsupported oracle mode {mode!r}")


def sq_answer(
    query: SqQuery,
    concept: Concept,
    dist: FiniteDistribution,
    mode: OracleMode = Exact(),
) -> float:
    """Answer a unary query under the given oracle mode."""
    pts = dist.points_array
    labels = concept.labels(pts)
    vals = np.fromiter(
        (bool(query.predicate(int(x), int(l))) for x, l in zip(pts, labels)),
        dtype=np.float64, count=len(pts),
    )
    if isinstance(mode, SampledNoisy):
        if mode.samples < 1:
            raise ValueError("need at least one sample")
        rng = np.random.default_rng(derive_seed(mode.seed, "sq-sample"))
        idx = rng.choice(len(pts), size=mode.samples, p=dist.weights_array)
        return float(vals[idx].mean())
    p = float(vals @ dist.weights_array)
    return _distort(p, query.tau, mode)


def _exact_prob(dist: FiniteDistribution, k: int, pred: Callable,
                *columns: Sequence) -> float:
    """Pr[pred] over k independent draws from dist, by enumeration.

    Each column is indexed like dist.points; pred gets, for each tuple
    of draws, one k-tuple of entries per column.  Tuples are visited in
    lexicographic order of their point indices, and a non-uniform
    probability is summed in that order.
    """
    n = len(dist.points)
    if n**k > KWISE_ENUM_CAP:
        raise ValueError(
            f"{n}^{k} tuples exceed the enumeration cap of {KWISE_ENUM_CAP}"
        )
    # product() over each column in lockstep yields the same index tuples
    args = zip(*(itertools.product(col, repeat=k) for col in columns))
    if dist.is_uniform:
        return sum(1 for a in args if pred(*a)) / n**k
    p = 0.0
    for a, ws in zip(args, itertools.product(dist.weights, repeat=k)):
        if pred(*a):
            p += math.prod(ws)
    return p


def kwise_answer(
    query: KWiseQuery,
    concept: Concept,
    dist: FiniteDistribution,
    mode: OracleMode = Exact(),
) -> float:
    """Answer a k-wise query; exact answers enumerate all |D|^k tuples."""
    pts = dist.points
    labels = concept.labels(dist.points_array)
    k = query.k
    if isinstance(mode, SampledNoisy):
        if mode.samples < 1:
            raise ValueError("need at least one sample")
        rng = np.random.default_rng(derive_seed(mode.seed, "sq-sample-k"))
        idx = rng.choice(len(pts), size=(mode.samples, k), p=dist.weights_array)
        hits = sum(
            bool(query.predicate(
                tuple(pts[j] for j in row), tuple(int(labels[j]) for j in row)
            ))
            for row in idx
        )
        return hits / mode.samples
    p = _exact_prob(dist, k, query.predicate, pts, labels.tolist())
    return _distort(p, query.tau, mode)


def make_unary_oracle(
    concept: Concept, dist: FiniteDistribution, mode: OracleMode = Exact()
) -> Callable[[SqQuery], float]:
    return lambda query: sq_answer(query, concept, dist, mode)


def weak_advantage(h: Concept, c: Concept, dist: FiniteDistribution) -> float:
    """Pr[h(x) = c(x)] - 1/2 under the distribution."""
    pts = dist.points_array
    agree = (h.labels(pts) == c.labels(pts)).astype(np.float64)
    return float(agree @ dist.weights_array) - 0.5


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
    pts = dist.points_array
    signs = 1.0 - 2.0 * np.stack([c.labels(pts) for c in concepts]).astype(
        np.float64
    )
    return (signs * dist.weights_array) @ signs.T


def sq_dimension(
    concepts: Sequence[Concept],
    dist: FiniteDistribution,
    exact_below: int = 17,
) -> SqDimReport:
    """Largest subset whose pairwise correlations all stay within 1/d^3.

    Classes of at most exact_below - 1 concepts are searched
    exhaustively; larger ones use a greedy scan in the given order,
    followed by a verification pass over the returned witness.
    """
    if not concepts:
        raise ValueError("need at least one concept")
    corr = np.abs(_corr_matrix(concepts, dist))
    n = len(concepts)
    slack = 1e-12

    def subset_ok(idx: List[int]) -> bool:
        d = len(idx)
        thr = 1.0 / d**3 + slack
        return all(
            corr[i, j] <= thr for a, i in enumerate(idx) for j in idx[a + 1 :]
        )

    if n < exact_below:
        best: List[int] = [0]
        for mask in range(1, 1 << n):
            size = mask.bit_count()
            if size <= len(best):
                continue
            idx = [i for i in range(n) if (mask >> i) & 1]
            if subset_ok(idx):
                best = idx
        chosen = best
        exact = True
    else:
        chosen = []
        for i in range(n):
            trial = chosen + [i]
            if subset_ok(trial):
                chosen = trial
        exact = False
    assert subset_ok(chosen)
    max_corr = max(
        (corr[i, j] for a, i in enumerate(chosen) for j in chosen[a + 1 :]),
        default=0.0,
    )
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
    by enumerating every k-tuple.
    """

    def __init__(self, dist: FiniteDistribution):
        self.dist = dist

    def sample_tuple(self, k: int, rng: np.random.Generator) -> Tuple[int, ...]:
        idx = rng.choice(
            len(self.dist.points), size=k, p=self.dist.weights_array
        )
        return tuple(self.dist.points[i] for i in idx)

    def kwise_prob(
        self, pred: Callable[[Tuple[int, ...]], int], k: int
    ) -> float:
        return _exact_prob(self.dist, k, pred, self.dist.points)


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


def _substituted(query: KWiseQuery, z: Tuple[int, ...], i: int,
                 lvec: Tuple[int, ...], n: int) -> Concept:
    """The candidate hypothesis h(x) = Q(z with x at position i, lvec)."""
    pred = query.predicate

    def fn(x: int, z=z, i=i, lvec=lvec) -> int:
        xs = z[: i - 1] + (x,) + z[i:]
        return int(bool(pred(xs, lvec)))

    return Concept(f"h[pos={i},labels={''.join(map(str, lvec))}]", n, fn)


def _complement(h: Concept) -> Concept:
    return Concept(f"not({h.name})", h.n, lambda x: 1 - h.fn(x))


def kwise_to_unary_reduce(
    query: KWiseQuery,
    eps: float,
    unary_oracle: Callable[[SqQuery], float],
    unlabeled: UnlabeledDraws,
    tuples_to_try: Optional[int] = None,
    delta: float = 0.05,
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
    k = query.k
    n = unlabeled.dist.n
    tau = eps / 2

    p_one = unary_oracle(SqQuery(lambda x, l: l == 1, tau, "label-marginal"))
    if abs(p_one - 0.5) >= eps:
        bit = 1 if p_one > 0.5 else 0
        h = Concept(f"const:{bit}", n, lambda x, bit=bit: bit)
        adv = unary_oracle(
            SqQuery(lambda x, l, h=h: h.fn(x) == l, tau, "const-agreement")
        ) - 0.5
        return ReductionOutcome(
            "weak_hypothesis", 0, hypothesis=h, advantage=adv
        )

    if tuples_to_try is None:
        tuples_to_try = math.ceil(4.0 / eps * math.log(1.0 / delta))
    rng = np.random.default_rng(derive_seed(seed, "kwise-reduce"))
    patterns = list(itertools.product((0, 1), repeat=k))
    for t in range(tuples_to_try):
        z = unlabeled.sample_tuple(k, rng)
        for i in range(1, k + 1):
            for lvec in patterns:
                h = _substituted(query, z, i, lvec, n)
                a = unary_oracle(
                    SqQuery(lambda x, l, h=h: h.fn(x) and l == 1, tau, "h-and-1")
                )
                b = unary_oracle(
                    SqQuery(lambda x, l, h=h: h.fn(x), tau, "h-mass")
                )
                if abs(a - b / 2) >= eps:
                    hyp = h if a - b / 2 > 0 else _complement(h)
                    adv = unary_oracle(
                        SqQuery(
                            lambda x, l, hyp=hyp: hyp.fn(x) == l, tau,
                            "h-agreement",
                        )
                    ) - 0.5
                    return ReductionOutcome(
                        "weak_hypothesis", t + 1, hypothesis=hyp,
                        advantage=adv, fired=(t, i, lvec),
                    )
    estimate = 0.0
    for lvec in patterns:
        estimate += unlabeled.kwise_prob(
            lambda xs, lvec=lvec: query.predicate(xs, lvec), k
        )
    estimate /= 2**k
    bound = 4.0 * eps * (2**k - 1) / 2**k
    return ReductionOutcome(
        "estimate", tuples_to_try, estimate=estimate, error_bound=bound
    )


# ---------------------------------------------------------------------------
# parity learning from basis queries


def basis_query_learner(
    k: int,
    concept: Concept,
    dist: Optional[FiniteDistribution] = None,
) -> ParityTarget:
    """Learn a parity exactly with k+1 exact k-wise queries.

    One query measures the probability that k draws form a basis; then,
    for each coordinate i, one query asks for Pr[draws form a basis and
    the parity they pin down has bit i set].  Under any distribution
    with a positive basis probability the per-coordinate answers are
    either 0 or the full basis mass, so each bit is read off by
    comparing against half the basis probability.
    """
    if dist is None:
        dist = FiniteDistribution.uniform_over(k)
    if dist.n != k:
        raise ValueError("distribution width must equal k")

    colmask = (1 << k) - 1

    # one elimination per tuple serves all k+1 queries
    @lru_cache(maxsize=None)
    def pinned(xs: Tuple[int, ...], ls: Tuple[int, ...]) -> Optional[int]:
        """The parity the draws pin down, or None if they are no basis."""
        pivots, _ = eliminate([x | l << k for x, l in zip(xs, ls)], colmask)
        return back_substitute(pivots, k) if len(pivots) == k else None

    tau = 0.01
    p_basis = kwise_answer(
        KWiseQuery(k, lambda xs, ls: pinned(xs, ls) is not None, tau,
                   "basis-mass"),
        concept, dist, Exact(),
    )
    if p_basis <= 0.0:
        raise ValueError("distribution never yields a basis")
    bits = 0
    for i in range(k):
        ans = kwise_answer(
            KWiseQuery(
                k,
                lambda xs, ls, i=i: (
                    (c := pinned(xs, ls)) is not None and (c >> i) & 1
                ),
                tau,
                f"basis-bit-{i + 1}",
            ),
            concept, dist, Exact(),
        )
        if ans > p_basis / 2:
            bits |= 1 << i
    return ParityTarget(BitVec(k, bits))


# ---------------------------------------------------------------------------
# registries


def concept_class(name: str) -> Tuple[List[Concept], FiniteDistribution]:
    """Parse "parity:j-of-n" or "conjunction:j-of-n" into (class, dist).

    The class contains all 2^j masks over the first j of n coordinates;
    the distribution is uniform over {0,1}^n.
    """
    m = name.split(":")
    if len(m) == 2 and "-of-" in m[1]:
        j_s, n_s = m[1].split("-of-")
        try:
            j, n = int(j_s), int(n_s)
        except ValueError:
            raise ValueError(f"cannot parse class {name!r}") from None
        if not 0 < j <= n:
            raise ValueError("need 0 < j <= n")
        if m[0] == "parity":
            cls = [parity_concept(mask, n) for mask in range(1 << j)]
        elif m[0] == "conjunction":
            cls = [conjunction_concept(mask, n) for mask in range(1 << j)]
        else:
            raise ValueError(f"unknown class family {m[0]!r}")
        return cls, FiniteDistribution.uniform_over(n)
    raise ValueError(f"cannot parse class {name!r}")


def _q_labels_agree() -> KWiseQuery:
    return KWiseQuery(2, lambda xs, ls: ls[0] == ls[1], 0.01, "labels-agree")


def _q_label_is_first_coord() -> KWiseQuery:
    return KWiseQuery(1, lambda xs, ls: ls[0] == xs[0] & 1, 0.01,
                      "label-is-first-coord")


def _q_labels_differ() -> KWiseQuery:
    return KWiseQuery(2, lambda xs, ls: ls[0] != ls[1], 0.01, "labels-differ")


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
