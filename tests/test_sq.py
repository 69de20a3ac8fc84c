"""Statistical query oracles, dimension, reduction, and basis learner."""

import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest

import sq_oracle
from lpn import sq as sqmod
from lpn.gf2 import BitVec
from lpn.sq import (
    AdversarialWorst,
    Concept,
    Exact,
    FiniteDistribution,
    KWiseQuery,
    QUERY_REGISTRY,
    SampledNoisy,
    SqQuery,
    UnlabeledDraws,
    basis_query_learner,
    concept_class,
    conjunction_concept,
    kwise_answer,
    kwise_to_unary_reduce,
    make_unary_oracle,
    named_query,
    parity_concept,
    sq_answer,
    sq_dimension,
)

UNIFORM3 = FiniteDistribution.uniform_over(3)
UNIFORM4 = FiniteDistribution.uniform_over(4)


# -- concepts and distributions ---------------------------------------


def test_parity_concept_labels():
    c = parity_concept(0b011, 3)  # parity of coordinates 1 and 2
    pts = np.array([0b000, 0b001, 0b011, 0b111])
    assert list(c.labels(pts)) == [0, 1, 0, 0]
    assert list(c.labels(np.array([0, 1, 2, 3]))) == [0, 1, 1, 0]


def test_conjunction_concept_labels():
    c = conjunction_concept(0b101, 3)
    assert list(c.labels(np.array([0b101, 0b111, 0b100]))) == [1, 1, 0]


def test_uniform_distribution_weights():
    assert len(UNIFORM3.points) == 8
    assert UNIFORM3.is_uniform
    assert abs(sum(UNIFORM3.weights) - 1.0) < 1e-12


def test_from_pairs_validation():
    d = FiniteDistribution.from_pairs(2, [(0, 0.5), (3, 0.5)])
    assert d.points.tolist() == [0, 3]
    with pytest.raises(ValueError):
        FiniteDistribution.from_pairs(2, [(0, 0.6), (3, 0.6)])
    with pytest.raises(ValueError):
        FiniteDistribution.from_pairs(2, [(0, 1.5), (3, -0.5)])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            FiniteDistribution.from_pairs(2, [(0, bad), (3, 0.5)])
    # each once leaked a TypeError, a shift error or an overflow at use
    for n, pairs, message in (
        (2, [(1.5, 0.5), (3, 0.5)], "integers"),
        (2, [(1, 0.5), (3.0, 0.5)], "integers"),
        (-1, [(0, 1.0)], "0..63"),
        (64, [(0, 1.0)], "0..63"),
        (70, [(2**65, 1.0)], "0..63"),
        (63, [(2**65, 1.0)], "fit in n bits"),
        (63, [(-1, 0.5), (2**63, 0.5)], "fit in n bits"),
        (2, [(4, 1.0)], "fit in n bits"),
        (2, [(-1, 1.0)], "fit in n bits"),
        (2, [(1, 0.5), (1, 0.5)], "distinct"),
        (2, [], "nonempty"),
    ):
        with pytest.raises(ValueError, match=message):
            FiniteDistribution.from_pairs(n, pairs)
    with pytest.raises(ValueError, match="outside 0..MAX_CLASS_WIDTH"):
        FiniteDistribution.uniform_over(-1)
    assert FiniteDistribution.from_pairs(63, [(2**63 - 1, 1.0)]).points[0] \
        == 2**63 - 1


def test_uniformity_follows_the_weights():
    # a hand-set flag once made this distribution count 1/3 per point
    with pytest.raises(TypeError):
        FiniteDistribution(2, [0, 1, 2], [0.5, 0.25, 0.25], True)
    skewed = FiniteDistribution(2, [0, 1, 2], [0.5, 0.25, 0.25])
    assert not skewed.is_uniform
    assert FiniteDistribution.from_pairs(2, [(0, 0.5), (3, 0.5)]).is_uniform
    c = parity_concept(1, 2)
    ones = KWiseQuery(1, lambda xs, ls: ls[:, 0] == 1, 0.1)
    assert kwise_answer(ones, c, skewed) == 0.25
    assert sq_answer(SqQuery(lambda x, l: l == 1, 0.1), c, skewed) == 0.25
    assert UnlabeledDraws(skewed).kwise_prob(lambda xs: xs[:, 0] == 1, 1) \
        == 0.25


def test_points_and_weights_are_read_only_copies():
    pts, w = np.array([0, 3]), np.array([0.25, 0.75])
    for d in (UNIFORM3, FiniteDistribution(2, pts, w)):
        assert d.points.dtype == np.int64 and d.weights.dtype == np.float64
        for a in (d.points, d.weights):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
    # the caller's arrays stay theirs
    pts[0] = 1
    w[0] = 0.5
    assert d.points.tolist() == [0, 3] and d.weights.tolist() == [0.25, 0.75]


def test_uniform_over_20_stays_small():
    tracemalloc.start()
    try:
        FiniteDistribution.uniform_over(20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


# -- unary oracle -----------------------------------------------------


def test_sq_answer_constant_cases():
    c0 = Concept("zero", 3, lambda x: np.zeros(len(x), dtype=np.uint8))
    assert sq_answer(SqQuery(lambda x, l: l == 1, 0.1), c0, UNIFORM3) == 0.0
    assert sq_answer(SqQuery(lambda x, l: x >= 0, 0.1), c0, UNIFORM3) == 1.0


def test_sq_answer_hand_example():
    c = parity_concept(0b011, 3)
    q = SqQuery(lambda x, l: ((x & 1) == 1) & (l == 1), 0.1)
    assert sq_answer(q, c, UNIFORM3) == 0.25


def test_adversarial_mode_pushes_away_from_half():
    c = parity_concept(0b001, 3)
    # truth exactly 1/2: ties break upward
    q_half = SqQuery(lambda x, l: ((x & 1) == 1) & (l == 1), 0.05)
    assert sq_answer(q_half, c, UNIFORM3) == 0.5
    assert sq_answer(q_half, c, UNIFORM3, AdversarialWorst()) == pytest.approx(0.55)
    # truth below 1/2: pushed further down
    q_low = SqQuery(lambda x, l: ((x & 3) == 3) & (l == 1), 0.05)
    assert sq_answer(q_low, c, UNIFORM3) == 0.25
    assert sq_answer(q_low, c, UNIFORM3, AdversarialWorst()) == pytest.approx(0.20)
    # answers stay inside [0, 1]
    q_all = SqQuery(lambda x, l: x >= 0, 0.2)
    assert sq_answer(q_all, c, UNIFORM3, AdversarialWorst()) == 1.0


@pytest.mark.parametrize(
    "mode", [Exact(), AdversarialWorst(), SampledNoisy(samples=333, seed=2)],
    ids=["exact", "adversarial", "sampled"])
def test_multi_event_answers_equal_single_event_answers(mode):
    rng = np.random.default_rng(14)
    c = parity_concept(0b1011001, 7)
    dists = [FiniteDistribution.uniform_over(7), UNIFORM3]
    for size in (1, 5, 33, 100, 128):
        pts = rng.permutation(128)[:size]
        w = rng.random(size) ** 3
        dists.append(FiniteDistribution.from_pairs(
            7, [(int(p), float(x)) for p, x in zip(pts, w / w.sum())]))
    for dist in dists:
        for q in range(1, 41):
            # event e holds where table[label, point, e] does
            table = rng.random((2, 128, q)) < rng.random(q)
            multi = sq_answer(SqQuery(lambda x, l: table[l, x], 0.03), c,
                              dist, mode)
            assert multi.shape == (q,) and multi.dtype == np.float64
            single = [sq_answer(SqQuery(lambda x, l, e=e: table[l, x, e], 0.03),
                                c, dist, mode) for e in range(q)]
            assert all(type(a) is float for a in single)
            assert multi.tolist() == single, (len(dist.points), q)
        # the same events as one 2-wise query: both draws must hit
        for q in (1, 3, 8):
            table = rng.random((2, 128, q)) < rng.random(q)

            def pair(xs, ls, e=slice(None)):
                hit = [table[ls[:, j], xs[:, j], e] for j in (0, 1)]
                return hit[0] & hit[1]

            multi = kwise_answer(KWiseQuery(2, pair, 0.03), c, dist, mode)
            assert multi.shape == (q,) and multi.dtype == np.float64
            single = [kwise_answer(KWiseQuery(2, lambda xs, ls, e=e:
                                              pair(xs, ls, e), 0.03),
                                   c, dist, mode) for e in range(q)]
            assert all(type(a) is float for a in single)
            assert multi.tolist() == single, (len(dist.points), q)


def test_sampled_mode_converges():
    c = parity_concept(0b011, 3)
    q = SqQuery(lambda x, l: ((x & 1) == 1) & (l == 1), 0.1)
    got = sq_answer(q, c, UNIFORM3, SampledNoisy(samples=40000, seed=3))
    assert abs(got - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / 40000)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        SqQuery(lambda x, l: x >= 0, 0.0)
    with pytest.raises(ValueError):
        KWiseQuery(0, lambda xs, ls: xs[:, 0] >= 0, 0.1)


# -- k-wise oracle ----------------------------------------------------


def test_kwise_arity_one_matches_unary():
    c = parity_concept(0b101, 3)
    for pred in (lambda x, l: l == 1, lambda x, l: (x >> 1) & 1 == l):
        unary = sq_answer(SqQuery(pred, 0.1), c, UNIFORM3)
        kwise = kwise_answer(
            KWiseQuery(1, lambda xs, ls, p=pred: p(xs[:, 0], ls[:, 0]), 0.1),
            c, UNIFORM3,
        )
        assert unary == kwise


def test_labels_agree_is_half_for_nonzero_parity():
    q = named_query("labels-agree")
    for mask in (0b0001, 0b0110, 0b1111):
        c = parity_concept(mask, 4)
        assert kwise_answer(q, c, UNIFORM4) == 0.5


def test_labels_agree_is_one_for_zero_parity():
    assert kwise_answer(named_query("labels-agree"), parity_concept(0, 4),
                        UNIFORM4) == 1.0


def test_basis_probability_k2():
    c = parity_concept(0b01, 2)  # target (1, 0)
    dist = FiniteDistribution.uniform_over(2)
    # two 2-bit rows span iff both are nonzero and they differ
    q_basis = KWiseQuery(
        2,
        lambda xs, ls: (xs[:, 0] != 0) & (xs[:, 1] != 0) & (xs[:, 0] != xs[:, 1]),
        0.01,
    )
    assert kwise_answer(q_basis, c, dist) == 0.375

    # the bit-1 refinement keeps the full basis mass, bit 2 none of it
    def solved_bit(xs, ls, i):
        # which of the four candidates agree with both labelled rows
        cands = np.arange(4)
        fits = (np.bitwise_count(xs[:, :, None] & cands) & 1
                == ls[:, :, None]).all(axis=1)
        unique = fits.sum(axis=1) == 1
        return unique & fits[:, (cands >> i) & 1 == 1].any(axis=1)

    q1 = KWiseQuery(2, lambda xs, ls: solved_bit(xs, ls, 0), 0.01)
    q2 = KWiseQuery(2, lambda xs, ls: solved_bit(xs, ls, 1), 0.01)
    assert kwise_answer(q1, c, dist) == 0.375
    assert kwise_answer(q2, c, dist) == 0.0


def test_kwise_enumeration_cap():
    c = parity_concept(1, 12)
    dist = FiniteDistribution.uniform_over(12)
    with pytest.raises(ValueError):
        kwise_answer(KWiseQuery(2, lambda xs, ls: xs[:, 0] >= 0, 0.1), c, dist)


def test_enumeration_cap_bounds_only_two_or_more_draws(monkeypatch):
    # a unary or 1-wise query walks the distribution's own points
    monkeypatch.setattr(sqmod, "KWISE_ENUM_CAP", 8)
    c = parity_concept(0b0101, 4)
    assert sq_answer(SqQuery(lambda x, l: l == 1, 0.1), c, UNIFORM4) == 0.5
    assert kwise_answer(KWiseQuery(1, lambda xs, ls: ls[:, 0] == 1, 0.1),
                        c, UNIFORM4) == 0.5
    with pytest.raises(ValueError, match="enumeration cap of 8"):
        kwise_answer(named_query("labels-agree"), c, UNIFORM4)


def test_kwise_sampled_mode():
    q = named_query("labels-agree")
    c = parity_concept(0b11, 2)
    dist = FiniteDistribution.uniform_over(2)
    got = kwise_answer(q, c, dist, SampledNoisy(samples=20000, seed=9))
    assert abs(got - 0.5) <= 3 * math.sqrt(0.25 / 20000)


# -- chunked enumeration against the tuple-by-tuple oracle -----------


def _weighted(n, points, zeros, seed):
    """Random weights on the given points, up to `zeros` of them 0."""
    rng = np.random.default_rng(seed)
    w = rng.random(len(points))
    zeros = min(zeros, len(points) - 1)
    w[rng.choice(len(points), size=zeros, replace=False)] = 0.0
    w /= w.sum()
    return FiniteDistribution.from_pairs(
        n, [(int(p), float(x)) for p, x in zip(points, w)]
    )


def _dists(n, seed):
    """Uniform, non-uniform with zero weights (points out of order), and
    a point mass, all over n-bit points."""
    pts = np.random.default_rng(seed).permutation(1 << n)
    return [
        FiniteDistribution.uniform_over(n),
        _weighted(n, pts, 2, seed),
        _weighted(n, pts[: min(len(pts), 5)], 1, seed + 1),
        FiniteDistribution.from_pairs(n, [(int(pts[0]), 1.0)]),
    ]


def _queries(k):
    def mixed(xs, ls):
        return (xs.sum(axis=1) + 2 * ls.astype(np.int64).sum(axis=1)) % 3 == 0

    qs = [
        KWiseQuery(k, lambda xs, ls: (np.bitwise_xor.reduce(xs, axis=1) & 1)
                   == ls[:, -1], 0.1, "xor-first-bit-is-last-label"),
        KWiseQuery(k, mixed, 0.1, "mixed"),
    ]
    return qs + [named_query(q) for q in sorted(sqmod.QUERY_REGISTRY)
                 if named_query(q).k == k]


# bit widths small enough for the oracle: at most 8^4 tuples
WIDTH_FOR_K = {1: 4, 2: 3, 3: 3, 4: 3}


def _set_chunk(monkeypatch, chunk, k):
    """A "small" chunk divides none of the spaces' tuple counts."""
    if chunk == "small":
        monkeypatch.setattr(sqmod, "ENUM_CHUNK", 7 if k < 4 else 1001)


@pytest.mark.parametrize("chunk", ["small", "default"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_kwise_answer_matches_tuple_oracle(monkeypatch, k, chunk):
    _set_chunk(monkeypatch, chunk, k)
    n = WIDTH_FOR_K[k]
    concepts = [parity_concept(0b101 & ((1 << n) - 1), n),
                conjunction_concept(0b011, n), parity_concept(0, n)]
    for dist in _dists(n, seed=10 * k):
        if chunk == "small" and len(dist.points) > 1:
            assert len(dist.points) ** k % sqmod.ENUM_CHUNK
        for c in concepts:
            for q in _queries(k):
                got = kwise_answer(q, c, dist)
                want = sq_oracle.kwise_answer(q, c, dist)
                assert got == want, (q.name, c.name)
                if k == 1:  # the same event asked as a unary query
                    unary = SqQuery(lambda x, l, q=q: q.predicate(
                        x[:, None], l[:, None]), q.tau)
                    assert sq_answer(unary, c, dist) == want, (q.name, c.name)


@pytest.mark.parametrize("chunk", ["small", "default"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_kwise_prob_matches_tuple_oracle(monkeypatch, k, chunk):
    _set_chunk(monkeypatch, chunk, k)
    n = WIDTH_FOR_K[k]
    preds = [
        lambda xs: (np.bitwise_xor.reduce(xs, axis=1) & 3) == 1,
        lambda xs: xs[:, 0] <= xs[:, -1],
    ]
    for dist in _dists(n, seed=10 * k + 1):
        for pred in preds:
            got = UnlabeledDraws(dist).kwise_prob(pred, k)
            assert got == sq_oracle.kwise_prob(dist, pred, k)


@pytest.mark.parametrize("chunk", ["small", "default"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_basis_answers_match_scalar_eliminate_learner(monkeypatch, k, chunk):
    _set_chunk(monkeypatch, chunk, k)
    rng = np.random.default_rng(k)
    pts = rng.permutation(1 << k)
    # the full uniform space is 16^4 tuples at k = 4; the oracle is slow
    dists = _dists(k, seed=k)[1:] if k == 4 else _dists(k, seed=k)
    dists.append(_weighted(k, pts[: min(len(pts), 9)], 2, seed=k))
    masks = {0, (1 << k) - 1, int(rng.integers(0, 1 << k))}
    for dist in dists:
        for mask in sorted(masks):
            c = parity_concept(mask, k)
            got = kwise_answer(sqmod._basis_query(k), c, dist)
            assert got.tolist() == sq_oracle.basis_answers(k, c, dist), \
                (mask, dist)


def test_basis_answers_match_oracle_on_the_uniform_k4_space():
    c = parity_concept(0b1011, 4)
    got = kwise_answer(sqmod._basis_query(4), c, UNIFORM4).tolist()
    assert got == sq_oracle.basis_answers(4, c, UNIFORM4)
    assert got[0] > 0 and [a > got[0] / 2 for a in got[1:]] == [1, 1, 0, 1]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_multi_event_kwise_prob_equals_single_events(k):
    n = WIDTH_FOR_K[k]
    rng = np.random.default_rng(70 + k)
    for dist in _dists(n, seed=10 * k + 2):
        for q in (1, 3, 8):
            # event e holds where the draws' table entries XOR to 1
            table = rng.random((1 << n, q)) < rng.random(q)

            def pred(xs, e=slice(None)):
                return np.bitwise_xor.reduce(table[xs][:, :, e], axis=1)

            multi = UnlabeledDraws(dist).kwise_prob(pred, k)
            assert multi.shape == (q,) and multi.dtype == np.float64
            single = [UnlabeledDraws(dist).kwise_prob(
                lambda xs, e=e: pred(xs, e), k) for e in range(q)]
            assert all(type(a) is float for a in single)
            assert multi.tolist() == single


# -- sampled answers against the per-draw oracle ----------------------


def _sampled_dists():
    """Uniform over 3 and 7 bits, and 40 of the 128 7-bit points with
    weights proportional to 0.85^i."""
    w = 0.85 ** np.arange(40)
    pts = np.random.default_rng(6).choice(128, 40, replace=False)
    return [UNIFORM3, FiniteDistribution.uniform_over(7),
            FiniteDistribution(7, pts, w / w.sum())]


def _table_events(k, q, rng):
    """q events of k labelled draws, or one (T,) event at q = 0: event e
    holds where the draws' entries table[label, point, e] XOR to 1."""
    table = rng.random((2, 128, max(q, 1))) < rng.random(max(q, 1))

    def events(xs, ls):
        hit = np.bitwise_xor.reduce(table[ls, xs], axis=1)
        return hit if q else hit[:, 0]

    return events


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sampled_answers_match_the_per_draw_oracle(k):
    rng = np.random.default_rng(80 + k)
    for dist in _sampled_dists():
        c = parity_concept(0b101, dist.n)
        for q in (0, 1, 5):
            events = _table_events(k, q, rng)
            for samples in (1, 7, 1000, 100_000):
                for seed in (0, 1):
                    mode = SampledNoisy(samples, seed)
                    query = KWiseQuery(k, events, 0.05)
                    got = kwise_answer(query, c, dist, mode)
                    want = sq_oracle.sampled_kwise_answer(query, c, dist, mode)
                    assert type(got) is type(want)
                    assert np.array_equal(got, want), (dist.n, q, samples)
                    if k == 1:
                        unary = SqQuery(lambda x, l: events(x[:, None],
                                                            l[:, None]), 0.05)
                        got = sq_answer(unary, c, dist, mode)
                        want = sq_oracle.sampled_sq_answer(unary, c, dist,
                                                           mode)
                        assert type(got) is type(want)
                        assert np.array_equal(got, want), (dist.n, q, samples)


@pytest.mark.parametrize("samples", [100, 10_000])
@pytest.mark.parametrize(
    "cls", ["parity:2-of-4", "conjunction:2-of-3", "conjunction:3-of-5"])
def test_sampled_reduction_matches_the_per_draw_oracle(cls, samples):
    concepts, dist = concept_class(cls)
    for name in sorted(QUERY_REGISTRY):
        for c in concepts:
            for seed in (0, 1):
                mode = SampledNoisy(samples, seed)
                got = kwise_to_unary_reduce(
                    named_query(name), 0.05, make_unary_oracle(c, dist, mode),
                    UnlabeledDraws(dist), tuples_to_try=10, seed=seed)
                want = sq_oracle.kwise_to_unary_reduce(
                    named_query(name), 0.05, lambda query: (
                        sq_oracle.sampled_sq_answer(query, c, dist, mode)),
                    UnlabeledDraws(dist), tuples_to_try=10, seed=seed)
                assert _comparable(got, dist) == _comparable(want, dist), \
                    (name, c.name, seed)


def test_sampled_unary_oracle_draws_once(monkeypatch):
    # every query of one oracle answers from the same N draws, so they
    # are drawn and grouped when the oracle is made, not once per query
    concepts, dist = concept_class("parity:2-of-4")
    mode = SampledNoisy(10_000, 4)
    lanes, derive = [], sqmod.derive_seed
    monkeypatch.setattr(sqmod, "derive_seed", lambda seed, lane: (
        lanes.append(lane) or derive(seed, lane)))
    oracle = make_unary_oracle(concepts[3], dist, mode)
    queries = [SqQuery(lambda x, l, m=m: (x & m > 0) == l, 0.05)
               for m in range(1, 9)]
    got = [oracle(q) for q in queries]
    assert lanes == ["sq-sample"]
    monkeypatch.undo()
    for q, p in zip(queries, got):
        assert p == sq_oracle.sampled_sq_answer(q, concepts[3], dist, mode)


def test_sampled_reduction_counts_distinct_draws_in_small_memory():
    # a million drawn points per unary query; running the predicate on
    # every draw peaked at 169 MiB
    concepts, dist = concept_class("parity:2-of-4")
    oracle = make_unary_oracle(concepts[3], dist, SampledNoisy(10**6, 0))
    tracemalloc.start()
    try:
        out = kwise_to_unary_reduce(named_query("labels-agree"), 0.05, oracle,
                                    UnlabeledDraws(dist), tuples_to_try=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.kind == "estimate" and out.tuples_tried == 5
    assert peak < 64 << 20


# -- advantage and dimension ------------------------------------------


def test_weak_advantage_extremes():
    c = parity_concept(0b010, 3)
    comp = Concept("not-c", 3, lambda x: 1 - c.labels(x))
    other = parity_concept(0b100, 3)
    for h, want in ((c, 0.5), (comp, -0.5), (other, 0.0)):
        assert sq_oracle.weak_advantage(h, c, UNIFORM3) == want
        # as the reduction measures it, with one agreement query
        agree = SqQuery(lambda x, l, h=h: h.labels(x) == l, 0.1)
        assert sq_answer(agree, c, UNIFORM3) - 0.5 == want


def test_sq_dimension_all_parities():
    concepts, dist = concept_class("parity:3-of-3")
    rep = sq_dimension(concepts, dist)
    assert rep.d == 8
    assert rep.max_abs_correlation == 0.0
    assert rep.exact
    assert len(rep.witness) == 8


def test_sq_dimension_complement_pair():
    c = parity_concept(0b01, 2)
    comp = Concept("not-c", 2, lambda x: 1 - c.labels(x))
    rep = sq_dimension([c, comp], FiniteDistribution.uniform_over(2))
    assert rep.d == 1


def test_sq_dimension_greedy_matches_exhaustive_on_parities(monkeypatch):
    concepts, dist = concept_class("parity:4-of-4")
    exhaustive = sq_dimension(concepts, dist)
    monkeypatch.setattr(sqmod, "_EXACT_BELOW", 0)
    greedy = sq_dimension(concepts, dist)
    assert exhaustive.d == greedy.d == 16
    assert not greedy.exact


@pytest.mark.parametrize(
    "name", ["conjunction:6-of-6", "conjunction:4-of-7", "parity:6-of-6"])
@pytest.mark.parametrize("skewed", [False, True])
def test_greedy_scan_matches_the_pairwise_reference(monkeypatch, name,
                                                    skewed):
    monkeypatch.setattr(sqmod, "_EXACT_BELOW", 0)
    concepts, dist = concept_class(name)
    if skewed:  # weights within 50% of uniform: small nonzero correlations
        w = 1.0 + 0.5 * np.random.default_rng(7).random(len(dist.points))
        dist = FiniteDistribution(dist.n, dist.points, w / w.sum())
    corr = np.abs(sqmod._corr_matrix(concepts, dist))
    want = sq_oracle.greedy_witness(corr)
    rep = sq_dimension(concepts, dist)
    assert rep.witness == [concepts[i].name for i in want]
    assert rep.max_abs_correlation == max(
        (corr[a, b] for x, a in enumerate(want) for b in want[x + 1:]),
        default=0.0)
    assert not rep.exact


@pytest.mark.parametrize("n", range(1, 13))
def test_exhaustive_search_matches_the_reference_on_random_matrices(n):
    # symmetric |correlations| scattered around the thresholds 1/s^3 of
    # every size s, so subsets of many sizes pass and fail
    rng = np.random.default_rng(500 + n)
    levels = 1.0 / np.arange(2, n + 2) ** 3
    for _ in range(20):
        corr = rng.choice(levels, (n, n)) * rng.uniform(0.9, 1.1, (n, n))
        corr = np.triu(corr, 1) + np.triu(corr, 1).T + np.eye(n)
        assert (sqmod._largest_subset(corr, 1e-12)
                == sq_oracle.exhaustive_witness(corr))


@pytest.mark.parametrize("family", ["parity", "conjunction"])
@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_exhaustive_search_matches_the_reference_on_lab_classes(family, j):
    # every class of at most 16 concepts; under the uniform distribution
    # a class's correlations are the same at every width n >= j, so the
    # narrowest, the next and the widest stand for the rest
    for n in sorted({j, j + 1, sqmod.MAX_CLASS_WIDTH}):
        concepts, dist = concept_class(f"{family}:{j}-of-{n}")
        want = sq_oracle.exhaustive_witness(
            np.abs(sqmod._corr_matrix(concepts, dist)))
        rep = sq_dimension(concepts, dist)
        assert rep.exact
        assert rep.witness == [concepts[i].name for i in want]


def test_exhaustive_search_prunes_a_small_answer():
    # 16 concepts, d = 5: a walk over all masks of each size took 135 ms
    concepts, dist = concept_class("conjunction:4-of-4")
    times = []
    for _ in range(3):
        start = time.perf_counter()
        rep = sq_dimension(concepts, dist)
        times.append(time.perf_counter() - start)
    assert rep.exact and rep.d == 5
    assert min(times) < 0.030


def test_sq_dimension_rejects_empty_class():
    with pytest.raises(ValueError):
        sq_dimension([], UNIFORM3)


def test_sq_dimension_streams_its_correlations():
    # 16 concepts over 2^20 points: one sign matrix of them all is 128 MB
    concepts, dist = concept_class("parity:4-of-20")
    tracemalloc.start()
    try:
        rep = sq_dimension(concepts, dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.d == 16 and rep.max_abs_correlation == 0.0
    assert peak < 40 << 20


def test_sq_dimension_slices_shrink_as_the_class_grows():
    # 256 concepts over 2^16 points: one slice of all 2^16 points is
    # 128 MB per float64 array
    concepts, dist = concept_class("parity:8-of-16")
    tracemalloc.start()
    try:
        rep = sq_dimension(concepts, dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.d == 256 and rep.max_abs_correlation == 0.0
    assert peak < 128 << 20


def test_sq_dimension_holds_at_most_three_correlation_matrices():
    # 4096 concepts: the correlation matrix is 128 MB.  Its absolute
    # value was a copy, and the witness check gathered the chosen
    # block and then its upper triangle, peaking at 448 MB
    concepts, dist = concept_class("parity:12-of-12")
    tracemalloc.start()
    try:
        rep = sq_dimension(concepts, dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.d == 4096 and rep.max_abs_correlation == 0.0
    assert peak < 384 << 20


def test_sq_dimension_adds_products_into_one_matrix():
    # 4096 concepts: the correlation matrix is 128 MB.  Each slice's
    # product was a second full matrix before it was added in, peaking
    # at 324 MB
    concepts, dist = concept_class("parity:12-of-12")
    tracemalloc.start()
    try:
        rep = sq_dimension(concepts, dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.d == 4096 and rep.max_abs_correlation == 0.0
    assert peak < 256 << 20


def test_sq_dimension_refuses_a_class_too_large_to_hold():
    concepts = [parity_concept(m, 13)
                for m in range(sqmod.MAX_DIM_CONCEPTS + 1)]
    with pytest.raises(ValueError, match="MAX_DIM_CONCEPTS=4096"):
        sq_dimension(concepts, FiniteDistribution.uniform_over(13))


@pytest.mark.parametrize("name", ["parity:3-of-6", "conjunction:3-of-6"])
@pytest.mark.parametrize("skewed", [False, True])
def test_chunked_correlations_match_one_pass(monkeypatch, name, skewed):
    # every uniform partial sum is a multiple of 2^-n, so chunks change
    # no bit; skewed weights may round differently
    concepts, dist = concept_class(name)
    if skewed:  # 40 of the 64 points, weights proportional to 0.85^i
        w = 0.85 ** np.arange(40)
        pts = np.random.default_rng(6).choice(64, 40, replace=False)
        dist = FiniteDistribution(6, pts, w / w.sum())
    signs = 1.0 - 2.0 * np.stack([c.labels(dist.points) for c in concepts])
    want = (signs * dist.weights) @ signs.T
    monkeypatch.setattr(sqmod, "ENUM_CHUNK", 5)
    got = sqmod._corr_matrix(concepts, dist)
    if skewed:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    else:
        assert np.array_equal(got, want)


def test_concept_class_parsing():
    cls, dist = concept_class("parity:2-of-5")
    assert len(cls) == 4 and dist.n == 5
    cls, _ = concept_class("conjunction:2-of-2")
    assert len(cls) == 4
    for bad in ("parity:9", "mystery:2-of-3", "parity:4-of-2"):
        with pytest.raises(ValueError):
            concept_class(bad)
    with pytest.raises(ValueError, match="cannot parse"):
        concept_class("parity:1-of-2-of-3")


def test_class_width_is_capped_before_allocating():
    start = time.perf_counter()
    for name in ("parity:1-of-40", "conjunction:3-of-21"):
        with pytest.raises(ValueError, match="MAX_CLASS_WIDTH"):
            concept_class(name)
    with pytest.raises(ValueError, match="MAX_CLASS_WIDTH"):
        FiniteDistribution.uniform_over(sqmod.MAX_CLASS_WIDTH + 1)
    # 2^40 points would never finish, let alone in a second
    assert time.perf_counter() - start < 1.0


def test_named_query_registry():
    assert named_query("labels-agree").k == 2
    assert named_query("label-is-first-coord").k == 1
    with pytest.raises(ValueError):
        named_query("nope")


# -- the k-wise to unary reduction ------------------------------------


def test_reduction_label_independent_query_estimates_exactly():
    # the query never looks at labels, so no candidate can fire and the
    # estimate equals the true probability
    q = KWiseQuery(2, lambda xs, ls: xs[:, 0] == xs[:, 1], 0.05)
    c = parity_concept(0b0011, 4)
    oracle = make_unary_oracle(c, UNIFORM4)
    out = kwise_to_unary_reduce(q, 0.05, oracle, UnlabeledDraws(UNIFORM4),
                                tuples_to_try=20, seed=1)
    assert out.kind == "estimate"
    assert out.estimate == kwise_answer(q, c, UNIFORM4)
    assert out.error_bound == 4 * 0.05 * 3 / 4


def test_reduction_case_two_labels_agree():
    q = named_query("labels-agree")
    c = parity_concept(0b1010, 4)
    oracle = make_unary_oracle(c, UNIFORM4)
    out = kwise_to_unary_reduce(q, 0.05, oracle, UnlabeledDraws(UNIFORM4),
                                seed=2)
    assert out.kind == "estimate"
    assert out.estimate == 0.5
    assert abs(out.estimate - kwise_answer(q, c, UNIFORM4)) <= out.error_bound


def test_reduction_case_one_first_coordinate():
    q = named_query("label-is-first-coord")
    c = parity_concept(0b0001, 4)
    oracle = make_unary_oracle(c, UNIFORM4)
    out = kwise_to_unary_reduce(q, 0.05, oracle, UnlabeledDraws(UNIFORM4),
                                seed=3)
    assert out.kind == "weak_hypothesis"
    assert out.fired is not None
    assert out.advantage >= 0.45
    assert sq_oracle.weak_advantage(out.hypothesis, c, UNIFORM4) == out.advantage


def test_reduction_unbalanced_concept_short_circuits():
    c = conjunction_concept(0b1111, 4)  # true on one point of sixteen
    oracle = make_unary_oracle(c, UNIFORM4)
    out = kwise_to_unary_reduce(named_query("labels-agree"), 0.05, oracle,
                                UnlabeledDraws(UNIFORM4), seed=4)
    assert out.kind == "weak_hypothesis"
    assert out.tuples_tried == 0
    # constant prediction of the majority
    assert not out.hypothesis.labels(np.arange(16)).any()
    assert out.advantage >= 0.4


def _comparable(out, dist):
    """A ReductionOutcome with its hypothesis replaced by the
    hypothesis's name and labels on every point, so == compares it."""
    h = out.hypothesis
    seen = None if h is None else (h.name, h.n,
                                   h.labels(dist.points).tolist())
    return dataclasses.replace(out, hypothesis=seen)


def _both_reductions(q, c, dist, mode, **kw):
    got = kwise_to_unary_reduce(q, 0.05, make_unary_oracle(c, dist, mode),
                                UnlabeledDraws(dist), **kw)
    want = sq_oracle.kwise_to_unary_reduce(
        q, 0.05, lambda query: sq_answer(query, c, dist, mode),
        UnlabeledDraws(dist), **kw)
    return _comparable(got, dist), _comparable(want, dist)


def _reference_cases():
    for cls in ("parity:2-of-4", "parity:3-of-3", "conjunction:2-of-3"):
        yield (cls, *concept_class(cls))
    # weights that are not powers of two, so the oracle's sums round;
    # seed 36 keeps each nonzero parity's label marginal within 0.015 of
    # 1/2, so candidates are tried, fire and fail to fire in both modes
    concepts, _ = concept_class("parity:2-of-4")
    yield "skewed", concepts, _weighted(4, np.arange(16), 0, seed=36)


@pytest.mark.parametrize("mode", [Exact(), AdversarialWorst()],
                         ids=["exact", "adversarial"])
def test_reduction_matches_reference(mode):
    outcomes = set()
    for cls, concepts, dist in _reference_cases():
        for name in sorted(QUERY_REGISTRY):
            for c in concepts:
                for seed, tuples in ((0, None), (1, 40), (2, 40)):
                    got, want = _both_reductions(named_query(name), c, dist,
                                                 mode, tuples_to_try=tuples,
                                                 seed=seed)
                    assert got == want, (cls, name, c.name, seed)
                    outcomes.add("estimate" if got.kind == "estimate"
                                 else "fired" if got.fired
                                 else "marginal")
    assert outcomes == {"estimate", "fired", "marginal"}


def test_reduction_matches_reference_over_many_draws():
    # more tuples than one draw of the reduction takes; the query's
    # candidates never fire on this target, so every tuple is tried
    q = named_query("label-is-first-coord")
    c = parity_concept(0b110, 3)
    got, want = _both_reductions(q, c, UNIFORM3, Exact(),
                                 tuples_to_try=1100, seed=3)
    assert got == want
    assert got.kind == "estimate" and got.tuples_tried == 1100


def test_reduction_labels_points_it_has_not_seen():
    # the oracle's distribution lists the points in another order, so
    # each candidate's labels must be computed for its points, not read
    # back from the reduction's own
    reversed4 = FiniteDistribution.from_pairs(
        4, [(p, 1 / 16) for p in reversed(range(16))])
    q = named_query("label-is-first-coord")
    for mask in (0b0001, 0b0110):
        c = parity_concept(mask, 4)
        got = kwise_to_unary_reduce(
            q, 0.05, make_unary_oracle(c, reversed4),
            UnlabeledDraws(UNIFORM4), seed=3)
        want = sq_oracle.kwise_to_unary_reduce(
            q, 0.05, lambda query: sq_answer(query, c, reversed4),
            UnlabeledDraws(UNIFORM4), seed=3)
        assert _comparable(got, UNIFORM4) == _comparable(want, UNIFORM4)


def test_batched_tuple_draw_equals_single_draws():
    skewed = FiniteDistribution.from_pairs(
        3, [(1, 0.5), (2, 0.125), (5, 0.25), (7, 0.125)])
    # one draw, and more tuples than one draw takes
    for dist, count in ((UNIFORM4, 300), (skewed, 300),
                        (skewed, sqmod._DRAW_CHUNK + 76)):
        draws = UnlabeledDraws(dist)
        batch_rng, single_rng = (np.random.default_rng(8) for _ in range(2))
        batch = list(draws.sample_tuples(count, 3, batch_rng))
        singles = [sq_oracle.sample_tuple(draws, 3, single_rng)
                   for _ in range(count)]
        assert all(z.dtype == np.int64 for z in batch)
        assert [z.tolist() for z in batch] == [list(z) for z in singles]
        assert batch_rng.random() == single_rng.random()


def test_unary_oracle_labels_the_concept_once():
    calls = []
    c = parity_concept(0b0101, 4)

    def labels(pts):
        calls.append(len(pts))
        return c.labels(pts)

    oracle = make_unary_oracle(Concept(c.name, 4, labels), UNIFORM4)
    for _ in range(5):
        assert oracle(SqQuery(lambda x, l: l == 1, 0.1)) == 0.5
    assert calls == [16]


def test_reduction_rejects_bad_eps():
    q = named_query("labels-agree")
    c = parity_concept(1, 4)
    oracle = make_unary_oracle(c, UNIFORM4)
    for eps in (0.0, 0.5, -0.1):
        with pytest.raises(ValueError):
            kwise_to_unary_reduce(q, eps, oracle, UnlabeledDraws(UNIFORM4))


def test_reduction_rejects_fewer_than_one_tuple():
    q = named_query("labels-agree")
    oracle = make_unary_oracle(parity_concept(1, 4), UNIFORM4)
    for tuples in (0, -3):
        with pytest.raises(ValueError, match="tuples_to_try"):
            kwise_to_unary_reduce(q, 0.05, oracle, UnlabeledDraws(UNIFORM4),
                                  tuples_to_try=tuples)


# -- basis-query learner ----------------------------------------------


def test_basis_learner_k2_hand_case():
    t = basis_query_learner(2, parity_concept(0b01, 2))
    assert t == BitVec(2, 0b01)


def test_basis_learner_k3_exhaustive():
    for mask in range(8):
        t = basis_query_learner(3, parity_concept(mask, 3))
        assert t.bits == mask


def test_basis_learner_zero_target():
    t = basis_query_learner(3, parity_concept(0, 3))
    assert t.bits == 0


def test_basis_learner_rejects_width_mismatch():
    with pytest.raises(ValueError):
        basis_query_learner(3, parity_concept(1, 3),
                            FiniteDistribution.uniform_over(4))


def test_basis_learner_rejects_a_concept_of_another_width():
    # a 6-bit parity at k=4 once came back as parity:1000, no error
    for concept in (parity_concept(0b110001, 6), parity_concept(0b01, 2)):
        with pytest.raises(ValueError, match="concept width"):
            basis_query_learner(4, concept)


def test_basis_learner_point_mass_has_no_basis():
    dist = FiniteDistribution.from_pairs(2, [(1, 1.0)])
    with pytest.raises(ValueError):
        basis_query_learner(2, parity_concept(1, 2), dist)
