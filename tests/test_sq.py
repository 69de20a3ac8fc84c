"""Statistical query oracles, dimension, reduction, and basis learner."""

import math

import numpy as np
import pytest

from lpn.gf2 import BitVec
from lpn.sq import (
    AdversarialWorst,
    Concept,
    Exact,
    FiniteDistribution,
    KWiseQuery,
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
    weak_advantage,
)

UNIFORM3 = FiniteDistribution.uniform_over(3)
UNIFORM4 = FiniteDistribution.uniform_over(4)


# -- concepts and distributions ---------------------------------------


def test_parity_concept_labels():
    c = parity_concept(0b011, 3)  # parity of coordinates 1 and 2
    assert c.fn(0b000) == 0
    assert c.fn(0b001) == 1
    assert c.fn(0b011) == 0
    assert c.fn(0b111) == 0
    assert list(c.labels(np.array([0, 1, 2, 3]))) == [0, 1, 1, 0]


def test_conjunction_concept_labels():
    c = conjunction_concept(0b101, 3)
    assert c.fn(0b101) == 1
    assert c.fn(0b111) == 1
    assert c.fn(0b100) == 0


def test_uniform_distribution_weights():
    assert len(UNIFORM3.points) == 8
    assert UNIFORM3.is_uniform
    assert abs(sum(UNIFORM3.weights) - 1.0) < 1e-12


def test_from_pairs_validation():
    d = FiniteDistribution.from_pairs(2, [(0, 0.5), (3, 0.5)])
    assert d.points == (0, 3)
    with pytest.raises(ValueError):
        FiniteDistribution.from_pairs(2, [(0, 0.6), (3, 0.6)])
    with pytest.raises(ValueError):
        FiniteDistribution.from_pairs(2, [(0, 1.5), (3, -0.5)])


# -- unary oracle -----------------------------------------------------


def test_sq_answer_constant_cases():
    c0 = Concept("zero", 3, lambda x: 0)
    assert sq_answer(SqQuery(lambda x, l: l == 1, 0.1), c0, UNIFORM3) == 0.0
    assert sq_answer(SqQuery(lambda x, l: True, 0.1), c0, UNIFORM3) == 1.0


def test_sq_answer_hand_example():
    c = parity_concept(0b011, 3)
    q = SqQuery(lambda x, l: (x & 1) == 1 and l == 1, 0.1)
    assert sq_answer(q, c, UNIFORM3) == 0.25


def test_adversarial_mode_pushes_away_from_half():
    c = parity_concept(0b001, 3)
    # truth exactly 1/2: ties break upward
    q_half = SqQuery(lambda x, l: (x & 1) == 1 and l == 1, 0.05)
    assert sq_answer(q_half, c, UNIFORM3) == 0.5
    assert sq_answer(q_half, c, UNIFORM3, AdversarialWorst()) == pytest.approx(0.55)
    # truth below 1/2: pushed further down
    q_low = SqQuery(lambda x, l: (x & 3) == 3 and l == 1, 0.05)
    assert sq_answer(q_low, c, UNIFORM3) == 0.25
    assert sq_answer(q_low, c, UNIFORM3, AdversarialWorst()) == pytest.approx(0.20)
    # answers stay inside [0, 1]
    q_all = SqQuery(lambda x, l: True, 0.2)
    assert sq_answer(q_all, c, UNIFORM3, AdversarialWorst()) == 1.0


def test_sampled_mode_converges():
    c = parity_concept(0b011, 3)
    q = SqQuery(lambda x, l: (x & 1) == 1 and l == 1, 0.1)
    got = sq_answer(q, c, UNIFORM3, SampledNoisy(samples=40000, seed=3))
    assert abs(got - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / 40000)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        SqQuery(lambda x, l: True, 0.0)
    with pytest.raises(ValueError):
        KWiseQuery(0, lambda xs, ls: True, 0.1)


# -- k-wise oracle ----------------------------------------------------


def test_kwise_arity_one_matches_unary():
    c = parity_concept(0b101, 3)
    for pred in (lambda x, l: l == 1, lambda x, l: (x >> 1) & 1 == l):
        unary = sq_answer(SqQuery(pred, 0.1), c, UNIFORM3)
        kwise = kwise_answer(
            KWiseQuery(1, lambda xs, ls, p=pred: p(xs[0], ls[0]), 0.1),
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
    from lpn.gf2 import GaussStatus, gaussian_solve, rank_ints

    c = parity_concept(0b01, 2)  # target (1, 0)
    dist = FiniteDistribution.uniform_over(2)
    q_basis = KWiseQuery(2, lambda xs, ls: rank_ints(xs) == 2, 0.01)
    assert kwise_answer(q_basis, c, dist) == 0.375

    # the bit-1 refinement keeps the full basis mass, bit 2 none of it
    def solved_bit(xs, ls, i):
        res = gaussian_solve(xs, ls, 2)
        return res.status is GaussStatus.SOLVED and res.solution.bit(i)

    q1 = KWiseQuery(2, lambda xs, ls: solved_bit(xs, ls, 0), 0.01)
    q2 = KWiseQuery(2, lambda xs, ls: solved_bit(xs, ls, 1), 0.01)
    assert kwise_answer(q1, c, dist) == 0.375
    assert kwise_answer(q2, c, dist) == 0.0


def test_kwise_enumeration_cap():
    c = parity_concept(1, 12)
    dist = FiniteDistribution.uniform_over(12)
    with pytest.raises(ValueError):
        kwise_answer(KWiseQuery(2, lambda xs, ls: True, 0.1), c, dist)


def test_kwise_sampled_mode():
    q = named_query("labels-agree")
    c = parity_concept(0b11, 2)
    dist = FiniteDistribution.uniform_over(2)
    got = kwise_answer(q, c, dist, SampledNoisy(samples=20000, seed=9))
    assert abs(got - 0.5) <= 3 * math.sqrt(0.25 / 20000)


# -- advantage and dimension ------------------------------------------


def test_weak_advantage_extremes():
    c = parity_concept(0b010, 3)
    comp = Concept("not-c", 3, lambda x: 1 - c.fn(x))
    other = parity_concept(0b100, 3)
    assert weak_advantage(c, c, UNIFORM3) == 0.5
    assert weak_advantage(comp, c, UNIFORM3) == -0.5
    assert weak_advantage(other, c, UNIFORM3) == 0.0


def test_sq_dimension_all_parities():
    concepts, dist = concept_class("parity:3-of-3")
    rep = sq_dimension(concepts, dist)
    assert rep.d == 8
    assert rep.max_abs_correlation == 0.0
    assert rep.exact
    assert len(rep.witness) == 8


def test_sq_dimension_complement_pair():
    c = parity_concept(0b01, 2)
    comp = Concept("not-c", 2, lambda x: 1 - c.fn(x))
    rep = sq_dimension([c, comp], FiniteDistribution.uniform_over(2))
    assert rep.d == 1


def test_sq_dimension_greedy_matches_exhaustive_on_parities():
    concepts, dist = concept_class("parity:4-of-4")
    exhaustive = sq_dimension(concepts, dist)
    greedy = sq_dimension(concepts, dist, exact_below=0)
    assert exhaustive.d == greedy.d == 16
    assert not greedy.exact


def test_sq_dimension_rejects_empty_class():
    with pytest.raises(ValueError):
        sq_dimension([], UNIFORM3)


def test_concept_class_parsing():
    cls, dist = concept_class("parity:2-of-5")
    assert len(cls) == 4 and dist.n == 5
    cls, _ = concept_class("conjunction:2-of-2")
    assert len(cls) == 4
    for bad in ("parity:9", "mystery:2-of-3", "parity:4-of-2"):
        with pytest.raises(ValueError):
            concept_class(bad)


def test_named_query_registry():
    assert named_query("labels-agree").k == 2
    assert named_query("label-is-first-coord").k == 1
    with pytest.raises(ValueError):
        named_query("nope")


# -- the k-wise to unary reduction ------------------------------------


def test_reduction_label_independent_query_estimates_exactly():
    # the query never looks at labels, so no candidate can fire and the
    # estimate equals the true probability
    q = KWiseQuery(2, lambda xs, ls: xs[0] == xs[1], 0.05)
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
    assert weak_advantage(out.hypothesis, c, UNIFORM4) == out.advantage


def test_reduction_unbalanced_concept_short_circuits():
    c = conjunction_concept(0b1111, 4)  # true on one point of sixteen
    oracle = make_unary_oracle(c, UNIFORM4)
    out = kwise_to_unary_reduce(named_query("labels-agree"), 0.05, oracle,
                                UnlabeledDraws(UNIFORM4), seed=4)
    assert out.kind == "weak_hypothesis"
    assert out.tuples_tried == 0
    assert out.hypothesis.fn(0) == 0  # constant prediction of the majority
    assert out.advantage >= 0.4


def test_reduction_rejects_bad_eps():
    q = named_query("labels-agree")
    c = parity_concept(1, 4)
    oracle = make_unary_oracle(c, UNIFORM4)
    for eps in (0.0, 0.5, -0.1):
        with pytest.raises(ValueError):
            kwise_to_unary_reduce(q, eps, oracle, UnlabeledDraws(UNIFORM4))


# -- basis-query learner ----------------------------------------------


def test_basis_learner_k2_hand_case():
    t = basis_query_learner(2, parity_concept(0b01, 2))
    assert t.c == BitVec(2, 0b01)


def test_basis_learner_k3_exhaustive():
    for mask in range(8):
        t = basis_query_learner(3, parity_concept(mask, 3))
        assert t.c.bits == mask


def test_basis_learner_zero_target():
    t = basis_query_learner(3, parity_concept(0, 3))
    assert t.c.bits == 0


def test_basis_learner_rejects_width_mismatch():
    with pytest.raises(ValueError):
        basis_query_learner(3, parity_concept(1, 3),
                            FiniteDistribution.uniform_over(4))


def test_basis_learner_point_mass_has_no_basis():
    dist = FiniteDistribution.from_pairs(2, [(1, 1.0)])
    with pytest.raises(ValueError):
        basis_query_learner(2, parity_concept(1, 2), dist)
