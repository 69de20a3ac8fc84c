"""Bias formula, merge step, vote pipeline, and baseline solvers."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpn.gf2 import BitVec, BlockLayout, GaussStatus
from lpn import solvers
from lpn.instance import Explicit, ParityTarget, ReplaySource, Stream, new_source
from lpn.solvers import (
    MLE_MAX_K,
    BudgetExceededError,
    ISample,
    SolverConfig,
    SolverStatus,
    choose_parameters,
    collect_votes,
    gaussian_baseline,
    merge_step,
    mle_bruteforce,
    predicted_bias,
    recover_first_bit,
    recover_target,
    repetitions_for,
    xor_chain_oracle,
)

V = BitVec.from_string


# -- bias formula -----------------------------------------------------


def test_predicted_bias_values():
    assert predicted_bias(0.25, 1) == 0.75
    assert predicted_bias(0.0, 1000) == 1.0
    assert predicted_bias(0.25, 3) == 0.5625
    assert predicted_bias(0.25, 5) == 0.515625
    assert predicted_bias(0.25, 4) == 0.53125
    assert abs(predicted_bias(0.125, 4) - 0.658203125) < 1e-12


def test_predicted_bias_rejects_s_zero():
    with pytest.raises(ValueError):
        predicted_bias(0.25, 0)


def test_predicted_bias_decreases_in_s():
    vals = [predicted_bias(0.2, s) for s in range(1, 20)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 0.5 for v in vals)


def test_xor_chain_oracle_degenerate_cases():
    assert xor_chain_oracle(0.0, 1000, trials=2000, seed=1) == 1.0
    near_half = xor_chain_oracle(0.499, 1, trials=200000, seed=2)
    assert abs(near_half - 0.501) <= 3 * math.sqrt(0.25 / 200000)
    with pytest.raises(ValueError):
        xor_chain_oracle(0.25, 5, trials=0, seed=0)


def test_xor_chain_oracle_tracks_formula():
    for eta, s in [(0.25, 5), (0.125, 2), (0.4, 8)]:
        p = predicted_bias(eta, s)
        got = xor_chain_oracle(eta, s, trials=200000, seed=7)
        assert abs(got - p) <= 3 * math.sqrt(p * (1 - p) / 200000)


# -- parameter selection ----------------------------------------------


def test_repetitions_formula():
    # ceil(2 ln(2k/delta) / (1-2eta)^(2^a))
    assert repetitions_for(16, 0.125, 0.1, 2) == 37
    assert repetitions_for(24, 0.125, 0.1, 3) == 124
    assert repetitions_for(8, 0.0, 0.1, 2) == math.ceil(2 * math.log(160))


def test_choose_parameters_balanced():
    cfg = choose_parameters(64, 0.125, 0.1)
    assert (cfg.layout.a, cfg.layout.b) == (3, 22)
    cfg = choose_parameters(16, 0.125, 0.1)
    assert (cfg.layout.a, cfg.layout.b) == (2, 8)
    assert cfg.repetitions == 37
    cfg = choose_parameters(2, 0.125, 0.1)
    assert (cfg.layout.a, cfg.layout.b) == (1, 2)


def test_choose_parameters_shallow_profile():
    cfg = choose_parameters(64, 0.125, 0.1, profile="shallow")
    assert cfg.layout.a >= 1 and cfg.layout.a * cfg.layout.b >= 64
    deep = choose_parameters(64, 0.125, 0.1)
    assert cfg.layout.a <= deep.layout.a


def test_choose_parameters_covers_k():
    for k in range(2, 80):
        cfg = choose_parameters(k, 0.1, 0.1)
        assert cfg.layout.total >= k


# -- i-samples and the merge step -------------------------------------


def zero_sample(layout, bits, labels=None, prov=True):
    bits = np.asarray(bits, dtype=np.uint8)
    if labels is None:
        labels = np.zeros(len(bits), dtype=np.uint8)
    provenance = [frozenset([i]) for i in range(len(bits))] if prov else None
    return ISample(0, layout, bits, labels, provenance)


def test_merge_worked_example():
    layout = BlockLayout(2, 2)
    rows = [V(s).to_bits_row() for s in ("0110", "1110", "1001", "0101")]
    sample = zero_sample(layout, rows, labels=np.array([1, 0, 1, 1], dtype=np.uint8))
    out = merge_step(sample, rng=0)
    got = {BitVec.from_bits_row(r) for r in out.vectors}
    assert got == {V("1000"), V("1100")}
    assert out.i == 1
    # the two classes are {0110, 1110} and {1001, 0101}; each output is
    # the XOR of one class, so labels and provenance follow suit
    by_vec = {
        BitVec.from_bits_row(r): (int(l), p)
        for r, l, p in zip(out.vectors, out.labels, out.provenance)
    }
    assert by_vec[V("1000")] == (1, frozenset([0, 1]))
    assert by_vec[V("1100")] == (0, frozenset([2, 3]))
    out.validate()


def test_merge_single_class_loses_one():
    layout = BlockLayout(2, 3)
    rows = np.zeros((10, 6), dtype=np.uint8)
    rows[:, :3] = np.random.default_rng(0).integers(0, 2, size=(10, 3))
    rows[:, 3] = 1  # everyone shares block 2 value 100
    sample = zero_sample(layout, rows)
    out = merge_step(sample, rng=1)
    assert len(out) == 9
    assert not out.vectors[:, 3:].any()


def test_merge_all_singletons_empties():
    layout = BlockLayout(2, 2)
    rows = [V(s).to_bits_row() for s in ("0001", "0010", "0011")]
    out = merge_step(zero_sample(layout, rows), rng=2)
    assert len(out) == 0
    assert out.vectors.shape == (0, 4)


def test_merge_empty_input():
    layout = BlockLayout(3, 2)
    sample = ISample(0, layout, np.zeros((0, 6), dtype=np.uint8),
                     np.zeros(0, dtype=np.uint8))
    out = merge_step(sample, rng=3)
    assert len(out) == 0 and out.i == 1


def test_merge_rejects_fully_reduced_input():
    layout = BlockLayout(2, 2)
    sample = ISample(1, layout, np.zeros((2, 4), dtype=np.uint8),
                     np.zeros(2, dtype=np.uint8))
    with pytest.raises(ValueError):
        merge_step(sample, rng=0)


def test_isample_level_and_shape_validation():
    layout = BlockLayout(2, 2)
    with pytest.raises(ValueError):
        ISample(2, layout, np.zeros((1, 4), dtype=np.uint8),
                np.zeros(1, dtype=np.uint8))
    with pytest.raises(ValueError):
        ISample(0, layout, np.zeros((1, 5), dtype=np.uint8),
                np.zeros(1, dtype=np.uint8))
    with pytest.raises(ValueError):
        ISample(0, layout, np.zeros((2, 4), dtype=np.uint8),
                np.zeros(1, dtype=np.uint8))


def test_isample_validate_catches_stray_rows():
    layout = BlockLayout(2, 2)
    bad = ISample(1, layout, np.array([[0, 0, 1, 0]], dtype=np.uint8),
                  np.zeros(1, dtype=np.uint8))
    with pytest.raises(AssertionError):
        bad.validate()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 4),
    st.integers(1, 6),
    st.integers(2, 512),
    st.integers(0, 2**32 - 1),
)
def test_merge_structure_random(a, b, s, seed):
    layout = BlockLayout(a, b)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(s, layout.total), dtype=np.uint8)
    labels = rng.integers(0, 2, size=s, dtype=np.uint8)
    sample = zero_sample(layout, bits, labels)
    out = merge_step(sample, rng=rng)
    assert len(out) >= s - 2**b
    zero_from = (a - 1) * b
    assert not out.vectors[:, zero_from:].any()
    out.validate(originals=(bits, labels))
    for p in out.provenance:
        assert len(p) == 2  # each merged row combines exactly two inputs


def test_two_merges_track_provenance_to_depth_four():
    layout = BlockLayout(3, 3)
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2, size=(600, 9), dtype=np.uint8)
    labels = rng.integers(0, 2, size=600, dtype=np.uint8)
    sample = zero_sample(layout, bits, labels)
    out = merge_step(merge_step(sample, rng=rng), rng=rng)
    assert out.i == 2
    assert len(out) >= 600 - 2 * 2**3
    out.validate(originals=(bits, labels))
    sizes = {len(p) for p in out.provenance}
    assert sizes <= {2, 4} and 4 in sizes


def test_aggregated_labels_match_bias_formula():
    # regenerate clean labels from a known target and check that, after
    # two merges, the aggregated label of each entry is correct with
    # frequency near predicted_bias(eta, chain length)
    layout = BlockLayout(3, 4)
    eta = 0.125
    src = new_source(12, eta, seed=77)
    bits, labels, _ = src.draw_batch(4000)
    sample = zero_sample(layout, bits, labels)
    out = merge_step(merge_step(sample, rng=np.random.default_rng(78)),
                     rng=np.random.default_rng(79))
    out.validate(originals=(bits, labels))
    clean = src.target.predict_rows(out.vectors)
    by_size = {}
    for ok, p in zip(clean == out.labels, out.provenance):
        by_size.setdefault(len(p), []).append(bool(ok))
    for s_chain, oks in by_size.items():
        if len(oks) < 200:
            continue
        p = predicted_bias(eta, s_chain)
        rate = sum(oks) / len(oks)
        # entries sharing a representative are correlated, so allow a
        # widened band around the binomial deviation
        assert abs(rate - p) <= 4.5 * math.sqrt(p * (1 - p) / len(oks))


# -- vote collection and recovery -------------------------------------


def test_recover_first_bit_noiseless():
    src = new_source(8, 0.0, seed=5)
    cfg = SolverConfig(layout=BlockLayout(2, 4), repetitions=5)
    bit, (ones, zeros) = recover_first_bit(src, cfg)
    assert bit == src.target.c.bit(0)
    assert ones + zeros == 5
    assert ones in (0, 5)  # noiseless votes all agree


def test_collect_votes_tracks_provenance_sizes():
    src = new_source(8, 0.1, seed=6)
    cfg = SolverConfig(layout=BlockLayout(2, 4), repetitions=8,
                       track_provenance=True)
    votes = collect_votes(src, cfg, 8)
    assert len(votes) == 8
    for label, size in votes:
        assert label in (0, 1)
        assert 1 <= size <= 2  # one merge level: chains of at most two


def test_collect_votes_bias_matches_formula():
    eta = 0.25
    src = new_source(8, eta, seed=19)
    cfg = SolverConfig(layout=BlockLayout(2, 4))
    votes = collect_votes(src, cfg, 400)
    c1 = src.target.c.bit(0)
    rate = sum(1 for l, _ in votes if l == c1) / 400
    p = predicted_bias(eta, 2)
    assert abs(rate - p) <= 3 * math.sqrt(p * (1 - p) / 400)


@pytest.mark.parametrize("a,b", [(2, 4), (3, 3)])
def test_tracking_provenance_changes_no_vote(a, b):
    layout = BlockLayout(a, b)
    k = layout.total
    plain = SolverConfig(layout, repetitions=15)
    tracked = replace(plain, track_provenance=True)

    untracked_votes = collect_votes(new_source(k, 0.125, seed=21), plain, 60)
    tracked_votes = collect_votes(new_source(k, 0.125, seed=21), tracked, 60)
    assert [l for l, _ in tracked_votes] == [l for l, _ in untracked_votes]
    assert all(size is None for _, size in untracked_votes)
    sizes = {size for _, size in tracked_votes}
    # chains of 2^(a-1) draws, shorter where one draw cancels itself
    assert 2 ** (a - 1) in sizes
    assert sizes <= set(range(2, 2 ** (a - 1) + 1, 2))

    r0 = recover_target(new_source(k, 0.125, seed=22), plain)
    r1 = recover_target(new_source(k, 0.125, seed=22), tracked)
    assert r1.status is r0.status is SolverStatus.RECOVERED
    assert (r1.c_hat, r1.examples_used, r1.per_bit_votes) == (
        r0.c_hat, r0.examples_used, r0.per_bit_votes)

    # each tracked vote XORs back to the probe e1 and its own label
    src = new_source(k, 0.125, seed=23)
    labels, prov = solvers._collect_votes_batched(
        solvers._ShiftedView(src, k), layout, 40, np.random.default_rng(5),
        solvers._BudgetTracker(src, None), track=True,
    )
    assert prov.shape == (40, 2 ** (a - 1))
    bits, draw_labels, _ = new_source(k, 0.125, seed=23).draw_batch(
        src.draw_count)
    probe = np.zeros(k, dtype=np.uint8)
    probe[0] = 1
    assert (np.bitwise_xor.reduce(bits[prov], axis=1) == probe).all()
    assert np.array_equal(np.bitwise_xor.reduce(draw_labels[prov], axis=1),
                          labels)


def test_provenance_check_rejects_a_wrong_draw():
    rng = np.random.default_rng(3)
    draws = rng.integers(0, 2, size=(8, 4), dtype=np.uint8)
    draw_labels = rng.integers(0, 2, size=8, dtype=np.uint8)
    prov = np.array([[0, 1], [2, 3]])
    bits = draws[[0, 2]] ^ draws[[1, 3]]
    labels = draw_labels[[0, 2]] ^ draw_labels[[1, 3]]
    solvers._check_provenance(bits, labels, prov, draws, draw_labels)
    with pytest.raises(AssertionError):
        solvers._check_provenance(bits, labels ^ np.array([0, 1], np.uint8),
                                  prov, draws, draw_labels)
    draws[1, 0] ^= 1
    with pytest.raises(AssertionError):
        solvers._check_provenance(bits, labels, prov, draws, draw_labels)


def test_votes_use_fresh_examples():
    src = new_source(8, 0.1, seed=8)
    cfg = SolverConfig(layout=BlockLayout(2, 4), repetitions=10)
    before = src.draw_count
    recover_first_bit(src, cfg)
    used = src.draw_count - before
    assert used >= 10 * 2 * 2**4  # at least a*2^b fresh draws per vote


def test_recover_target_noiseless():
    src = new_source(8, 0.0, seed=9)
    cfg = SolverConfig(layout=BlockLayout(2, 4), repetitions=3)
    res = recover_target(src, cfg)
    assert res.status is SolverStatus.RECOVERED
    assert res.c_hat == src.target
    assert len(res.per_bit_votes) == 8
    assert all(o + z == 3 for o, z in res.per_bit_votes)
    assert res.examples_used == src.draw_count


def test_recover_target_with_padding():
    # k=6 under a (2, 4) layout pads two coordinates; recovery still
    # returns a length-6 target
    src = new_source(6, 0.0, seed=10)
    cfg = SolverConfig(layout=BlockLayout(2, 4), repetitions=3)
    res = recover_target(src, cfg)
    assert res.status is SolverStatus.RECOVERED
    assert res.c_hat == src.target
    assert res.c_hat.k == 6


def test_recover_target_small_noisy():
    hits = 0
    for seed in range(10):
        src = new_source(8, 0.125, seed=100 + seed)
        cfg = SolverConfig(layout=BlockLayout(2, 4), delta=0.1)
        res = recover_target(src, cfg)
        hits += res.c_hat == src.target
    assert hits >= 9


def test_budget_exceeded_raises_and_reports():
    src = new_source(8, 0.1, seed=12)
    cfg = SolverConfig(layout=BlockLayout(2, 4), repetitions=50, max_examples=300)
    with pytest.raises(BudgetExceededError):
        recover_first_bit(src, cfg)


def test_recover_target_budget_status():
    src = new_source(8, 0.1, seed=13)
    cfg = SolverConfig(layout=BlockLayout(2, 4), repetitions=50, max_examples=300)
    res = recover_target(src, cfg)
    assert res.status is SolverStatus.BUDGET_EXCEEDED
    assert res.c_hat is None
    assert res.examples_used <= 300 + 2 * 2**4


def short_replay(count, seed):
    src = new_source(8, 0.1, seed=seed)
    bits, labels, _ = src.draw_batch(count)
    return ReplaySource(bits, labels, eta=0.1, seed=seed)


def test_finite_source_is_a_budget():
    # a bit takes 40 votes of 2*2^4 = 32 draws each, 1280 rows plus
    # redraws; the replay holds 2000, so the solve ends on bit 2
    cfg = SolverConfig(layout=BlockLayout(2, 4), repetitions=40)
    src = short_replay(2000, 30)
    res = recover_target(src, cfg)
    assert res.status is SolverStatus.BUDGET_EXCEEDED
    assert res.c_hat is None
    assert res.examples_used == src.draw_count > 0
    assert len(src) - res.examples_used < 40 * 32
    assert res.wall_time_s > 0
    with pytest.raises(BudgetExceededError):
        recover_first_bit(short_replay(1000, 31), cfg)
    with pytest.raises(BudgetExceededError):
        collect_votes(short_replay(1000, 32), cfg, 40)
    # the tighter of max_examples and the rows left wins
    capped = replace(cfg, max_examples=1500)
    src = short_replay(2000, 33)
    assert recover_target(src, capped).examples_used == src.draw_count <= 1500


def test_finite_stream_source_is_a_budget():
    # 30 votes of 32 draws need 960 rows; the stream holds 500
    rng = np.random.default_rng(34)
    xs = tuple(BitVec.from_bits_row(row)
               for row in rng.integers(0, 2, size=(500, 8), dtype=np.uint8))
    src = new_source(8, 0.1, distribution=Stream(xs), seed=34)
    assert src.remaining() == 500
    cfg = SolverConfig(layout=BlockLayout(2, 4), repetitions=30)
    res = recover_target(src, cfg)
    assert res.status is SolverStatus.BUDGET_EXCEEDED
    assert res.examples_used == src.draw_count == 0
    assert src.remaining() == 500


def test_redraw_cap_trips_on_degenerate_distribution():
    # a point mass never produces the probe vector, so every vote
    # redraws until the cap trips
    dist = Explicit((V("1111"),), (1.0,))
    src = new_source(4, 0.0, distribution=dist, seed=14)
    cfg = SolverConfig(layout=BlockLayout(2, 2), repetitions=1)
    with pytest.raises(BudgetExceededError):
        recover_first_bit(src, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(layout=BlockLayout(2, 4), delta=0.0)
    with pytest.raises(ValueError):
        SolverConfig(layout=BlockLayout(2, 4), repetitions=0)


def test_auto_repetitions_need_a_noise_rate():
    data_bits = np.zeros((10, 8), dtype=np.uint8)
    from lpn.instance import ReplaySource

    src = ReplaySource(data_bits, np.zeros(10, dtype=np.uint8))
    cfg = SolverConfig(layout=BlockLayout(2, 4))
    with pytest.raises(ValueError):
        recover_first_bit(src, cfg)


# -- brute-force MLE --------------------------------------------------


def naive_mle(samples, k):
    best, best_err = 0, len(samples) + 1
    for cand in range(1 << k):
        t = ParityTarget(BitVec(k, cand))
        err = sum(1 for s in samples if t.predict(s.x) != s.label)
        if err < best_err:
            best, best_err = cand, err
    return BitVec(k, best)


def test_mle_agrees_with_naive_enumeration():
    src = new_source(6, 0.2, seed=15)
    samples = [src.draw() for _ in range(60)]
    assert mle_bruteforce(samples, 6).c == naive_mle(samples, 6)


def test_mle_noiseless_recovers():
    for seed in range(5):
        src = new_source(8, 0.0, seed=200 + seed)
        samples = [src.draw() for _ in range(24)]
        assert mle_bruteforce(samples, 8) == src.target


def test_mle_tie_break_is_smallest_candidate():
    src = new_source(4, 0.0, distribution=Explicit((V("0000"),), (1.0,)), seed=1)
    samples = [src.draw() for _ in range(10)]
    assert mle_bruteforce(samples, 4).c == BitVec.zeros(4)


def test_mle_rejects_bad_inputs():
    src = new_source(4, 0.0, seed=1)
    with pytest.raises(ValueError):
        mle_bruteforce([], 4)
    with pytest.raises(ValueError):
        mle_bruteforce([src.draw()], MLE_MAX_K + 1)


def test_mle_moderate_noise_k16():
    hits = 0
    for seed in range(5):
        src = new_source(16, 0.2, seed=300 + seed)
        samples = [src.draw() for _ in range(2000)]
        hits += mle_bruteforce(samples, 16) == src.target
    assert hits == 5


# -- Gaussian baseline ------------------------------------------------


def test_gaussian_baseline_noiseless():
    src = new_source(8, 0.0, seed=16)
    samples = [src.draw() for _ in range(24)]
    res = gaussian_baseline(samples, 8)
    assert res.status is GaussStatus.SOLVED
    assert res.solution == src.target.c


def test_gaussian_baseline_underdetermined():
    src = new_source(8, 0.0, distribution=Explicit((V("10000000"),), (1.0,)),
                     seed=17)
    samples = [src.draw() for _ in range(10)]
    assert gaussian_baseline(samples, 8).status is GaussStatus.UNDERDETERMINED


def test_gaussian_baseline_breaks_under_noise():
    statuses = set()
    for seed in range(5):
        src = new_source(8, 0.25, seed=400 + seed)
        samples = [src.draw() for _ in range(48)]
        statuses.add(gaussian_baseline(samples, 8).status)
    assert GaussStatus.INCONSISTENT in statuses
