"""Bias formula, merge step, vote pipeline, and baseline solvers."""

import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import merge_oracle
import mle_oracle
from bitvec_helpers import bits_row, random_bitvec
from gf2_oracle import back_substitute, eliminate
from source_helpers import support_replay
from lpn.gf2 import BitVec, BlockLayout, GaussStatus, pack_words
from lpn import solvers
from lpn.instance import ReplaySource, new_source
from lpn.solvers import (
    GAUSS_MAX_K,
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
    recover_target,
    repetitions_for,
    xor_chain_oracle,
)

V = BitVec.from_string
VEC = solvers._VEC


def row_words(bits, labels):
    """(m, n) 0/1 rows, n <= 62, and their labels as int64 row words."""
    return pack_words(bits)[:, 0].view(np.int64) | labels.astype(np.int64) << 63


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


def test_choose_parameters_covers_k():
    for k in range(2, 80):
        cfg = choose_parameters(k, 0.1, 0.1)
        assert cfg.layout.total >= k


# one id per layout rule; the balanced depth a ~ lg(k)/2 is the only one
@pytest.mark.parametrize("profile", ["balanced"])
def test_choose_parameters_fit_the_62_bit_limit(profile):
    for k in range(1, 63):
        solvers._check_layout(k, choose_parameters(k, 0.1, 0.1).layout)
    for k in (61, 62):
        layout = choose_parameters(k, 0.1, 0.1).layout
        assert (layout.a, layout.b) == (2, 31)


@pytest.mark.parametrize("profile", ["balanced"])
def test_choose_parameters_keep_the_profile_depth_up_to_k60(profile):
    for k in range(1, 61):
        a = max(1, round(math.log2(k) / 2))
        layout = choose_parameters(k, 0.1, 0.1).layout
        assert (layout.a, layout.b) == (a, math.ceil(k / a))


def test_predicted_examples_values():
    # the survivor model at the benchmark's and AC-1's settings
    assert round(solvers.predicted_examples(24, 0.125, 0.1, BlockLayout(3, 8))) \
        == 3299279
    assert round(solvers.predicted_examples(24, 0.125, 1e-4, BlockLayout(3, 8))) \
        == 6971058
    with pytest.raises(ValueError, match="infeasible"):
        solvers.predicted_examples(24, 0.49, 0.1, BlockLayout(6, 4))


def mean_examples_used(k, eta, layout, seeds=range(6)):
    cfg = SolverConfig(layout, repetitions_for(k, eta, 0.1, layout.a))
    return np.mean([recover_target(new_source(k, eta, seed=s), cfg).examples_used
                    for s in seeds])


@pytest.mark.parametrize("k,eta,a,b", [
    (8, 0.125, 2, 4), (9, 0.125, 3, 3), (10, 0.1, 2, 5), (12, 0.125, 2, 6),
    (16, 0.2, 2, 8), (11, 0.125, 2, 6), (13, 0.125, 2, 7),
])
def test_predicted_examples_track_the_mean_of_six_solves(k, eta, a, b):
    # one solve spreads by 1.5-3% around the model; the mean of six
    # lies within 5% of it, on padded layouts (11 and 13 bits) too
    layout = BlockLayout(a, b)
    want = solvers.predicted_examples(k, eta, 0.1, layout)
    assert abs(mean_examples_used(k, eta, layout) / want - 1) < 0.05


# -- i-samples and the merge step -------------------------------------


def zero_sample(layout, bits, labels=None, prov=True):
    bits = np.asarray(bits, dtype=np.uint8)
    if labels is None:
        labels = np.zeros(len(bits), dtype=np.uint8)
    provenance = np.arange(len(bits))[:, None] if prov else None
    return ISample(0, layout, row_words(bits, labels), provenance)


def vectors(sample):
    """The rows of a sample as BitVecs of the layout's width."""
    return [BitVec(sample.layout.total, int(w) & VEC) for w in sample.words]


def test_merge_worked_example():
    layout = BlockLayout(2, 2)
    rows = [bits_row(V(s)) for s in ("0110", "1110", "1001", "0101")]
    sample = zero_sample(layout, rows, labels=np.array([1, 0, 1, 1], dtype=np.uint8))
    out = merge_step(sample, rng=0)
    assert set(vectors(out)) == {V("1000"), V("1100")}
    assert out.i == 1
    # the two classes are {0110, 1110} and {1001, 0101}; each output is
    # the XOR of one class, so labels and provenance follow suit
    by_vec = {
        v: (int(l), sorted(p.tolist()))
        for v, l, p in zip(vectors(out), out.labels, out.provenance)
    }
    assert by_vec[V("1000")] == (1, [0, 1])
    assert by_vec[V("1100")] == (0, [2, 3])
    out.validate()


def test_merge_single_class_loses_one():
    layout = BlockLayout(2, 3)
    rows = np.zeros((10, 6), dtype=np.uint8)
    rows[:, :3] = np.random.default_rng(0).integers(0, 2, size=(10, 3))
    rows[:, 3] = 1  # everyone shares block 2 value 100
    sample = zero_sample(layout, rows)
    out = merge_step(sample, rng=1)
    assert len(out) == 9
    assert not ((out.words & VEC) >> 3).any()


def test_merge_all_singletons_empties():
    layout = BlockLayout(2, 2)
    rows = [bits_row(V(s)) for s in ("0001", "0010", "0011")]
    out = merge_step(zero_sample(layout, rows), rng=2)
    assert len(out) == 0
    assert out.words.shape == (0,)


def test_merge_empty_input():
    layout = BlockLayout(3, 2)
    sample = ISample(0, layout, np.zeros(0, dtype=np.int64))
    out = merge_step(sample, rng=3)
    assert len(out) == 0 and out.i == 1


def test_merge_rejects_fully_reduced_input():
    layout = BlockLayout(2, 2)
    sample = ISample(1, layout, np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError):
        merge_step(sample, rng=0)


def test_isample_level_and_shape_validation():
    layout = BlockLayout(2, 2)
    with pytest.raises(ValueError):
        ISample(2, layout, np.zeros(1, dtype=np.int64))
    for words in (np.zeros((1, 4), dtype=np.uint8), np.zeros((1, 1), np.int64),
                  np.zeros(1, dtype=np.uint64)):
        with pytest.raises(ValueError, match="int64"):
            ISample(0, layout, words)
    with pytest.raises(ValueError):  # one provenance row short
        ISample(0, layout, np.zeros(2, dtype=np.int64), np.zeros((1, 1)))


def test_isample_validate_catches_stray_rows():
    layout = BlockLayout(2, 2)
    bad = ISample(1, layout, row_words(np.array([[0, 0, 1, 0]], dtype=np.uint8),
                                       np.ones(1, dtype=np.uint8)))
    with pytest.raises(AssertionError):
        bad.validate()


def test_isample_validate_rejects_bad_provenance():
    layout = BlockLayout(3, 3)
    rng = np.random.default_rng(12)
    bits = rng.integers(0, 2, size=(300, 9), dtype=np.uint8)
    labels = rng.integers(0, 2, size=300, dtype=np.uint8)
    out = merge_step(merge_step(zero_sample(layout, bits, labels), rng=rng),
                     rng=rng)
    words = row_words(bits, labels)
    out.validate(originals=words)
    flipped = out.words.copy()
    flipped[0] ^= np.int64(-(1 << 63))  # row 0's label
    wrong = words.copy()
    # a draw that row 0 XORs an odd number of times
    drawn, times = np.unique(out.provenance[0], return_counts=True)
    wrong[drawn[times % 2 == 1][0]] ^= 1
    for sample, originals in [
        (replace(out, words=flipped), words),
        (out, wrong),
        # widths 0 and 5 lie outside 1..2^2
        (replace(out, provenance=out.provenance[:, :0]), None),
        (replace(out, provenance=out.provenance[:, [0, 0, 1, 2, 3]]), None),
    ]:
        with pytest.raises(AssertionError):
            sample.validate(originals=originals)


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
    assert not ((out.words & VEC) >> zero_from).any()
    out.validate(originals=row_words(bits, labels))
    # each merged row combines exactly two distinct inputs
    assert out.provenance.shape == (len(out), 2)
    assert (out.provenance[:, 0] != out.provenance[:, 1]).all()


def test_two_merges_track_provenance_to_depth_four():
    layout = BlockLayout(3, 3)
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2, size=(600, 9), dtype=np.uint8)
    labels = rng.integers(0, 2, size=600, dtype=np.uint8)
    sample = zero_sample(layout, bits, labels)
    out = merge_step(merge_step(sample, rng=rng), rng=rng)
    assert out.i == 2
    assert len(out) >= 600 - 2 * 2**3
    out.validate(originals=row_words(bits, labels))
    assert out.provenance.shape == (len(out), 4)
    sizes = {solvers._chain_size(p) for p in out.provenance}
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
    out.validate(originals=row_words(bits, labels))
    clean = src.target.dot_words((out.words & VEC).view(np.uint64)[:, None])
    by_size = {}
    for ok, p in zip(clean == out.labels, out.provenance):
        by_size.setdefault(solvers._chain_size(p), []).append(bool(ok))
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
    res = recover_target(src, cfg)
    ones, zeros = res.per_bit_votes[0]
    assert res.c_hat.bit(0) == src.target.bit(0)
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
    cfg = SolverConfig(layout=BlockLayout(2, 4), repetitions=1)
    votes = collect_votes(src, cfg, 400)
    c1 = src.target.bit(0)
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
        src, 0, layout, 40, np.random.default_rng(5),
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
    draws = row_words(rng.integers(0, 2, size=(8, 4), dtype=np.uint8),
                      rng.integers(0, 2, size=8, dtype=np.uint8))
    prov = np.array([[0, 1], [2, 3]])
    x = draws[[0, 2]] ^ draws[[1, 3]]
    solvers._check_provenance(x, prov, draws)
    with pytest.raises(AssertionError):  # the second row's label flipped
        solvers._check_provenance(x ^ np.array([0, -(1 << 63)]), prov, draws)
    draws[1] ^= 1
    with pytest.raises(AssertionError):
        solvers._check_provenance(x, prov, draws)


# -- the packed vote pipeline against the uint8 reference -------------

DIFF_LAYOUTS = [(2, 4), (3, 3), (3, 8), (4, 5), (2, 31), (1, 8)]


def colliding_rows(w, b, n, rng):
    """n rows of width w, half uniform and half from a pool of 16 rows
    with coordinates 1 and b flipped at random, so merges meet and
    leave e1, e_b and e1 + e_b in block 1."""
    rows = rng.integers(0, 2, size=(n, w), dtype=np.uint8)
    pool = rng.integers(0, 2, size=(16, w), dtype=np.uint8)
    half = rows[: n // 2]
    half[:] = pool[rng.integers(0, 16, size=len(half))]
    half[:, [0, b - 1]] ^= rng.integers(0, 2, size=(len(half), 2), dtype=np.uint8)
    return rows


@pytest.mark.parametrize("track", [False, True])
@pytest.mark.parametrize("where", ["0", "1", "W-1"])
@pytest.mark.parametrize("a,b", DIFF_LAYOUTS)
def test_packed_round_matches_reference(a, b, where, track):
    layout = BlockLayout(a, b)
    w = layout.total
    shift = {"0": 0, "1": 1, "W-1": w - 1}[where]
    rng = np.random.default_rng([a, b, shift])
    n_seg, per = 6, 400
    # unrotate, so the view's rotation brings the pool rows back
    rows = np.roll(colliding_rows(w, b, n_seg * per, rng), shift, axis=1)
    labels = rng.integers(0, 2, size=len(rows), dtype=np.uint8)
    bits, ref_labels, _ = merge_oracle.ShiftedView(
        ReplaySource(pack_words(rows), labels, w), w, shift).draw_batch(len(rows))
    words = solvers._ShiftedView(
        ReplaySource(pack_words(rows), labels, w), w, shift).draw_batch(len(rows))
    assert np.array_equal(words, row_words(bits, ref_labels))

    seg = np.repeat(np.arange(n_seg, dtype=np.int64), per)
    ref_rng = np.random.default_rng(9)
    want, want_prov = merge_oracle.vote_round(
        bits, ref_labels, seg, layout, ref_rng, track)
    assert len(want) > 0
    # the round's segments in tiles of whole segments, each tile
    # numbering its own from 0, against the reference on one array
    for tiles in [(6,), (4, 2), (1,) * 6]:
        bounds = np.cumsum((0,) + tiles) * per
        rng = np.random.default_rng(9)
        got, prov = solvers._vote_round(
            [(words[lo:hi], seg[lo:hi] - seg[lo])
             for lo, hi in zip(bounds, bounds[1:])], layout, rng, track)
        assert ((got & solvers._VEC) == 1).all()
        assert np.array_equal((got < 0).astype(np.uint8), want), tiles
        if track:
            assert np.array_equal(prov, want_prov), tiles
        else:
            assert prov is None and want_prov is None
        assert rng.bit_generator.state == ref_rng.bit_generator.state, tiles


def merge_input(case, layout, rng):
    """Rows and int64 segment ids for one per-level merge case."""
    a, b, w = layout.a, layout.b, layout.total
    sizes = {"colliding": [400] * 6, "one-row segment": [400, 1, 399, 1],
             "wide segment ids": [200] * 6,
             "singletons": [min(2**b, 50)] * 3, "s=0": [0], "s=1": [1]}[case]
    if case in ("colliding", "one-row segment", "wide segment ids"):
        rows = colliding_rows(w, b, sum(sizes), rng)
    else:
        rows = rng.integers(0, 2, size=(sum(sizes), w), dtype=np.uint8)
    if case == "singletons":
        # distinct values of the first collapsed block in each segment
        vals = np.concatenate([rng.choice(2**b, n, replace=False) for n in sizes])
        lo, hi = layout.bounds(a)
        rows[:, lo:hi] = vals[:, None] >> np.arange(b) & 1
    seg = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    if case == "wide segment ids":
        # keys past 31 bits, so the merge must sort 64-bit keys; at
        # b = 31 they still fit the 63-bit bound
        seg += 2**20
    return rows, seg


@pytest.mark.parametrize("track", [False, True])
@pytest.mark.parametrize(
    "case", ["colliding", "one-row segment", "wide segment ids", "singletons",
             "s=0", "s=1"])
@pytest.mark.parametrize("a,b", [l for l in DIFF_LAYOUTS if l[0] > 1])
def test_merge_levels_match_reference(a, b, case, track):
    # a=1 has no merge level; every level must agree row for row
    layout = BlockLayout(a, b)
    rng = np.random.default_rng([a, b, len(case)])
    bits, ref_seg = merge_input(case, layout, rng)
    labels = rng.integers(0, 2, size=len(bits), dtype=np.uint8)
    x, seg = row_words(bits, labels), ref_seg
    prov = ref_prov = np.arange(len(bits))[:, None] if track else None
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    for level in range(a - 1):
        x, seg, prov = solvers._merge_segmented(x, seg, layout, level, rng, prov)
        bits, labels, ref_seg, ref_prov = merge_oracle.merge_segmented(
            bits, labels, ref_seg, layout, level, ref_rng, ref_prov)
        assert x.dtype == np.int64 and seg.dtype == np.int64
        assert np.array_equal(x, row_words(bits, labels))
        assert np.array_equal(seg, ref_seg)
        if track:
            assert np.array_equal(prov, ref_prov)
        else:
            assert prov is None and ref_prov is None
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    if case in ("colliding", "wide segment ids"):
        assert len(x) > 0
    if case in ("singletons", "s=1"):
        assert len(x) == 0


@pytest.mark.parametrize("track", [False, True])
@pytest.mark.parametrize("where", ["0", "1", "k-1"])
@pytest.mark.parametrize("a,b", [l for l in DIFF_LAYOUTS if l != (2, 31)])
def test_packed_votes_match_reference(monkeypatch, a, b, where, track):
    # one coordinate of padding; rounds of 7 votes, so a run spans rounds
    layout = BlockLayout(a, b)
    w, k = layout.total, layout.total - 1
    shift = {"0": 0, "1": 1, "k-1": k - 1}[where]
    m_per = a * 2**b
    monkeypatch.setattr(solvers, "_ROUND_CELLS", 7 * m_per * w)
    ref_src = new_source(k, 0.125, seed=31)
    ref_rng = np.random.default_rng(32)
    want, want_prov = merge_oracle.collect_votes(
        merge_oracle.ShiftedView(ref_src, w, shift), layout, 30, 7, ref_rng,
        track)
    # one vote per tile, one, three and a partial last tile of a
    # 7-vote round, and the whole round in one tile
    for tile_rows in (1, m_per, 3 * m_per + 1, 2**40):
        monkeypatch.setattr(solvers, "_TILE_ROWS", tile_rows)
        src, rng = new_source(k, 0.125, seed=31), np.random.default_rng(32)
        got, prov = solvers._collect_votes_batched(
            src, shift, layout, 30, rng, solvers._BudgetTracker(src, None),
            track)
        assert np.array_equal(got, want), tile_rows
        if track:
            assert np.array_equal(prov, want_prov), tile_rows
        else:
            assert prov is None and want_prov is None
        assert src.draw_count == ref_src.draw_count, tile_rows
        assert rng.bit_generator.state == ref_rng.bit_generator.state, tile_rows


def test_bkw_round_memory_is_bounded_by_its_tiles():
    # a k=24 3x8 round holds 262 votes of 768 draws, 201,216 rows; merged
    # as one array its temporaries peaked at 11.7 MB, in tiles of at
    # most 2^15 rows the solve stays near 4 MB
    reps = repetitions_for(24, 0.125, 1e-4, 3)
    src = new_source(24, 0.125, seed=41)
    tracemalloc.start()
    try:
        res = recover_target(src, SolverConfig(BlockLayout(3, 8), reps))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.c_hat == src.target
    assert peak < 6e6


def test_layouts_wider_than_62_bits_are_refused():
    src = new_source(8, 0.0, seed=1)
    cfg = SolverConfig(BlockLayout(2, 32), repetitions=3)
    for call in (lambda: recover_target(src, cfg),
                 lambda: collect_votes(src, cfg, 3),
                 lambda: ISample(0, BlockLayout(2, 32), np.zeros(4, np.int64))):
        with pytest.raises(ValueError, match="62-bit"):
            call()
    assert src.draw_count == 0


def test_uncapped_solve_past_2_40_examples_is_refused():
    src = new_source(40, 0.45, seed=1)
    cfg = choose_parameters(40, 0.45, 0.1)
    assert solvers.predicted_examples(40, 0.45, 0.1, cfg.layout) > 2**40
    with pytest.raises(ValueError, match=r"2\.98e\+15 examples"):
        recover_target(src, cfg)
    assert src.draw_count == 0
    res = recover_target(src, replace(cfg, max_examples=1000))
    assert res.status is SolverStatus.BUDGET_EXCEEDED


def test_votes_use_fresh_examples():
    src = new_source(8, 0.1, seed=8)
    cfg = SolverConfig(layout=BlockLayout(2, 4), repetitions=10)
    before = src.draw_count
    collect_votes(src, cfg, 10)
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
    assert res.c_hat.n == 6


def test_recover_target_small_noisy():
    hits = 0
    for seed in range(10):
        src = new_source(8, 0.125, seed=100 + seed)
        cfg = SolverConfig(BlockLayout(2, 4), repetitions_for(8, 0.125, 0.1, 2))
        res = recover_target(src, cfg)
        hits += res.c_hat == src.target
    assert hits >= 9


def test_budget_exceeded_raises_and_reports():
    src = new_source(8, 0.1, seed=12)
    cfg = SolverConfig(layout=BlockLayout(2, 4), repetitions=50, max_examples=300)
    with pytest.raises(BudgetExceededError):
        collect_votes(src, cfg, 50)


def test_recover_target_budget_status():
    src = new_source(8, 0.1, seed=13)
    cfg = SolverConfig(layout=BlockLayout(2, 4), repetitions=50, max_examples=300)
    res = recover_target(src, cfg)
    assert res.status is SolverStatus.BUDGET_EXCEEDED
    assert res.c_hat is None
    assert res.examples_used <= 300 + 2 * 2**4


def short_replay(count, seed):
    src = new_source(8, 0.1, seed=seed)
    words, labels, _ = src.draw_batch(count, packed=True)
    return ReplaySource(words, labels, 8, eta=0.1, seed=seed)


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
    with pytest.raises(BudgetExceededError):
        collect_votes(short_replay(1000, 32), cfg, 40)
    # the tighter of max_examples and the rows left wins
    capped = replace(cfg, max_examples=1500)
    src = short_replay(2000, 33)
    assert recover_target(src, capped).examples_used == src.draw_count <= 1500


def test_finite_stream_source_is_a_budget():
    # 30 votes of 32 draws need 960 rows; the replay holds 500
    everything = [BitVec(8, v) for v in range(256)]
    src = support_replay(everything, [1.0] * 256, 500, 0.1, seed=34)
    assert src.remaining() == 500
    cfg = SolverConfig(layout=BlockLayout(2, 4), repetitions=30)
    res = recover_target(src, cfg)
    assert res.status is SolverStatus.BUDGET_EXCEEDED
    assert res.examples_used == src.draw_count == 0
    assert src.remaining() == 500


def test_redraw_cap_trips_on_degenerate_distribution():
    # a point mass never produces the probe vector, so every vote
    # redraws until the cap trips; 50 redraws of a * 2^b = 8 rows fit
    # the 400 rows, so the row budget cannot trip first
    src = support_replay([V("1111")], [1.0], 400, 0.0, seed=14)
    cfg = SolverConfig(layout=BlockLayout(2, 2), repetitions=1)
    with pytest.raises(BudgetExceededError, match="after 50 redraws"):
        collect_votes(src, cfg, 1)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(layout=BlockLayout(2, 4), repetitions=0)


def test_config_has_one_vote_count_and_no_delta():
    assert [f.name for f in fields(SolverConfig)] == [
        "layout", "repetitions", "max_examples", "track_provenance"]
    with pytest.raises(TypeError):  # the vote count is required
        SolverConfig(BlockLayout(2, 4))
    # a delta passed where it once went lands on max_examples and is
    # refused there, not read as a budget of 0.1 examples
    with pytest.raises(ValueError, match="max_examples"):
        SolverConfig(BlockLayout(2, 4), 5, 0.1)


# -- brute-force MLE --------------------------------------------------


def draw_words(src, m):
    """The next m examples of src as (row words, labels)."""
    words, labels, _ = src.draw_batch(m, packed=True)
    return words, labels


def naive_mle(words, labels, k):
    xs = [int(w) for w in words[:, 0]]
    best, best_err = 0, len(xs) + 1
    for cand in range(1 << k):
        err = sum(1 for x, l in zip(xs, labels)
                  if (x & cand).bit_count() & 1 != l)
        if err < best_err:
            best, best_err = cand, err
    return BitVec(k, best)


def test_mle_agrees_with_naive_enumeration():
    # odd k and m not a multiple of 8 leave padding in the packed columns
    for k, m, seed in [(6, 60, 15), (1, 5, 1), (7, 61, 7), (13, 37, 13)]:
        words, labels = draw_words(new_source(k, 0.2, seed=seed), m)
        assert mle_bruteforce(words, labels, k) == naive_mle(words, labels, k)


def test_mle_noiseless_recovers():
    for seed in range(5):
        src = new_source(8, 0.0, seed=200 + seed)
        assert mle_bruteforce(*draw_words(src, 24), 8) == src.target


def test_mle_tie_break_is_smallest_candidate():
    src = support_replay([V("0000")], [1.0], 10, 0.0, seed=1)
    assert mle_bruteforce(*draw_words(src, 10), 4) == BitVec(4)


def test_mle_rejects_bad_inputs():
    words, labels = draw_words(new_source(4, 0.0, seed=1), 3)
    with pytest.raises(ValueError):
        mle_bruteforce(words[:0], labels[:0], 4)
    with pytest.raises(ValueError):
        mle_bruteforce(words, labels, MLE_MAX_K + 1)
    with pytest.raises(ValueError):  # one label short
        mle_bruteforce(words, labels[:2], 4)
    with pytest.raises(ValueError):  # words for a k above 64
        mle_bruteforce(np.zeros((3, 2), np.uint64), labels, 4)


@pytest.mark.parametrize("eta", [0.0, 0.2, 0.45])
@pytest.mark.parametrize("m", [1, 5, 61, 2000])
@pytest.mark.parametrize("k", [1, 2, 7, 13, 16, 20])
def test_mle_transform_matches_gray_code_walk(k, m, eta):
    # one and five rows leave most candidates tied at the fewest errors
    words, labels = draw_words(new_source(k, eta, seed=k * m), m)
    assert mle_bruteforce(words, labels, k).bits == mle_oracle.mle_gray(
        words, labels, k)


@pytest.mark.parametrize("k,m", [(7, 61), (13, 5), (16, 2000)])
def test_mle_transform_matches_gray_code_walk_on_ties(k, m):
    # rows from three vectors: a candidate's errors depend only on its
    # three parities, so each error count is shared by 2^(k-3) candidates
    rng = np.random.default_rng(k)
    support = [random_bitvec(k, rng) for _ in range(3)]
    words, labels = draw_words(support_replay(support, [0.5, 0.3, 0.2], m, 0.3, m), m)
    assert mle_bruteforce(words, labels, k).bits == mle_oracle.mle_gray(
        words, labels, k)


@pytest.mark.parametrize("m", [(1 << 15) - 1, 1 << 15])
@pytest.mark.parametrize("ones", ["none", "one", "all"])
def test_mle_transform_is_exact_at_the_table_type_bound(m, ones):
    # all rows on one vector, so the transform reaches -m or +m: 2^15 - 1
    # rows still fit an int16 table and 2^15 rows need int32.  With no
    # label 1 half the candidates tie at no errors; with every label 1
    # the best candidate scores +m.
    k, v = 9, 0b101101000
    words = np.full((m, 1), v, dtype=np.uint64)
    labels = np.zeros(m, dtype=np.uint8)
    labels[: {"none": 0, "one": 1, "all": m}[ones]] = 1
    assert mle_bruteforce(words, labels, k).bits == mle_oracle.mle_gray(
        words, labels, k)


def test_mle_peak_memory_is_the_table_and_a_bounded_scratch():
    # k=20 on 2,000 rows: a 2 MB int16 table, the transform's fixed-size
    # scratch, and slack; an int32 table alone would take 4 MB
    words, labels = draw_words(new_source(20, 0.1, seed=20), 2000)
    tracemalloc.start()
    try:
        mle_bruteforce(words, labels, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6


def test_mle_moderate_noise_k16():
    hits = 0
    for seed in range(5):
        src = new_source(16, 0.2, seed=300 + seed)
        hits += mle_bruteforce(*draw_words(src, 2000), 16) == src.target
    assert hits == 5


# -- Gaussian baseline ------------------------------------------------


@pytest.mark.parametrize("solve", [mle_bruteforce, gaussian_baseline])
def test_baselines_refuse_pad_bits_and_labels_other_than_0_and_1(solve):
    # a pad bit once rode on gauss's label in bit k, and a label of 2
    # solved to 00000 under gauss and read as 1 under mle
    words, labels = draw_words(new_source(5, 0.0, seed=1), 30)
    assert solve(words, labels, 5) is not None
    padded = words.copy()
    padded[3] |= np.uint64(1 << 5)
    with pytest.raises(ValueError, match="beyond coordinate 5"):
        solve(padded, labels, 5)
    with pytest.raises(ValueError, match="0 or 1"):
        solve(words, labels | 2, 5)


def test_gaussian_baseline_noiseless():
    src = new_source(8, 0.0, seed=16)
    res = gaussian_baseline(*draw_words(src, 24), 8)
    assert res.status is GaussStatus.SOLVED
    assert res.solution == src.target


def test_gaussian_baseline_underdetermined():
    src = support_replay([V("10000000")], [1.0], 10, 0.0, seed=17)
    res = gaussian_baseline(*draw_words(src, 10), 8)
    assert res.status is GaussStatus.UNDERDETERMINED


def test_gaussian_baseline_breaks_under_noise():
    statuses = set()
    for seed in range(5):
        src = new_source(8, 0.25, seed=400 + seed)
        statuses.add(gaussian_baseline(*draw_words(src, 48), 8).status)
    assert GaussStatus.INCONSISTENT in statuses


def test_gaussian_baseline_is_capped_at_gauss_max_k():
    # at the cap a short system is merely underdetermined; past it the
    # refusal comes before the rows are read
    k = GAUSS_MAX_K
    words, labels = draw_words(new_source(k, 0.0, seed=19), 10)
    assert gaussian_baseline(words, labels, k).status is GaussStatus.UNDERDETERMINED
    with pytest.raises(ValueError, match="capped at k=4096"):
        gaussian_baseline(words, labels, k + 1)


@pytest.mark.parametrize("eta,m", [(0.0, 40), (0.0, 90), (0.05, 300)])
def test_gaussian_baseline_matches_elimination_on_two_word_rows(eta, m):
    # k=70 rows span two words; the reference eliminates them as ints
    k = 70
    words, labels = draw_words(new_source(k, eta, seed=18), m)
    pivots, residues = eliminate(
        [int.from_bytes(w.tobytes(), "little") | int(l) << k
         for w, l in zip(words, labels)], (1 << k) - 1
    )
    if residues:
        want = (GaussStatus.INCONSISTENT, None)
    elif len(pivots) < k:
        want = (GaussStatus.UNDERDETERMINED, None)
    else:
        want = (GaussStatus.SOLVED, BitVec(k, back_substitute(pivots, k)))
    res = gaussian_baseline(*draw_words(new_source(k, eta, seed=18), m), k)
    assert (res.status, res.solution) == want
