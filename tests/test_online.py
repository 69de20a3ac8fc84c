"""Online per-example elimination: reduction and voting in the reference
decoder, and the batch engine checked against it."""

import math

import numpy as np
import pytest

from lpn.gf2 import BitVec
from lpn.instance import ReplaySource, new_source
from lpn.online import run_online
from lpn.solvers import predicted_bias
from online_oracle import (
    Captured,
    EliminationMatrix,
    MatrixBank,
    Zeroed,
    process_example,
    reduce_through,
    run_reference,
)

V = BitVec.from_string


# -- single-matrix reduction ------------------------------------------


def test_first_arrival_is_captured():
    m = EliminationMatrix(2, 2)
    out = reduce_through(m, V("0100"), 1)
    assert out == Captured(block=1, value=2)
    assert m.fill == 1
    assert m.rows[(1, 2)].vec == 0b0010 and m.rows[(1, 2)].label == 1


def test_zero_vector_zeroes_immediately():
    m = EliminationMatrix(2, 2)
    assert reduce_through(m, V("0000"), 1) == Zeroed(label=1, depth=1)
    assert m.fill == 0


def test_two_block_reduction_accumulates_depth():
    m = EliminationMatrix(2, 2)
    x1, l1 = V("1100"), 1  # block 1 = 11, block 2 = 00
    x2, l2 = V("1110"), 0  # block 1 = 11, block 2 = 10
    assert isinstance(reduce_through(m, x1, l1), Captured)
    out = reduce_through(m, x2, l2)
    assert out == Captured(block=2, value=1)
    row = m.rows[(2, 1)]
    assert row.vec == (x1 ^ x2).bits and row.label == l1 ^ l2 and row.depth == 2
    # a repeat of x2 now folds all the way down
    out = reduce_through(m, x2, 1)
    assert isinstance(out, Zeroed)
    assert out.label == 1 ^ l1 ^ (l1 ^ l2)
    assert out.depth == 4  # itself + row1 + the depth-2 row


def test_capture_skips_zero_blocks():
    m = EliminationMatrix(3, 2)
    out = reduce_through(m, V("000011"), 0)
    assert out == Captured(block=3, value=3)


def test_row_invariant_on_random_feed():
    rng = np.random.default_rng(4)
    m = EliminationMatrix(3, 3, track_provenance=True)
    for i in range(2000):
        m.reduce(int(rng.integers(0, 1 << 9)), int(rng.integers(0, 2)), index=i)
    assert m.fill <= m.capacity
    for (j, v), row in m.rows.items():
        assert (row.vec >> (j - 1) * 3) & 7 == v
        assert row.vec & ((1 << (j - 1) * 3) - 1) == 0
        assert row.depth <= 2 ** j


def test_matrix_fills_to_capacity_then_always_zeroes():
    rng = np.random.default_rng(5)
    m = EliminationMatrix(2, 3)
    for _ in range(4000):
        m.reduce(int(rng.integers(0, 1 << 6)), 0)
    assert m.fill == m.capacity == 2 * 7
    for x in range(1 << 6):
        assert isinstance(m.reduce(x, 0), Zeroed)


def test_oversized_example_rejected():
    m = EliminationMatrix(2, 2)
    with pytest.raises(ValueError):
        m.reduce(1 << 4, 0)
    with pytest.raises(ValueError):
        reduce_through(m, V("10000"), 0)


# -- bank voting ------------------------------------------------------


def test_unknown_requests_exactly_one_label():
    bank = MatrixBank(2, 2, t=3)
    calls = []
    pred = process_example(bank, V("1000"), lambda: calls.append(1) or 1)
    assert pred.kind == "unknown" and pred.captured_in == 1
    assert len(calls) == 1
    assert bank.matrices[0].fill == 1
    assert bank.matrices[1].fill == 0  # capture stops the pass


def test_captured_row_label_matches_supplied_label():
    bank = MatrixBank(2, 2, t=1)
    process_example(bank, V("1100"), lambda: 1)
    assert bank.matrices[0].rows[(1, 3)].label == 1


def test_prediction_is_exact_when_labels_are_clean():
    src = new_source(6, 0.0, seed=6)
    bank = MatrixBank(3, 2, t=1)
    seen = 0
    for _ in range(4000):
        ex = src.draw()
        pred = process_example(bank, ex.x, lambda ex=ex: ex.label)
        if pred.kind == "predicted":
            seen += 1
            assert pred.bit == src.target.predict(ex.x)
            assert not pred.tie
    assert seen > 3000


def test_majority_tie_resolves_to_zero():
    bank = MatrixBank(1, 2, t=2)
    labels = iter([1, 0])
    x = V("10")
    assert process_example(bank, x, lambda: next(labels)).kind == "unknown"
    assert process_example(bank, x, lambda: next(labels)).kind == "unknown"
    pred = process_example(bank, x, lambda: 0)
    assert pred.kind == "predicted"
    assert (pred.votes_for, pred.votes_against) == (1, 1)
    assert pred.tie and pred.bit == 0


def test_zeroed_provenance_reconstructs_example_and_label():
    src = new_source(8, 0.25, seed=7)
    bank = MatrixBank(2, 4, t=2, track_provenance=True)
    drawn = {}
    checked = 0
    for _ in range(3000):
        ex = src.draw()
        drawn[ex.index] = ex
        pred = process_example(
            bank, ex.x, lambda ex=ex: ex.label, index=ex.index, collect=True
        )
        if pred.kind != "predicted":
            continue
        for z in pred.votes:
            acc = BitVec.zeros(8)
            lab = 0
            for idx in z.provenance:
                acc ^= drawn[idx].x
                lab ^= drawn[idx].label
            assert acc == ex.x and lab == z.label
            checked += 1
    assert checked > 1000


# -- full runs --------------------------------------------------------


def replay_of(k, eta, seed, count):
    src = new_source(k, eta, seed=seed)
    bits, labels, _ = src.draw_batch(count)
    return ReplaySource(bits, labels, eta=eta, target=src.target)


def test_noiseless_run_has_zero_errors():
    rep = run_online(replay_of(8, 0.0, 8, 6000), g=2, w=4, t=3)
    assert rep.errors == 0
    assert rep.engine == "simple"
    assert rep.processed == 6000
    assert rep.predicted + rep.unknown == 6000


# one layout per domain width g*w, blocks kept narrow enough that a
# few thousand examples fill some matrices and leave votes to count
LAYOUTS = {6: (2, 3), 8: (2, 4), 12: (3, 4), 16: (4, 4), 32: (16, 2),
           62: (31, 2)}


@pytest.mark.parametrize("eta", [0.0, 0.25])
@pytest.mark.parametrize("t", [1, 5, 40])
@pytest.mark.parametrize("gw", sorted(LAYOUTS))
def test_matches_reference(gw, t, eta):
    g, w = LAYOUTS[gw]
    seed = 900 + gw + t
    got = run_online(replay_of(gw, eta, seed, 4000), g, w, t,
                     collect_vote_stats=True, record_predictions=True)
    want = run_reference(replay_of(gw, eta, seed, 4000), g, w, t, 4000,
                         collect_vote_stats=True, record_predictions=True)
    assert got == want
    assert got.unknown == sum(got.per_matrix_fill)


def test_max_vote_depth_is_over_cast_votes():
    x = np.array([[1, 0, 0, 0, 0, 0, 0, 0]], dtype=np.uint8)
    label = np.zeros(1, dtype=np.uint8)
    assert run_online(ReplaySource(x, label), 2, 4, 3).max_vote_depth == 0
    assert run_online(replay_of(8, 0.1, 21, 0), 2, 4, 3).max_vote_depth == 0
    # the repeat folds into matrix 1 at depth 2, then matrix 2 captures it
    rep = run_online(ReplaySource(np.repeat(x, 2, 0), np.repeat(label, 2)),
                     2, 4, 2, collect_vote_stats=True)
    assert (rep.predicted, rep.unknown, rep.max_vote_depth) == (0, 2, 2)
    assert rep.votes_by_depth == {}  # no target, so nothing to score


def test_unknowns_respect_capacity():
    rep = run_online(replay_of(6, 0.25, 11, 20000), g=2, w=3, t=40)
    assert rep.capacity == 40 * 2 * 7
    assert rep.unknown <= rep.capacity
    assert all(f <= 2 * 7 for f in rep.per_matrix_fill)


def test_depth_bound_holds():
    rep = run_online(replay_of(8, 0.25, 12, 20000), g=2, w=4, t=10)
    assert rep.depth_bound == 4
    assert 0 < rep.max_vote_depth <= 4


def test_single_matrix_error_rate_matches_chain_formula():
    # With one matrix each prediction is one fold whose correctness
    # probability is predicted_bias(eta, number of stored labels folded
    # in).  Votes inside one run share the few stored labels and are
    # heavily correlated, so single-run binomial bands are meaningless;
    # instead the per-run deviation from the formula is averaged over
    # independent runs and tested against its observed scatter.
    eta = 0.25
    devs = []
    for seed in range(12):
        rep = run_online(
            replay_of(8, eta, 130 + seed, 12000), g=2, w=4, t=1,
            collect_vote_stats=True,
        )
        assert rep.votes_by_depth
        expected = correct = total = 0.0
        for s, (ok, n) in rep.votes_by_depth.items():
            # s = 0 is the all-zero example: nothing is folded in and
            # the vote is vacuously correct
            p = 1.0 if s == 0 else predicted_bias(eta, s)
            expected += n * p
            correct += ok
            total += n
        assert total == rep.predicted
        assert rep.errors == total - correct
        devs.append((correct - expected) / total)
    mean = sum(devs) / len(devs)
    sd = math.sqrt(sum((d - mean) ** 2 for d in devs) / (len(devs) - 1))
    assert abs(mean) <= 3 * sd / math.sqrt(len(devs))


def test_eta_zero_has_no_label_requests_beyond_capacity():
    rep = run_online(replay_of(8, 0.0, 14, 60000), g=2, w=4, t=1)
    assert rep.unknown == rep.label_requests == min(30, 60000)
    assert rep.error_rate == 0.0


def test_replay_count_defaults_to_remaining():
    src = replay_of(8, 0.0, 15, 500)
    src.draw_batch(100)
    rep = run_online(src, g=2, w=4, t=1)
    assert rep.processed == 400


def test_generative_source_needs_count():
    src = new_source(8, 0.1, seed=16)
    with pytest.raises(ValueError):
        run_online(src, g=2, w=4, t=1)
    rep = run_online(src, g=2, w=4, t=1, count=200)
    assert rep.processed == 200


def test_source_width_must_match_layout():
    with pytest.raises(ValueError):
        run_online(new_source(8, 0.1, seed=17), g=2, w=3, t=1, count=10)


def test_layout_limits():
    with pytest.raises(ValueError, match="62-bit"):
        run_online(new_source(64, 0.1, seed=19), g=32, w=2, t=1, count=10)
    with pytest.raises(ValueError, match="slots"):
        run_online(new_source(24, 0.1, seed=19), g=1, w=24, t=1, count=10)
    with pytest.raises(ValueError):
        run_online(new_source(8, 0.1, seed=19), g=2, w=4, t=0, count=10)
    # the widest domain works
    rep = run_online(new_source(62, 0.1, seed=19), g=31, w=2, t=2, count=100)
    assert rep.processed == 100


def test_count_beyond_a_finite_source_is_refused():
    src = replay_of(8, 0.1, 18, 100)
    with pytest.raises(ValueError, match="100 examples left"):
        run_online(src, g=2, w=4, t=1, count=101)
    assert src.draw_count == 0
