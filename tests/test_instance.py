"""Example source determinism, noise statistics, and distributions."""

import math

import numpy as np
import pytest

from lpn.gf2 import BitVec
from lpn.instance import (
    Explicit,
    LabeledExample,
    NoiseRate,
    ParityTarget,
    ReplaySource,
    Stream,
    StreamExhausted,
    Uniform,
    empirical_error,
    new_source,
)

V = BitVec.from_string


def test_noise_rate_bounds():
    assert float(NoiseRate(0.0)) == 0.0
    assert float(NoiseRate(0.4999)) == 0.4999
    with pytest.raises(ValueError):
        NoiseRate(0.5)
    with pytest.raises(ValueError):
        NoiseRate(-0.01)


def test_parity_target_predicts():
    t = ParityTarget(V("1010"))
    assert t.k == 4
    assert t.predict(V("1000")) == 1
    assert t.predict(V("0110")) == 1
    assert t.predict(V("0100")) == 0
    rows = np.array([[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 0, 0]], dtype=np.uint8)
    assert list(t.predict_rows(rows)) == [1, 1, 0]


def test_same_seed_same_stream():
    a = new_source(8, 0.25, seed=11)
    b = new_source(8, 0.25, seed=11)
    assert a.target == b.target
    for _ in range(1000):
        assert a.draw() == b.draw()


def test_draw_batch_matches_single_draws():
    # consumption pattern must not change the stream
    a = new_source(8, 0.25, seed=3)
    b = new_source(8, 0.25, seed=3)
    singles = [a.draw() for _ in range(5000)]
    bits, labels, start = b.draw_batch(5000)
    assert start == 0
    for i, ex in enumerate(singles):
        assert BitVec.from_bits_row(bits[i]) == ex.x
        assert int(labels[i]) == ex.label
        assert ex.index == i
    assert a.draw().index == b.draw().index == 5000


def test_batches_can_span_refills():
    src = new_source(4, 0.0, seed=9)
    ref = new_source(4, 0.0, seed=9)
    bits, labels, start = src.draw_batch(10000)
    rbits, rlabels, _ = ref.draw_batch(10000)
    assert np.array_equal(bits, rbits) and np.array_equal(labels, rlabels)
    assert src.draw_count == 10000


def test_different_seeds_differ():
    a = new_source(16, 0.0, seed=1)
    b = new_source(16, 0.0, seed=2)
    xs_a = [a.draw().x for _ in range(64)]
    xs_b = [b.draw().x for _ in range(64)]
    assert xs_a != xs_b


def test_zero_noise_labels_are_clean():
    src = new_source(10, 0.0, seed=7)
    for _ in range(1000):
        ex = src.draw()
        assert ex.label == src.target.predict(ex.x)


@pytest.mark.parametrize("eta", [0.0, 0.05, 0.125, 0.25, 0.4])
def test_flip_rate_matches_eta(eta):
    m = 20000
    src = new_source(12, eta, seed=41)
    bits, labels, _ = src.draw_batch(m)
    clean = src.target.predict_rows(bits)
    flips = int((labels ^ clean).sum())
    sigma = math.sqrt(eta * (1 - eta) * m)
    assert abs(flips - eta * m) <= 3 * sigma + 1e-9


def test_explicit_point_mass():
    dist = Explicit((V("0000"),), (1.0,))
    src = new_source(4, 0.0, distribution=dist, seed=5)
    for _ in range(50):
        ex = src.draw()
        assert ex.x == V("0000") and ex.label == 0


def test_explicit_point_mass_noisy_labels_are_bernoulli():
    dist = Explicit((V("0000"),), (1.0,))
    src = new_source(4, 0.25, distribution=dist, seed=5)
    _, labels, _ = src.draw_batch(20000)
    ones = int(labels.sum())
    assert abs(ones - 5000) <= 3 * math.sqrt(20000 * 0.25 * 0.75)


def test_explicit_two_point_frequencies():
    dist = Explicit((V("1000"), V("0100")), (0.75, 0.25))
    src = new_source(4, 0.0, distribution=dist, seed=13)
    bits, _, _ = src.draw_batch(20000)
    first = int(bits[:, 0].sum())
    assert abs(first - 15000) <= 3 * math.sqrt(20000 * 0.75 * 0.25)


def test_explicit_validation():
    with pytest.raises(ValueError):
        Explicit((V("10"),), (0.5,))
    with pytest.raises(ValueError):
        Explicit((V("10"), V("011")), (0.5, 0.5))
    with pytest.raises(ValueError):
        Explicit((), ())


def test_stream_serves_in_order_then_exhausts():
    xs = tuple(V(s) for s in ("1000", "0100", "0010"))
    src = new_source(4, 0.0, distribution=Stream(xs), seed=0)
    got = [src.draw().x for _ in range(3)]
    assert got == list(xs)
    with pytest.raises(StreamExhausted):
        src.draw()


def test_remaining_counts_the_rows_of_finite_sources():
    xs = tuple(V(s) for s in ("1000", "0100", "0010"))
    stream = new_source(4, 0.0, distribution=Stream(xs), seed=0)
    stream.draw()
    assert stream.remaining() == 2
    assert new_source(4, 0.1, seed=0).remaining() is None
    point = Explicit((V("1111"),), (1.0,))
    assert new_source(4, 0.1, distribution=point, seed=0).remaining() is None
    bits, labels, _ = new_source(4, 0.1, seed=0).draw_batch(10)
    replay = ReplaySource(bits, labels)
    replay.draw_batch(4)
    assert replay.remaining() == 6


def test_stream_vector_length_checked():
    with pytest.raises(ValueError):
        new_source(4, 0.0, distribution=Stream((V("10101"),)), seed=0)


def test_random_target_consumes_rng_before_examples():
    # fixing the target must not shift the x stream relative to random
    a = new_source(8, 0.0, seed=21)
    b = new_source(8, 0.0, seed=21, target=a.target)
    for _ in range(100):
        assert a.draw() == b.draw()


def test_replay_source_batches_and_exhaustion():
    base = new_source(6, 0.125, seed=8)
    bits, labels, _ = base.draw_batch(9000)
    rep = ReplaySource(bits, labels, eta=0.125, target=base.target)
    assert len(rep) == 9000
    got_bits, got_labels, start = rep.draw_batch(9000)
    assert start == 0
    assert np.array_equal(got_bits, bits) and np.array_equal(got_labels, labels)
    with pytest.raises(StreamExhausted):
        rep.draw()


def test_empirical_error_basics():
    src = new_source(8, 0.0, seed=31)
    sample = [src.draw() for _ in range(500)]
    assert empirical_error(src.target, sample) == 0.0
    with pytest.raises(ValueError):
        empirical_error(src.target, [])


def test_empirical_error_sees_the_noise_rate():
    src = new_source(8, 0.25, seed=32)
    sample = [src.draw() for _ in range(20000)]
    err = empirical_error(src.target, sample)
    assert abs(err - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / 20000)


def test_distinct_parities_agree_half_the_time():
    # predictions of any two distinct parities are uncorrelated under
    # the uniform distribution
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2, size=(100000, 10), dtype=np.uint8)
    h1 = ParityTarget(BitVec(10, 0b1011001))
    h2 = ParityTarget(BitVec(10, 0b0010110))
    agree = (h1.predict_rows(bits) == h2.predict_rows(bits)).mean()
    assert abs(agree - 0.5) <= 3 * math.sqrt(0.25 / 100000)


def test_uncorrelated_hypothesis_has_half_error():
    src = new_source(10, 0.0, seed=33)
    sample = [src.draw() for _ in range(20000)]
    other = ParityTarget(V("1000000000"))
    if other.c == src.target.c:
        other = ParityTarget(V("0100000000"))
    err = empirical_error(other, sample)
    assert abs(err - 0.5) <= 3 * math.sqrt(0.25 / 20000)


def test_labeled_example_is_a_named_tuple():
    ex = LabeledExample(V("10"), 1, 0)
    assert ex.x == V("10") and ex.label == 1 and ex.index == 0


def test_uniform_equality():
    assert Uniform() == Uniform()
    assert new_source(4, 0.0, seed=1).distribution == Uniform()
