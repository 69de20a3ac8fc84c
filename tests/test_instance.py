"""Example source determinism, noise statistics, and replayed tables."""

import math

import numpy as np
import pytest

from bitvec_helpers import bits_row, random_bitvec
from lpn import solvers
from lpn.gf2 import BitVec, BlockLayout, pack_words
from lpn.instance import (
    ExampleSource,
    ReplaySource,
    StreamExhausted,
    empirical_error,
    new_source,
)
from lpn.instfile import InstanceData, format_instance, generate_instance

V = BitVec.from_string


def draw_one(src):
    """The next example of src as (vector, label, index)."""
    words, labels, start = src.draw_batch(1, packed=True)
    x = BitVec(src.k, int.from_bytes(words.tobytes(), "little"))
    return x, int(labels[0]), start


def test_noise_rate_bounds():
    for eta in (0.0, 0.4999):
        src = new_source(4, eta, seed=0)
        assert type(src.eta) is float and src.eta == eta
    assert new_source(4, 0, seed=0).eta == 0.0
    for eta in (0.5, -0.01, math.nan):
        with pytest.raises(ValueError, match="0 <= eta < 0.5"):
            new_source(4, eta, seed=0)


def _data(eta):
    words, labels, _ = new_source(4, 0.1, seed=0).draw_batch(3, packed=True)
    return InstanceData(4, eta, 0, words, labels)


def _replay(eta):
    data = _data(0.1)
    return ReplaySource(data.words, data.labels, 4, eta=eta)


# every public function that takes a noise rate, called with eta
ETA_CALLS = {
    "new_source": lambda eta: new_source(8, eta, seed=1),
    "ExampleSource": lambda eta: ExampleSource(8, eta, seed=1),
    "ReplaySource": _replay,
    "generate_instance": lambda eta: generate_instance(8, 10, eta, 1),
    "format_instance": lambda eta: format_instance(_data(eta)),
    "predicted_bias": lambda eta: solvers.predicted_bias(eta, 3),
    "xor_chain_oracle": lambda eta: solvers.xor_chain_oracle(eta, 3, 1000),
    "repetitions_for": lambda eta: solvers.repetitions_for(24, eta, 0.1, 3),
    "predicted_examples": lambda eta: solvers.predicted_examples(
        24, eta, 0.1, BlockLayout(3, 8)),
    "choose_parameters": lambda eta: solvers.choose_parameters(24, eta),
}


@pytest.mark.parametrize("eta", [0.7, 0.5, -0.2, -0.1, math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(ETA_CALLS))
def test_every_noise_rate_is_range_checked(name, eta):
    # xor_chain_oracle took any eta, and repetitions_for (so also
    # choose_parameters) any eta below 1/2, negative ones included
    with pytest.raises(ValueError, match=r"^noise rate must satisfy "
                       r"0 <= eta < 0\.5, got "):
        ETA_CALLS[name](eta)
    ETA_CALLS[name](0.125)


def test_parity_target_predicts():
    t = V("1010")
    rows = np.array([[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 0, 0]], dtype=np.uint8)
    assert list(t.dot_words(pack_words(rows))) == [1, 1, 0]


@pytest.mark.parametrize("k", [1, 24, 62, 300])
def test_predict_rows_matches_matmul(k):
    # BitVec.dot_words on the rows' words against an integer matmul
    rng = np.random.default_rng(k)
    bits = rng.integers(0, 2, size=(400, k), dtype=np.uint8)
    bits[0] = 1  # at k=300 an all-ones target sums 300 ones here
    targets = [random_bitvec(k, rng) for _ in range(4)] + [BitVec(k, (1 << k) - 1)]
    for c in targets:
        want = (bits.astype(np.int64) @ bits_row(c).astype(np.int64) & 1)
        got = c.dot_words(pack_words(bits))
        assert got.dtype == np.uint8
        assert np.array_equal(got, want.astype(np.uint8))


def test_same_seed_same_stream():
    a = new_source(8, 0.25, seed=11)
    b = new_source(8, 0.25, seed=11)
    assert a.target == b.target
    for _ in range(1000):
        assert draw_one(a) == draw_one(b)


def test_draw_batch_matches_single_draws():
    # consumption pattern must not change the stream
    a = new_source(8, 0.25, seed=3)
    b = new_source(8, 0.25, seed=3)
    singles = [draw_one(a) for _ in range(5000)]
    bits, labels, start = b.draw_batch(5000)
    assert start == 0
    for i, (x, label, index) in enumerate(singles):
        assert BitVec.from_bits_row(bits[i]) == x
        assert int(labels[i]) == label
        assert index == i
    assert draw_one(a)[2] == draw_one(b)[2] == 5000


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
    xs_a = [draw_one(a)[0] for _ in range(64)]
    xs_b = [draw_one(b)[0] for _ in range(64)]
    assert xs_a != xs_b


def test_zero_noise_labels_are_clean():
    src = new_source(10, 0.0, seed=7)
    for _ in range(1000):
        x, label, _ = draw_one(src)
        assert label == (x.bits & src.target.bits).bit_count() & 1


@pytest.mark.parametrize("eta", [0.0, 0.05, 0.125, 0.25, 0.4])
def test_flip_rate_matches_eta(eta):
    m = 20000
    src = new_source(12, eta, seed=41)
    words, labels, _ = src.draw_batch(m, packed=True)
    clean = src.target.dot_words(words)
    flips = int((labels ^ clean).sum())
    sigma = math.sqrt(eta * (1 - eta) * m)
    assert abs(flips - eta * m) <= 3 * sigma + 1e-9


def test_remaining_counts_the_rows_of_finite_sources():
    assert new_source(4, 0.1, seed=0).remaining() is None
    words, labels, _ = new_source(4, 0.1, seed=0).draw_batch(10, packed=True)
    replay = ReplaySource(words, labels, 4)
    replay.draw_batch(4)
    assert replay.remaining() == 6


def _ten_row_source():
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, size=(10, 5), dtype=np.uint8)
    labels = rng.integers(0, 2, size=10, dtype=np.uint8)
    return ReplaySource(pack_words(bits), labels, 5)


@pytest.mark.parametrize("kind", ["replay"])
def test_failed_over_draw_leaves_a_finite_source_unchanged(kind):
    src, twin = _ten_row_source(), _ten_row_source()
    with pytest.raises(StreamExhausted, match="10 examples left, 15 requested"):
        src.draw_batch(15)
    assert (src.remaining(), src.draw_count) == (10, 0)
    src.draw_batch(3)
    with pytest.raises(StreamExhausted):
        src.draw_batch(8, packed=True)
    assert (src.remaining(), src.draw_count) == (7, 3)
    twin.draw_batch(3)
    got, want = src.draw_batch(7, packed=True), twin.draw_batch(7, packed=True)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    with pytest.raises(StreamExhausted):
        draw_one(src)
    assert (src.remaining(), src.draw_count) == (0, 10)


def test_seed_and_target_are_keyword_only():
    # the third positional parameter was once a distribution, so a call
    # written for it must fail instead of reading its None as the seed
    for call in (new_source, ExampleSource):
        with pytest.raises(TypeError):
            call(8, 0.1, None, 3)
        with pytest.raises(TypeError):
            call(8, 0.1, 3)
    assert new_source(8, 0.1, seed=3).rng_seed == 3


def test_random_target_consumes_rng_before_examples():
    # fixing the target must not shift the x stream relative to random
    a = new_source(8, 0.0, seed=21)
    b = new_source(8, 0.0, seed=21, target=a.target)
    for _ in range(100):
        assert draw_one(a) == draw_one(b)


def test_replay_source_batches_and_exhaustion():
    base = new_source(6, 0.125, seed=8)
    bits, labels, _ = base.draw_batch(9000)
    rep = ReplaySource(pack_words(bits), labels, 6, eta=0.125, target=base.target)
    assert len(rep) == 9000
    got_bits, got_labels, start = rep.draw_batch(9000)
    assert start == 0
    assert np.array_equal(got_bits, bits) and np.array_equal(got_labels, labels)
    with pytest.raises(StreamExhausted):
        draw_one(rep)


def test_replay_source_checks_the_target_length():
    # a 70-bit target over 8-bit rows was accepted, and its clean labels
    # broadcast across the two widths
    words, labels, _ = new_source(8, 0.1, seed=0).draw_batch(10, packed=True)
    for target in (BitVec(70, 5), BitVec(4, 5), 5, "10100000"):
        with pytest.raises(ValueError, match="BitVec of length k"):
            ReplaySource(words, labels, 8, target=target)
        with pytest.raises(ValueError, match="BitVec of length k"):
            new_source(8, 0.1, target=target)
    good = BitVec(8, 5)
    assert ReplaySource(words, labels, 8, target=good).target is good


def test_replay_source_rejects_values_other_than_0_and_1():
    words = pack_words(np.array([[1, 0, 1]], dtype=np.uint8))
    for labels in ([3], [2], [-1], [0.5]):
        with pytest.raises(ValueError, match="0 or 1"):
            ReplaySource(words, np.array(labels), 3)
    rep = ReplaySource(words, np.array([True]), 3)
    assert draw_one(rep) == (V("101"), 1, 0)


def test_replay_source_from_words_matches_bits_and_checks_them():
    bits, labels, _ = new_source(70, 0.125, seed=8).draw_batch(300)
    words, _, _ = new_source(70, 0.125, seed=8).draw_batch(300, packed=True)
    rep = ReplaySource(words, labels, 70)
    assert rep.k == 70 and len(rep) == 300
    got_bits, got_labels, start = rep.draw_batch(300)
    assert start == 0
    assert np.array_equal(got_bits, bits) and np.array_equal(got_labels, labels)
    for w, lab, fragment in [
        (words | np.uint64(1 << 6), labels, "beyond coordinate 70"),
        (words, labels + 1, "0 or 1"),
        (words[:, :1], labels, "row words"),
        (words.view(np.int64), labels, "row words"),
        (words, labels[:-1], "one label per row"),
    ]:
        with pytest.raises(ValueError, match=fragment):
            ReplaySource(w, lab, 70)


def test_empirical_error_basics():
    src = new_source(8, 0.0, seed=31)
    words, labels, _ = src.draw_batch(500, packed=True)
    assert empirical_error(src.target, words, labels) == 0.0
    with pytest.raises(ValueError):
        empirical_error(src.target, words[:0], labels[:0])
    with pytest.raises(ValueError, match="one label per row"):
        empirical_error(src.target, words, labels[:1])


def test_empirical_error_sees_the_noise_rate():
    src = new_source(8, 0.25, seed=32)
    words, labels, _ = src.draw_batch(20000, packed=True)
    err = empirical_error(src.target, words, labels)
    assert abs(err - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / 20000)


def test_distinct_parities_agree_half_the_time():
    # predictions of any two distinct parities are uncorrelated under
    # the uniform distribution
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2, size=(100000, 10), dtype=np.uint8)
    h1 = BitVec(10, 0b1011001)
    h2 = BitVec(10, 0b0010110)
    words = pack_words(bits)
    agree = (h1.dot_words(words) == h2.dot_words(words)).mean()
    assert abs(agree - 0.5) <= 3 * math.sqrt(0.25 / 100000)


def test_uncorrelated_hypothesis_has_half_error():
    src = new_source(10, 0.0, seed=33)
    words, labels, _ = src.draw_batch(20000, packed=True)
    other = V("1000000000")
    if other == src.target:
        other = V("0100000000")
    err = empirical_error(other, words, labels)
    assert abs(err - 0.5) <= 3 * math.sqrt(0.25 / 20000)


# -- row words against the stream definition ---------------------------

WORD_KS = [1, 7, 8, 24, 62, 63, 300]
# three whole chunks and part of a fourth
STREAM_LEN = 3 * 4096 + 100
# slices that end on the first chunk boundary, cross the second with
# single draws and the third inside a batch that ends the stream
SLICES = [1, 4095, 4094, 4, 4090, 104]


def _file_bytes(bits):
    """Row words as bytes, built with np.packbits: the instance file's
    row bytes, padded with zero bytes to whole 64-bit words."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    out = np.zeros((len(bits), 8 * -(-bits.shape[1] // 64)), dtype=np.uint8)
    out[:, : packed.shape[1]] = packed
    return out


def _live_state(rng):
    """The part of a PCG64 state that decides its future output; the
    buffered 32-bit half counts only while has_uint32 is set."""
    st = rng.bit_generator.state
    return st["state"], st["has_uint32"], st["uinteger"] if st["has_uint32"] else None


def _make_source(name, k, seed):
    rng = np.random.default_rng([k, seed])
    if name == "replay":
        bits = rng.integers(0, 2, size=(STREAM_LEN, k), dtype=np.uint8)
        labels = rng.integers(0, 2, size=STREAM_LEN, dtype=np.uint8)
        return ReplaySource(pack_words(bits), labels, k)
    return ExampleSource(k, 0.125, seed=seed)


def _reference_stream(src, chunks):
    """src's stream drawn as instance.py defines it, the way it was drawn
    before sources held row words: (4096, k) chunks from
    integers(0, 2, uint8), clean labels from an integer matmul with the
    target, then one random() per row for the noise."""
    k, eta = src.k, src.eta
    c = bits_row(src.target).astype(np.int64)
    rng = np.random.default_rng(src.rng_seed)
    bits, labels = [], []
    for _ in range(chunks):
        x = rng.integers(0, 2, size=(4096, k), dtype=np.uint8)
        bits.append(x)
        labels.append((x.astype(np.int64) @ c & 1) ^ (rng.random(len(x)) < eta))
    return np.concatenate(bits), np.concatenate(labels).astype(np.uint8), rng


@pytest.mark.parametrize("dist", ["uniform"])
@pytest.mark.parametrize("k", WORD_KS)
def test_word_source_matches_stream_definition(k, dist):
    # if a numpy release changes its bounded-integer path for uint8,
    # this test fails
    for seed in range(3):
        src = _make_source(dist, k, seed)
        bits, labels, ref = _reference_stream(src, 4)
        words, got_labels, start = src.draw_batch(len(bits), packed=True)
        assert start == 0
        assert words.dtype == np.dtype("<u8")
        assert words.shape == (len(bits), -(-k // 64))
        assert np.array_equal(words.view(np.uint8), _file_bytes(bits))
        assert np.array_equal(got_labels, labels)
        assert _live_state(src._rng) == _live_state(ref)
        # the generator goes on exactly as the reference's does
        assert np.array_equal(src._rng.integers(0, 2**32, 8), ref.integers(0, 2**32, 8))


@pytest.mark.parametrize("k", WORD_KS)
def test_replay_words_match_its_rows(k):
    rng = np.random.default_rng(k)
    bits = rng.integers(0, 2, size=(STREAM_LEN, k), dtype=np.uint8)
    labels = rng.integers(0, 2, size=STREAM_LEN, dtype=np.uint8)
    rep = ReplaySource(pack_words(bits), labels, k)
    words, got_labels, _ = rep.draw_batch(STREAM_LEN, packed=True)
    assert np.array_equal(words.view(np.uint8), _file_bytes(bits))
    assert np.array_equal(got_labels, labels)
    assert rep.remaining() == 0


@pytest.mark.parametrize("dist", ["uniform", "replay"])
@pytest.mark.parametrize("k", WORD_KS)
def test_draw_forms_give_one_stream(k, dist):
    bits, labels, _ = _make_source(dist, k, 5).draw_batch(STREAM_LEN)
    packed, unpacked = _make_source(dist, k, 5), _make_source(dist, k, 5)
    pos = 0
    for m in SLICES:
        words, wl, start = packed.draw_batch(m, packed=True)
        assert start == pos
        assert np.array_equal(words.view(np.uint8), _file_bytes(bits[pos : pos + m]))
        assert np.array_equal(wl, labels[pos : pos + m])
        if m <= 4:
            for i in range(pos, pos + m):
                b, bl, start = unpacked.draw_batch(1)
                assert start == i
                assert np.array_equal(b[0], bits[i]) and bl[0] == labels[i]
        else:
            b, bl, start = unpacked.draw_batch(m)
            assert start == pos
            assert np.array_equal(b, bits[pos : pos + m])
            assert np.array_equal(bl, labels[pos : pos + m])
        pos += m
    assert packed.draw_count == unpacked.draw_count == STREAM_LEN
