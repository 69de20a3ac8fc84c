"""Bit vector, block, and GF(2) elimination tests."""

import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gf2_oracle as oracle
from bitvec_helpers import random_bitvec
from lpn import gf2
from lpn.gf2 import (
    BitVec,
    BlockLayout,
    GaussStatus,
    eliminate,
    fwht,
    pack_words,
    unpack_words,
)
from lpn.solvers import gaussian_baseline

V = BitVec.from_string


def rank(rows):
    """Rank of int-packed GF(2) rows: the pivots the oracle finds."""
    return len(oracle.eliminate(rows, -1)[0])


def words_of(xs, nw):
    """Int-packed rows as an (m, nw) array of row words."""
    raw = b"".join(x.to_bytes(8 * nw, "little") for x in xs)
    return np.frombuffer(raw, dtype="<u8").reshape(len(xs), nw).copy()


def ints_of(words):
    """(m, nw) row words back to int-packed rows."""
    return [int.from_bytes(w.tobytes(), "little") for w in words]


def solve(xs, labels, k):
    """gaussian_baseline on int-packed rows of k bits."""
    return gaussian_baseline(
        words_of(xs, -(-k // 64)), np.array(labels, dtype=np.uint8), k
    )


def dot(u, v):
    return (u.bits & v.bits).bit_count() & 1


# -- BitVec basics ----------------------------------------------------


def test_from_string_coordinate_order():
    v = V("1010")
    assert v.bit(0) == 1 and v.bit(1) == 0 and v.bit(2) == 1 and v.bit(3) == 0
    assert v.bits == 0b0101  # coordinate 1 is the least significant bit
    assert v.to01() == "1010"
    assert len(v) == 4
    assert V("") == BitVec(0)
    for bad in ("1021", "10 1", "1x"):
        with pytest.raises(ValueError):
            V(bad)


def test_round_trips():
    v = V("1101001")
    assert BitVec(7, int.from_bytes(v.to_bytes_le(), "little")) == v
    assert BitVec.from_bits_row(np.array([1, 1, 0, 1, 0, 0, 1])) == v


def test_value_must_fit():
    with pytest.raises(ValueError):
        BitVec(3, 8)
    with pytest.raises(ValueError):
        BitVec(-1, 0)


def test_immutable():
    v = V("10")
    with pytest.raises(AttributeError):
        v.bits = 3


def test_pickle_round_trip():
    v = V("0110100")
    assert pickle.loads(pickle.dumps(v)) == v


def test_bit_index_out_of_range():
    with pytest.raises(IndexError):
        V("10").bit(2)


# -- blocks -----------------------------------------------------------


def test_block_examples():
    layout = BlockLayout(3, 2)
    v = V("110100")
    blocks = [v.to01()[slice(*layout.bounds(j))] for j in (1, 2, 3)]
    assert blocks == ["11", "01", "00"]


def test_block_range_checks():
    layout = BlockLayout(3, 2)
    with pytest.raises(ValueError):
        layout.bounds(0)
    with pytest.raises(ValueError):
        layout.bounds(4)


def test_layout_validation():
    with pytest.raises(ValueError):
        BlockLayout(0, 4)
    assert BlockLayout(3, 8).total == 24
    assert BlockLayout(3, 8).bounds(2) == (8, 16)


# -- rank and span ----------------------------------------------------


def test_express_in_span():
    rows = [V("1100"), V("0110"), V("0011")]
    combo = oracle.express_in_span(rows, V("1010"))
    assert combo is not None
    acc = 0
    for i in combo:
        acc ^= rows[i].bits
    assert acc == V("1010").bits
    assert oracle.express_in_span(rows, V("1000")) is None
    assert oracle.express_in_span(rows, BitVec(4)) == []


@given(st.integers(1, 40), st.data())
def test_express_in_span_random(k, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = [random_bitvec(k, rng) for _ in range(k + 4)]
    target = random_bitvec(k, rng)
    combo = oracle.express_in_span(rows, target)
    if combo is None:
        assert rank([r.bits for r in rows] + [target.bits]) > rank(
            [r.bits for r in rows]
        )
    else:
        acc = 0
        for i in combo:
            acc ^= rows[i].bits
        assert acc == target.bits


def _span(rows, k):
    """Every XOR of a subset of rows, built up one row at a time."""
    span = {0}
    for r in rows:
        span |= {v ^ r for v in span}
    return span


def test_elimination_matches_brute_force():
    # rank, span membership, the combination found and the solve status
    # and solution, against enumeration of all 2^k vectors
    rng = np.random.default_rng(2024)
    for trial in range(400):
        k = int(rng.integers(1, 9))
        m = int(rng.integers(0, 12))
        xs = [int(x) for x in rng.integers(0, 1 << k, size=m)]
        span = _span(xs, k)
        assert rank(xs) == len(span).bit_length() - 1
        rows = [BitVec(k, x) for x in xs]
        for t in range(1 << k):
            combo = oracle.express_in_span(rows, BitVec(k, t))
            if t not in span:
                assert combo is None
                continue
            assert combo == sorted(set(combo))
            acc = 0
            for i in combo:
                acc ^= xs[i]
            assert acc == t
        if trial % 2:
            labels = [int(l) for l in rng.integers(0, 2, size=m)]
        else:  # consistent with a planted parity
            c = int(rng.integers(0, 1 << k))
            labels = [(x & c).bit_count() & 1 for x in xs]
        fits = [
            c for c in range(1 << k)
            if all((x & c).bit_count() & 1 == l for x, l in zip(xs, labels))
        ]
        res = solve(xs, labels, k)
        if not fits:
            assert res.status is GaussStatus.INCONSISTENT
        elif len(fits) > 1:
            assert res.status is GaussStatus.UNDERDETERMINED
        else:
            assert res.status is GaussStatus.SOLVED
            assert res.solution == BitVec(k, fits[0])


def _square_systems(k, count, rng):
    """count k x k systems, label in bit k, a third of them made singular
    by a zero row, a duplicate row or a row that is the XOR of others."""
    raw = rng.integers(0, 1 << 63, size=(count, k), dtype=np.uint64)
    rows = (raw >> np.uint64(62 - k)).astype(np.int64)  # bits 0..k
    label = np.int64(1) << k
    for t in range(count):
        kind = t % 6
        j = int(rng.integers(0, k))
        if kind == 1:  # only the label can survive
            rows[t, j] &= label
        elif kind == 2 and k > 1:
            i = (j + 1 + int(rng.integers(0, k - 1))) % k
            rows[t, j] = rows[t, i]
        elif kind == 3 and k > 2:
            others = [i for i in range(k) if i != j]
            a, b = rng.choice(others, size=2, replace=False)
            rows[t, j] = rows[t, a] ^ rows[t, b] ^ (rows[t, j] & label)
    return rows


def check_reduced(rows, reduced, ranks, k):
    """The reduced form eliminate promises, system by system: pivots in
    rows 0..rank-1 in increasing column order, each pivot column clear
    in every other row, nothing below k from rank on, and the same row
    space over every bit, labels included."""
    low = (1 << k) - 1
    for system, out, r in zip(rows, reduced, ranks.tolist()):
        before, after = ints_of(system), ints_of(out)
        keys = [x & low & -(x & low) for x in after[:r]]
        assert all(keys) and keys == sorted(set(keys))
        for i, key in enumerate(keys):
            assert not any(x & key for j, x in enumerate(after) if j != i)
        assert not any(x & low for x in after[r:])
        assert rank(before) == rank(after) == rank(before + after)


@pytest.mark.parametrize("k", [1, 2, 7, 31, 62])
def test_solve_batch_matches_eliminate_and_back_substitute(k):
    # a batch of square systems through gf2.eliminate, against the
    # oracle's eliminate and back_substitute one system at a time
    rng = np.random.default_rng(k)
    rows = _square_systems(k, 600, rng)
    # every k x k system of 1-bit and 2-bit rows, labels included
    if k <= 2:
        rows = np.vstack([
            rows,
            np.array(list(itertools.product(range(1 << (k + 1)), repeat=k)),
                     dtype=np.int64),
        ])
    batch = rows.view(np.uint64)[:, :, None]
    before = batch.copy()
    reduced, ranks = eliminate(batch, k)
    assert np.array_equal(batch, before)  # the rows are left alone
    assert reduced.shape == batch.shape and ranks.shape == (len(rows),)
    check_reduced(batch, reduced, ranks, k)
    # on a basis, row i is coordinate i alone with its value at bit k
    pinned = (reduced[:, :, 0] >> np.uint64(k)) & np.uint64(1)
    singular = 0
    for t, system in enumerate(rows.tolist()):
        pivots, _ = oracle.eliminate(system, (1 << k) - 1)
        assert ranks[t] == len(pivots), system
        if len(pivots) < k:
            singular += 1
        else:
            c = oracle.back_substitute(pivots, k)
            assert pinned[t].tolist() == [(c >> i) & 1 for i in range(k)]
    assert 0 < singular < len(rows)


@pytest.mark.parametrize("k", [63, 64, 65, 70, 130])
def test_eliminate_matches_oracle_on_wide_systems(k):
    # non-square systems over one to three words, the label at bit k:
    # random labels (mostly inconsistent), rows from a small subspace
    # (rank deficient), a planted parity, and the planted parity with
    # one label flipped
    rng = np.random.default_rng(k)
    nw = k // 64 + 1

    def vec():
        return random_bitvec(k, rng).bits

    basis = [vec() for _ in range(k // 3)]
    for m in (k // 2, k, 3 * k):
        c = vec()
        systems = []
        for kind in range(4):
            if kind == 1:
                xs = []
                for _ in range(m):
                    x = 0
                    for b in basis:
                        x ^= b * int(rng.integers(0, 2))
                    xs.append(x)
            else:
                xs = [vec() for _ in range(m)]
            labels = [(x & c).bit_count() & 1 for x in xs]
            if kind == 0:
                labels = [int(l) for l in rng.integers(0, 2, size=m)]
            elif kind == 3:
                labels[int(rng.integers(0, m))] ^= 1
            systems.append([x | l << k for x, l in zip(xs, labels)])
        batch = np.stack([words_of(xs, nw) for xs in systems])
        before = batch.copy()
        reduced, ranks = eliminate(batch, k)
        assert np.array_equal(batch, before)
        check_reduced(batch, reduced, ranks, k)
        label = (reduced[:, :, k // 64] >> np.uint64(k % 64)) & np.uint64(1)
        for t, system in enumerate(systems):
            pivots, residues = oracle.eliminate(system, (1 << k) - 1)
            r = len(pivots)
            assert ranks[t] == r
            assert label[t, r:].any() == bool(residues)
            if r == k and not residues:
                c_t = oracle.back_substitute(pivots, k)
                assert label[t, :k].tolist() == [(c_t >> i) & 1 for i in range(k)]
        if m == 3 * k:  # full rank and inconsistent both occur
            assert ranks[0] == k and ranks[1] < k
            assert label[0, k:].any() and label[3, k:].any()
            assert not label[2, k:].any()


def test_eliminate_checks_its_input():
    # empty batches and empty systems: argmax-style scans over an empty
    # axis must not run
    for shape in ((0, 3, 1), (4, 0, 1), (0, 0, 2)):
        reduced, ranks = eliminate(np.zeros(shape, dtype=np.uint64), 5)
        assert reduced.shape == shape and ranks.shape == (shape[0],)
        assert not ranks.any()
    rng = np.random.default_rng(9)
    rows = rng.integers(0, 2**63, size=(3, 8, 2), dtype=np.uint64)
    # k = 0 reduces nothing; the result is still a copy
    reduced, ranks = eliminate(rows, 0)
    assert np.array_equal(reduced, rows) and not ranks.any()
    reduced[0, 0, 0] ^= np.uint64(1)
    assert not np.array_equal(reduced, rows)
    # every bit a column, and a strided view eliminates like its copy
    reduced, ranks = eliminate(rows, 128)
    check_reduced(rows, reduced, ranks, 128)
    strided = rows[:, ::2]
    for got, want in zip(eliminate(strided, 100), eliminate(strided.copy(), 100)):
        assert np.array_equal(got, want)
    for bad, k in ((np.zeros((4, 3), dtype=np.uint64), 3),
                   (np.zeros((1, 4, 3, 1), dtype=np.uint64), 3),
                   (np.zeros((1, 4, 1), dtype=np.int64), 3),
                   (np.zeros((1, 4, 1), dtype=np.uint32), 3),
                   (np.zeros((1, 4, 1), dtype=">u8"), 3),
                   (np.zeros((1, 4, 1), dtype=np.uint64).tolist(), 3),
                   (np.zeros((1, 4, 1), dtype=np.uint64), -1),
                   (np.zeros((1, 4, 1), dtype=np.uint64), 65),
                   (np.zeros((1, 4, 2), dtype=np.uint64), 129)):
        with pytest.raises(ValueError):
            eliminate(bad, k)


def test_pack_rows_bit_order():
    # rows of up to 62 bits as one int64 word each, the form the bkw
    # merge and the online decoder take
    def pack_rows(bits):
        return pack_words(bits)[:, 0].view(np.int64)

    bits = np.array([[1, 0, 0], [0, 1, 1], [0, 0, 0]], dtype=np.uint8)
    assert pack_rows(bits).tolist() == [0b001, 0b110, 0]
    wide = np.zeros((2, 62), dtype=np.uint8)
    wide[1, 61] = 1
    assert pack_rows(wide).tolist() == [0, 1 << 61]
    rng = np.random.default_rng(6)
    full = rng.integers(0, 2, size=(40, 64), dtype=np.uint8)
    full[0] = 1
    for n in range(1, 63):
        # contiguous rows, a strided column slice and booleans
        for rows in (full[:, :n].copy(), full[:, 64 - n:], full[:, :n] == 1):
            want = [BitVec.from_bits_row(r).bits for r in rows]
            assert pack_rows(rows).tolist() == want


@pytest.mark.parametrize("n", [0, 1, 7, 8, 24, 62, 63, 64, 65, 300])
def test_pack_words_round_trip(n):
    rng = np.random.default_rng(n)
    bits = rng.integers(0, 2, size=(50, n), dtype=np.uint8)
    bits[0] = 1
    words = pack_words(bits)
    assert words.dtype == np.dtype("<u8") and words.shape == (50, -(-n // 64))
    for row, w in zip(bits, words):
        want = BitVec.from_bits_row(row).bits
        assert int.from_bytes(w.tobytes(), "little") == want
    # strided and boolean rows pack the same
    assert np.array_equal(pack_words(np.repeat(bits, 2, axis=1)[:, ::2]), words)
    assert np.array_equal(pack_words(bits == 1), words)
    back = unpack_words(words, n)
    assert back.dtype == np.uint8 and np.array_equal(back, bits)


# -- gaussian_baseline -----------------------------------------------


def test_solve_identity_system():
    c = V("10110")
    rows = [BitVec(5, 1 << i) for i in range(5)]
    labels = [c.bit(i) for i in range(5)]
    res = solve([r.bits for r in rows], labels, 5)
    assert res.status is GaussStatus.SOLVED
    assert res.solution == c


def test_solve_hand_system():
    rows = [V(s).bits for s in ("1100", "0100", "0010", "0001")]
    res = solve(rows, [1, 0, 0, 0], 4)
    assert res.status is GaussStatus.SOLVED
    assert res.solution == V("1000")
    # flipping the second label moves the pinned first coordinate
    res = solve(rows, [1, 1, 0, 0], 4)
    assert res.status is GaussStatus.SOLVED
    assert res.solution == V("0100")


def test_solve_inconsistent():
    res = solve([V("1000").bits] * 2, [0, 1], 4)
    assert res.status is GaussStatus.INCONSISTENT
    assert res.solution is None


def test_solve_underdetermined():
    res = solve([V("1100").bits, V("0011").bits], [0, 1], 4)
    assert res.status is GaussStatus.UNDERDETERMINED


def test_solve_requires_labels():
    with pytest.raises(ValueError):
        solve([V("10").bits], [], 2)


def test_redundant_consistent_rows_still_solve():
    c = V("101")
    rows = [V("100"), V("010"), V("001"), V("110"), V("111")]
    labels = [dot(r, c) for r in rows]
    res = solve([r.bits for r in rows], labels, 3)
    assert res.status is GaussStatus.SOLVED
    assert res.solution == c


@settings(max_examples=40)
@given(st.integers(1, 64), st.data())
def test_solve_round_trip_random_full_rank(k, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    c = random_bitvec(k, rng)
    rows = []
    while rank([r.bits for r in rows]) < k:
        rows.append(random_bitvec(k, rng))
    labels = [dot(r, c) for r in rows]
    res = solve([r.bits for r in rows], labels, k)
    assert res.status is GaussStatus.SOLVED
    assert res.solution == c


# -- Walsh-Hadamard transform -----------------------------------------


def sylvester(k):
    """The 2^k x 2^k +-1 Hadamard matrix, entry (c, v) = (-1)^|c & v|."""
    h = np.ones((1, 1), dtype=np.int64)
    for _ in range(k):
        h = np.kron(h, np.array([[1, 1], [1, -1]]))
    return h


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
@pytest.mark.parametrize("k", range(11))
def test_fwht_matches_the_hadamard_product(k, dtype):
    rng = np.random.default_rng(k)
    x = rng.integers(-20, 21, 1 << k)
    f = x.astype(dtype)
    assert fwht(f) is None
    assert f.dtype == dtype
    assert np.array_equal(f, sylvester(k) @ x)


@pytest.mark.parametrize("k", range(11))
def test_fwht_in_small_slabs_matches_the_hadamard_product(k, monkeypatch):
    # 16-element slabs: from k=5 a pass takes several slabs of whole
    # groups, and once a group outgrows a slab it splits into columns
    monkeypatch.setattr(gf2, "_FWHT_SLAB", 16)
    x = np.random.default_rng(100 + k).integers(-20, 21, 1 << k)
    f = x.astype(np.int16)
    fwht(f)
    assert np.array_equal(f, sylvester(k) @ x)


def test_fwht_checks_its_input():
    for bad in (
        np.zeros(8),  # float
        np.zeros(8, dtype=np.uint16),  # unsigned
        np.zeros((2, 4), dtype=np.int32),
        np.zeros(0, dtype=np.int32),
        np.zeros(6, dtype=np.int32),
        np.zeros(16, dtype=np.int32)[::2],  # not contiguous
        [1, 2],
    ):
        with pytest.raises(ValueError):
            fwht(bad)
    frozen = np.zeros(4, dtype=np.int32)
    frozen.flags.writeable = False
    with pytest.raises(ValueError):
        fwht(frozen)
