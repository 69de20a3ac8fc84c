"""Bit vector, block, and GF(2) elimination tests."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpn.gf2 import (
    BitMatrix,
    BitVec,
    BlockLayout,
    GaussStatus,
    block,
    dot_mod2,
    express_in_span,
    gaussian_solve,
    is_basis,
    pack_rows,
    rank_ints,
    xor,
)

V = BitVec.from_string


def bitvec_pair(n):
    return st.tuples(
        st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1)
    ).map(lambda t: (BitVec(n, t[0]), BitVec(n, t[1])))


# -- BitVec basics ----------------------------------------------------


def test_from_string_coordinate_order():
    v = V("1010")
    assert v.bit(0) == 1 and v.bit(1) == 0 and v.bit(2) == 1 and v.bit(3) == 0
    assert v.bits == 0b0101  # coordinate 1 is the least significant bit
    assert v.to01() == "1010"


def test_round_trips():
    v = V("1101001")
    assert BitVec.from_bytes_le(7, v.to_bytes_le()) == v
    assert BitVec.from_bits_row(v.to_bits_row()) == v
    assert BitVec.from_coords([1, 1, 0, 1, 0, 0, 1]) == v


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


def test_weight_and_len():
    assert V("10110").weight() == 3
    assert len(V("10110")) == 5
    assert BitVec.zeros(4).weight() == 0


def test_bit_index_out_of_range():
    with pytest.raises(IndexError):
        V("10").bit(2)


# -- dot and xor ------------------------------------------------------


def test_dot_examples():
    assert dot_mod2(V("1010"), V("1110")) == 0  # two overlapping ones
    assert dot_mod2(V("1011"), V("0000")) == 0
    assert dot_mod2(V("1000"), V("1000")) == 1


def test_dot_length_mismatch():
    with pytest.raises(ValueError):
        dot_mod2(V("10"), V("100"))


def test_xor_examples():
    assert xor(V("1010"), V("1010")) == V("0000")
    assert xor(V("1011"), V("0000")) == V("1011")
    assert xor(V("1100"), V("0110")) == V("1010")


@given(bitvec_pair(16))
def test_xor_commutes_and_cancels(pair):
    u, v = pair
    assert xor(u, v) == xor(v, u)
    assert xor(xor(u, v), v) == u


@given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1),
       st.integers(0, 2**12 - 1))
def test_xor_associates(a, b, c):
    u, v, w = BitVec(12, a), BitVec(12, b), BitVec(12, c)
    assert xor(xor(u, v), w) == xor(u, xor(v, w))


@given(st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1),
       st.integers(0, 2**10 - 1))
def test_dot_is_linear(a, b, c):
    u, v, t = BitVec(10, a), BitVec(10, b), BitVec(10, c)
    assert dot_mod2(xor(u, v), t) == dot_mod2(u, t) ^ dot_mod2(v, t)


# -- blocks -----------------------------------------------------------


def test_block_examples():
    layout = BlockLayout(3, 2)
    v = V("110100")
    assert block(v, layout, 1) == V("11")
    assert block(v, layout, 2) == V("01")
    assert block(v, layout, 3) == V("00")
    assert block(BitVec.zeros(6), layout, 2) == V("00")


def test_block_range_checks():
    layout = BlockLayout(3, 2)
    with pytest.raises(ValueError):
        block(V("110100"), layout, 0)
    with pytest.raises(ValueError):
        block(V("110100"), layout, 4)
    with pytest.raises(ValueError):
        block(V("1101"), layout, 1)


def test_layout_validation():
    with pytest.raises(ValueError):
        BlockLayout(0, 4)
    assert BlockLayout(3, 8).total == 24
    assert BlockLayout(3, 8).bounds(2) == (8, 16)


# -- rank, basis, span ------------------------------------------------


def test_rank_ints():
    assert rank_ints([]) == 0
    assert rank_ints([0]) == 0
    assert rank_ints([1, 2, 4]) == 3
    assert rank_ints([3, 5, 6]) == 2  # third is the sum of the first two


def test_is_basis():
    assert is_basis([V("100"), V("010"), V("001")])
    assert not is_basis([V("100"), V("010"), V("000")])
    assert not is_basis([V("110"), V("011"), V("101")])
    with pytest.raises(ValueError):
        is_basis([V("10"), V("01"), V("11")])  # arity != length


def test_express_in_span():
    rows = [V("1100"), V("0110"), V("0011")]
    combo = express_in_span(rows, V("1010"))
    assert combo is not None
    acc = BitVec.zeros(4)
    for i in combo:
        acc = xor(acc, rows[i])
    assert acc == V("1010")
    assert express_in_span(rows, V("1000")) is None
    assert express_in_span(rows, BitVec.zeros(4)) == []


@given(st.integers(1, 40), st.data())
def test_express_in_span_random(k, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = [BitVec.random(k, rng) for _ in range(k + 4)]
    target = BitVec.random(k, rng)
    combo = express_in_span(rows, target)
    if combo is None:
        assert rank_ints([r.bits for r in rows] + [target.bits]) > rank_ints(
            [r.bits for r in rows]
        )
    else:
        acc = BitVec.zeros(k)
        for i in combo:
            acc = xor(acc, rows[i])
        assert acc == target


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
        assert rank_ints(xs) == len(span).bit_length() - 1
        rows = [BitVec(k, x) for x in xs]
        if m == k:
            assert is_basis(rows) == (len(span) == 1 << k)
        for t in range(1 << k):
            combo = express_in_span(rows, BitVec(k, t))
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
        if m == 0:
            continue  # a matrix without rows has no width to solve for
        res = gaussian_solve(BitMatrix(rows, labels))
        if not fits:
            assert res.status is GaussStatus.INCONSISTENT
        elif len(fits) > 1:
            assert res.status is GaussStatus.UNDERDETERMINED
        else:
            assert res.status is GaussStatus.SOLVED
            assert res.solution == BitVec(k, fits[0])


def test_pack_rows_bit_order():
    bits = np.array([[1, 0, 0], [0, 1, 1], [0, 0, 0]], dtype=np.uint8)
    assert pack_rows(bits).tolist() == [0b001, 0b110, 0]
    wide = np.zeros((2, 62), dtype=np.uint8)
    wide[1, 61] = 1
    assert pack_rows(wide).tolist() == [0, 1 << 61]
    with pytest.raises(ValueError):
        pack_rows(np.zeros((1, 63), dtype=np.uint8))


# -- gaussian_solve ---------------------------------------------------


def test_solve_identity_system():
    c = V("10110")
    rows = [BitVec(5, 1 << i) for i in range(5)]
    labels = [c.bit(i) for i in range(5)]
    res = gaussian_solve(BitMatrix(rows, labels))
    assert res.status is GaussStatus.SOLVED
    assert res.solution == c


def test_solve_hand_system():
    rows = [V("1100"), V("0100"), V("0010"), V("0001")]
    res = gaussian_solve(BitMatrix(rows, [1, 0, 0, 0]))
    assert res.status is GaussStatus.SOLVED
    assert res.solution == V("1000")
    # flipping the second label moves the pinned first coordinate
    res = gaussian_solve(BitMatrix(rows, [1, 1, 0, 0]))
    assert res.status is GaussStatus.SOLVED
    assert res.solution == V("0100")


def test_solve_inconsistent():
    res = gaussian_solve(BitMatrix([V("1000"), V("1000")], [0, 1]))
    assert res.status is GaussStatus.INCONSISTENT
    assert res.solution is None


def test_solve_underdetermined():
    res = gaussian_solve(BitMatrix([V("1100"), V("0011")], [0, 1]))
    assert res.status is GaussStatus.UNDERDETERMINED


def test_solve_requires_labels():
    with pytest.raises(ValueError):
        gaussian_solve(BitMatrix([V("10")]))


def test_redundant_consistent_rows_still_solve():
    c = V("101")
    rows = [V("100"), V("010"), V("001"), V("110"), V("111")]
    labels = [dot_mod2(r, c) for r in rows]
    res = gaussian_solve(BitMatrix(rows, labels))
    assert res.status is GaussStatus.SOLVED
    assert res.solution == c


@settings(max_examples=40)
@given(st.integers(1, 64), st.data())
def test_solve_round_trip_random_full_rank(k, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    c = BitVec.random(k, rng)
    rows = []
    while rank_ints([r.bits for r in rows]) < k:
        rows.append(BitVec.random(k, rng))
    labels = [dot_mod2(r, c) for r in rows]
    res = gaussian_solve(BitMatrix(rows, labels))
    assert res.status is GaussStatus.SOLVED
    assert res.solution == c
