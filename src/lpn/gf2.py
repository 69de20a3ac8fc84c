"""Bit-packed linear algebra over GF(2).

Vectors live in Python ints, least significant bit first: bit 0 of the
integer is coordinate 1 of the vector.  The same convention is used for
the byte-level instance file format (byte 0 holds coordinates 1..8,
coordinate 1 in the least significant bit), for numpy 0/1 matrices
(column 0 is coordinate 1) and for the (m, ceil(k/64)) uint64 row
words that hold every example in memory (pack_words; coordinate 1 in
bit 0 of word 0, so their little-endian bytes are the file's bytes).
The bkw merge and the online decoder view a row's single word as int64
with its label in bit 63, so they take up to 62 coordinates.  Values
move between representations without any reindexing.

`eliminate` is the one GF(2) eliminator: Gauss-Jordan over row words,
vectorised across a batch of systems.  The elimination baseline hands
it one system of thousands of rows; the SQ basis learner hands it one
k x k system per k-tuple of draws, tens of thousands at a time.

`fwht` is the one Walsh-Hadamard transform: the likelihood decoder
scores all 2^k candidate parities with one call on a signed table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "BitVec",
    "BlockLayout",
    "GaussStatus",
    "GaussResult",
    "pack_words",
    "unpack_words",
    "eliminate",
    "fwht",
]

# fwht works through its array in slabs of this many elements, with one
# scratch buffer of the same size, so its extra memory does not grow
# with the array
_FWHT_SLAB = 1 << 18


class BitVec:
    """Immutable bit vector of fixed length n over GF(2)."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        if n < 0:
            raise ValueError("vector length must be nonnegative")
        if bits < 0 or bits >> n:
            raise ValueError(f"value 0x{bits:x} does not fit in {n} bits")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("BitVec is immutable")

    def __reduce__(self):
        return (BitVec, (self.n, self.bits))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_string(cls, s: str) -> "BitVec":
        """Parse a string like "0110", coordinate 1 first."""
        if s.strip("01"):
            raise ValueError("coordinates must be 0 or 1")
        return cls(len(s), int(s[::-1] or "0", 2))

    @classmethod
    def from_bits_row(cls, row: np.ndarray) -> "BitVec":
        """Build from a numpy 0/1 row, column 0 = coordinate 1."""
        row = np.asarray(row, dtype=np.uint8)
        packed = np.packbits(row, bitorder="little").tobytes()
        return cls(len(row), int.from_bytes(packed, "little"))

    # -- accessors ----------------------------------------------------

    def bit(self, i: int) -> int:
        """Coordinate i+1, i.e. 0-based position i."""
        if not 0 <= i < self.n:
            raise IndexError(f"bit index {i} out of range for length {self.n}")
        return (self.bits >> i) & 1

    def to_bytes_le(self) -> bytes:
        return self.bits.to_bytes((self.n + 7) // 8, "little")

    def to01(self) -> str:
        return "".join(str((self.bits >> i) & 1) for i in range(self.n))

    def dot_words(self, words: np.ndarray) -> np.ndarray:
        """<self, x> mod 2 for each of the (m, ceil(n/64)) uint64 row
        words x (pack_words): the labels of parity self."""
        raw = self.bits.to_bytes(8 * -(-self.n // 64), "little")
        c = np.frombuffer(raw, dtype="<u8")
        return np.bitwise_count(np.bitwise_xor.reduce(words & c, axis=1)) & 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVec) and self.n == other.n and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"BitVec('{self.to01()}')"


@dataclass(frozen=True)
class BlockLayout:
    """Partition of ab coordinates into a blocks of b bits each.

    Block j (1-based) covers coordinates (j-1)*b+1 .. j*b; block 1 holds
    the lowest-index coordinates.
    """

    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise ValueError("layout needs a >= 1 blocks of b >= 1 bits")

    @property
    def total(self) -> int:
        return self.a * self.b

    def bounds(self, j: int) -> Tuple[int, int]:
        """Half-open 0-based coordinate range of block j."""
        if not 1 <= j <= self.a:
            raise ValueError(f"block index {j} out of range 1..{self.a}")
        return (j - 1) * self.b, j * self.b


def pack_words(bits: np.ndarray) -> np.ndarray:
    """(m, n) 0/1 rows to (m, ceil(n/64)) uint64 row words.

    Coordinate 1 is bit 0 of word 0, so the words' little-endian bytes
    are the rows' hex bytes in the instance file format.
    """
    m, n = bits.shape
    nb = -(-n // 8)
    if n % 8 or bits.dtype != np.uint8 or not bits.flags.c_contiguous:
        padded = np.zeros((m, 8 * nb), dtype=np.uint8)
        padded[:, :n] = bits
        bits = padded
    # byte i of an 8-byte group lands in bit 56+i of this product, so
    # its top byte holds the group's eight coordinates
    out = np.zeros((m, 8 * -(-n // 64)), dtype=np.uint8)
    out[:, :nb] = bits.view("<u8") * np.uint64(0x0102040810204080) >> np.uint64(56)
    return out.view("<u8")


def unpack_words(words: np.ndarray, n: int) -> np.ndarray:
    """(m, ceil(n/64)) uint64 row words back to (m, n) 0/1 uint8 rows."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, count=n, bitorder="little")


def eliminate(rows: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan on columns 0..k-1 of T systems of row words at once.

    rows is a (T, m, nw) uint64 array: system t is the m row words
    rows[t] (pack_words).  Bits at k and above ride along with every
    XOR, so they can carry a label.  Returns a reduced copy and the (T,)
    rank.  In system t, rows 0..rank-1 hold one pivot each, in
    increasing column order, and each pivot column is clear in every
    other row; rows from rank on are zero on columns below k.  Any
    other shape or dtype, or k outside 0..64*nw, is a ValueError.
    """
    if not (isinstance(rows, np.ndarray) and rows.ndim == 3
            and rows.dtype == np.uint64):
        raise ValueError("need a (T, m, nw) uint64 array of row words")
    if not 0 <= k <= 64 * rows.shape[2]:
        raise ValueError(f"k={k} is outside 0..{64 * rows.shape[2]}")
    T, m, _ = rows.shape
    rank = np.zeros(T, dtype=np.intp)
    if m == 0:  # nothing to pivot on, and a max over no rows raises
        return rows.copy(), rank
    # systems along the last axis, so each step works on rows of T words
    a = np.ascontiguousarray(rows.transpose(1, 2, 0))
    t = np.arange(T)
    index = np.arange(m)[:, None]
    for j in range(k):
        w, bit = j // 64, np.uint64(1 << j % 64)
        # m - (the first row at or past the rank with bit j), else 0
        first = (((a[:, w] & bit) != 0) & (index >= rank)) * (m - index)
        first = first.max(axis=0)
        found = first > 0
        r = np.minimum(rank, m - 1)  # a full-rank system finds nothing
        p = np.where(found, m - first, r)
        # swap the pivot into row r, clear bit j everywhere, restore row r
        prow = a[p, :, t]
        a[p, :, t] = a[r, :, t]
        hit = ((a[:, w] & bit) != 0) & found
        a ^= np.where(hit[:, None], prow.T, np.uint64(0))
        a[r, :, t] = prow
        rank += found
    return a.transpose(2, 0, 1).copy(), rank


def fwht(f: np.ndarray) -> None:
    """Walsh-Hadamard transform of f in place.

    f is a contiguous, writable 1-D signed-integer array of length 2^k
    (anything else is a ValueError); afterwards f[c] is the sum over v
    of (-1)^popcount(c & v) * f[v].  Every value a pass writes is such
    a signed sum over part of the input, so it lies in [-sum|f|,
    sum|f|], and the result is exact whenever f's type holds that bound;
    the caller picks the type.  Each pass takes the butterflies across
    two bits at once (radix 4), with one radix-2 pass on the top bit
    when k is odd.  A pass works through f in slabs of _FWHT_SLAB
    entries (whole groups, or columns of one group once a group is
    larger) through one scratch buffer of that size.
    """
    if not (isinstance(f, np.ndarray) and f.ndim == 1 and f.dtype.kind == "i"
            and f.flags.c_contiguous and f.flags.writeable):
        raise ValueError("need a contiguous, writable 1-D signed-integer array")
    n = len(f)
    if n == 0 or n & (n - 1):
        raise ValueError(f"length {n} is not a power of two")
    k = n.bit_length() - 1
    s = min(n, _FWHT_SLAB)
    scratch = np.empty(s, dtype=f.dtype)
    for j in range(0, k, 2):
        r = 4 if j + 1 < k else 2
        span = 1 << j
        # row i of a group holds the entries whose bits j, j+1 read i
        groups = f.reshape(-1, r, span)
        if r * span <= s:
            per = s // (r * span)
            slabs = (groups[g:g + per] for g in range(0, len(groups), per))
        else:
            width = s // r
            slabs = (groups[g:g + 1, :, c:c + width]
                     for g in range(len(groups)) for c in range(0, span, width))
        # rows of 4 entries would make inner loops of 4, so those passes
        # run their inner loop down the slab instead
        axes, order = ((1, 2, 0), "C") if span == 4 else ((1, 0, 2), "K")
        for x in slabs:
            t = scratch[:x.size].reshape(x.shape).transpose(axes)
            x = x.transpose(axes)
            for i in range(0, r, 2):  # across bit j into the scratch
                np.add(x[i], x[i + 1], out=t[i], order=order)
                np.subtract(x[i], x[i + 1], out=t[i + 1], order=order)
            if r == 2:
                x[...] = t
                continue
            for i in (0, 1):  # across bit j+1 back into f
                np.add(t[i], t[i + 2], out=x[i], order=order)
                np.subtract(t[i], t[i + 2], out=x[i + 2], order=order)


class GaussStatus(enum.Enum):
    SOLVED = "solved"
    UNDERDETERMINED = "underdetermined"
    INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class GaussResult:
    status: GaussStatus
    solution: Optional[BitVec] = None

