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

There are two eliminators, one per kind of traffic.  `eliminate` runs
one system at a time over Python ints of any width: `gaussian_solve`
and `express_in_span` hand it a single system whose rows may be
thousands of bits wide.  `solve_batch` runs many small square
systems at once over int64 arrays, vectorised along the batch: the SQ
basis learner solves one k x k system per k-tuple of draws, tens of
thousands of them per query pass, where a Python loop per system would
cost more than the rest of the pass.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "BitVec",
    "BlockLayout",
    "GaussStatus",
    "GaussResult",
    "pack_words",
    "unpack_words",
    "eliminate",
    "back_substitute",
    "solve_batch",
    "express_in_span",
    "gaussian_solve",
]


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
    def from_bytes_le(cls, n: int, raw: bytes) -> "BitVec":
        if len(raw) != (n + 7) // 8:
            raise ValueError(f"expected {(n + 7) // 8} bytes for {n} coordinates")
        bits = int.from_bytes(raw, "little")
        if bits >> n:
            raise ValueError("padding bits beyond the vector length must be zero")
        return cls(n, bits)

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


def eliminate(
    rows: Iterable[int], colmask: int
) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Forward elimination of int-packed GF(2) rows on the columns in colmask.

    Each row is reduced by the pivots found so far.  If it keeps a set
    bit inside colmask it becomes a pivot, keyed by its lowest such bit;
    otherwise, if anything is left outside the mask, that remainder is a
    residue.  Bits outside the mask ride along with every XOR, so they
    can carry a label or a mask of the rows combined.  Returns the
    pivots as (key bit, reduced row) in the order found, and the
    residues in input order.
    """
    pivots: List[Tuple[int, int]] = []
    residues: List[int] = []
    for row in rows:
        for key, prow in pivots:
            if row & key:
                row ^= prow
        cols = row & colmask
        if cols:
            pivots.append((cols & -cols, row))
        elif row:
            residues.append(row)
    return pivots, residues


def back_substitute(pivots: Sequence[Tuple[int, int]], n: int) -> int:
    """The c with <c, row> equal to bit n of every pivot row.

    pivots come from eliminate with colmask (1 << n) - 1 and the label
    riding in bit n.  Coordinates without a pivot are set to 0.
    """
    c = 0
    for key, prow in sorted(pivots, reverse=True):
        # prow's other columns lie above key and are already solved
        if ((prow & c).bit_count() ^ (prow >> n)) & 1:
            c |= key
    return c


def solve_batch(rows: np.ndarray, k: int) -> np.ndarray:
    """Solve T square GF(2) systems at once; -1 where one is singular.

    rows is a (T, k) int64 array: system t is the k rows rows[t], each
    with its coordinates in bits 0..k-1 and its label in bit k, so k is
    at most 62.  Returns the (T,) int64 array of the unique c with
    <c, row> equal to every row's label, or -1 for a system whose rows
    do not span all k coordinates.  This is what eliminate with colmask
    (1 << k) - 1 followed by back_substitute gives for one system, with
    -1 where it finds fewer than k pivots.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != k or not 1 <= k <= 62:
        raise ValueError("need a (T, k) array of rows with 1 <= k <= 62")
    a = rows.astype(np.int64, copy=True)
    t = np.arange(len(a))
    ok = np.ones(len(a), dtype=bool)
    # Gauss-Jordan, column j at step j: rows 0..j-1 hold the pivots so
    # far, and the first later row with bit j set is swapped into row j
    for j in range(k):
        has = (a[:, j:] >> j) & 1
        ok &= has.any(axis=1)
        p = j + has.argmax(axis=1)
        prow = a[t, p]
        a[t, p] = a[:, j]
        a[:, j] = prow
        hit = ((a >> j) & 1).astype(bool)
        hit[:, j] = False
        a ^= np.where(hit, prow[:, None], 0)
    # row j is now coordinate j alone, with its value in the label bit
    c = (((a >> k) & 1) << np.arange(k, dtype=np.int64)).sum(axis=1)
    return np.where(ok, c, -1)


def express_in_span(rows: Sequence[BitVec], target: BitVec) -> Optional[List[int]]:
    """Indices of rows whose XOR equals target, or None if out of span.

    Row i carries bit i of a combination mask above the n columns, and
    the target, eliminated last, carries bit len(rows).  Elimination
    pivots on the lowest set column, so the result is deterministic for
    a given row order.
    """
    n, m = target.n, len(rows)
    if any(r.n != n for r in rows):
        raise ValueError("length mismatch")
    aug = [r.bits | 1 << (n + i) for i, r in enumerate(rows)]
    aug.append(target.bits | 1 << (n + m))
    _, residues = eliminate(aug, (1 << n) - 1)
    if not residues or not residues[-1] >> (n + m):
        return None  # the target became a pivot
    combo = residues[-1] >> n
    return [i for i in range(m) if (combo >> i) & 1]


class GaussStatus(enum.Enum):
    SOLVED = "solved"
    UNDERDETERMINED = "underdetermined"
    INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class GaussResult:
    status: GaussStatus
    solution: Optional[BitVec] = None


def gaussian_solve(
    rows: Sequence[int], labels: Sequence[int], n: int
) -> GaussResult:
    """Solve <row, c> = label over GF(2) for int-packed rows of n bits.

    Returns SOLVED with the unique solution when the rows have full
    column rank, UNDERDETERMINED when consistent but rank deficient, and
    INCONSISTENT when no solution exists.  An inconsistent system is
    reported as such even if it is also rank deficient.
    """
    if len(rows) != len(labels):
        raise ValueError("labels must match rows one to one")
    pivots, residues = eliminate(
        (r | l << n for r, l in zip(rows, labels)), (1 << n) - 1
    )
    if residues:  # a row reduced to 0 = 1
        return GaussResult(GaussStatus.INCONSISTENT)
    if len(pivots) < n:
        return GaussResult(GaussStatus.UNDERDETERMINED)
    return GaussResult(GaussStatus.SOLVED, BitVec(n, back_substitute(pivots, n)))
