"""Bit-packed linear algebra over GF(2).

Vectors live in Python ints, least significant bit first: bit 0 of the
integer is coordinate 1 of the vector.  The same convention is used for
the byte-level instance file format (byte 0 holds coordinates 1..8,
coordinate 1 in the least significant bit) and for numpy 0/1 matrices
(column 0 is coordinate 1), so values move between representations
without any reindexing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "BitVec",
    "BitMatrix",
    "BlockLayout",
    "GaussStatus",
    "GaussResult",
    "dot_mod2",
    "xor",
    "block",
    "pack_rows",
    "eliminate",
    "back_substitute",
    "rank_ints",
    "is_basis",
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
    def zeros(cls, n: int) -> "BitVec":
        return cls(n, 0)

    @classmethod
    def from_coords(cls, coords: Iterable[int]) -> "BitVec":
        """Build from coordinate values, coordinate 1 first."""
        bits = 0
        n = 0
        for c in coords:
            if c not in (0, 1):
                raise ValueError("coordinates must be 0 or 1")
            bits |= c << n
            n += 1
        return cls(n, bits)

    @classmethod
    def from_string(cls, s: str) -> "BitVec":
        """Parse a string like "0110", coordinate 1 first."""
        return cls.from_coords(int(ch) for ch in s)

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

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "BitVec":
        raw = rng.integers(0, 256, size=(n + 7) // 8, dtype=np.uint8).tobytes()
        mask = (1 << n) - 1
        return cls(n, int.from_bytes(raw, "little") & mask)

    # -- accessors ----------------------------------------------------

    def bit(self, i: int) -> int:
        """Coordinate i+1, i.e. 0-based position i."""
        if not 0 <= i < self.n:
            raise IndexError(f"bit index {i} out of range for length {self.n}")
        return (self.bits >> i) & 1

    def weight(self) -> int:
        return self.bits.bit_count()

    def to_bytes_le(self) -> bytes:
        return self.bits.to_bytes((self.n + 7) // 8, "little")

    def to_bits_row(self) -> np.ndarray:
        raw = np.frombuffer(self.to_bytes_le(), dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little")[: self.n].copy()

    def to01(self) -> str:
        return "".join(str((self.bits >> i) & 1) for i in range(self.n))

    # -- operators ----------------------------------------------------

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return BitVec(self.n, self.bits ^ other.bits)

    def dot(self, other: "BitVec") -> int:
        if self.n != other.n:
            raise ValueError("length mismatch")
        return (self.bits & other.bits).bit_count() & 1

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


def dot_mod2(u: BitVec, v: BitVec) -> int:
    """Inner product of u and v mod 2."""
    return u.dot(v)


def xor(u: BitVec, v: BitVec) -> BitVec:
    return u ^ v


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


def block(v: BitVec, layout: BlockLayout, j: int) -> BitVec:
    """Extract block j of v as a b-bit vector."""
    if v.n != layout.total:
        raise ValueError("vector length does not match layout")
    lo, hi = layout.bounds(j)
    return BitVec(layout.b, (v.bits >> lo) & ((1 << layout.b) - 1))


@dataclass
class BitMatrix:
    """A list of equal-length rows, optionally with a 0/1 label per row."""

    rows: List[BitVec]
    labels: Optional[List[int]] = None

    def __post_init__(self):
        if self.rows:
            n = self.rows[0].n
            if any(r.n != n for r in self.rows):
                raise ValueError("rows must share one length")
        if self.labels is not None:
            if len(self.labels) != len(self.rows):
                raise ValueError("labels must match rows one to one")
            if any(l not in (0, 1) for l in self.labels):
                raise ValueError("labels must be 0 or 1")

    @property
    def ncols(self) -> int:
        return self.rows[0].n if self.rows else 0

    def __len__(self) -> int:
        return len(self.rows)


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """(m, n) 0/1 rows to int64 values, coordinate 1 least significant."""
    if bits.shape[1] > 62:
        raise ValueError("rows too wide to pack into int64")
    packed = np.packbits(bits, axis=1, bitorder="little")
    val = packed[:, 0].astype(np.int64)
    for j in range(1, packed.shape[1]):
        val |= packed[:, j].astype(np.int64) << (8 * j)
    return val


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


def rank_ints(rows: Iterable[int]) -> int:
    """Rank of integer-packed GF(2) rows."""
    return len(eliminate(rows, -1)[0])


def is_basis(vectors: Sequence[BitVec]) -> bool:
    """True iff the k given vectors of length k have full rank."""
    if not vectors:
        return False
    k = len(vectors)
    if any(v.n != k for v in vectors):
        raise ValueError(f"need exactly {k} vectors of length {k}")
    return rank_ints(v.bits for v in vectors) == k


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


def gaussian_solve(matrix: BitMatrix) -> GaussResult:
    """Solve rows . c = labels over GF(2).

    Returns SOLVED with the unique solution when the rows have full
    column rank, UNDERDETERMINED when consistent but rank deficient, and
    INCONSISTENT when no solution exists.  An inconsistent system is
    reported as such even if it is also rank deficient.
    """
    if matrix.labels is None:
        raise ValueError("gaussian_solve needs labeled rows")
    n = matrix.ncols
    pivots, residues = eliminate(
        (r.bits | l << n for r, l in zip(matrix.rows, matrix.labels)),
        (1 << n) - 1,
    )
    if residues:  # a row reduced to 0 = 1
        return GaussResult(GaussStatus.INCONSISTENT)
    if len(pivots) < n:
        return GaussResult(GaussStatus.UNDERDETERMINED)
    return GaussResult(GaussStatus.SOLVED, BitVec(n, back_substitute(pivots, n)))
