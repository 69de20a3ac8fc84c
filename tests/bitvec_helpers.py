"""BitVec helpers that only tests use.

random_bitvec makes the same generator call as the BitVec.random the
package once had, so data built with it does not change; bits_row is
its BitVec.to_bits_row.
"""

from __future__ import annotations

import numpy as np

from lpn.gf2 import BitVec


def random_bitvec(n: int, rng: np.random.Generator) -> BitVec:
    """A uniform n-bit vector from one integers(0, 256) call of
    ceil(n/8) bytes, little-endian, with the bits past n dropped."""
    raw = rng.integers(0, 256, size=(n + 7) // 8, dtype=np.uint8).tobytes()
    return BitVec(n, int.from_bytes(raw, "little") & ((1 << n) - 1))


def bits_row(v: BitVec) -> np.ndarray:
    """v as an (n,) 0/1 uint8 row, column 0 = coordinate 1."""
    raw = np.frombuffer(v.to_bytes_le(), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[: v.n].copy()
