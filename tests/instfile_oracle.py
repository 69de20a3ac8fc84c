"""Reference instance-file formatter: one Python string per row.

This is the per-row form of `lpn.instfile.format_instance` over (m, k)
uint8 0/1 rows, kept as the oracle for the bulk writer.  For the same
header fields, rows, labels and target the bulk writer must produce the
same text, byte for byte.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from lpn.gf2 import BitVec


def _row_hex(row: np.ndarray) -> str:
    return bytes(np.packbits(row, bitorder="little")).hex()


def format_rows(
    k: int,
    eta: float,
    seed: int,
    bits: np.ndarray,
    labels: np.ndarray,
    target: Optional[BitVec] = None,
) -> str:
    if bits.shape != (len(bits), k):
        raise ValueError("bit matrix shape does not match header")
    lines = [f"LPN v1 k={k} eta={eta!r} seed={seed} count={len(bits)}"]
    for row, label in zip(bits, labels):
        lines.append(f"{_row_hex(row)} {int(label)}")
    if target is not None:
        lines.append(f"TARGET {target.to_bytes_le().hex()}")
    return "\n".join(lines) + "\n"
