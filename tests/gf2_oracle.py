"""Reference GF(2) elimination: one system at a time over Python ints.

This is the scalar form of `lpn.gf2.eliminate`, which runs Gauss-Jordan
on a batch of systems of row words at once.  Rows are Python ints of
any width, coordinate 1 in bit 0; `eliminate` reduces them one row at a
time against the pivots found so far, `back_substitute` reads the
solution off the pivots, and `express_in_span` finds the rows whose XOR
is a target vector (the full elimination of AC-12).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from lpn.gf2 import BitVec


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
