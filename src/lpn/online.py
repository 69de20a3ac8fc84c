"""Online parity decoding for arbitrarily distributed examples.

Examples arrive one at a time from any distribution.  A bank of t
elimination matrices digests them: each matrix holds at most one stored
row per (block, nonzero block value) slot.  An incoming example is
reduced through a matrix block by block; XORing stored rows either
cancels it completely (zeroed: the folded label is a noisy estimate of
the example's clean label) or leaves a residual whose leading block has
no stored row yet (captured: the residual is stored and the true label
is requested).  An example zeroed by every matrix gets a majority-vote
prediction; matrices vote independently because each stored label is
used by exactly one matrix.

The depth of a stored row at block j is at most 2^(j-1), so any zeroed
outcome folds at most 2^g - 1 stored rows and its depth, counting the
incoming example itself, is at most 2^g.

Each matrix is a (g, 2^w) table of int64 row words: the residual in the
low g*w bits, its label in bit 63, and slot 0 of every block the
all-zero identity row.  Folding examples through a matrix is then g
gathers and XORs with no branches.  An empty slot holds 0 and leaves
the residual alone, so an example was captured exactly when its
residual is nonzero after the last block.  A batch is folded through
the matrices that hold rows; the examples before the first capture are
final, the capture inserts one row, and only the examples that the same
matrix captured are folded again: every example it zeroed missed the
new slot, which was empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .gf2 import pack_rows

__all__ = ["OnlineReport", "run_online"]

_BATCH = 4096
# bit 63 of a row word carries its label; the low 63 bits its residual
_VEC = (1 << 63) - 1
_LABEL = -(1 << 63)
# the bank's two int64 tables hold t * g * 2^w slots each; at this cap
# they take 64 MB
_MAX_SLOTS = 1 << 22


@dataclass
class OnlineReport:
    processed: int
    predicted: int
    unknown: int
    ties: int
    errors: Optional[int]
    per_matrix_fill: List[int]
    capacity: int
    max_vote_depth: int  # over every vote cast, 0 if none was
    depth_bound: int
    # Always "simple": there is one engine.  The field stays because the
    # benchmark's tracer splits online time by it.
    engine: str
    # provenance size s -> [correct, total] over every vote cast
    votes_by_depth: Optional[Dict[int, List[int]]] = None
    predictions: Optional[List[int]] = None  # per example: bit, or -1 if unknown

    @property
    def label_requests(self) -> int:
        return self.unknown

    @property
    def error_rate(self) -> Optional[float]:
        if self.errors is None or self.predicted == 0:
            return None
        return self.errors / self.predicted


class _Decoder:
    """The bank's row tables and the tallies of one run."""

    def __init__(self, g: int, w: int, t: int, stats: bool, record: bool):
        self.g, self.w, self.t = g, w, t
        shape = (t, g, 1 << w)
        self.words = np.zeros(shape, dtype=np.int64)
        self.depths = np.zeros(shape, dtype=np.int64)
        # per row, a mask of the slots whose examples it XORs
        self.prov = np.zeros(shape, dtype=object) if stats else None
        self.fill = [0] * t
        self.used = 0  # matrices [0, used) hold rows, the rest are empty
        self.predicted = self.unknown = self.ties = self.errors = 0
        self.max_depth = 0
        self.votes_by_depth: Optional[Dict[int, List[int]]] = {} if stats else None
        self.predictions: Optional[List[int]] = [] if record else None

    def feed(self, xs: np.ndarray, labels: np.ndarray,
             clean: Optional[np.ndarray]) -> None:
        """Decode one batch of packed examples, in order."""
        n, t = len(xs), self.t
        cap = np.empty(n, dtype=np.int64)  # capturing matrix, t if none
        res = np.empty(n, dtype=np.int64)  # residual the capture left
        ones = np.zeros(n, dtype=np.int64)  # label-1 votes cast so far
        self._advance(xs, clean, np.arange(n), 0, cap, res, ones)
        pos = 0
        while pos < n:
            pending = cap[pos:] < t
            first = int(pending.argmax())
            stop = pos + first if pending[first] else n
            self._predict(ones[pos:stop], None if clean is None else clean[pos:stop])
            if stop == n:
                break
            m = int(cap[stop])
            j, v = self._insert(m, int(xs[stop]), int(labels[stop]))
            self.unknown += 1
            if self.predictions is not None:
                self.predictions.append(-1)
            pos = stop + 1
            # a capture missed first at slot (j, v) exactly when its
            # residual is zero below block j and v in block j
            low = (1 << (j + 1) * self.w) - 1
            hit = (cap[pos:] == m) & ((res[pos:] & low) == v << j * self.w)
            self._advance(xs, clean, pos + np.flatnonzero(hit), m, cap, res, ones)

    def _advance(self, xs, clean, idx, m, cap, res, ones) -> None:
        """Fold examples idx through matrices m, m+1, ... while they are
        zeroed, casting their votes; cap[idx] becomes the first matrix
        that captures each one, or t, and res[idx] the residual there."""
        x = xs[idx]
        while len(idx) and m < self.used:
            r, dep, slots = self._fold(m, x)
            lost = (r & _VEC) != 0
            if lost.any():
                cap[idx[lost]] = m
                res[idx[lost]] = r[lost]
                keep = ~lost
                idx, x, r = idx[keep], x[keep], r[keep]
                dep = None if dep is None else dep[keep]
                slots = [v[keep] for v in slots]
            self._cast(idx, r < 0, dep, m, slots, clean, ones)
            m += 1
        cap[idx] = self.t
        if not len(idx) or m == self.t:
            return
        # an empty matrix captures every nonzero example and gives the
        # zero example a vote of 0 (always right) at depth 1
        nonzero = x != 0
        cap[idx[nonzero]] = m
        res[idx[nonzero]] = x[nonzero]
        zeros = (self.t - m) * (len(idx) - int(np.count_nonzero(nonzero)))
        if zeros:
            self.max_depth = max(self.max_depth, 1)
            if self.votes_by_depth is not None and clean is not None:
                row = self.votes_by_depth.setdefault(0, [0, 0])
                row[0] += zeros
                row[1] += zeros

    def _fold(self, m: int, x: np.ndarray):
        """The row words that folding x through matrix m leaves, their
        depths (None once a vote has reached the bound 2^g) and, when
        vote stats are kept, the slot each block used."""
        depths = self.max_depth < 1 << self.g
        r, dep, slots = x, 1, []
        for j in range(self.g):
            v = (r >> (j * self.w)) & ((1 << self.w) - 1)
            r = r ^ self.words[m, j][v]
            if depths:
                dep = dep + self.depths[m, j][v]
            if self.prov is not None:
                slots.append(v)
        return r, dep if depths else None, slots

    def _cast(self, idx, lab, dep, m, slots, clean, ones) -> None:
        """Votes of matrix m for examples idx, which it zeroes."""
        if not len(idx):
            return
        ones[idx] += lab
        if dep is not None:
            self.max_depth = max(self.max_depth, int(dep.max()))
        if self.votes_by_depth is None or clean is None:
            return
        prov = 0
        for j, v in enumerate(slots):
            prov = prov ^ self.prov[m, j][v]
        for s, ok in zip(prov.tolist(), (lab == clean[idx]).tolist()):
            row = self.votes_by_depth.setdefault(s.bit_count(), [0, 0])
            row[0] += ok
            row[1] += 1

    def _insert(self, m: int, x: int, label: int) -> Tuple[int, int]:
        """Store the residual that x leaves in matrix m, which captures
        it; returns the slot (block, value)."""
        r, dep, prov = x, 1, 0
        for j in range(self.g):
            v = (r >> (j * self.w)) & ((1 << self.w) - 1)
            if v == 0:
                continue
            word = int(self.words[m, j, v])
            if word == 0:
                self.words[m, j, v] = r ^ _LABEL if label else r
                self.depths[m, j, v] = dep
                if self.prov is not None:
                    self.prov[m, j, v] = prov ^ (1 << (j << self.w | v))
                self.fill[m] += 1
                self.used = max(self.used, m + 1)
                return j, v
            r ^= word
            dep += int(self.depths[m, j, v])
            if self.prov is not None:
                prov ^= self.prov[m, j, v]
        raise AssertionError("the matrix zeroes the example")

    def _predict(self, ones: np.ndarray, clean: Optional[np.ndarray]) -> None:
        if not len(ones):
            return
        twice = 2 * ones
        bit = (twice > self.t).astype(np.uint8)
        self.predicted += len(ones)
        self.ties += int(np.count_nonzero(twice == self.t))
        if clean is not None:
            self.errors += int(np.count_nonzero(bit != clean))
        if self.predictions is not None:
            self.predictions.extend(bit.tolist())


def run_online(
    source,
    g: int,
    w: int,
    t: int,
    count: Optional[int] = None,
    collect_vote_stats: bool = False,
    record_predictions: bool = False,
) -> OnlineReport:
    """Feed `count` examples from the source through a fresh bank.

    The number of unknown outcomes never exceeds the bank capacity
    t*g*(2^w - 1); once every matrix is full, all further examples are
    predicted.  With a noiseless source, predictions are always correct
    because each vote is an exact XOR of clean labels.  Ties resolve
    to 0.

    count defaults to the rows a finite source has left, and may not
    exceed them.  collect_vote_stats fills votes_by_depth, keyed by the
    number of stored examples a vote XORs; record_predictions lists
    each example's outcome.
    """
    if g < 1 or w < 1 or t < 1:
        raise ValueError("need g >= 1 blocks of w >= 1 bits and t >= 1 matrices")
    if g * w > 62:
        raise ValueError(f"g*w={g * w} exceeds the 62-bit example limit")
    if t * g << w > _MAX_SLOTS:
        raise ValueError(f"t*g*2^w={t * g << w} slots exceed the limit of "
                         f"{_MAX_SLOTS}")
    if source.k != g * w:
        raise ValueError(f"source supplies {source.k}-bit examples, need g*w={g * w}")
    left = source.remaining()
    if count is None:
        if left is None:
            raise ValueError("count is required for a generative source")
        count = left
    if count < 0:
        raise ValueError("count must be nonnegative")
    if left is not None and count > left:
        raise ValueError(f"the source has {left} examples left, {count} requested")
    target = getattr(source, "target", None)
    dec = _Decoder(g, w, t, collect_vote_stats, record_predictions)
    done = 0
    while done < count:
        take = min(_BATCH, count - done)
        bits, labels, _ = source.draw_batch(take)
        clean = target.predict_rows(bits) if target is not None else None
        dec.feed(pack_rows(bits), labels, clean)
        done += take
    return OnlineReport(
        processed=count,
        predicted=dec.predicted,
        unknown=dec.unknown,
        ties=dec.ties,
        errors=dec.errors if target is not None else None,
        per_matrix_fill=dec.fill,
        capacity=t * g * ((1 << w) - 1),
        max_vote_depth=dec.max_depth,
        depth_bound=1 << g,
        engine="simple",
        votes_by_depth=dec.votes_by_depth,
        predictions=dec.predictions,
    )
