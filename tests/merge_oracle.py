"""Reference bkw vote round on (m, a*b) uint8 0/1 matrices.

This is the one-byte-per-bit form of the vote pipeline that
`lpn.solvers` runs on int64 row words: a view that zero-pads and
`np.roll`s each draw, a merge that gathers bits, labels and segment ids
separately, and a hit test on the probe row (1, 0, ..., 0).  Each
collision class's representative is its first member in the order of
the level's rows, so for the same draws the packed path must give the
same votes and the same provenance.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from lpn.gf2 import BlockLayout, pack_words


class ShiftedView:
    """Cyclic coordinate rotation of a source, zero-padded to a width."""

    def __init__(self, src, width: int, shift: int = 0):
        self._src = src
        self.k = width
        self.shift = shift % width

    def draw_batch(self, m: int):
        bits, labels, start = self._src.draw_batch(m)
        if self.k > bits.shape[1]:
            pad = np.zeros((len(bits), self.k - bits.shape[1]), dtype=np.uint8)
            bits = np.concatenate([bits, pad], axis=1)
        if self.shift:
            bits = np.roll(bits, -self.shift, axis=1)
        return bits, labels, start


def merge_segmented(bits, labels, seg, layout: BlockLayout, level: int,
                    prov=None):
    """One merge step inside each segment, in (segment, block value) order."""
    a, b = layout.a, layout.b
    lo, hi = layout.bounds(a - level)
    s = len(bits)
    if s == 0:
        return bits, labels, seg, None if prov is None else np.hstack([prov, prov])
    key = seg.astype(np.int64) << b
    key |= pack_words(bits[:, lo:hi])[:, 0].view(np.int64)
    order = np.argsort(key, kind="stable")
    ks = key[order]
    starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
    sizes = np.diff(np.r_[starts, s])
    rep_pos = starts  # the class's first row, as the sort is stable
    gid = np.repeat(np.arange(len(starts)), sizes)
    rep_for = rep_pos[gid]
    keep = np.ones(s, dtype=bool)
    keep[rep_pos] = False

    rep = rep_for[keep]
    bs = bits[order]
    ls = labels[order]
    out_bits = bs[keep] ^ bs[rep]
    out_labels = ls[keep] ^ ls[rep]
    out_seg = seg[order][keep]
    assert not out_bits[:, lo:hi].any(), "collapsed block must be zero"
    out_prov = None
    if prov is not None:
        ps = prov[order]
        out_prov = np.hstack([ps[keep], ps[rep]])
    return out_bits, out_labels, out_seg, out_prov


def check_provenance(bits, labels, prov, draws, draw_labels) -> None:
    acc, lab = draws[prov[:, 0]], draw_labels[prov[:, 0]]
    for j in range(1, prov.shape[1]):
        acc ^= draws[prov[:, j]]
        lab ^= draw_labels[prov[:, j]]
    if not (np.array_equal(acc, bits) and np.array_equal(lab, labels)):
        raise AssertionError("provenance does not reproduce the merged rows")


def vote_round(draws, draw_labels, seg, layout: BlockLayout, track: bool):
    """Labels and (with track) draw indices of each segment's first hit."""
    bits, labels = draws, draw_labels
    prov = np.arange(len(draws))[:, None] if track else None
    for level in range(layout.a - 1):
        bits, labels, seg, prov = merge_segmented(
            bits, labels, seg, layout, level, prov
        )
    if prov is not None:
        check_provenance(bits, labels, prov, draws, draw_labels)
    hit = (bits[:, 0] == 1) & ~bits[:, 1:].any(axis=1)
    idx = np.flatnonzero(hit)
    _, first = np.unique(seg[idx], return_index=True)
    return labels[idx[first]], None if prov is None else prov[idx[first]]


def collect_votes(view: ShiftedView, layout: BlockLayout, n_votes: int,
                  chunk_votes: int, track: bool
                  ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Labels of n_votes votes in completion order, rounds of chunk_votes."""
    m_per = layout.a * 2**layout.b
    out: List[np.ndarray] = []
    out_prov: List[np.ndarray] = []
    remaining = n_votes
    while remaining > 0:
        pending = min(chunk_votes, remaining)
        remaining -= pending
        while pending:
            draws, draw_labels, start = view.draw_batch(pending * m_per)
            seg = np.repeat(np.arange(pending, dtype=np.int64), m_per)
            labels, prov = vote_round(draws, draw_labels, seg, layout, track)
            out.append(labels)
            if prov is not None:
                out_prov.append(start + prov)
            pending -= len(labels)
    labels = np.concatenate(out)
    return labels, np.concatenate(out_prov) if track else None
