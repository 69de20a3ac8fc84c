"""Reference online decoder: one Python reduction per example and matrix.

This is the straightforward dict-based engine that `lpn.online.run_online`
must reproduce exactly.  Tests compare the two report by report and use
the matrix classes here to check single-matrix reduction and voting.

Each matrix holds at most one stored row per (block, nonzero block value)
slot.  An incoming example is reduced through a matrix block by block;
XORing stored rows either cancels it completely (Zeroed: the folded label
is a noisy estimate of the example's clean label) or leaves a residual
whose leading block has no stored row yet (Captured: the residual is
stored and the true label is requested).  An example zeroed by every
matrix gets a majority-vote prediction.

Provenance, when tracked, is an int bitmask over draw indices: bit i
set means original example i is one of the XORed terms, so combining
two rows XORs their masks and repeated draws cancel in pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from lpn.gf2 import BitVec, pack_words
from lpn.online import OnlineReport


@dataclass
class Row:
    """A stored residual: vec has blocks below its slot's block zeroed."""

    vec: int
    label: int
    depth: int
    prov: Optional[int] = None


@dataclass(frozen=True)
class Zeroed:
    """The example folded to zero; label is the XOR of the used rows'
    labels (plus the label passed in), depth counts the example itself
    plus the depths of all used rows."""

    label: int
    depth: int
    provenance: Optional[int] = None


@dataclass(frozen=True)
class Captured:
    """Reduction stopped at an empty slot (block, value); the residual
    was stored there."""

    block: int
    value: int


class EliminationMatrix:
    """g blocks of w bits; at most one stored row per (block, value!=0)."""

    def __init__(self, g: int, w: int, track_provenance: bool = False):
        if g < 1 or w < 1:
            raise ValueError("need g >= 1 blocks of w >= 1 bits")
        self.g = g
        self.w = w
        self.rows: Dict[Tuple[int, int], Row] = {}
        self.track_provenance = track_provenance

    @property
    def domain_bits(self) -> int:
        return self.g * self.w

    @property
    def capacity(self) -> int:
        return self.g * ((1 << self.w) - 1)

    @property
    def fill(self) -> int:
        return len(self.rows)

    def reduce(
        self,
        x: int,
        label: int,
        index: Optional[int] = None,
        insert: bool = True,
    ) -> Union[Zeroed, Captured]:
        """Fold x through the stored rows, block 1 upward.

        Starts from (label, depth 1).  On a miss the residual is stored
        (when insert is set) and Captured is returned.  The provenance
        of a Zeroed outcome covers the used rows only, so the XOR of
        the referenced original examples equals x itself.
        """
        if x >> self.domain_bits:
            raise ValueError("example does not fit the g*w-bit domain")
        mask = (1 << self.w) - 1
        vec, lab, dep = x, label, 1
        prov = 0
        for j in range(1, self.g + 1):
            v = (vec >> (j - 1) * self.w) & mask
            if v == 0:
                continue
            row = self.rows.get((j, v))
            if row is None:
                if insert:
                    rp = None
                    if self.track_provenance:
                        rp = prov if index is None else prov ^ 1 << index
                    assert vec & ((1 << (j - 1) * self.w) - 1) == 0
                    self.rows[(j, v)] = Row(vec, lab, dep, rp)
                return Captured(j, v)
            vec ^= row.vec
            lab ^= row.label
            dep += row.depth
            if self.track_provenance and row.prov is not None:
                prov = prov ^ row.prov
        assert vec == 0
        return Zeroed(lab, dep, prov if self.track_provenance else None)


def provenance_indices(mask: int) -> List[int]:
    """The draw indices set in a provenance bitmask, in increasing order."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def reduce_through(
    matrix: EliminationMatrix, x: Union[BitVec, int], label: int
) -> Union[Zeroed, Captured]:
    """Single-matrix reduction; see EliminationMatrix.reduce."""
    if isinstance(x, BitVec):
        if x.n != matrix.domain_bits:
            raise ValueError("example length must be g*w")
        x = x.bits
    return matrix.reduce(x, label)


@dataclass
class Prediction:
    """Outcome of pushing one example through a whole bank."""

    kind: str  # "predicted" | "unknown"
    bit: Optional[int]
    votes_for: int
    votes_against: int
    tie: bool
    captured_in: Optional[int] = None  # 1-based matrix index
    max_vote_depth: int = 0
    votes: Optional[List[Zeroed]] = None


class MatrixBank:
    def __init__(self, g: int, w: int, t: int, track_provenance: bool = False):
        if t < 1:
            raise ValueError("need at least one matrix")
        self.g = g
        self.w = w
        self.t = t
        self.matrices = [EliminationMatrix(g, w, track_provenance) for _ in range(t)]

    @property
    def capacity(self) -> int:
        return self.t * self.g * ((1 << self.w) - 1)


def process_example(
    bank: MatrixBank,
    x: Union[BitVec, int],
    label_supplier: Callable[[], int],
    index: Optional[int] = None,
    collect: bool = False,
) -> Prediction:
    """Reduce x through every matrix, voting with the Zeroed outcomes.

    The true (noisy) label is requested only when some matrix captures
    the example; it is then folded into the freshly stored row so the
    row's label matches its provenance.  Ties resolve to 0.  Votes cast
    before a capture still count towards the depth and the vote list.
    """
    if isinstance(x, BitVec):
        x = x.bits
    votes_for = 0
    votes_against = 0
    max_depth = 0
    votes: Optional[List[Zeroed]] = [] if collect else None
    for mi, matrix in enumerate(bank.matrices, 1):
        out = matrix.reduce(x, 0, index=index, insert=True)
        if isinstance(out, Captured):
            lab = int(label_supplier())
            matrix.rows[(out.block, out.value)].label ^= lab
            return Prediction(
                "unknown", None, votes_for, votes_against, False, mi,
                max_depth, votes,
            )
        if out.label:
            votes_for += 1
        else:
            votes_against += 1
        max_depth = max(max_depth, out.depth)
        if votes is not None:
            votes.append(out)
    bit = 1 if votes_for > votes_against else 0
    return Prediction(
        "predicted", bit, votes_for, votes_against,
        votes_for == votes_against, None, max_depth, votes,
    )


def run_reference(
    source,
    g: int,
    w: int,
    t: int,
    count: int,
    collect_vote_stats: bool = False,
    record_predictions: bool = False,
) -> OnlineReport:
    """The report run_online must give, one example at a time.

    Vote stats are keyed by provenance size, so collecting them tracks
    provenance.
    """
    return reference_reports(source, g, w, t, [count], collect_vote_stats,
                             record_predictions)[0]


def reference_reports(
    source,
    g: int,
    w: int,
    t: int,
    counts: List[int],
    collect_vote_stats: bool = False,
    record_predictions: bool = False,
) -> List[OnlineReport]:
    """run_reference at each count of the increasing list counts, from
    one pass over the first max(counts) examples."""
    reports: List[OnlineReport] = []
    bank = MatrixBank(g, w, t, track_provenance=collect_vote_stats)
    target = getattr(source, "target", None)
    predicted = unknown = ties = 0
    errors: Optional[int] = 0 if target is not None else None
    max_depth = 0
    votes_by_depth: Optional[Dict[int, List[int]]] = (
        {} if collect_vote_stats else None
    )
    predictions: Optional[List[int]] = [] if record_predictions else None
    count = max(counts, default=0)
    done = 0

    def snapshot(processed: int) -> None:
        reports.append(OnlineReport(
            processed=processed,
            predicted=predicted,
            unknown=unknown,
            ties=ties,
            errors=errors,
            per_matrix_fill=[m.fill for m in bank.matrices],
            capacity=bank.capacity,
            max_vote_depth=max_depth,
            depth_bound=1 << g,
            engine="simple",
            votes_by_depth=(None if votes_by_depth is None else
                            {s: list(v) for s, v in votes_by_depth.items()}),
            predictions=None if predictions is None else list(predictions),
        ))

    for _ in range(counts.count(0)):
        snapshot(0)
    while done < count:
        take = min(4096, count - done)
        bits, labels, start = source.draw_batch(take)
        xs = pack_words(bits)[:, 0].view(np.int64)
        clean = None
        if target is not None:
            clean = [(int(x) & target.bits).bit_count() & 1 for x in xs]
        for i in range(take):
            lab_i = int(labels[i])
            pred = process_example(
                bank, int(xs[i]), lambda lab_i=lab_i: lab_i,
                index=start + i, collect=collect_vote_stats,
            )
            max_depth = max(max_depth, pred.max_vote_depth)
            if pred.kind == "unknown":
                unknown += 1
            else:
                predicted += 1
                ties += pred.tie
                if clean is not None and pred.bit != int(clean[i]):
                    assert errors is not None
                    errors += 1
            if predictions is not None:
                predictions.append(-1 if pred.kind == "unknown" else pred.bit)
            if votes_by_depth is not None and pred.votes and clean is not None:
                for z in pred.votes:
                    row = votes_by_depth.setdefault(z.provenance.bit_count(), [0, 0])
                    row[0] += int(z.label) == int(clean[i])
                    row[1] += 1
            for _ in range(counts.count(done + i + 1)):
                snapshot(done + i + 1)
        done += take
    return reports
