"""Online parity decoding for arbitrarily distributed examples.

Examples arrive one at a time from any distribution.  A bank of t
elimination matrices digests them: each matrix holds at most one stored
row per (block, nonzero block value) slot.  An incoming example is
reduced through a matrix block by block; XORing stored rows either
cancels it completely (Zeroed: the folded label is a noisy estimate of
the example's clean label) or leaves a residual whose leading block has
no stored row yet (Captured: the residual is stored and the true label
is requested).  An example zeroed by every matrix gets a majority-vote
prediction; matrices vote independently because each stored label is
used by exactly one matrix.

The depth of a stored row at block j is at most 2^(j-1), so any Zeroed
outcome folds at most 2^g - 1 stored rows and its depth, counting the
incoming example itself, is at most 2^g.

Two engines produce identical behavior: a dict-based one (reference,
supports provenance tracking) and a table-based one that memoizes each
matrix's action over the whole 2^(g*w) domain (fast for small g*w).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .gf2 import BitVec, pack_rows
from .instance import ParityTarget

__all__ = [
    "Row",
    "Zeroed",
    "Captured",
    "Prediction",
    "EliminationMatrix",
    "MatrixBank",
    "reduce_through",
    "process_example",
    "OnlineReport",
    "run_online",
]


@dataclass
class Row:
    """A stored residual: vec has blocks below its slot's block zeroed."""

    vec: int
    label: int
    depth: int
    prov: Optional[frozenset] = None


@dataclass(frozen=True)
class Zeroed:
    """The example folded to zero; label is the XOR of the used rows'
    labels (plus the label passed in), depth counts the example itself
    plus the depths of all used rows."""

    label: int
    depth: int
    provenance: Optional[frozenset] = None


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
        prov: frozenset = frozenset()
        for j in range(1, self.g + 1):
            v = (vec >> (j - 1) * self.w) & mask
            if v == 0:
                continue
            row = self.rows.get((j, v))
            if row is None:
                if insert:
                    rp = None
                    if self.track_provenance:
                        rp = prov if index is None else prov ^ frozenset([index])
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


def reduce_through(
    matrix: EliminationMatrix, x: Union[BitVec, int], label: int
) -> Union[Zeroed, Captured]:
    """Public single-matrix reduction; see EliminationMatrix.reduce."""
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
        self.track_provenance = track_provenance
        self.matrices = [EliminationMatrix(g, w, track_provenance) for _ in range(t)]

    @property
    def capacity(self) -> int:
        return self.t * self.g * ((1 << self.w) - 1)

    @property
    def fill(self) -> int:
        return sum(m.fill for m in self.matrices)


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
    row's label matches its provenance.  Ties resolve to 0.
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


@dataclass
class OnlineReport:
    processed: int
    predicted: int
    unknown: int
    ties: int
    errors: Optional[int]
    per_matrix_fill: List[int]
    capacity: int
    max_vote_depth: int
    depth_bound: int
    engine: str
    votes_by_depth: Optional[Dict[int, List[int]]] = None  # s -> [correct, total]
    predictions: Optional[List[int]] = None  # per example: bit, or -1 if unknown

    @property
    def label_requests(self) -> int:
        return self.unknown

    @property
    def error_rate(self) -> Optional[float]:
        if self.errors is None or self.predicted == 0:
            return None
        return self.errors / self.predicted


def _run_simple(
    source, g, w, t, count, track_provenance, collect_vote_stats, record
) -> OnlineReport:
    bank = MatrixBank(g, w, t, track_provenance)
    target: Optional[ParityTarget] = getattr(source, "target", None)
    predicted = unknown = ties = 0
    errors: Optional[int] = 0 if target is not None else None
    max_depth = 0
    votes_by_depth: Optional[Dict[int, List[int]]] = (
        {} if collect_vote_stats else None
    )
    predictions: Optional[List[int]] = [] if record else None
    done = 0
    while done < count:
        take = min(4096, count - done)
        bits, labels, start = source.draw_batch(take)
        xs = pack_rows(bits)
        clean = target.predict_rows(bits) if target is not None else None
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
                    s = (
                        len(z.provenance)
                        if z.provenance is not None
                        else z.depth - 1
                    )
                    row = votes_by_depth.setdefault(s, [0, 0])
                    row[0] += int(z.label) == int(clean[i])
                    row[1] += 1
        done += take
    return OnlineReport(
        processed=count,
        predicted=predicted,
        unknown=unknown,
        ties=ties,
        errors=errors,
        per_matrix_fill=[m.fill for m in bank.matrices],
        capacity=bank.capacity,
        max_vote_depth=max_depth,
        depth_bound=1 << g,
        engine="simple",
        votes_by_depth=votes_by_depth,
        predictions=predictions,
    )


class _TabledMatrix:
    """One elimination matrix with its action memoized over the domain.

    For every domain value the tables say whether reduction zeroes or
    captures, the folded label/depth (label passed in as 0, the depth
    contribution of the example itself excluded), and for captures the
    residual and its slot.  Tables are rebuilt after each insertion;
    state freezes at the capture point, mirroring the reference engine.
    """

    def __init__(self, g: int, w: int):
        self.g = g
        self.w = w
        self.domain = 1 << (g * w)
        nslots = 1 << w
        self.present = np.zeros((g, nslots), dtype=bool)
        self.rvec = np.zeros((g, nslots), dtype=np.int64)
        self.rlab = np.zeros((g, nslots), dtype=np.uint8)
        self.rdep = np.zeros((g, nslots), dtype=np.int64)
        self.rebuild()

    def rebuild(self) -> None:
        D = self.domain
        mask = (1 << self.w) - 1
        resid = np.arange(D, dtype=np.int64)
        lab = np.zeros(D, dtype=np.uint8)
        dep = np.zeros(D, dtype=np.int64)
        alive = np.ones(D, dtype=bool)
        captured = np.zeros(D, dtype=bool)
        cap_blk = np.zeros(D, dtype=np.int16)
        cap_val = np.zeros(D, dtype=np.int64)
        for j in range(1, self.g + 1):
            bv = (resid >> ((j - 1) * self.w)) & mask
            nz = alive & (bv != 0)
            have = self.present[j - 1, bv]
            hit = nz & have
            miss = nz & ~have
            cap_blk[miss] = j
            cap_val[miss] = bv[miss]
            captured |= miss
            alive &= ~miss
            resid[hit] ^= self.rvec[j - 1, bv[hit]]
            lab[hit] ^= self.rlab[j - 1, bv[hit]]
            dep[hit] += self.rdep[j - 1, bv[hit]]
        assert not resid[alive].any()
        self.zeroed = alive
        self.z_lab = np.where(alive, lab, 0).astype(np.uint8)
        self.z_dep = np.where(alive, dep, 0)
        self.cap = captured
        self.cap_blk = cap_blk
        self.cap_val = cap_val
        self.cap_resid = resid
        self.cap_lab = lab
        self.cap_dep = dep
        self.any_cap = bool(captured.any())
        # depth of any zeroed fold, incoming example included
        self.max_zero_depth = int(dep[alive].max()) + 1 if alive.any() else 0
        assert self.max_zero_depth <= 1 << self.g

    @property
    def fill(self) -> int:
        return int(self.present.sum())

    def insert(self, x: int, label: int) -> None:
        """Store the row that reducing x leaves behind; x must capture."""
        assert self.cap[x]
        j = int(self.cap_blk[x])
        v = int(self.cap_val[x])
        assert not self.present[j - 1, v]
        self.present[j - 1, v] = True
        self.rvec[j - 1, v] = self.cap_resid[x]
        self.rlab[j - 1, v] = int(self.cap_lab[x]) ^ label
        self.rdep[j - 1, v] = int(self.cap_dep[x]) + 1
        self.rebuild()


def _run_tabled(source, g, w, t, count, record) -> OnlineReport:
    target: Optional[ParityTarget] = getattr(source, "target", None)
    matrices = [_TabledMatrix(g, w) for _ in range(t)]
    D = 1 << (g * w)
    total_votes = np.zeros(D, dtype=np.int64)
    cap_count = np.zeros(D, dtype=np.int64)
    for m in matrices:
        total_votes += m.z_lab
        cap_count += m.cap
    clean_table: Optional[np.ndarray] = None
    if target is not None:
        dom_bits = np.unpackbits(
            np.arange(D, dtype=np.uint32).view(np.uint8).reshape(D, 4),
            axis=1, bitorder="little",
        )[:, : g * w]
        clean_table = target.predict_rows(dom_bits)
    predicted = unknown = ties = 0
    errors: Optional[int] = 0 if target is not None else None
    max_depth = max(m.max_zero_depth for m in matrices)
    predictions: Optional[List[int]] = [] if record else None
    lo = 0  # matrices below lo are full and capture nothing
    done = 0
    while done < count:
        take = min(2048, count - done)
        bits, labels, _ = source.draw_batch(take)
        xs = pack_rows(bits)
        pos = 0
        while pos < take:
            cc = cap_count[xs[pos:take]]
            hits = np.flatnonzero(cc > 0)
            stop = take if len(hits) == 0 else pos + int(hits[0])
            if stop > pos:
                sl = xs[pos:stop]
                v2 = 2 * total_votes[sl]
                bit = (v2 > t).astype(np.uint8)
                predicted += stop - pos
                ties += int(np.count_nonzero(v2 == t))
                if clean_table is not None:
                    assert errors is not None
                    errors += int(np.count_nonzero(bit != clean_table[sl]))
                if predictions is not None:
                    predictions.extend(int(b) for b in bit)
            if stop < take:
                x = int(xs[stop])
                while lo < t and not matrices[lo].any_cap:
                    lo += 1
                j = lo
                while not matrices[j].cap[x]:
                    j += 1
                m = matrices[j]
                total_votes -= m.z_lab
                cap_count -= m.cap
                m.insert(x, int(labels[stop]))
                total_votes += m.z_lab
                cap_count += m.cap
                max_depth = max(max_depth, m.max_zero_depth)
                unknown += 1
                if predictions is not None:
                    predictions.append(-1)
                pos = stop + 1
            else:
                pos = stop
        done += take
    return OnlineReport(
        processed=count,
        predicted=predicted,
        unknown=unknown,
        ties=ties,
        errors=errors,
        per_matrix_fill=[m.fill for m in matrices],
        capacity=t * g * ((1 << w) - 1),
        max_vote_depth=max_depth,
        depth_bound=1 << g,
        engine="tabled",
        predictions=predictions,
    )


def run_online(
    source,
    g: int,
    w: int,
    t: int,
    count: Optional[int] = None,
    engine: str = "auto",
    track_provenance: bool = False,
    collect_vote_stats: bool = False,
    record_predictions: bool = False,
) -> OnlineReport:
    """Feed `count` examples from the source through a fresh bank.

    The number of Unknown outcomes never exceeds the bank capacity
    t*g*(2^w - 1); once every matrix is full, all further examples are
    predicted.  With a noiseless source, predictions are always correct
    because each vote is an exact XOR of clean labels.

    engine "auto" picks the memoized implementation when the domain is
    small and no per-vote introspection was requested.  Both engines
    are deterministic and produce identical outcomes.
    """
    if source.k != g * w:
        raise ValueError(f"source supplies {source.k}-bit examples, need g*w={g * w}")
    if count is None:
        if hasattr(source, "__len__"):
            count = len(source) - source.draw_count
        else:
            raise ValueError("count is required for a generative source")
    if engine == "auto":
        engine = (
            "tabled"
            if g * w <= 12
            and not track_provenance
            and not collect_vote_stats
            else "simple"
        )
    if engine == "tabled":
        if track_provenance or collect_vote_stats:
            raise ValueError("the tabled engine does not track votes or provenance")
        if g * w > 24:
            raise ValueError("domain too wide for the tabled engine")
        return _run_tabled(source, g, w, t, count, record_predictions)
    if engine != "simple":
        raise ValueError(f"unknown engine {engine!r}")
    return _run_simple(
        source, g, w, t, count, track_provenance, collect_vote_stats,
        record_predictions,
    )
