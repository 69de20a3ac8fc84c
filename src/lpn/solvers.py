"""Parity recovery from noisy examples.

Three routes with very different example budgets:

* block-merge (``bkw``): partition the k coordinates into a blocks of b
  bits, repeatedly collapse one block by XORing within collision
  classes, and vote on the first coordinate with many short XOR chains.
  Needs 2^Theta(b) examples but tolerates noise rates up to 1/2.
* ``mle``: exhaustive maximum-likelihood scan over all 2^k candidates.
* ``gauss``: plain linear algebra, only sound on noiseless data.

The merge keeps XOR chains short (2^(a-1) terms), which is the whole
point: a chain of s noisy labels is still correct with probability
1/2 + (1-2*eta)^s / 2, so fewer terms means a usable vote bias.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field, replace
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .gf2 import (
    BitMatrix, BitVec, BlockLayout, GaussResult, gaussian_solve, pack_rows,
)
from .instance import LabeledExample, NoiseRate, ParityTarget
from .seeding import derive_seed

__all__ = [
    "MLE_MAX_K",
    "SolverStatus",
    "SolverConfig",
    "SolverResult",
    "BudgetExceededError",
    "ISample",
    "predicted_bias",
    "xor_chain_oracle",
    "repetitions_for",
    "choose_parameters",
    "merge_step",
    "collect_votes",
    "recover_first_bit",
    "recover_target",
    "mle_bruteforce",
    "gaussian_baseline",
]

MLE_MAX_K = 26

# cap on redraw rounds for a single vote whose reduced sample never
# contains the probe vector
_MAX_REDRAWS = 50

# soft bound on the working-set size of one batched vote round, in cells
_ROUND_CELLS = 50_000_000


class SolverStatus(enum.Enum):
    RECOVERED = "recovered"
    BUDGET_EXCEEDED = "budget_exceeded"


class BudgetExceededError(RuntimeError):
    def __init__(self, message: str, examples_used: int):
        super().__init__(message)
        self.examples_used = examples_used


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of one block-merge run.

    repetitions=None means: derive the vote count from the source's
    noise rate via repetitions_for when the solve starts.
    track_provenance records which draws each merged row XORs and checks
    every row against them; it uses no randomness and changes no vote.
    """

    layout: BlockLayout
    repetitions: Optional[int] = None
    delta: float = 0.1
    max_examples: Optional[int] = None
    track_provenance: bool = False

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.repetitions is not None and self.repetitions < 1:
            raise ValueError("need at least one vote per coordinate")
        if self.max_examples is not None and self.max_examples < 1:
            raise ValueError("max_examples must be positive when set")


@dataclass
class SolverResult:
    status: SolverStatus
    c_hat: Optional[ParityTarget]
    examples_used: int
    wall_time_s: float
    per_bit_votes: List[Tuple[int, int]] = field(default_factory=list)


def predicted_bias(eta: Union[float, NoiseRate], s: int) -> float:
    """Probability that the XOR of s independently noisy labels is clean.

    Each label is flipped with probability eta; the XOR survives iff an
    even number of flips occurred, which happens with probability
    1/2 + (1 - 2*eta)^s / 2.
    """
    if s < 1:
        raise ValueError("chain length must be positive")
    e = float(eta)
    if not 0.0 <= e < 0.5:
        raise ValueError("noise rate must satisfy 0 <= eta < 0.5")
    return 0.5 + 0.5 * (1.0 - 2.0 * e) ** s


def xor_chain_oracle(
    eta: Union[float, NoiseRate], s: int, trials: int, seed: int = 0
) -> float:
    """Monte Carlo estimate of the XOR chain survival probability.

    Simulates the flips directly: draws s Bernoulli(eta) variates per
    trial and checks whether their sum is even.  Serves as an
    independent check of predicted_bias.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if s < 1:
        raise ValueError("chain length must be positive")
    e = float(eta)
    rng = np.random.default_rng(seed)
    rows_per_chunk = max(1, 1_000_000 // max(s, 1))
    clean = 0
    done = 0
    while done < trials:
        rows = min(rows_per_chunk, trials - done)
        flips = rng.random((rows, s)) < e
        clean += int(np.count_nonzero(flips.sum(axis=1) % 2 == 0))
        done += rows
    return clean / trials


def repetitions_for(
    k: int, eta: Union[float, NoiseRate], delta: float, a: int
) -> int:
    """Votes per coordinate so all k majorities are right w.p. >= 1-delta.

    One vote XORs 2^(a-1) labels, so its advantage over a coin flip is
    (1-2*eta)^(2^(a-1)) / 2.  A Chernoff bound then needs
    2*ln(2k/delta) / (1-2*eta)^(2^a) votes for a per-coordinate failure
    probability of delta/(2k); a union bound over the k coordinates
    leaves slack of a factor 2.
    """
    if k < 1 or a < 1:
        raise ValueError("k and a must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    gamma = 1.0 - 2.0 * float(eta)
    if gamma <= 0.0:
        raise ValueError("noise rate must be below 1/2")
    denom = gamma ** (2**a)
    reps = 2.0 * math.log(2.0 * k / delta) / denom
    if not math.isfinite(reps) or reps > 2**62:
        raise ValueError(
            f"a={a} with eta={float(eta)} needs an infeasible number of votes"
        )
    return max(1, math.ceil(reps))


def choose_parameters(
    k: int,
    eta: Union[float, NoiseRate],
    delta: float = 0.1,
    profile: str = "balanced",
) -> SolverConfig:
    """Pick a block layout and vote count for a k-bit instance.

    balanced: a ~ lg(k)/2, the classic tradeoff between example count
    (2^b per block) and vote bias ((1-2*eta)^(2^(a-1)) per chain).
    shallow: a ~ lg(lg(k))/2, far fewer XOR terms per chain at the cost
    of wider blocks; only sensible when examples are cheap.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if profile == "balanced":
        a = max(1, round(math.log2(k) / 2))
    elif profile == "shallow":
        a = max(1, math.ceil(math.log2(max(2.0, math.log2(max(2, k)))) / 2))
    else:
        raise ValueError(f"unknown profile {profile!r}")
    b = math.ceil(k / a)
    layout = BlockLayout(a, b)
    reps = repetitions_for(k, eta, delta, a)
    return SolverConfig(layout=layout, repetitions=reps, delta=delta)


# ---------------------------------------------------------------------------
# merge step


@dataclass
class ISample:
    """A batch of vectors uniform over V_i, with aggregated labels.

    V_i is the subspace where the last i blocks of the layout are zero.
    vectors is a (s, a*b) 0/1 matrix.  provenance, when tracked, holds
    per row the set of original draw indices whose XOR produced it.
    """

    i: int
    layout: BlockLayout
    vectors: np.ndarray
    labels: np.ndarray
    provenance: Optional[List[frozenset]] = None

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.uint8)
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        if not 0 <= self.i <= self.layout.a - 1:
            raise ValueError("level must lie in 0..a-1")
        if self.vectors.ndim != 2 or self.vectors.shape[1] != self.layout.total:
            raise ValueError("vectors must be a (s, a*b) matrix")
        if len(self.labels) != len(self.vectors):
            raise ValueError("labels must match vectors one to one")
        if self.provenance is not None and len(self.provenance) != len(self.vectors):
            raise ValueError("provenance must match vectors one to one")

    @classmethod
    def from_pairs(
        cls,
        i: int,
        layout: BlockLayout,
        pairs: Sequence[Tuple[BitVec, int]],
        provenance: Optional[List[frozenset]] = None,
    ) -> "ISample":
        vectors = np.stack([v.to_bits_row() for v, _ in pairs]) if pairs else np.empty(
            (0, layout.total), dtype=np.uint8
        )
        labels = np.array([l for _, l in pairs], dtype=np.uint8)
        return cls(i, layout, vectors, labels, provenance)

    def __len__(self) -> int:
        return len(self.vectors)

    def entries(self) -> Iterator[Tuple[BitVec, int]]:
        for row, label in zip(self.vectors, self.labels):
            yield BitVec.from_bits_row(row), int(label)

    def validate(
        self, originals: Optional[Tuple[np.ndarray, np.ndarray]] = None
    ) -> None:
        """Check structural invariants; with the original draws also
        check that provenance sets reproduce each vector and label."""
        zero_from = (self.layout.a - self.i) * self.layout.b
        if self.vectors[:, zero_from:].any():
            raise AssertionError(f"rows stray outside V_{self.i}")
        if self.provenance is None:
            return
        for row, label, prov in zip(self.vectors, self.labels, self.provenance):
            if not prov:
                raise AssertionError("empty provenance set")
            if len(prov) > 2**self.i:
                raise AssertionError(f"provenance larger than 2^{self.i}")
            if originals is not None:
                obits, olabels = originals
                acc = np.zeros(self.layout.total, dtype=np.uint8)
                lab = 0
                for idx in prov:
                    acc ^= obits[idx]
                    lab ^= int(olabels[idx])
                if not np.array_equal(acc, row) or lab != int(label):
                    raise AssertionError("provenance does not reproduce the entry")


def _merge_segmented(
    bits: np.ndarray,
    labels: np.ndarray,
    seg: np.ndarray,
    layout: BlockLayout,
    level: int,
    rng: np.random.Generator,
    prov: Optional[np.ndarray] = None,
):
    """One merge step applied independently inside each segment.

    Rows are grouped by (segment, value of block a-level); one uniform
    random representative per group is XORed into the rest of its group
    and then dropped.  Returns the new rows in (segment, block value)
    order; groups of size one vanish entirely.

    prov, when given, is an (s, w) int array: row r is the XOR of the
    rows indexed by prov[r].  An output row gets its own row's w
    indices followed by its representative's, so w doubles.
    """
    a, b = layout.a, layout.b
    if level > a - 2:
        raise ValueError("nothing left to merge at this level")
    j0 = a - level  # 1-based block to collapse
    lo, hi = layout.bounds(j0)
    s = len(bits)
    if s == 0:
        return bits, labels, seg, None if prov is None else np.hstack([prov, prov])
    key = seg.astype(np.int64) << b
    key |= pack_rows(bits[:, lo:hi])
    order = np.argsort(key, kind="stable")
    ks = key[order]
    starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
    sizes = np.diff(np.r_[starts, s])
    rep_pos = starts + rng.integers(0, sizes)
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
    out_prov: Optional[np.ndarray] = None
    if prov is not None:
        ps = prov[order]
        out_prov = np.hstack([ps[keep], ps[rep]])
    return out_bits, out_labels, out_seg, out_prov


def merge_step(
    sample: ISample, rng: Union[int, np.random.Generator]
) -> ISample:
    """Collapse block a-i of an i-sample, yielding an (i+1)-sample.

    Output size is at least len(sample) - 2^b (one representative lost
    per collision class).  Each output row is the XOR of exactly two
    input rows, so uniformity over V_{i+1} is preserved.
    """
    if sample.i > sample.layout.a - 2:
        raise ValueError("sample is already fully reduced")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    seg = np.zeros(len(sample), dtype=np.int64)
    rows = None if sample.provenance is None else np.arange(len(sample))[:, None]
    bits, labels, _, pairs = _merge_segmented(
        sample.vectors, sample.labels, seg, sample.layout, sample.i, rng, rows
    )
    prov = None
    if pairs is not None:
        old = sample.provenance
        prov = [old[i] ^ old[j] for i, j in pairs.tolist()]
    return ISample(sample.i + 1, sample.layout, bits, labels, prov)


# ---------------------------------------------------------------------------
# vote collection and coordinate recovery


class _BudgetTracker:
    """Examples charged against max_examples and, for a finite source
    such as a replayed file, the rows it has left."""

    def __init__(self, source, max_examples: Optional[int]):
        limit = max_examples
        left = source.remaining()
        if left is not None:
            limit = left if limit is None else min(limit, left)
        self.limit = limit
        self.used = 0

    def charge(self, m: int) -> None:
        if self.limit is not None and self.used + m > self.limit:
            raise BudgetExceededError(
                f"example budget of {self.limit} exhausted", self.used
            )
        self.used += m


class _ShiftedView:
    """Cyclic coordinate rotation of a source, zero-padded to a width.

    Rotating every example and the (implicit) target together preserves
    labels, and moves target coordinate 1+shift into position 1 where
    the vote machinery can see it.
    """

    def __init__(self, src, width: int, shift: int = 0):
        if width < src.k:
            raise ValueError("view must be at least as wide as the source")
        self._src = src
        self.k = width
        self.shift = shift % width

    @property
    def eta(self):
        return self._src.eta

    @property
    def draw_count(self) -> int:
        return self._src.draw_count

    def draw_batch(self, m: int):
        bits, labels, start = self._src.draw_batch(m)
        if self.k > bits.shape[1]:
            pad = np.zeros((len(bits), self.k - bits.shape[1]), dtype=np.uint8)
            bits = np.concatenate([bits, pad], axis=1)
        if self.shift:
            bits = np.roll(bits, -self.shift, axis=1)
        return bits, labels, start


def _check_provenance(bits, labels, prov, draws, draw_labels) -> None:
    """Raise AssertionError unless each row is the XOR of its draws."""
    acc, lab = draws[prov[:, 0]], draw_labels[prov[:, 0]]
    for j in range(1, prov.shape[1]):
        acc ^= draws[prov[:, j]]
        lab ^= draw_labels[prov[:, j]]
    if not (np.array_equal(acc, bits) and np.array_equal(lab, labels)):
        raise AssertionError("provenance does not reproduce the merged rows")


def _chain_size(indices: np.ndarray) -> int:
    """Draws left in a chain once repeated draws cancel in pairs."""
    _, counts = np.unique(indices, return_counts=True)
    return int(np.count_nonzero(counts & 1))


def _collect_votes_batched(
    view,
    layout: BlockLayout,
    n_votes: int,
    rng: np.random.Generator,
    budget: _BudgetTracker,
    track: bool,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Labels of n_votes completed votes, in completion order.

    With track set, rows also carry the indices of the draws they XOR,
    every round checks all its merged rows against its draws, and the
    draw indices of each vote come back as an (n_votes, 2^(a-1)) array;
    otherwise that array is None.  Tracking uses no randomness, so the
    labels are the same either way.
    """
    ab = layout.total
    m_per = layout.a * 2**layout.b
    chunk_votes = max(1, _ROUND_CELLS // (m_per * ab))
    out: List[np.ndarray] = []
    out_prov: List[np.ndarray] = []
    remaining = n_votes
    while remaining > 0:
        pending = min(chunk_votes, remaining)
        remaining -= pending
        for _ in range(_MAX_REDRAWS):
            budget.charge(pending * m_per)
            draws, draw_labels, start = view.draw_batch(pending * m_per)
            bits, labels = draws, draw_labels
            seg = np.repeat(np.arange(pending, dtype=np.int64), m_per)
            prov = np.arange(len(draws))[:, None] if track else None
            for level in range(layout.a - 1):
                bits, labels, seg, prov = _merge_segmented(
                    bits, labels, seg, layout, level, rng, prov
                )
            if prov is not None:
                _check_provenance(bits, labels, prov, draws, draw_labels)
            hit = (bits[:, 0] == 1) & ~bits[:, 1:].any(axis=1)
            idx = np.flatnonzero(hit)
            # rows come out segment-major, so the first hit per segment
            # is the first row of that segment among the hits
            _, first = np.unique(seg[idx], return_index=True)
            out.append(labels[idx[first]])
            if prov is not None:
                out_prov.append(start + prov[idx[first]])
            pending -= len(first)
            if pending == 0:
                break
        else:
            raise BudgetExceededError(
                f"{pending} votes still incomplete after {_MAX_REDRAWS} redraws",
                budget.used,
            )
    labels = np.concatenate(out) if out else np.empty(0, dtype=np.uint8)
    if not track:
        return labels, None
    width = 2 ** (layout.a - 1)
    prov = np.concatenate(out_prov) if out_prov else np.empty((0, width), np.int64)
    return labels, prov


def _resolve_repetitions(source, config: SolverConfig) -> int:
    if config.repetitions is not None:
        return config.repetitions
    if getattr(source, "eta", None) is None:
        raise ValueError("cannot derive a vote count without a noise rate")
    return repetitions_for(source.k, source.eta, config.delta, config.layout.a)


def collect_votes(
    source,
    config: SolverConfig,
    n_votes: int,
    rng: Optional[np.random.Generator] = None,
    shift: int = 0,
    seed: Optional[int] = None,
) -> List[Tuple[int, Optional[int]]]:
    """Run vote pipelines only; returns (label, provenance size) pairs.

    Provenance sizes are None unless config.track_provenance is set; a
    size counts the draws a vote XORs once repeated draws cancel.
    Tracking records provenance without changing any vote.  A finite
    source's remaining rows count as a budget next to max_examples.
    Meant for calibration studies; recovery goes through recover_target.
    """
    layout = config.layout
    if source.k > layout.total:
        raise ValueError("layout does not cover the source coordinates")
    view = _ShiftedView(source, layout.total, shift)
    if rng is None:
        if seed is None:
            seed = source.rng_seed
        rng = np.random.default_rng(derive_seed(seed, "merge-votes"))
    budget = _BudgetTracker(source, config.max_examples)
    labels, prov = _collect_votes_batched(
        view, layout, n_votes, rng, budget, config.track_provenance
    )
    sizes = [None] * len(labels) if prov is None else map(_chain_size, prov)
    return [(int(l), s) for l, s in zip(labels, sizes)]


def _majority(ones: int, zeros: int) -> int:
    # ties resolve to 0; callers wanting to avoid them use odd counts
    return 1 if ones > zeros else 0


def _recover_bit(
    view,
    layout: BlockLayout,
    reps: int,
    rng: np.random.Generator,
    budget: _BudgetTracker,
    track: bool,
) -> Tuple[int, Tuple[int, int]]:
    labels, _ = _collect_votes_batched(view, layout, reps, rng, budget, track)
    ones = int(labels.sum())
    zeros = reps - ones
    return _majority(ones, zeros), (ones, zeros)


def recover_first_bit(
    source,
    config: SolverConfig,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> Tuple[int, Tuple[int, int]]:
    """Majority-vote estimate of target coordinate 1.

    Each vote reduces a fresh batch of a*2^b examples through a-1 merge
    steps and reads off the aggregated label of (1,0,...,0) if present,
    redrawing otherwise (the probe vector is missed with probability
    about 1/e per attempt).  Returns the bit and the (ones, zeros)
    tally.  Raises BudgetExceededError when max_examples or a finite
    source's remaining rows run out, or a vote exceeds the redraw cap.
    """
    layout = config.layout
    if source.k > layout.total:
        raise ValueError("layout does not cover the source coordinates")
    reps = _resolve_repetitions(source, config)
    if rng is None:
        if seed is None:
            seed = source.rng_seed
        rng = np.random.default_rng(derive_seed(seed, "merge-bit-1"))
    view = _ShiftedView(source, layout.total, 0)
    budget = _BudgetTracker(source, config.max_examples)
    return _recover_bit(view, layout, reps, rng, budget, config.track_provenance)


def recover_target(
    source, config: SolverConfig, seed: Optional[int] = None
) -> SolverResult:
    """Recover all k target coordinates by rotating each into position 1.

    Coordinate r is recovered exactly like coordinate 1, but on a view
    of the stream whose examples are cyclically rotated by r-1 (labels
    are untouched; the rotated target has the wanted bit first).  All
    bits share one example stream and one budget: max_examples and, for
    a finite source, the rows it has left.  Running out ends the solve
    with BUDGET_EXCEEDED and the examples drawn so far.  The merge RNG
    lanes derive from `seed`, defaulting to the source's own seed.
    """
    layout = config.layout
    k = source.k
    if k > layout.total:
        raise ValueError("layout does not cover the source coordinates")
    reps = _resolve_repetitions(source, config)
    budget = _BudgetTracker(source, config.max_examples)
    if seed is None:
        seed = source.rng_seed
    t0 = time.perf_counter()
    tallies: List[Tuple[int, int]] = []
    bits_acc = 0
    status = SolverStatus.RECOVERED
    for p in range(k):
        view = _ShiftedView(source, layout.total, p)
        rng = np.random.default_rng(derive_seed(seed, f"merge-bit-{p + 1}"))
        try:
            bit, tally = _recover_bit(
                view, layout, reps, rng, budget, config.track_provenance
            )
        except BudgetExceededError:
            status = SolverStatus.BUDGET_EXCEEDED
            break
        tallies.append(tally)
        bits_acc |= bit << p
    wall = time.perf_counter() - t0
    c_hat = (
        ParityTarget(BitVec(k, bits_acc)) if status is SolverStatus.RECOVERED else None
    )
    return SolverResult(
        status=status,
        c_hat=c_hat,
        examples_used=budget.used,
        wall_time_s=wall,
        per_bit_votes=tallies,
    )


# ---------------------------------------------------------------------------
# baselines


def mle_bruteforce(samples: Sequence[LabeledExample], k: int) -> ParityTarget:
    """Candidate parity with the fewest disagreements on the samples.

    Scans all 2^k candidates in Gray-code order, maintaining the
    prediction vector as one big integer and flipping a single column
    per step.  Ties go to the numerically smallest candidate
    (coordinate 1 least significant).  Refuses k above MLE_MAX_K.
    """
    if not samples:
        raise ValueError("cannot fit a target to zero samples")
    if k > MLE_MAX_K:
        raise ValueError(f"mle_bruteforce is capped at k={MLE_MAX_K}")
    if any(s.x.n != k for s in samples):
        raise ValueError("sample length mismatch")
    cols = [0] * k
    labels_int = 0
    for si, ex in enumerate(samples):
        xb = ex.x.bits
        while xb:
            low = xb & -xb
            cols[low.bit_length() - 1] |= 1 << si
            xb ^= low
        labels_int |= ex.label << si
    best_c = 0
    best_err = labels_int.bit_count()
    preds = 0
    prev = 0
    for idx in range(1, 1 << k):
        g = idx ^ (idx >> 1)
        flip = g ^ prev
        prev = g
        preds ^= cols[flip.bit_length() - 1]
        err = (preds ^ labels_int).bit_count()
        if err < best_err or (err == best_err and g < best_c):
            best_err = err
            best_c = g
    return ParityTarget(BitVec(k, best_c))


def gaussian_baseline(samples: Sequence[LabeledExample], k: int) -> GaussResult:
    """Solve the samples as exact linear equations.

    Only meaningful on noiseless data: any flipped label shows up as an
    inconsistent system (or a wrong solution if the flips happen to
    stay consistent).
    """
    if any(s.x.n != k for s in samples):
        raise ValueError("sample length mismatch")
    matrix = BitMatrix([s.x for s in samples], [s.label for s in samples])
    return gaussian_solve(matrix)
