"""Parity recovery from noisy examples.

Three routes with very different example budgets:

* block-merge (``bkw``): partition the k coordinates into a blocks of b
  bits, repeatedly collapse one block by XORing within collision
  classes, and vote on the first coordinate with many short XOR chains.
  Needs 2^Theta(b) examples but tolerates noise rates up to 1/2.
* ``mle``: maximum likelihood over all 2^k candidates, scored at once
  by one Walsh-Hadamard transform of the label-signed row histogram.
* ``gauss``: plain linear algebra, only sound on noiseless data.

The merge keeps XOR chains short (2^(a-1) terms), which is the whole
point: a chain of s noisy labels is still correct with probability
1/2 + (1-2*eta)^s / 2, so fewer terms means a usable vote bias.

Every route reads examples as row words.  The baselines take the
(m, ceil(k/64)) uint64 words and 0/1 labels that
draw_batch(m, packed=True) returns; the merge works on one int64 word
per example, coordinate 1 in bit 0 and the label in bit 63.

A bkw vote round runs in tiles of whole votes, at most 2^15 rows each
(one vote when a vote is larger): each tile is drawn and merged once,
then every later merge level runs over all tiles in order, so a level's
temporaries fit in cache.  The tile size changes no row.  Source draws
and the merge's bounded draws (rng.integers over an array of group
sizes) give the same values, and leave their generators in the same
state, however their requests are split, and the levels ask for them
in the same order as on one array of the whole round.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from .gf2 import BitVec, BlockLayout, GaussResult, GaussStatus, eliminate, fwht
from .instance import _check_eta, _check_words
from .seeding import derive_seed

__all__ = [
    "MLE_MAX_K",
    "GAUSS_MAX_K",
    "SolverStatus",
    "SolverConfig",
    "SolverResult",
    "BudgetExceededError",
    "ISample",
    "predicted_bias",
    "xor_chain_oracle",
    "repetitions_for",
    "predicted_examples",
    "choose_parameters",
    "merge_step",
    "collect_votes",
    "recover_target",
    "mle_bruteforce",
    "gaussian_baseline",
]

MLE_MAX_K = 26
# a live noiseless gauss solve at this k took 6.5 s and 109 MB on a
# 2-core box, and the cost grows about 8x per doubling of k
GAUSS_MAX_K = 4096

# cap on redraw rounds for a single vote whose reduced sample never
# contains the probe vector
_MAX_REDRAWS = 50

# a vote round collects max(1, _ROUND_CELLS // (a*2^b * a*b)) votes
# from one draw of a*2^b examples per vote.  The round size decides
# which draws each vote uses, so changing this constant changes rows.
_ROUND_CELLS = 50_000_000

# a round is drawn and merged in tiles of whole votes, at most this many
# rows (one vote when a vote is larger), so each merge level's
# temporaries stay in cache.  Unlike the round size, the tile size
# changes no row: the draws and the merge RNG's bounded draws give the
# same values however their requests are split.
_TILE_ROWS = 2**15

# a row word holds coordinate 1 in bit 0 and the label in bit 63, as in
# the online decoder; layouts wider than this do not fit
_MAX_WIDTH = 62
_VEC = (1 << 63) - 1

# a solve with no limit on its examples (no max_examples, live source)
# is refused when predicted_examples passes this: about a day at 13 M
# examples/s
_MAX_UNCAPPED = 2**40


class SolverStatus(enum.Enum):
    RECOVERED = "recovered"
    BUDGET_EXCEEDED = "budget_exceeded"


class BudgetExceededError(RuntimeError):
    def __init__(self, message: str, examples_used: int):
        super().__init__(message)
        self.examples_used = examples_used


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of one block-merge run: its layout, its votes per
    coordinate (repetitions_for gives the count for a target delta) and
    an optional cap on examples drawn.
    track_provenance records which draws each merged row XORs and checks
    every row against them; it uses no randomness and changes no vote.
    """

    layout: BlockLayout
    repetitions: int
    max_examples: Optional[int] = None
    track_provenance: bool = False

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("need at least one vote per coordinate")
        if self.max_examples is not None and self.max_examples < 1:
            raise ValueError("max_examples must be positive when set")


@dataclass
class SolverResult:
    status: SolverStatus
    c_hat: Optional[BitVec]
    examples_used: int
    per_bit_votes: List[Tuple[int, int]] = field(default_factory=list)


def predicted_bias(eta: float, s: int) -> float:
    """Probability that the XOR of s independently noisy labels is clean.

    Each label is flipped with probability eta; the XOR survives iff an
    even number of flips occurred, which happens with probability
    1/2 + (1 - 2*eta)^s / 2.
    """
    if s < 1:
        raise ValueError("chain length must be positive")
    return 0.5 + 0.5 * (1.0 - 2.0 * _check_eta(eta)) ** s


def xor_chain_oracle(eta: float, s: int, trials: int, seed: int = 0) -> float:
    """Monte Carlo estimate of the XOR chain survival probability.

    Simulates the flips directly: draws s Bernoulli(eta) variates per
    trial and checks whether their sum is even.  Serves as an
    independent check of predicted_bias.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if s < 1:
        raise ValueError("chain length must be positive")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    e = _check_eta(eta)
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


def repetitions_for(k: int, eta: float, delta: float, a: int) -> int:
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
    eta = _check_eta(eta)
    gamma = 1.0 - 2.0 * eta
    denom = gamma ** (2**a)
    reps = 2.0 * math.log(2.0 * k / delta) / denom
    if not math.isfinite(reps) or reps > 2**62:
        raise ValueError(
            f"a={a} with eta={eta} needs an infeasible number of votes"
        )
    return max(1, math.ceil(reps))


def predicted_examples(
    k: int, eta: float, delta: float, layout: BlockLayout
) -> float:
    """Expected examples a bkw solve draws, from a survivor model.

    Each vote draws n = a*2^b examples, and each of the a-1 merge levels
    drops one row per occupied class of 2^b block values, so on average
    n <- n - 2^b*(1 - (1 - 2^-b)^n).  The survivors are uniform over the
    2^b values of block 1, so a draw holds the probe e1 with probability
    hit = 1 - (1 - 2^-b)^n, and k*reps votes, reps from repetitions_for,
    take k*reps*a*2^b/hit examples.  This is an expected count, not a
    bound.  Coordinates past k (a*b > k) are zero: rotation p holds them
    at [k-p, a*b-p), so each block counts only its live bits, 2^live
    classes per merge level and hit = 1 - (1 - 2^-live_1)^n.
    """
    reps = repetitions_for(k, eta, delta, layout.a)
    return _expected_examples(k, reps, layout)


def _expected_examples(k: int, reps: int, layout: BlockLayout) -> float:
    """predicted_examples for a given vote count per coordinate."""
    a, b, w = layout.a, layout.b, layout.total
    # the live bits of each block under rotation p, one term per pattern
    patterns = Counter(
        tuple(b - max(0, min(hi, w - p) - max(lo, k - p))
              for lo, hi in map(layout.bounds, range(1, a + 1)))
        for p in range(k)
    )

    def occupied(n: float, live: int) -> float:
        # chance that n uniform rows over 2^live values hit a given one;
        # a block of zeros is one class, which every row hits
        return -math.expm1(n * math.log1p(-(2.0**-live))) if live else 1.0

    total = 0.0
    for live, count in patterns.items():
        n = float(a * 2**b)
        for bits in live[:0:-1]:  # the merges collapse blocks a, ..., 2
            n -= 2**bits * occupied(n, bits)
        total += count * reps * a * 2**b / occupied(n, live[0])
    return total


def choose_parameters(k: int, eta: float, delta: float = 0.1) -> SolverConfig:
    """Pick a block layout and vote count for a k-bit instance.

    a ~ lg(k)/2, the balanced tradeoff between example count (2^b per
    block) and vote bias ((1-2*eta)^(2^(a-1)) per chain), and
    b = ceil(k/a).  When a*b passes the 62-bit limit of bkw, a moves to
    the nearest depth whose layout fits, the shallower one on a tie: at
    k = 61 and 62, a=3 would take 63 bits, so a=2 and b=31.  Above
    k = 62 no layout fits, and a stays for the solve to refuse.
    """
    if k < 1:
        raise ValueError("k must be positive")
    a = max(1, round(math.log2(k) / 2))
    # d*ceil(k/d) >= d, so no depth past _MAX_WIDTH fits
    fits = [d for d in range(1, min(k, _MAX_WIDTH) + 1)
            if d * math.ceil(k / d) <= _MAX_WIDTH]
    if fits:
        a = min(fits, key=lambda d: (abs(d - a), d))
    return SolverConfig(BlockLayout(a, math.ceil(k / a)),
                        repetitions_for(k, eta, delta, a))


# ---------------------------------------------------------------------------
# merge step


@dataclass
class ISample:
    """A batch of vectors uniform over V_i, with aggregated labels.

    V_i is the subspace where the last i blocks of the layout are zero.
    words is an (s,) int64 array of row words: coordinate 1 in bit 0
    and the label in bit 63.  provenance, when tracked, is an (s, w)
    int array with w <= 2^i: row r is the XOR of the original draws
    indexed by provenance[r], where repeated draws cancel.
    """

    i: int
    layout: BlockLayout
    words: np.ndarray
    provenance: Optional[np.ndarray] = None

    def __post_init__(self):
        self.words = np.asarray(self.words)
        if not 0 <= self.i <= self.layout.a - 1:
            raise ValueError("level must lie in 0..a-1")
        _check_layout(self.layout.total, self.layout)
        if self.words.dtype != np.int64 or self.words.ndim != 1:
            raise ValueError("words must be an (s,) int64 array")
        if self.provenance is not None:
            self.provenance = np.asarray(self.provenance, dtype=np.int64)
            if (self.provenance.ndim != 2
                    or len(self.provenance) != len(self.words)):
                raise ValueError("provenance must be a (s, w) index array")

    @property
    def labels(self) -> np.ndarray:
        return (self.words < 0).astype(np.uint8)

    def __len__(self) -> int:
        return len(self.words)

    def validate(self, originals: Optional[np.ndarray] = None) -> None:
        """Check structural invariants; with the original draws' row
        words also check that the provenance reproduces each row word."""
        zero_from = (self.layout.a - self.i) * self.layout.b
        if ((self.words & _VEC) >> zero_from).any():
            raise AssertionError(f"rows stray outside V_{self.i}")
        if self.provenance is None:
            return
        w = self.provenance.shape[1]
        if not 1 <= w <= 2**self.i:
            raise AssertionError(f"provenance width {w} outside 1..2^{self.i}")
        if originals is not None:
            _check_provenance(self.words, self.provenance, originals)


def _merge_segmented(
    x: np.ndarray,
    seg: np.ndarray,
    layout: BlockLayout,
    level: int,
    rng: np.random.Generator,
    prov: Optional[np.ndarray] = None,
):
    """One merge step applied independently inside each segment.

    x holds int64 row words (label in bit 63) and seg their int64
    segment ids.  Rows are grouped by (segment, value of block a-level);
    one uniform random representative per group is XORed into the rest
    of its group and then dropped.  Returns the new rows and segments in
    (segment, block value) order; groups of size one vanish entirely.

    The rows of a group stay contiguous once its representative is
    dropped, so each representative's word is read once and repeated
    over the size-1 rows it is XORed into.

    prov, when given, is an (s, w) int array: row r is the XOR of the
    rows indexed by prov[r].  An output row gets its own row's w
    indices followed by its representative's, so w doubles.
    """
    a, b = layout.a, layout.b
    if level > a - 2:
        raise ValueError("nothing left to merge at this level")
    lo, _ = layout.bounds(a - level)  # the block to collapse
    s = len(x)
    if s == 0:
        return x, seg, None if prov is None else np.hstack([prov, prov])
    mask = (1 << b) - 1
    # key << sh | position sorts into the stable order of key, and faster;
    # segments and keys are bounded by the round size, so both fit
    sh = (s - 1).bit_length()
    pm = (1 << sh) - 1  # the position bits
    # inside one tile the whole key fits 31 bits, and np.sort runs about
    # twice as fast on int32 keys as on int64 ones
    narrow = b + sh <= 31 and int(seg.max()) < 1 << (31 - b - sh)
    key = seg.astype(np.int32 if narrow else np.int64)
    key <<= b
    block = (x >> lo).astype(key.dtype, copy=False)
    block &= mask
    key |= block
    assert int(key.max()) >> (63 - sh) == 0, "sort key overflows 63 bits"
    key <<= sh
    key |= np.arange(s, dtype=key.dtype)
    key.sort()
    # a group starts where the sorted key changes above the position bits
    new = np.empty(s, dtype=bool)
    new[0] = True
    np.greater(key[1:] ^ key[:-1], pm, out=new[1:])
    starts = np.flatnonzero(new)
    sizes = np.diff(starts, append=s)
    rep_pos = starts + rng.integers(0, sizes)
    keep = np.ones(s, dtype=bool)
    keep[rep_pos] = False

    kept = np.compress(keep, key)  # far faster than key[keep] here
    rows = kept & pm
    reps = key[rep_pos] & pm
    sizes -= 1  # rows each representative is XORed into
    out = x[rows]
    out ^= np.repeat(x[reps], sizes)
    assert not (out & mask << lo).any(), "collapsed block must be zero"
    out_prov = None
    if prov is not None:
        out_prov = np.hstack([prov[rows], prov[np.repeat(reps, sizes)]])
    kept >>= sh + b
    return out, kept.astype(np.int64, copy=False), out_prov


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
    x, _, prov = _merge_segmented(
        sample.words, seg, sample.layout, sample.i, rng, sample.provenance
    )
    return ISample(sample.i + 1, sample.layout, x, prov)


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
    """Cyclic coordinate rotation of a source as int64 row words.

    Rotating every example and the (implicit) target together preserves
    labels, and moves target coordinate 1+shift into position 1 where
    the vote machinery can see it.  Coordinates past the source's k are
    zero.
    """

    def __init__(self, src, width: int, shift: int):
        self._src = src
        self.k = width
        self.shift = shift % width

    def draw_batch(self, m: int) -> np.ndarray:
        """Next m examples as rotated row words."""
        words, labels, _ = self._src.draw_batch(m, packed=True)
        x = words[:, 0].view(np.int64)  # a fresh array, changed in place
        if self.shift:
            w, p = self.k, self.shift
            top = x << (w - p)
            x >>= p
            x |= top
            x &= (1 << w) - 1
        label = labels.astype(np.int64)
        label <<= 63
        x |= label
        return x


def _check_provenance(x, prov, draws) -> None:
    """Raise AssertionError unless each row word is the XOR of its draws."""
    if not np.array_equal(np.bitwise_xor.reduce(draws[prov], axis=1), x):
        raise AssertionError("provenance does not reproduce the merged rows")


def _chain_size(indices: np.ndarray) -> int:
    """Draws left in a chain once repeated draws cancel in pairs."""
    _, counts = np.unique(indices, return_counts=True)
    return int(np.count_nonzero(counts & 1))


def _round_tiles(view: _ShiftedView, n_seg: int, m_per: int):
    """Draw a round of n_seg segments of m_per examples from view, one
    tile at a time: (row words, segment ids) of whole segments, at most
    _TILE_ROWS rows, or one segment when a segment is larger."""
    per_tile = max(1, _TILE_ROWS // m_per)
    for first in range(0, n_seg, per_tile):
        n = min(per_tile, n_seg - first)
        yield (view.draw_batch(n * m_per),
               np.repeat(np.arange(n, dtype=np.int64), m_per))


def _vote_round(tiles, layout: BlockLayout, rng, track: bool):
    """Reduce each segment of a round's draws through a-1 merges and
    read its vote.

    tiles yields the round's draws in order as (row words, segment ids)
    pairs of whole segments.  The first merge runs on each tile as it
    arrives, and every later level over all tiles in order before the
    next, so the merges ask rng for the same groups in the same order as
    on one array of the whole round.  Returns, in segment order, the row
    word of each segment's first probe hit (e1, label in bit 63) and,
    with track set, the draws each one XORs as indices into the round's
    draws; every merged row is then checked against its tile's draws.
    """
    reduced, drawn = [], []
    for draws, seg in tiles:
        x, prov = draws, np.arange(len(draws))[:, None] if track else None
        if layout.a > 1:  # merged while the tile's draws are in cache
            x, seg, prov = _merge_segmented(x, seg, layout, 0, rng, prov)
        reduced.append((x, seg, prov))
        drawn.append(draws if track else None)
    for level in range(1, layout.a - 1):
        for t, (x, seg, prov) in enumerate(reduced):
            reduced[t] = _merge_segmented(x, seg, layout, level, rng, prov)
    votes, out_prov, offset = [], [], 0
    for (x, seg, prov), draws in zip(reduced, drawn):
        idx = np.flatnonzero((x & _VEC) == 1)
        # rows come out segment-major, so the first hit per segment is
        # the first row of that segment among the hits
        _, first = np.unique(seg[idx], return_index=True)
        hits = idx[first]
        votes.append(x[hits])
        if prov is not None:
            _check_provenance(x, prov, draws)
            out_prov.append(offset + prov[hits])
            offset += len(draws)
    return np.concatenate(votes), np.concatenate(out_prov) if track else None


def _collect_votes_batched(
    source, shift: int, layout: BlockLayout, n_votes: int,
    rng: np.random.Generator, budget: _BudgetTracker, track: bool,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Labels of n_votes completed votes on coordinate 1 + shift of
    source, in completion order.

    Each round draws a*2^b examples per pending vote from the source
    rotated by shift, charged to budget before the round's first draw,
    and a vote that misses the probe is redrawn up to _MAX_REDRAWS
    times.  With track set, rows also carry the indices of the draws
    they XOR, every round checks all its merged rows against its draws,
    and the draw indices of each vote come back as an (n_votes,
    2^(a-1)) array; otherwise that array is None.  Tracking uses no
    randomness, so the labels are the same either way.
    """
    view = _ShiftedView(source, layout.total, shift)
    m_per = layout.a * 2**layout.b
    chunk_votes = max(1, _ROUND_CELLS // (m_per * layout.total))
    out = [np.empty(0, np.int64)]
    out_prov = [np.empty((0, 2 ** (layout.a - 1)), np.int64)]
    remaining = n_votes
    while remaining > 0:
        pending = min(chunk_votes, remaining)
        remaining -= pending
        for _ in range(_MAX_REDRAWS):
            budget.charge(pending * m_per)
            start = source.draw_count
            votes, prov = _vote_round(_round_tiles(view, pending, m_per),
                                      layout, rng, track)
            out.append(votes)
            if prov is not None:
                out_prov.append(start + prov)
            pending -= len(votes)
            if pending == 0:
                break
        else:
            raise BudgetExceededError(
                f"{pending} votes still incomplete after {_MAX_REDRAWS} redraws",
                budget.used,
            )
    labels = (np.concatenate(out) < 0).astype(np.uint8)
    return labels, np.concatenate(out_prov) if track else None


def _check_layout(k: int, layout: BlockLayout) -> None:
    if k > layout.total:
        raise ValueError("layout does not cover the source coordinates")
    if layout.total > _MAX_WIDTH:
        raise ValueError(
            f"a*b={layout.total} exceeds the {_MAX_WIDTH}-bit limit of bkw"
        )


def collect_votes(
    source, config: SolverConfig, n_votes: int
) -> List[Tuple[int, Optional[int]]]:
    """n_votes votes on coordinate 1, as (label, provenance size) pairs.

    Provenance sizes are None unless config.track_provenance is set; a
    size counts the draws a vote XORs once repeated draws cancel.
    Tracking records provenance without changing any vote.  A finite
    source's remaining rows count as a budget next to max_examples;
    running out, or a vote past the redraw cap, raises
    BudgetExceededError.  Meant for calibration studies; recovery goes
    through recover_target.  The merges draw from the source's
    "merge-votes" seed lane.
    """
    _check_layout(source.k, config.layout)
    rng = np.random.default_rng(derive_seed(source.rng_seed, "merge-votes"))
    labels, prov = _collect_votes_batched(
        source, 0, config.layout, n_votes, rng,
        _BudgetTracker(source, config.max_examples), config.track_provenance,
    )
    sizes = [None] * len(labels) if prov is None else map(_chain_size, prov)
    return [(int(l), s) for l, s in zip(labels, sizes)]


def recover_target(
    source, config: SolverConfig, seed: Optional[int] = None
) -> SolverResult:
    """Recover all k target coordinates by rotating each into position 1.

    Coordinate 1 is the majority of its votes: each vote reduces a
    fresh batch of a*2^b examples through a-1 merge steps and reads off
    the aggregated label of (1,0,...,0) if present, redrawing otherwise
    (the probe vector is missed with probability about 1/e per
    attempt); ties go to 0.  Coordinate r is recovered the same way on
    a view of the stream whose examples are cyclically rotated by r-1
    (labels are untouched; the rotated target has the wanted bit
    first).  All bits share one example stream and one budget:
    max_examples and, for a finite source, the rows it has left.
    Running out, or a vote past the redraw cap, ends the solve with
    BUDGET_EXCEEDED and the examples drawn so far.  Without either
    limit, a solve that the model of predicted_examples expects to draw
    more than 2^40 examples is refused with ValueError before any
    draw.  The merge RNG lanes derive from `seed`, defaulting to the
    source's own seed.
    """
    layout, k, reps = config.layout, source.k, config.repetitions
    _check_layout(k, layout)
    budget = _BudgetTracker(source, config.max_examples)
    if budget.limit is None:
        need = _expected_examples(k, reps, layout)
        if need > _MAX_UNCAPPED:
            raise ValueError(
                f"bkw at k={k} with layout {layout.a}x{layout.b} and {reps} "
                f"votes per bit is predicted to draw {need:.3g} examples, "
                f"more than the 2^{_MAX_UNCAPPED.bit_length() - 1} a solve "
                "may draw without max_examples (--max-examples)"
            )
    if seed is None:
        seed = source.rng_seed
    tallies: List[Tuple[int, int]] = []
    bits_acc = 0
    status = SolverStatus.RECOVERED
    for p in range(k):
        rng = np.random.default_rng(derive_seed(seed, f"merge-bit-{p + 1}"))
        try:
            labels, _ = _collect_votes_batched(
                source, p, layout, reps, rng, budget, config.track_provenance
            )
        except BudgetExceededError:
            status = SolverStatus.BUDGET_EXCEEDED
            break
        ones = int(labels.sum())
        tallies.append((ones, reps - ones))
        bits_acc |= (ones > reps - ones) << p
    recovered = status is SolverStatus.RECOVERED
    c_hat = BitVec(k, bits_acc) if recovered else None
    return SolverResult(status, c_hat, budget.used, tallies)


# ---------------------------------------------------------------------------
# baselines


def mle_bruteforce(words: np.ndarray, labels: np.ndarray, k: int) -> BitVec:
    """Candidate parity with the fewest disagreements on the examples.

    words are (m, ceil(k/64)) uint64 row words (gf2.pack_words) and
    labels their m 0/1 labels.  Candidate c agrees with m - err(c) rows,
    so the Walsh-Hadamard transform (gf2.fwht) of f[v] = (label-0 rows
    of value v) - (label-1 rows of value v) is m - 2*err(c) at every c
    at once.  Ties go to the numerically smallest candidate (coordinate
    1 least significant), np.argmax's first maximum.  Every value the
    transform passes through lies in [-m, m], so the table holds 2^k
    entries of the narrowest exact type: int16 below 2^15 rows, int32
    below 2^31, else int64.  k above MLE_MAX_K is refused.
    """
    if not len(labels):
        raise ValueError("cannot fit a target to zero samples")
    if k > MLE_MAX_K:
        raise ValueError(f"mle_bruteforce is capped at k={MLE_MAX_K}")
    _check_words(words, labels, k)
    m = len(labels)
    dtype = np.int16 if m < 1 << 15 else np.int32 if m < 1 << 31 else np.int64
    f = np.zeros(1 << k, dtype=dtype)
    np.add.at(f, words[:, 0].view(np.int64), 1 - 2 * labels.astype(dtype))
    fwht(f)
    return BitVec(k, int(np.argmax(f)))


def gaussian_baseline(
    words: np.ndarray, labels: np.ndarray, k: int
) -> GaussResult:
    """Solve the examples as exact linear equations.

    words are (m, ceil(k/64)) uint64 row words and labels their m 0/1
    labels.  Only meaningful on noiseless data: any flipped label shows
    up as an inconsistent system (or a wrong solution if the flips
    happen to stay consistent).  k above GAUSS_MAX_K is refused.
    """
    if k > GAUSS_MAX_K:
        raise ValueError(f"gaussian_baseline is capped at k={GAUSS_MAX_K}")
    _check_words(words, labels, k)
    # one system, each row's label riding at bit k
    rows = np.zeros((1, len(labels), k // 64 + 1), dtype=np.uint64)
    rows[0, :, : words.shape[1]] = words
    rows[0, :, k // 64] |= labels.astype(np.uint64) << np.uint64(k % 64)
    reduced, (rank,) = eliminate(rows, k)
    label = (reduced[0, :, k // 64] >> np.uint64(k % 64)) & np.uint64(1)
    if label[rank:].any():  # a row reduced to 0 = 1
        return GaussResult(GaussStatus.INCONSISTENT)
    if rank < k:
        return GaussResult(GaussStatus.UNDERDETERMINED)
    # row i is coordinate i alone, with its value in the label bit
    return GaussResult(GaussStatus.SOLVED, BitVec.from_bits_row(label[:k]))
