"""Noisy parity example generators.

An example source fixes a secret parity target c over k bits and hands
out labeled examples (x, <c,x> + noise) where the noise flips each label
independently with probability eta.  Sources are fully reproducible:
the stream is generated in fixed-size chunks from a PCG64 generator, so
the sequence of examples depends only on the seed, never on whether the
caller used draw() or draw_batch() or how it sliced its requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .gf2 import BitVec
from .seeding import derive_seed

__all__ = [
    "NoiseRate",
    "ParityTarget",
    "Uniform",
    "Explicit",
    "Stream",
    "LabeledExample",
    "StreamExhausted",
    "ExampleSource",
    "ReplaySource",
    "new_source",
    "empirical_error",
]

# Examples are produced in fixed chunks of this size; the constant is
# part of the stream definition and must not change across versions.
_CHUNK = 4096


@dataclass(frozen=True)
class NoiseRate:
    """Label flip probability, restricted to 0 <= eta < 1/2."""

    eta: float

    def __post_init__(self):
        if not 0.0 <= self.eta < 0.5:
            raise ValueError(f"noise rate must satisfy 0 <= eta < 0.5, got {self.eta}")

    def __float__(self) -> float:
        return self.eta


@dataclass(frozen=True)
class ParityTarget:
    """The secret vector c; labels are inner products <c, x> mod 2."""

    c: BitVec

    @property
    def k(self) -> int:
        return self.c.n

    def predict(self, x: BitVec) -> int:
        return self.c.dot(x)

    def predict_rows(self, bits: np.ndarray) -> np.ndarray:
        """Clean labels for a (m, k) 0/1 matrix of examples."""
        c_row = self.c.to_bits_row().astype(np.int64)
        return (bits.astype(np.int64) @ c_row & 1).astype(np.uint8)


class Uniform:
    """Examples drawn uniformly from {0,1}^k."""

    def __repr__(self) -> str:
        return "Uniform()"

    def __eq__(self, other) -> bool:
        return isinstance(other, Uniform)

    def __hash__(self) -> int:
        return hash(Uniform)


@dataclass(frozen=True)
class Explicit:
    """Examples drawn from a finite support with given probabilities."""

    support: Tuple[BitVec, ...]
    probs: Tuple[float, ...]

    def __post_init__(self):
        if len(self.support) != len(self.probs) or not self.support:
            raise ValueError("support and probs must be nonempty and equal length")
        if any(p < 0 for p in self.probs):
            raise ValueError("probabilities must be nonnegative")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1")
        n = self.support[0].n
        if any(v.n != n for v in self.support):
            raise ValueError("support vectors must share one length")


@dataclass(frozen=True)
class Stream:
    """Examples taken in order from a fixed sequence of vectors."""

    xs: Tuple[BitVec, ...]

    def __post_init__(self):
        if self.xs:
            n = self.xs[0].n
            if any(v.n != n for v in self.xs):
                raise ValueError("stream vectors must share one length")


class LabeledExample(NamedTuple):
    x: BitVec
    label: int
    index: int


class StreamExhausted(RuntimeError):
    """Raised when a finite source cannot supply the requested examples."""


class _BufferedDraws:
    """Shared draw()/draw_batch() plumbing over a chunked buffer."""

    k: int

    def __init__(self):
        self._buf_bits: Optional[np.ndarray] = None
        self._buf_labels: Optional[np.ndarray] = None
        self._buf_pos = 0
        self._drawn = 0

    @property
    def draw_count(self) -> int:
        """Number of examples handed out so far."""
        return self._drawn

    def remaining(self) -> Optional[int]:
        """Examples a finite source has left to draw, None if unbounded."""
        return None

    def _refill(self) -> None:
        raise NotImplementedError

    def draw(self) -> LabeledExample:
        bits, labels, start = self.draw_batch(1)
        return LabeledExample(BitVec.from_bits_row(bits[0]), int(labels[0]), start)

    def draw_batch(self, m: int) -> Tuple[np.ndarray, np.ndarray, int]:
        """Next m examples as ((m, k) 0/1 matrix, labels, first index)."""
        if m < 0:
            raise ValueError("batch size must be nonnegative")
        start = self._drawn
        out_bits = np.empty((m, self.k), dtype=np.uint8)
        out_labels = np.empty(m, dtype=np.uint8)
        got = 0
        while got < m:
            if self._buf_bits is None or self._buf_pos >= len(self._buf_bits):
                self._refill()
            assert self._buf_bits is not None and self._buf_labels is not None
            take = min(m - got, len(self._buf_bits) - self._buf_pos)
            sl = slice(self._buf_pos, self._buf_pos + take)
            out_bits[got : got + take] = self._buf_bits[sl]
            out_labels[got : got + take] = self._buf_labels[sl]
            self._buf_pos += take
            got += take
        self._drawn += m
        return out_bits, out_labels, start


class ExampleSource(_BufferedDraws):
    """Reproducible stream of noisy parity examples.

    Randomness comes from numpy's PCG64 via np.random.default_rng(seed).
    A random target is drawn from its own derived seed lane, so passing
    that same target back explicitly reproduces the example stream
    bit for bit.
    """

    def __init__(
        self,
        k: int,
        eta: Union[float, NoiseRate],
        distribution: Union[Uniform, Explicit, Stream, None] = None,
        seed: int = 0,
        target: Union[ParityTarget, str] = "random",
    ):
        super().__init__()
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.eta = eta if isinstance(eta, NoiseRate) else NoiseRate(float(eta))
        self.distribution = distribution if distribution is not None else Uniform()
        self.rng_seed = seed
        self._rng = np.random.default_rng(seed)
        if target == "random":
            lane = np.random.default_rng(derive_seed(seed, "target"))
            raw = lane.integers(0, 2, size=k, dtype=np.uint8)
            target = ParityTarget(BitVec.from_bits_row(raw))
        if not isinstance(target, ParityTarget) or target.k != k:
            raise ValueError("target must be a ParityTarget of length k")
        self.target = target
        self._stream_pos = 0
        if isinstance(self.distribution, Explicit):
            self._support_bits = np.stack(
                [v.to_bits_row() for v in self.distribution.support]
            )
            self._probs = np.asarray(self.distribution.probs, dtype=np.float64)
            self._probs = self._probs / self._probs.sum()
        elif isinstance(self.distribution, Stream):
            if self.distribution.xs and self.distribution.xs[0].n != k:
                raise ValueError("stream vectors must have length k")
            self._stream_bits = (
                np.stack([v.to_bits_row() for v in self.distribution.xs])
                if self.distribution.xs
                else np.empty((0, k), dtype=np.uint8)
            )

    def remaining(self) -> Optional[int]:
        if isinstance(self.distribution, Stream):
            return len(self._stream_bits) - self.draw_count
        return None

    def _refill(self) -> None:
        dist = self.distribution
        if isinstance(dist, Uniform):
            bits = self._rng.integers(0, 2, size=(_CHUNK, self.k), dtype=np.uint8)
        elif isinstance(dist, Explicit):
            idx = self._rng.choice(len(self._support_bits), size=_CHUNK, p=self._probs)
            bits = self._support_bits[idx]
        else:
            remaining = len(self._stream_bits) - self._stream_pos
            if remaining <= 0:
                raise StreamExhausted("the example stream is exhausted")
            take = min(_CHUNK, remaining)
            bits = self._stream_bits[self._stream_pos : self._stream_pos + take]
            self._stream_pos += take
        clean = self.target.predict_rows(bits)
        # noise variates are drawn for every chunk, eta = 0 included,
        # so the x-stream does not depend on the noise rate
        flips = (self._rng.random(len(bits)) < float(self.eta)).astype(np.uint8)
        self._buf_bits = bits
        self._buf_labels = clean ^ flips
        self._buf_pos = 0


class ReplaySource(_BufferedDraws):
    """Replays a fixed table of examples, e.g. one read from a file."""

    def __init__(
        self,
        bits: np.ndarray,
        labels: np.ndarray,
        eta: Union[float, NoiseRate, None] = None,
        seed: int = 0,
        target: Optional[ParityTarget] = None,
    ):
        super().__init__()
        bits = np.asarray(bits, dtype=np.uint8)
        labels = np.asarray(labels, dtype=np.uint8)
        if bits.ndim != 2 or len(labels) != len(bits):
            raise ValueError("need a (m, k) bit matrix and m labels")
        self.k = bits.shape[1]
        self.eta = (
            eta if isinstance(eta, NoiseRate) or eta is None else NoiseRate(float(eta))
        )
        self.rng_seed = seed
        self.target = target
        self._bits = bits
        self._labels = labels
        self._replay_pos = 0

    def __len__(self) -> int:
        return len(self._bits)

    def remaining(self) -> int:
        return len(self._bits) - self.draw_count

    def _refill(self) -> None:
        if self._replay_pos >= len(self._bits):
            raise StreamExhausted(
                f"replay holds {len(self._bits)} examples, all consumed"
            )
        take = min(_CHUNK, len(self._bits) - self._replay_pos)
        sl = slice(self._replay_pos, self._replay_pos + take)
        self._buf_bits = self._bits[sl]
        self._buf_labels = self._labels[sl]
        self._replay_pos += take
        self._buf_pos = 0


def new_source(
    k: int,
    eta: Union[float, NoiseRate],
    distribution: Union[Uniform, Explicit, Stream, None] = None,
    seed: int = 0,
    target: Union[ParityTarget, str] = "random",
) -> ExampleSource:
    return ExampleSource(k, eta, distribution, seed, target)


def empirical_error(h: ParityTarget, samples: Sequence[LabeledExample]) -> float:
    """Fraction of samples whose label disagrees with h's prediction."""
    if not samples:
        raise ValueError("cannot estimate error from zero samples")
    wrong = sum(1 for s in samples if h.predict(s.x) != s.label)
    return wrong / len(samples)
