"""Noisy parity example sources.

An ExampleSource fixes a secret parity target c over k bits and hands
out labeled examples (x, <c,x> + noise), x uniform over {0,1}^k, where
the noise flips each label independently with probability eta.  The
stream is reproducible: it is generated in fixed-size chunks from a
PCG64 generator, so the sequence of examples depends only on the seed,
never on how the caller sliced its draw_batch() requests or which form
it asked for.  A ReplaySource hands out a fixed table of examples
instead, such as one read from a file, and is the one finite source.

A source holds each chunk in one form: (m, ceil(k/64)) uint64 row
words, coordinate 1 in bit 0 of word 0 (gf2.pack_words), beside one
uint8 label per row.  draw_batch(m, packed=True) hands out those words;
plain draw_batch(m) unpacks them into a (m, k) 0/1 uint8 matrix.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from .gf2 import BitVec, pack_words, unpack_words
from .seeding import derive_seed

__all__ = [
    "StreamExhausted",
    "ExampleSource",
    "ReplaySource",
    "new_source",
    "empirical_error",
]

# Examples are produced in fixed chunks of this size; the constant is
# part of the stream definition and must not change across versions.
_CHUNK = 4096


def _check_eta(eta) -> float:
    """eta as a float, or ValueError unless 0 <= eta < 1/2 (NaN fails)."""
    eta = float(eta)
    if not 0.0 <= eta < 0.5:
        raise ValueError(f"noise rate must satisfy 0 <= eta < 0.5, got {eta}")
    return eta


def _check_words(words: np.ndarray, labels: np.ndarray, k: int) -> None:
    """Raise ValueError unless words are (m, ceil(k/64)) uint64 row words
    with no bit set beyond coordinate k and labels are m values 0 or 1."""
    nw = -(-k // 64)
    if words.dtype != np.uint64 or words.shape != (len(words), nw):
        raise ValueError(f"words must be (count, {nw}) uint64 row words")
    if labels.shape != (len(words),):
        raise ValueError("need one label per row")
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be 0 or 1")
    if k % 64 and (words[:, -1] >> np.uint64(k % 64)).any():
        raise ValueError(f"row words have bits set beyond coordinate {k}")


def _check_target(target, k: int) -> None:
    if not isinstance(target, BitVec) or target.n != k:
        raise ValueError("target must be a BitVec of length k")


class StreamExhausted(RuntimeError):
    """Raised when a finite source cannot supply the requested examples."""


class _BufferedDraws:
    """draw_batch() over a chunked buffer of row words and labels."""

    k: int

    def __init__(self):
        self._buf_words: Optional[np.ndarray] = None
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

    def draw_batch(
        self, m: int, packed: bool = False
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Next m examples as (rows, labels, first index).

        rows is the (m, k) 0/1 uint8 matrix or, with packed set, the
        (m, ceil(k/64)) uint64 row words the source holds.
        """
        if m < 0:
            raise ValueError("batch size must be nonnegative")
        # refused before anything is consumed, so _refill never runs dry
        left = self.remaining()
        if left is not None and m > left:
            raise StreamExhausted(f"the source has {left} examples left, {m} requested")
        start = self._drawn
        if packed:
            out = np.empty((m, -(-self.k // 64)), dtype="<u8")
        else:
            out = np.empty((m, self.k), dtype=np.uint8)
        out_labels = np.empty(m, dtype=np.uint8)
        got = 0
        while got < m:
            if self._buf_words is None or self._buf_pos >= len(self._buf_words):
                self._refill()
            assert self._buf_words is not None and self._buf_labels is not None
            take = min(m - got, len(self._buf_words) - self._buf_pos)
            sl = slice(self._buf_pos, self._buf_pos + take)
            words = self._buf_words[sl]
            out[got : got + take] = words if packed else unpack_words(words, self.k)
            out_labels[got : got + take] = self._buf_labels[sl]
            self._buf_pos += take
            got += take
        self._drawn += m
        return out, out_labels, start


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
        eta: float,
        *,
        seed: int = 0,
        target: Union[BitVec, str] = "random",
    ):
        super().__init__()
        if k < 1:
            raise ValueError("k must be positive")
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        self.k = k
        self.eta = _check_eta(eta)
        self.rng_seed = seed
        self._rng = np.random.default_rng(seed)
        if target == "random":
            lane = np.random.default_rng(derive_seed(seed, "target"))
            raw = lane.integers(0, 2, size=k, dtype=np.uint8)
            target = BitVec.from_bits_row(raw)
        _check_target(target, k)
        self.target = target

    def _refill(self) -> None:
        # the stream's bits are integers(0, 2, (_CHUNK, k), uint8),
        # which numpy computes as the top bit of each little-endian
        # byte of these outputs and never rejects; _CHUNK * k bytes
        # fill whole outputs, so the generator ends in the same state
        raw = self._rng.bit_generator.random_raw(_CHUNK * self.k // 8)
        raw = raw.astype("<u8", copy=False).view(np.uint8)
        words = pack_words(raw.reshape(_CHUNK, self.k) >> 7)
        clean = self.target.dot_words(words)
        # noise variates are drawn for every chunk, eta = 0 included,
        # so the x-stream does not depend on the noise rate
        flips = (self._rng.random(len(words)) < self.eta).astype(np.uint8)
        self._buf_words = words
        self._buf_labels = clean ^ flips
        self._buf_pos = 0


class ReplaySource(_BufferedDraws):
    """Replays a fixed table of examples, e.g. one read from a file.

    words are (m, ceil(k/64)) uint64 row words, the draw_batch(m,
    packed=True) form, and labels their m 0/1 labels.
    """

    def __init__(
        self,
        words: np.ndarray,
        labels: np.ndarray,
        k: int,
        eta: Optional[float] = None,
        target: Optional[BitVec] = None,
    ):
        super().__init__()
        words, labels = np.asarray(words), np.asarray(labels)
        _check_words(words, labels, k)
        if target is not None:
            _check_target(target, k)
        self.k = k
        self.eta = None if eta is None else _check_eta(eta)
        self.target = target
        # the whole table is one buffer, which draw_batch never overruns
        self._buf_words = words
        self._buf_labels = labels.astype(np.uint8, copy=False)

    def __len__(self) -> int:
        return len(self._buf_words)

    def remaining(self) -> int:
        return len(self._buf_words) - self.draw_count


def new_source(
    k: int,
    eta: float,
    *,
    seed: int = 0,
    target: Union[BitVec, str] = "random",
) -> ExampleSource:
    return ExampleSource(k, eta, seed=seed, target=target)


def empirical_error(h: BitVec, words: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of the examples, (m, ceil(k/64)) uint64 row words and
    their m labels, whose label disagrees with parity h."""
    if not len(labels):
        raise ValueError("cannot estimate error from zero samples")
    _check_words(words, labels, h.n)
    return float(np.count_nonzero(h.dot_words(words) != labels)) / len(labels)
