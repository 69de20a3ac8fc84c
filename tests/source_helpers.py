"""Example sources over a chosen support, which only tests use.

The package's one live source draws x uniformly from {0,1}^k; a test
that needs other examples samples them here and replays them through a
ReplaySource.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from bitvec_helpers import bits_row, random_bitvec
from lpn.gf2 import BitVec, pack_words
from lpn.instance import ReplaySource


def support_replay(
    support: Sequence[BitVec],
    weights: Sequence[float],
    m: int,
    eta: float,
    seed: int,
) -> ReplaySource:
    """m examples with x drawn from support by weights, labeled by a random
    parity target and flipped with probability eta, as a ReplaySource of
    length m.

    One np.random.default_rng(seed) draws, in order, the target, the m
    support indices, and one noise variate per row.
    """
    k = support[0].n
    rng = np.random.default_rng(seed)
    target = random_bitvec(k, rng)
    p = np.asarray(weights, dtype=np.float64)
    idx = rng.choice(len(support), size=m, p=p / p.sum())
    words = pack_words(np.stack([bits_row(v) for v in support]))[idx]
    flips = (rng.random(m) < eta).astype(np.uint8)
    labels = target.dot_words(words) ^ flips
    return ReplaySource(words, labels, k, eta=eta, target=target)
