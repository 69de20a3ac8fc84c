"""Reference maximum-likelihood scan: a Gray-code walk over candidates.

This is the candidate-by-candidate form of `lpn.solvers.mle_bruteforce`,
which scores every candidate at once with a Walsh-Hadamard transform.
It visits all 2^k candidates in Gray-code order, keeping the prediction
vector over the m examples as one big integer and flipping one column
per step, and keeps the smallest candidate among those with the fewest
disagreements.
"""

from __future__ import annotations

import numpy as np

from lpn.gf2 import unpack_words


def mle_gray(words: np.ndarray, labels: np.ndarray, k: int) -> int:
    """The candidate with the fewest disagreements, the smallest on ties."""
    # column j as an m-bit int, example i in bit i
    col_bytes = np.packbits(unpack_words(words, k), axis=0, bitorder="little")
    cols = [int.from_bytes(c.tobytes(), "little") for c in col_bytes.T]
    labels_int = int.from_bytes(
        np.packbits(labels, bitorder="little").tobytes(), "little"
    )
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
    return best_c
