"""Reference Markov path sampler for `MarkovMeasure.sample_words`.

Sample-major and written out one step at a time: the paths are the rows of
an (n, length) array, and each step compares the n uniforms with the
cumulative rows of the kernel gathered as an (n, k) block.  The library
draws the same random numbers in the same order into a step-major array,
so the tests require the two to be equal, entry for entry.
"""

import numpy as np


def sample_words(P, stationary, n: int, length: int, rng,
                 start_weights=None) -> np.ndarray:
    """n independent paths of the kernel P started from stationary (or
    from start_weights, normalized), as the rows of an (n, length) array."""
    P = np.asarray(P, dtype=float)
    k = P.shape[0]
    cum = np.cumsum(P, axis=1)
    w0 = stationary if start_weights is None else \
        np.asarray(start_weights, float) / np.sum(start_weights)
    out = np.empty((n, length), dtype=np.int64)
    out[:, 0] = rng.choice(k, size=n, p=w0)
    for j in range(1, length):
        u = rng.random(n)
        out[:, j] = (u[:, None] > cum[out[:, j - 1]]).sum(axis=1)
    return out
