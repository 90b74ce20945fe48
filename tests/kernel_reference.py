"""Reference dense-kernel routines: the oracle for the edge-list kernel of
`thermo.MarkovMeasure` and for `sft._words`.

Each routine reads a dense n x n kernel (or 0/1 matrix) and scans whole
rows of it: the words gather the nonzero entries of each row, the sampler
compares u with every cumulative column of the kernel, and the
equilibrium kernel and the random measures fill a dense array before
the measure is built.  The tests require the edge-list versions to give
the same words and paths, and kernels equal or within 1e-15.
"""

import numpy as np


def words(A, w: int) -> np.ndarray:
    """The words of length w admissible for the 0/1 matrix A, as the rows
    of an int array in lexicographic order."""
    W = np.arange(len(A))[:, None]
    for _ in range(w - 1):
        i, j = np.nonzero(A[W[:, -1]])
        W = np.column_stack([W[i], j])
    return W


def state_paths(P, stationary, length: int):
    """(paths, nu): the state paths of `length` states along positive
    kernel steps in lexicographic order, and nu(p) = pi(p_0) P(p_0, p_1)
    ... P(p_-2, p_-1)."""
    paths = words(P > 0, length)
    nu = stationary[paths[:, 0]]
    for a, b in zip(paths.T[:-1], paths.T[1:]):
        nu = nu * P[a, b]
    return paths, nu


def entropy(P, stationary) -> float:
    """-sum nu(a b) log P(a, b) over the pairs a b of positive steps."""
    paths, nu = state_paths(P, stationary, 2)
    a, b = paths.T
    return float(-(nu * np.log(P[a, b])).sum())


def sample_words(P, stationary, n: int, length: int, rng,
                 start_weights=None) -> np.ndarray:
    """Step-major paths: each next state is the number of its
    predecessor's cumulative row entries below u, over all n columns."""
    thresholds = np.cumsum(P, axis=1).T
    w0 = stationary if start_weights is None else \
        np.asarray(start_weights, float) / np.sum(start_weights)
    out = np.zeros((length, n), dtype=np.int64)
    out[0] = rng.choice(len(P), size=n, p=w0)
    for prev, row in zip(out[:-1], out[1:]):
        u = rng.random(n)
        for column in thresholds:
            row += u > column.take(prev)
    return out.T


def equilibrium_kernel(A, x, lam, v) -> np.ndarray:
    """The dense Gibbs kernel A_ab x_b v_b / (lam v_a), rows normalized."""
    kernel = A * (x * v)[None, :] / (lam * v[:, None])
    return kernel / kernel.sum(axis=1)[:, None]


def random_kernel(sft, rng) -> np.ndarray:
    """The dense kernel of `thermo.random_markov_measure`: row by row, 0.05
    plus a uniform on each successor, divided by the row's sum."""
    n = sft.n_symbols
    P = np.zeros((n, n))
    for i in range(n):
        succ = sft.successors(i)
        row = rng.random(len(succ)) + 0.05
        P[i, succ] = row / row.sum()
    return P


def block_edges(A, w: int) -> tuple:
    """(src, dst): the transitions of the w-block recoding of the 0/1
    matrix A in row-major order, the successors of each word gathered from
    the dense row of its last symbol."""
    W = words(A, w)
    n = len(A)
    key = np.ravel_multi_index(W.T, (n,) * w)
    i, b = np.nonzero(A[W[:, -1]])
    return i, np.searchsorted(key, key[i] % n ** (w - 1) * n + b)
