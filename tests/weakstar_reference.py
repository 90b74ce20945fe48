"""Reference weak* kernels: the oracle for `ldp._distances` and for the
state paths of `thermo._state_paths`.

`distances` sorts the merged (member id, word) table column by column
with `np.lexsort` and finds the depth-k groups from the first column in
which each sorted row differs from the one before it.  `state_paths`
walks the edge list one step at a time with `words`, which recomputes
each row's edge from the cumulative out-degrees, and then finds every
step's edge again by a search on the edge keys to multiply in its
probability.  The tests require the keyed kernel and the walk that
carries its own probabilities to give the same numbers bit for bit.
"""

import numpy as np


def first_difference(words: np.ndarray) -> np.ndarray:
    """first[i]: the first column where row i of a sorted table differs
    from row i - 1, the width when the two are equal, and 0 for row 0."""
    d = np.ones((len(words), words.shape[1] + 1), dtype=bool)
    np.not_equal(words[1:], words[:-1], out=d[1:, :-1])
    return d.argmax(axis=1)


def distances(words, weights, heights, b, cfg) -> np.ndarray:
    """D(a_i, b) for K measures a_i given as word rows words[i] (n, depth),
    frequencies weights[i] and histograms heights[i]: one signed pass over
    the lexsorted table whose first column is the member id."""
    K, n, depth = words.shape
    table = np.empty((K, n + len(b.words), depth + 1), dtype=np.int64)
    table[..., 0] = np.arange(K)[:, None]
    table[:, :n, 1:] = words
    table[:, n:, 1:] = b.words
    signed = np.concatenate(
        [weights, np.broadcast_to(-b.weights, (K, len(b.words)))], axis=1)
    table, signed = table.reshape(-1, depth + 1), signed.ravel()
    order = np.lexsort(table.T[::-1])
    table, signed = table[order], signed[order]
    starts = np.flatnonzero(first_difference(table)
                            <= np.arange(1, depth + 1)[:, None])
    level, row = np.divmod(starts, len(table))
    diff = np.add.reduceat(np.tile(signed, depth), starts)
    wk = np.array([cfg.depth_weight(k) for k in range(1, depth + 1)])
    return np.bincount(table[row, 0], wk[level] * np.abs(diff),
                       minlength=K) \
        + cfg.height_weight * np.abs(heights - b.heights).sum(axis=1)


def words(edges, w: int) -> np.ndarray:
    """The words of length w along the edges (src, dst) in row-major order,
    as the rows of an int array in lexicographic order: each step repeats
    a row once for each successor of its last state and reads the edges
    from the cumulative out-degrees."""
    src, dst = edges
    degree = np.bincount(src)
    ends = np.cumsum(degree)  # one past the last edge of each state
    W = np.arange(len(degree))[:, None]
    for _ in range(w - 1):
        k = degree[W[:, -1]]
        edge = np.repeat(ends[W[:, -1]] - k.cumsum(), k) + np.arange(k.sum())
        W = np.column_stack([np.repeat(W, k, axis=0), dst[edge]])
    return W


def state_paths(base, length: int):
    """(paths, nu): the state paths of `length` states of a MarkovMeasure
    and nu(p) = pi(p_0) P(p_0, p_1) ... P(p_-2, p_-1), each step's edge
    found by a search on the keys src * n + dst."""
    paths = words((base.src, base.dst), length)
    nu = base.stationary[paths[:, 0]]
    n = base.n_states
    keys = base.src * n + base.dst
    for a, b in zip(paths.T[:-1], paths.T[1:]):
        nu = nu * base.prob[np.searchsorted(keys, a * n + b)]
    return paths, nu
