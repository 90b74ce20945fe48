"""The critical-graph pieces by numpy set routines: the oracle for
`thermoflow.ldp._face`.

The critical states are listed with `np.unique`; each piece is cut from
the states still unlisted around the least of them and removed with
`np.setdiff1d`, and its edges are found with `np.isin`.  The library
keeps the unlisted states as a boolean mask instead, and must give the
same pieces in the same order.
"""

import numpy as np

from thermoflow.sft import _shortest_paths


def face(src, dst, weight) -> list:
    """The strongly connected pieces of the critical graph of an edge
    weight whose every cycle sum is <= 0, each as (edge indices, sources,
    targets) with its states renumbered 0..m-1."""
    D = -_shortest_paths(int(src.max()) + 1, src, dst, -weight)
    tol = 1e-9 * (1.0 + float(np.max(np.abs(weight))))
    critical = np.flatnonzero(weight + D[dst, src] >= -tol)
    states = np.unique(src[critical])
    pieces = []
    while states.size:
        piece = states[D[states[0], states] + D[states, states[0]] >= -tol]
        states = np.setdiff1d(states, piece)
        e = critical[np.isin(src[critical], piece)]
        pieces.append((e, np.searchsorted(piece, src[e]),
                       np.searchsorted(piece, dst[e])))
    return pieces
