"""Reference block recoding for `thermo.block_recode` and `thermo._prepare`.

These are the bodies the library used before the recoding was built by
index: the roof of the recoding is a new `Roof` of the exact values, which
converts each of them to float again, and the potential is read by one
`value` call per state.  The library takes the float view by index from
the parent roof and looks the potential up once over all words; the
tests require the two to agree bit for bit.
"""

import numpy as np

from thermoflow import Roof, Sft
from thermoflow.sft import _words


def block_recode(sft, roof, w):
    """(Sft_w, Roof_w, words): the w-block presentation."""
    if w == 1:
        return sft, roof, tuple((s,) for s in range(sft.n_symbols))
    U = _words(sft._edges, w + 1)
    src, dst = (np.ravel_multi_index(V.T, (sft.n_symbols,) * w)
                for V in (U[:, :-1], U[:, 1:]))
    new = np.diff(src, prepend=-1) > 0
    W, i, j = U[new, :-1], np.cumsum(new) - 1, np.searchsorted(src[new], dst)
    A = np.zeros((len(W), len(W)), bool)
    A[i, j] = True
    sft_w = Sft(A)
    sft_w._edges = i, j  # fill the cache
    return (sft_w, Roof([roof[s] for s in W[:, 0].tolist()]),
            tuple(map(tuple, W.tolist())))


def prepare(system, phi):
    """Recoded (sft, roof, words, phihat) matching the potential width."""
    sft_w, roof_w, words = block_recode(system.sft, system.roof, phi.width)
    phihat = np.array([phi.value(u) for u in words]) * roof_w.array
    return sft_w, roof_w, words, phihat
