"""Reference block chain of the ergodic approximation, built state by
state with dicts: the oracle for `entropy_density._build_block_chain`,
which places the same states by index arithmetic.

States are added as they are first met, keyed (kind, component,
position, symbol), kind 0 for a block state and 1 for a glue state;
transitions accumulate in a dict of dicts, and the stationary vector
comes from its own direct solve.
"""

from __future__ import annotations

import numpy as np

from thermoflow import MarkovMeasure, glue_words


def build_block_chain(system, target, L: int):
    """Block Markov chain: component i runs max(2, round(a_i L)) positions
    of its kernel, then a deterministic glue path leads to the next
    component's fixed start symbol.  Returns (MarkovMeasure on chain
    states, emission array, roof array)."""
    sft = system.sft
    comps = target.components
    p = len(comps)
    starts = []
    for mu, _ in comps:
        starts.append(int(np.argmax(mu.stationary)))
    states = []  # (kind, i, pos, symbol) kind 0 = block, 1 = glue
    index = {}

    def add(st):
        if st not in index:
            index[st] = len(states)
            states.append(st)
        return index[st]

    n_sym = sft.n_symbols
    lengths = [max(2, int(round(a * L))) for _, a in comps]
    for i, (mu, a) in enumerate(comps):
        for j in range(lengths[i]):
            for s in range(n_sym):
                if j == 0 and s != starts[i]:
                    continue
                add((0, i, j, s))
    # transitions
    trans = {}

    def set_p(a_st, b_st, pr):
        ia, ib = add(a_st), add(b_st)
        trans.setdefault(ia, {})[ib] = trans.get(ia, {}).get(ib, 0.0) + pr

    for i, (mu, a) in enumerate(comps):
        Li = lengths[i]
        nxt = (i + 1) % p
        for j in range(Li):
            for s in range(n_sym):
                st = (0, i, j, s)
                if st not in index:
                    continue
                if j < Li - 1:
                    for s2 in range(n_sym):
                        pr = mu.transition[s, s2]
                        if pr > 0:
                            set_p(st, (0, i, j + 1, s2), pr)
                else:
                    # deterministic glue to the next component's start
                    tgt = starts[nxt]
                    prev = st
                    for gpos, gs in enumerate(glue_words(sft, (s,), (tgt,))):
                        gst = (1, i, (j, gpos, s), gs)
                        set_p(prev, gst, 1.0)
                        prev = gst
                    set_p(prev, (0, nxt, 0, tgt), 1.0)
    n = len(states)
    P = np.zeros((n, n))
    for ia, row in trans.items():
        for ib, pr in row.items():
            P[ia, ib] = pr
    emit = np.array([st[3] for st in states])
    roofs = system.roof.array[emit]
    # the chain is periodic (deterministic position cycling), so the
    # stationary vector comes from a direct linear solve, not iteration
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:  # pragma: no cover
        pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    pi = np.maximum(pi, 0.0)
    pi = pi / pi.sum()
    chain = MarkovMeasure(P, pi, words=[(int(e),) for e in emit])
    return chain, emit, roofs
