"""Reference closed-orbit sums by explicit cycle enumeration: the oracle
for the lattice engine behind `weighted_orbit_measure` and the gurevic
pressure.  Exponential in the period; use it for short periods only."""

import math

import numpy as np

from thermoflow import WeakStarConfig
from thermoflow.sft import Sft, _primitive_root

from stats_reference import orbit_measure


def _min_rotation(word: tuple) -> tuple:
    """The lexicographically least rotation of `word`."""
    return min(word[i:] + word[:i] for i in range(len(word)))


def enumerate_primitive_cycles(sft: Sft, max_len: int):
    """All primitive cyclically-admissible words of length <= max_len, one
    representative per rotation class (the lexicographically minimal
    rotation).  Verifies internally that the number of n-periodic sequences
    matches trace(A^n)."""
    if max_len < 1:
        raise ValueError("max_len >= 1 required")
    n_sym = sft.n_symbols
    A = sft.transitions
    cycles = []

    def dfs(start, path):
        cur = path[-1]
        if len(path) <= max_len and sft.allowed(cur, start):
            word = tuple(path)
            # keep one representative per rotation class: the minimal
            # rotation must equal `word` itself, and `word` primitive.
            if word == _min_rotation(word) and _primitive_root(word) == word:
                cycles.append(word)
        if len(path) == max_len:
            return
        for s in range(start, n_sym):  # symbols < start can't be in a
            # cycle whose minimal rotation starts at `start`
            if sft.allowed(cur, s):
                path.append(s)
                dfs(start, path)
                path.pop()

    for start in range(n_sym):
        dfs(start, [start])

    # internal consistency: fixed points of sigma^n vs trace(A^n)
    by_len = {}
    for c in cycles:
        by_len.setdefault(len(c), []).append(c)
    M = np.eye(n_sym, dtype=object)
    Aobj = A.astype(object)
    for n in range(1, max_len + 1):
        M = M @ Aobj
        trace = int(np.trace(M))
        count = sum(
            d * len(by_len.get(d, ())) for d in range(1, n + 1) if n % d == 0
        )
        if count != trace:
            raise AssertionError(
                f"periodic point count mismatch at n={n}: {count} != {trace}"
            )
    cycles.sort(key=lambda w: (len(w), w))
    return cycles


def cycle_integral(system, phi, word) -> float:
    """Phi over one period of the closed orbit with cyclic word `word`."""
    n = len(word)
    return sum(phi.value(tuple(word[(k + j) % n] for j in range(phi.width)))
               * system.roof[word[k]] for k in range(n))


def primitive_orbits(system, t: float):
    """The primitive closed orbits of period <= t, as cyclic words."""
    max_len = int(math.floor(t / system.roof.min + 1e-9))
    return [c for c in enumerate_primitive_cycles(system.sft, max_len)
            if sum(system.roof[s] for s in c) <= t + 1e-12]


def reference_weighted_measure(system, phi, t: float,
                               cfg: WeakStarConfig = WeakStarConfig()):
    """(freqs, C(t), number of orbits) of the weighted orbit measure
    (1/C) sum_{gamma in Per(t)} e^{Phi(gamma)} mu_gamma, one orbit at a
    time, each orbit's windows counted by `stats_reference`."""
    orbits = primitive_orbits(system, t)
    wgts = [math.exp(cycle_integral(system, phi, c)) for c in orbits]
    C = sum(wgts)
    freqs = {k: {} for k in range(1, cfg.depth + 1)}
    for cyc, wgt in zip(orbits, wgts):
        m = orbit_measure(system, cyc, cfg)
        for k in freqs:
            for w, f in m.freqs[k].items():
                freqs[k][w] = freqs[k].get(w, 0.0) + wgt / C * f
    return freqs, C, len(orbits)
