"""Reference orbit integrals for `thermo.birkhoff` and
`thermo.gibbs_ratio_stats`.

Scalar and written one fiber at a time: a cylinder potential is integrated
piece by piece over the exact fiber walk `stats_reference.residences`, and
the Gibbs ratios rebuild a periodic point for every sampled path and
integrate it on its own.  The library runs one array walk over all rows
in float arithmetic and sums the log-transitions cumulatively, so the
tests compare the two within a tolerance.
"""

import math

import numpy as np

from stats_reference import residences
from thermoflow.sft import BiWord, _close_word
from thermoflow.suspension import OrbitSegment, SuspPoint
from thermoflow.thermo import _forced_depth, pressure


def birkhoff(system, phi, seg) -> float:
    """Phi(x, t) for a cylinder potential, one residence piece at a time."""
    base = seg.start.base
    total = 0.0
    for k, lo, hi in residences(base.symbol_at, system.roof.values,
                                seg.start.height, seg.duration):
        total += (hi - lo) * phi.value(base.window(k, k + phi.width))
    return total


def gibbs_ratio_stats(system, mu, phi, rho, t_grid, samples, seed) -> dict:
    """The Gibbs ratio table, one sampled point at a time, from the same
    draws as the library."""
    P_val = pressure(system, phi, "spectral").value
    rng = np.random.default_rng(seed)
    k_rho = _forced_depth(rho)
    length = int(math.ceil(max(t_grid) / system.roof.min)) + k_rho + 3
    roofs = mu.roof.array
    us = rng.random(samples)
    paths = mu.base.sample_words(samples, length, rng,
                                 start_weights=mu.base.stationary * roofs)
    ratios = {t: [] for t in t_grid}
    logpi = np.log(mu.base.stationary)
    with np.errstate(divide="ignore"):
        logP = np.where(mu.base.transition > 0,
                        np.log(np.where(mu.base.transition > 0,
                                        mu.base.transition, 1.0)),
                        -np.inf)
    for s in range(samples):
        word = paths[s]
        u = us[s]
        r0 = roofs[word[0]]
        h = u * r0
        cum = np.cumsum(roofs[word])
        start = SuspPoint(
            BiWord.periodic(_close_word(system.sft, word.tolist())), float(h))
        for t in t_grid:
            # c(t): index of the fiber occupied at time t
            c = int(np.searchsorted(cum, h + t, side="right"))
            depth = c + k_rho
            lw = logpi[word[0]] + logP[word[:depth], word[1:depth + 1]].sum()
            win = (min(1.0, u + rho) - max(0.0, u - rho)) * r0
            ball = math.exp(lw) * win / mu.mean_roof
            Phi = birkhoff(system, phi, OrbitSegment(start, float(t)))
            ratios[t].append(ball / math.exp(-t * P_val + Phi))
    table = {t: (min(v), max(v)) for t, v in ratios.items()}
    allv = [x for v in ratios.values() for x in v]
    return {"min_ratio": min(allv), "max_ratio": max(allv),
            "per_t": table}
