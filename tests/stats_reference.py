"""Reference cylinder statistics kept as dicts of word tuples: the oracle
for the one sorted word table of `thermoflow.ldp.EmpiricalMeasure`.

Each depth-k table is built on its own, one window, word or state vector
at a time: residence windows of orbit segments, probability products of a
suspended Markov measure, transfer-operator layers of an emission chain,
a dict merge for a mixture, and a weak* distance summed over the union of
the two key sets.  It is slow but each table is written out directly, so
the tests compare every producer and every weak* distance against it.
The per-state fiber integrals and the masked-log kernel entropy are the
oracles of the flow mean and entropy that `thermo` reads off its state
path table.
`weighted_orbit_measure` has its own oracle in `cycle_reference.py`, which
sums `orbit_measure` from here over explicitly enumerated cycles.
"""

from __future__ import annotations

import numpy as np

from thermoflow import SuspendedMeasure, WeakStarConfig
import kernel_reference


def locate(symbol_at, lengths, h, k=0):
    """The scalar fiber walk with exact compares: (k', h') with
    0 <= h' < lengths[symbol_at(k')] for the point at height h above the
    floor of fiber k; a height equal to a fiber's length belongs to the
    next fiber.  The oracle of `suspension._locate`, which compares floats
    first."""
    while h < 0:
        k -= 1
        h += lengths[symbol_at(k)]
    r = lengths[symbol_at(k)]
    while h >= r:
        h -= r
        k += 1
        r = lengths[symbol_at(k)]
    return k, h


def residences(symbol_at, lengths, h, t, k=0):
    """The positive-length pieces (k, lo, hi) of the orbit segment of
    duration t >= 0 from height h of fiber k: fiber k is occupied at
    heights [lo, hi), for hi - lo time units.  The oracle of the array
    walk `suspension._pieces`."""
    k_end, h_end = locate(symbol_at, lengths, h + t, k)
    for j in range(k, k_end):
        yield j, h, lengths[symbol_at(j)]
        h = 0
    if h_end > h:
        yield k_end, h, h_end


class EmpiricalMeasure:
    """Residence-time statistics: cylinder frequencies per depth plus a
    normalized-height histogram; depth-k tables marginalize consistently."""

    def __init__(self, freqs, heights, n_symbols: int):
        # freqs: {depth: {word tuple: frequency}}
        self.freqs = {k: dict(v) for k, v in freqs.items()}
        h = np.asarray(heights, dtype=float)
        self.heights = h / h.sum() if h.sum() > 0 else h
        self.n_symbols = n_symbols
        for k, table in self.freqs.items():
            tot = sum(table.values())
            if abs(tot - 1.0) > 1e-9:
                raise ValueError(f"depth-{k} frequencies sum to {tot}")


def _window_statistics(system, word, weights, heights_fn,
                       cfg: WeakStarConfig) -> EmpiricalMeasure:
    """Shared kernel: word[i] visited with residence weight weights[i];
    the depth-k window starting at i is word[i:i+k] (callers must supply
    enough trailing symbols)."""
    n = len(weights)
    total = float(sum(weights))
    freqs = {k: {} for k in range(1, cfg.depth + 1)}
    for i in range(n):
        wgt = weights[i] / total
        for k in range(1, cfg.depth + 1):
            w = tuple(word[i: i + k])
            freqs[k][w] = freqs[k].get(w, 0.0) + wgt
    return EmpiricalMeasure(freqs, heights_fn(), system.sft.n_symbols)


def orbit_measure(system, cycle_word,
                  cfg: WeakStarConfig = WeakStarConfig()) -> EmpiricalMeasure:
    """mu_gamma: exact residence-time statistics of a closed orbit."""
    w = tuple(cycle_word)
    n = len(w)
    ext = w * (1 + (cfg.depth + n - 1) // n)
    weights = [system.roof[s] for s in w]

    def heights():
        # within each fiber the normalized height is uniform
        return np.full(cfg.height_bins, 1.0 / cfg.height_bins)

    return _window_statistics(system, ext, weights, heights, cfg)


def empirical_measure(system, x, t: float,
                      cfg: WeakStarConfig = WeakStarConfig()
                      ) -> EmpiricalMeasure:
    """E_t(x): exact residence statistics of the orbit segment (x, t)."""
    if t <= 0:
        raise ValueError("t > 0 required")
    symbol_at = x.base.symbol_at
    roof = system.roof.values
    bins = cfg.height_bins
    weights = []
    hist = np.zeros(bins)
    whole = 0.0  # time spent in whole fibers, spread evenly over the bins
    for k, lo, hi in residences(symbol_at, roof, x.height, t):
        weights.append(hi - lo)
        r = roof[symbol_at(k)]
        if lo == 0 and hi == r:
            whole += r
            continue
        # normalized height sweeps [lo/r, hi/r)
        for b in range(bins):
            blo, bhi = b / bins, (b + 1) / bins
            hist[b] += max(0.0, min(hi / r, bhi) - max(lo / r, blo)) * r
    hist += whole / bins
    word = x.base.window(0, len(weights) + cfg.depth)

    return _window_statistics(system, word, weights, lambda: hist, cfg)


def measure_statistics(mu: SuspendedMeasure,
                       cfg: WeakStarConfig = WeakStarConfig()
                       ) -> EmpiricalMeasure:
    """Exact cylinder statistics of a suspended Markov measure: the
    residence frequency of a word w is nu(w) r(w_0) / mean_roof.

    Requires a width-1 base (states = symbols)."""
    if any(len(w) != 1 for w in mu.base.words):
        raise ValueError("measure_statistics needs a width-1 base measure")
    n = mu.base.n_states
    roofs = mu.roof.array
    freqs = {}
    words = [((s,), mu.base.stationary[s]) for s in range(n)]
    for k in range(1, cfg.depth + 1):
        freqs[k] = {w: p * roofs[w[0]] / mu.mean_roof
                    for w, p in words if p > 0}
        words = [(w + (s,), p * mu.base.transition[w[-1], s])
                 for w, p in words for s in range(n)
                 if mu.base.transition[w[-1], s] > 0]
    hist = np.full(cfg.height_bins, 1.0 / cfg.height_bins)
    return EmpiricalMeasure(freqs, hist, n)


def mixture_statistics(target, roof,
                       cfg: WeakStarConfig = WeakStarConfig()
                       ) -> EmpiricalMeasure:
    """Statistics of lambda = sum a_i mu_i at the flow level (time-average
    mixture weights are the a_i)."""
    stats = [(a, measure_statistics(SuspendedMeasure(m, roof), cfg))
             for m, a in target.components]
    freqs = {k: {} for k in range(1, cfg.depth + 1)}
    hist = None
    for a, st in stats:
        for k in freqs:
            for w, f in st.freqs[k].items():
                freqs[k][w] = freqs[k].get(w, 0.0) + a * f
        hist = a * st.heights if hist is None else hist + a * st.heights
    n_sym = stats[0][1].n_symbols
    return EmpiricalMeasure(freqs, hist, n_sym)


def chain_statistics(chain, roofs: np.ndarray,
                     cfg: WeakStarConfig = WeakStarConfig()
                     ) -> EmpiricalMeasure:
    """Residence-weighted symbol-word frequencies of a hidden-Markov
    emission chain (exact transfer-operator computation)."""
    P = chain.transition
    pi = chain.stationary
    emit = np.array([w[0] for w in chain.words])
    mean_roof = float(np.dot(pi, roofs))
    n_sym = int(emit.max()) + 1
    freqs = {}
    # vectors nu_w over states: probability of seeing word w starting in
    # each state, weighted by pi * roof at the first state
    base = {(): pi * roofs / mean_roof}
    for k in range(1, cfg.depth + 1):
        layer = {}
        for w, vec in base.items():
            for s in range(n_sym):
                mask = (emit == s).astype(float)
                if len(w) == 0:
                    nv = vec * mask
                else:
                    nv = (vec @ P) * mask
                if nv.sum() > 1e-300:
                    layer[w + (s,)] = nv
        freqs[k] = {w: float(v.sum()) for w, v in layer.items()}
        base = layer
    hist = np.full(cfg.height_bins, 1.0 / cfg.height_bins)
    return EmpiricalMeasure(freqs, hist, n_sym)


def phihat_on_states(mu, phi):
    """Fiber integrals of phi on the measure's state alphabet.  When the
    potential needs more symbols than the state words provide, average over
    the state paths that continue them, weighted by the kernel; a state
    shows the last symbol of its word."""
    words = mu.base.words
    more = phi.width - min(map(len, words))
    P = mu.base.transition
    paths = kernel_reference.words(P > 0, more + 1)
    prob = np.prod(P[paths[:, :-1], paths[:, 1:]], axis=1)
    vals = [phi.value(words[p[0]] + tuple(words[j][-1] for j in p[1:]))
            for p in paths.tolist()]
    return np.bincount(paths[:, 0], prob * vals,
                       len(words)) * mu.roof.array


def flow_mean(mu, phi) -> float:
    """int phi dmu as the stationary average of the per-state fiber
    integrals over the mean roof."""
    return float(np.dot(mu.base.stationary,
                        phihat_on_states(mu, phi))) / mu.mean_roof


def markov_entropy(chain) -> float:
    """-sum pi_a P_ab log P_ab over the whole kernel, log 0 masked to 0."""
    P = chain.transition
    pi = chain.stationary
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = np.where(P > 0, np.log(np.where(P > 0, P, 1.0)), 0.0)
    return float(-(pi[:, None] * P * lp).sum())


def weak_star_distance(a, b, cfg: WeakStarConfig = WeakStarConfig(),
                       system=None) -> float:
    """D(a, b) = sum_k 2^-k sum_{|w|=k} |freq_a(w) - freq_b(w)|
    + 2^-(depth+1) * sum_bins |height histogram difference|."""
    if isinstance(a, SuspendedMeasure):
        a = measure_statistics(a, cfg)
    if isinstance(b, SuspendedMeasure):
        b = measure_statistics(b, cfg)
    if set(a.freqs) != set(b.freqs):
        raise ValueError("depth mismatch between empirical measures")
    total = 0.0
    for k in a.freqs:
        keys = set(a.freqs[k]) | set(b.freqs[k])
        total += cfg.depth_weight(k) * sum(
            abs(a.freqs[k].get(w, 0.0) - b.freqs[k].get(w, 0.0))
            for w in keys)
    if len(a.heights) != len(b.heights):
        raise ValueError("height-bin mismatch")
    total += cfg.height_weight * float(np.abs(a.heights - b.heights).sum())
    return total
