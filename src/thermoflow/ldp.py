"""Weighted periodic-orbit equidistribution and large deviations.

Empirical measures are represented by their residence-time cylinder
frequencies up to a fixed depth plus a normalized-height histogram; the
weak* distance is the weighted sum of total-variation discrepancies of
those statistics.  The rate function q(eps) = P(phi) - sup{h + int phi :
|int psi - mean| >= eps} is computed both by a Legendre transform of the
pressure curve beta -> P(phi + beta psi) and by direct constrained
maximization over Markov kernels (grid scan + polish), and compared to
Monte Carlo deviation frequencies of Birkhoff averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .suspension import SuspPoint, Suspension, _residences
from .thermo import (CylinderPotential, MarkovMeasure, SuspendedMeasure,
                     birkhoff_cycle, combine_cylinder, entropy_and_mean,
                     equilibrium_state, pressure, zero_potential)

__all__ = [
    "WeakStarConfig",
    "EmpiricalMeasure",
    "orbit_measure",
    "empirical_measure",
    "weighted_orbit_measure",
    "measure_statistics",
    "weak_star_distance",
    "rate_function",
    "deviation_frequency",
    "DeviationResult",
]


@dataclass(frozen=True)
class WeakStarConfig:
    """Truncation defining the concrete weak* metric D."""

    depth: int = 6
    height_bins: int = 8

    def depth_weight(self, k: int) -> float:
        return 2.0 ** (-k)

    @property
    def height_weight(self) -> float:
        return 2.0 ** (-(self.depth + 1))


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

    def frequency(self, word) -> float:
        return self.freqs.get(len(word), {}).get(tuple(word), 0.0)

    def check_marginalization(self, tol: float = 1e-12) -> float:
        """Max discrepancy between each depth-k table and the left
        marginal of the depth-(k+1) table."""
        worst = 0.0
        for k in sorted(self.freqs):
            if k + 1 not in self.freqs:
                continue
            marg = {}
            for w, f in self.freqs[k + 1].items():
                marg[w[:-1]] = marg.get(w[:-1], 0.0) + f
            keys = set(marg) | set(self.freqs[k])
            for w in keys:
                worst = max(worst, abs(marg.get(w, 0.0)
                                       - self.freqs[k].get(w, 0.0)))
        return worst


def _window_statistics(system: Suspension, word, weights, heights_fn,
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


def orbit_measure(system: Suspension, cycle_word,
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


def empirical_measure(system: Suspension, x: SuspPoint, t: float,
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
    for k, lo, hi in _residences(symbol_at, roof, x.height, t):
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


def weighted_orbit_measure(system: Suspension, phi, t: float,
                           cfg: WeakStarConfig = WeakStarConfig(),
                           _orbits=None):
    """(1/C(t)) sum_{gamma in Per(t)} e^{Phi(gamma)} mu_gamma; returns
    (EmpiricalMeasure, C(t), number of orbits)."""
    from .sft import enumerate_primitive_cycles
    if _orbits is None:
        max_len = int(math.floor(t / system.roof.min + 1e-9))
        cycles = enumerate_primitive_cycles(system.sft, max_len)
        _orbits = [c for c in cycles
                   if sum(system.roof[s] for s in c) <= t + 1e-12]
    if not _orbits:
        raise ValueError("no closed orbits yet")
    freqs = {k: {} for k in range(1, cfg.depth + 1)}
    hist = np.zeros(cfg.height_bins)
    C = 0.0
    contribs = []
    for cyc in _orbits:
        wgt = math.exp(birkhoff_cycle(system, phi, cyc))
        C += wgt
        contribs.append((cyc, wgt))
    for cyc, wgt in contribs:
        m = orbit_measure(system, cyc, cfg)
        share = wgt / C
        for k in range(1, cfg.depth + 1):
            for w, f in m.freqs[k].items():
                freqs[k][w] = freqs[k].get(w, 0.0) + share * f
        hist += share * m.heights
    return (EmpiricalMeasure(freqs, hist, system.sft.n_symbols),
            C, len(contribs))


def measure_statistics(mu: SuspendedMeasure,
                       cfg: WeakStarConfig = WeakStarConfig()
                       ) -> EmpiricalMeasure:
    """Exact cylinder statistics of a suspended Markov measure: the
    residence frequency of a word w is nu(w) r(w_0) / mean_roof.

    Requires a width-1 base (states = symbols)."""
    if any(len(w) != 1 for w in mu.base.words):
        raise ValueError("measure_statistics needs a width-1 base measure")
    n = mu.base.n_states
    roofs = mu.state_roofs()
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


def weak_star_distance(a, b, cfg: WeakStarConfig = WeakStarConfig(),
                       system: Suspension = None) -> float:
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


# ----------------------------------------------------------------------
# rate function
# ----------------------------------------------------------------------


def _mean_of(system: Suspension, mu: SuspendedMeasure,
             psi: CylinderPotential) -> float:
    return entropy_and_mean(mu, psi)[1]


def rate_function(system: Suspension, phi, psi: CylinderPotential,
                  eps_grid, method: str = "legendre") -> dict:
    """q(eps) = P(phi) - sup{h_nu + int phi dnu : |int psi dnu - m| >= eps},
    m the equilibrium mean of psi; math.inf when the constraint set is
    empty."""
    if not isinstance(psi, CylinderPotential):
        raise ValueError("psi must be fiber-representable "
                         "(cylinder potential)")
    if phi is None:
        phi = zero_potential()
    P0 = pressure(system, phi, "spectral", tol=1e-12).value
    m_eq = equilibrium_state(system, phi)
    mbar = _mean_of(system, m_eq, psi)
    if method == "legendre":
        return _rate_legendre(system, phi, psi, eps_grid, P0, mbar)
    if method == "direct":
        return _rate_direct(system, phi, psi, eps_grid, P0, mbar)
    raise ValueError(f"unknown rate method {method!r}")


def _lambda_curve(system: Suspension, phi, psi, P0):
    """beta -> P(phi + beta psi) - P(phi)."""
    cache = {}

    def Lam(beta):
        if beta not in cache:
            comb = combine_cylinder(phi, psi, system.sft, cb=beta)
            cache[beta] = pressure(system, comb, "spectral",
                                   tol=1e-12).value - P0
        return cache[beta]

    return Lam


def _psi_range(system: Suspension, psi: CylinderPotential):
    """Achievable range of int psi dnu over invariant measures: extremes
    of the cycle averages (Birkhoff sums / periods) over short cycles plus
    the per-symbol rates; cheap outer bracket via per-state extremes."""
    from .sft import enumerate_primitive_cycles
    vals = []
    for cyc in enumerate_primitive_cycles(system.sft,
                                          min(6, system.sft.n_symbols + 2)):
        p = sum(system.roof[s] for s in cyc)
        vals.append(birkhoff_cycle(system, psi, cyc) / p)
    return min(vals), max(vals)


def _rate_legendre(system, phi, psi, eps_grid, P0, mbar) -> dict:
    from scipy.optimize import minimize_scalar
    Lam = _lambda_curve(system, phi, psi, P0)
    norm = max(abs(v) for v in psi.table.values()) or 1.0
    B = 20.0 / norm
    lo_u, hi_u = _psi_range(system, psi)

    def qtilde(u):
        if u < lo_u - 1e-12 or u > hi_u + 1e-12:
            return math.inf
        res = minimize_scalar(lambda b: -(b * u - Lam(b)),
                              bounds=(-B, B), method="bounded",
                              options={"xatol": 1e-10})
        return max(0.0, -res.fun)

    out = {}
    for eps in eps_grid:
        if eps == 0:
            out[eps] = 0.0
            continue
        out[eps] = min(qtilde(mbar + eps), qtilde(mbar - eps))
    return out


def _kernel_family(sft):
    """Free parameterization of Markov kernels on the SFT transitions:
    list of (state, successor list); rows with one successor are forced."""
    rows = []
    for i in range(sft.n_symbols):
        rows.append((i, sft.successors(i)))
    return rows


def _kernel_from_params(rows, n, params):
    P = np.zeros((n, n))
    k = 0
    for i, succ in rows:
        m = len(succ)
        if m == 1:
            P[i, succ[0]] = 1.0
            continue
        probs = params[k: k + m - 1]
        k += m - 1
        last = 1.0 - sum(probs)
        for s, p in zip(succ[:-1], probs):
            P[i, s] = p
        P[i, succ[-1]] = last
    return P


def _measure_objective(system, P, phi, psi):
    """(h + int phi, int psi) for the suspended Markov measure of P."""
    eps = 1e-12
    P = np.maximum(P, 0.0)
    P = P / P.sum(axis=1, keepdims=True)
    try:
        nu = MarkovMeasure(np.where(P < eps, 0.0, P) /
                           np.where(P < eps, 0.0, P).sum(
                               axis=1, keepdims=True))
    except Exception:
        return None
    mu = SuspendedMeasure(nu, system.roof)
    h, ip = entropy_and_mean(mu, phi)
    _, ips = entropy_and_mean(mu, psi)
    return h + ip, ips


def _rate_direct(system, phi, psi, eps_grid, P0, mbar,
                 step: float = 0.02) -> dict:
    """Brute maximization of h + int phi over Markov kernels on a simplex
    grid, subject to |int psi - mbar| >= eps, then a constrained polish
    on the active boundary."""
    if phi.width != 1 or psi.width != 1:
        raise ValueError("direct method supports width-1 potentials")
    sft = system.sft
    n = sft.n_symbols
    rows = _kernel_family(sft)
    free = [(i, succ) for i, succ in rows if len(succ) > 1]
    dims = sum(len(s) - 1 for _, s in free)
    if dims > 3:
        raise ValueError("direct method limited to <= 3 free kernel "
                         "parameters")

    def simplex_grid(m):
        if m == 1:
            ticks = np.arange(step, 1.0, step)
            return [(t,) for t in ticks]
        pts = []
        for t in np.arange(step, 1.0, step):
            for rest in simplex_grid(m - 1):
                if t + sum(rest) < 1.0 - step / 2:
                    pts.append((t,) + rest)
        return pts

    grids = [simplex_grid(len(succ) - 1) for _, succ in free]
    import itertools
    candidates = []
    for combo in itertools.product(*grids):
        params = [p for tup in combo for p in tup]
        P = _kernel_from_params(rows, n, params)
        res = _measure_objective(system, P, phi, psi)
        if res is not None:
            candidates.append((params, res))
    # deterministic vertex kernels reach the boundary of the achievable
    # psi-range (pinned frequencies), which the open grid misses
    for combo in itertools.product(*[range(len(s)) for _, s in free]):
        P = np.zeros((n, n))
        ptr = 0
        for i, succ in rows:
            if len(succ) == 1:
                P[i, succ[0]] = 1.0
            else:
                P[i, succ[combo[ptr]]] = 1.0
                ptr += 1
        res = _measure_objective(system, P, phi, psi)
        if res is not None:
            candidates.append((None, res))

    from scipy.optimize import minimize

    def polish(eps, sign, start):
        """maximize h + int phi subject to int psi = mbar + sign*eps."""
        target = mbar + sign * eps

        def neg(params):
            P = _kernel_from_params(rows, n, np.clip(params, 1e-9, 1-1e-9))
            r = _measure_objective(system, P, phi, psi)
            return math.inf if r is None else -r[0]

        def con(params):
            P = _kernel_from_params(rows, n, np.clip(params, 1e-9, 1-1e-9))
            r = _measure_objective(system, P, phi, psi)
            # one-sided: push int psi at least eps beyond the mean; the
            # concave objective makes the optimum sit on this boundary
            return -1.0 if r is None else sign * (r[1] - target)

        try:
            res = minimize(neg, np.array(start), method="SLSQP",
                           constraints=[{"type": "ineq", "fun": con}],
                           bounds=[(1e-9, 1 - 1e-9)] * dims,
                           options={"maxiter": 300, "ftol": 1e-12})
            if res.success:
                return -res.fun
        except Exception:
            pass
        return -math.inf

    out = {}
    for eps in eps_grid:
        if eps == 0:
            out[eps] = 0.0
            continue
        best = -math.inf
        best_params = None
        for params, (obj, mpsi) in candidates:
            if abs(mpsi - mbar) >= eps - 1e-12 and obj > best:
                best, best_params = obj, params
        # polish on each boundary from the best grid point (the optimum
        # of a concave objective over the two-sided constraint set lies
        # on one of the boundaries unless it is a vertex)
        for sign in (+1, -1):
            tgt = mbar + sign * eps
            lo_u, hi_u = _psi_range(system, psi)
            if tgt < lo_u - 1e-9 or tgt > hi_u + 1e-9:
                continue
            start = best_params if best_params is not None \
                else [1.0 / len(s) for _, s in free for _ in s[:-1]]
            best = max(best, polish(eps, sign, start))
        out[eps] = math.inf if best == -math.inf else max(0.0, P0 - best)
    return out


# ----------------------------------------------------------------------
# Monte Carlo deviations
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DeviationResult:
    frequency: float
    log_rate: float
    ci_low: float
    ci_high: float
    hits: int
    n_samples: int
    note: str = ""


def _sample_integrals(m: SuspendedMeasure, psi_v: np.ndarray, t: float,
                      length: int, n_samples: int, rng) -> np.ndarray:
    """int_0^t psi along n_samples stationary orbits of m, each started at
    a uniform height of its first fiber; width-1 psi with values psi_v.

    One pass over the fibers keeps running sums of the roof (cum) and of
    psi times the roof (psic); k counts the fibers that end before time t,
    and prev_cum, full hold cum and psic through the last of them."""
    roofs = m.state_roofs()
    start_w = m.base.stationary * roofs
    words = m.base.sample_words(n_samples, length, rng,
                                start_weights=start_w)
    h0 = rng.random(n_samples) * roofs[words[:, 0]]
    total = h0 + t
    cum = np.zeros(n_samples)
    psic = np.zeros(n_samples)
    prev_cum = np.zeros(n_samples)
    full = np.zeros(n_samples)
    k = np.zeros(n_samples, dtype=np.int64)
    for col in words.T:
        r = roofs[col]
        cum = cum + r
        psic = psic + psi_v[col] * r
        before = cum < total
        prev_cum = np.where(before, cum, prev_cum)
        full = np.where(before, psic, full)
        k += before
    first_partial = h0 * psi_v[words[:, 0]]
    last_partial = (total - prev_cum) * psi_v[words[np.arange(n_samples), k]]
    return full - first_partial + last_partial


def deviation_frequency(system: Suspension, m: SuspendedMeasure,
                        psi: CylinderPotential, eps: float, t: float,
                        n_samples: int, seed: int) -> DeviationResult:
    """Empirical P(|(1/t) int_0^t psi - mean| >= eps) under stationary
    sampling from m, with (1/t) log frequency and a 95% Clopper-Pearson
    interval mapped to log-rate units.

    The inequality is inclusive: an average exactly eps from the mean counts
    as a deviation.  For rational roofs and a cylinder psi the integral
    I = int_0^t psi has atoms of positive probability on that boundary, so
    the test is made in integral units with an explicit tolerance,
    |I - t mean| >= t eps - tol with tol = 1e-9 t max(1, max|psi|), and
    round-off in the cumulative sums cannot drop the boundary atoms."""
    if psi.width != 1:
        raise ValueError("deviation_frequency supports width-1 psi")
    if any(len(w) != 1 for w in m.base.words):
        raise ValueError("width-1 base measure required")
    rng = np.random.default_rng(seed)
    mbar = entropy_and_mean(m, psi)[1]
    psi_v = np.array([psi.value((s,)) for s in range(m.base.n_states)])
    length = int(math.ceil(t / system.roof.min)) + 2
    integral = _sample_integrals(m, psi_v, t, length, n_samples, rng)
    tol = 1e-9 * t * max(1.0, float(np.max(np.abs(psi_v))))
    hits = int(np.sum(np.abs(integral - t * mbar) >= t * eps - tol))
    from scipy.special import betaincinv  # the beta quantile
    alpha = 0.05
    if hits == 0:
        ci_hi_p = 1.0 - (alpha / 2) ** (1.0 / n_samples)
        return DeviationResult(0.0, -math.inf, -math.inf,
                               math.log(ci_hi_p) / t, 0, n_samples,
                               "zero hits: upper confidence bound only")
    freq = hits / n_samples
    lo_p = betaincinv(hits, n_samples - hits + 1, alpha / 2)
    hi_p = betaincinv(hits + 1, n_samples - hits, 1 - alpha / 2) \
        if hits < n_samples else 1.0
    note = "" if hits >= 10 else "insufficient resolution"
    return DeviationResult(freq, math.log(freq) / t,
                           math.log(lo_p) / t, math.log(hi_p) / t,
                           hits, n_samples, note)
