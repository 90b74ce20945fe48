"""Weighted periodic-orbit equidistribution and large deviations.

An empirical measure is one table of residence-time cylinder frequencies
(the words of a fixed depth as sorted int rows with their weights, every
shorter table a prefix marginal) plus a normalized-height histogram; the
weak* distance is the weighted sum of total-variation discrepancies over
all depths.  Orbit segments are cut into fiber pieces by the array walk
of `suspension` over rows of gathered window symbols, and the distances
of K measures to one target come from one signed pass with the member id
as first column.  The rate function q(eps) = P(phi) - sup{h + int phi :
|int psi - mean| >= eps} is computed both by a Legendre transform of the
pressure curve beta -> P(phi + beta psi) and by direct maximization over
Markov kernels (a simplex grid scored as one kernel stack, then a polish),
and compared to Monte Carlo deviation frequencies on step-major paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .sft import _words
from .suspension import Roof, SuspPoint, Suspension, _pieces, _row_integrals
from .thermo import (CylinderPotential, MarkovMeasure, SuspendedMeasure,
                     _orbit_sums, _prepare, _sample_orbits, combine_cylinder,
                     entropy_and_mean, equilibrium_state, pressure,
                     zero_potential)

__all__ = [
    "WeakStarConfig",
    "EmpiricalMeasure",
    "orbit_measure",
    "empirical_measure",
    "weighted_orbit_measure",
    "measure_statistics",
    "chain_statistics",
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
    """Residence-time statistics as one word table: the distinct words of
    length depth, as the rows of `words` in lexicographic order, with
    their frequencies `weights` (positive, summing to 1), plus a
    normalized-height histogram.  Every depth-k table, k < depth, is the
    prefix marginal of that table; `freqs` holds them all as a read-only
    view, {k: {word tuple: frequency}}, built on first read."""

    def __init__(self, words, weights, heights):
        words = np.asarray(words)
        order = np.lexsort(words.T[::-1])
        _, words, weights = next(_marginals(
            words[order], np.asarray(weights, dtype=float)[order]))
        keep = weights > 0
        self.words, self.weights = words[keep], weights[keep]
        self.words.setflags(write=False)
        self.weights.setflags(write=False)
        tot = self.weights.sum()
        if abs(tot - 1.0) > 1e-9:
            raise ValueError(f"frequencies sum to {tot}")
        h = np.asarray(heights, dtype=float)
        self.heights = h / h.sum() if h.sum() > 0 else h

    @cached_property
    def freqs(self):
        return MappingProxyType({
            k: MappingProxyType(dict(zip(map(tuple, w.tolist()),
                                         f.tolist())))
            for k, w, f in _marginals(self.words, self.weights)})

    def frequency(self, word) -> float:
        return self.freqs.get(len(word), {}).get(tuple(word), 0.0)


def _first_difference(words: np.ndarray) -> np.ndarray:
    """first[i]: the first column where row i of a sorted table differs
    from row i - 1, the width when the two are equal, and 0 for row 0; the
    groups of rows with equal k-prefixes start where first < k."""
    d = np.ones((len(words), words.shape[1] + 1), dtype=bool)
    np.not_equal(words[1:], words[:-1], out=d[1:, :-1])
    return d.argmax(axis=1)


def _marginals(words: np.ndarray, weights: np.ndarray):
    """(k, k-words, summed weights) for k = depth, ..., 1 of a table whose
    rows are sorted (repeats allowed): each table reduced from the one
    before it by summing the rows with equal k-prefixes, which are
    adjacent."""
    first = _first_difference(words)
    for k in range(words.shape[1], 0, -1):
        starts = np.flatnonzero(first < k)
        words, weights = words[starts, :k], np.add.reduceat(weights, starts)
        first = first[starts]
        yield k, words, weights


def orbit_measure(system: Suspension, cycle_word,
                  cfg: WeakStarConfig = WeakStarConfig()) -> EmpiricalMeasure:
    """mu_gamma: exact residence-time statistics of a closed orbit; within
    each fiber the normalized height is uniform."""
    w = np.array(cycle_word)
    weights = system.roof.array[w]
    ext = np.tile(w, 1 + (cfg.depth + len(w) - 1) // len(w))
    hist = np.full(cfg.height_bins, 1.0 / cfg.height_bins)
    return EmpiricalMeasure(sliding_window_view(ext, cfg.depth)[:len(w)],
                            weights / weights.sum(), hist)


def _histograms(fibers: np.ndarray, roof: Roof, h, t, bins: int):
    """The fiber pieces (K, n) of `suspension._pieces` and the height
    histograms (K, bins) of K segments from height h of fiber 0.  Only the
    first and the last piece are partial fibers, so a histogram is the
    whole time spread evenly plus the overlaps of those two with the
    bins."""
    pieces, k = _pieces(fibers, roof, h, t)
    rows = np.arange(len(k))
    lengths = roof.array.take(fibers)
    whole_time = np.where(np.arange(1, fibers.shape[1]) < k[:, None],
                          pieces[:, 1:], 0.0).sum(axis=1)
    # time spent below each bin edge in the first and the last piece
    edges = np.arange(bins + 1) / bins
    below = np.minimum(np.maximum(edges * lengths[:, :1] - float(h), 0.0),
                       pieces[:, :1]) \
        + np.minimum(edges * lengths[rows, k][:, None],
                     (pieces[rows, k] * (k > 0))[:, None])
    return pieces, below[:, 1:] - below[:, :-1] + whole_time[:, None] / bins


def empirical_measure(system: Suspension, x: SuspPoint, t: float,
                      cfg: WeakStarConfig = WeakStarConfig()
                      ) -> EmpiricalMeasure:
    """E_t(x): exact residence statistics of the orbit segment (x, t)."""
    if t <= 0:
        raise ValueError("t > 0 required")
    n = int(float(x.height + t) / system.roof.min) + 2  # fibers it meets
    word = np.array(x.base.window(0, n + cfg.depth - 1))
    pieces, hist = _histograms(word[None, :n], system.roof, x.height, t,
                               cfg.height_bins)
    weights = pieces[0, :np.count_nonzero(pieces[0])]
    return EmpiricalMeasure(
        sliding_window_view(word, cfg.depth)[:len(weights)],
        weights / weights.sum(), hist[0])


def _segment_distances(system: Suspension, words, starts, t,
                       b: EmpiricalMeasure, cfg: WeakStarConfig
                       ) -> np.ndarray:
    """D(E_t(x_i), b) for the periodic points x_i of the cyclic words[i]
    flowed to the floor of fiber starts[i], for time t (one t, or one per
    row): windows gathered by np.take(..., mode="wrap"), one walk from
    height 0, one signed pass."""
    n = int(max(np.atleast_1d(t)) / system.roof.min) + 2
    cols = np.arange(n + cfg.depth - 1)
    windows = np.stack([np.take(w, s + cols, mode="wrap")
                        for w, s in zip(words, starts)])
    pieces, hist = _histograms(windows[:, :n], system.roof, 0.0, t,
                               cfg.height_bins)
    return _distances(sliding_window_view(windows, cfg.depth, axis=1),
                      pieces / pieces.sum(axis=1, keepdims=True),
                      hist / hist.sum(axis=1, keepdims=True), b, cfg)


def weighted_orbit_measure(system: Suspension, phi, t: float,
                           cfg: WeakStarConfig = WeakStarConfig()):
    """(1/C(t)) sum_{gamma in Per(t)} e^{Phi(gamma)} mu_gamma; returns
    (EmpiricalMeasure, C(t), number of orbits).

    Per(t) holds the primitive closed orbits of period <= t.  The sums are
    exact transfer-matrix traces on the roof lattice (`thermo._orbit_sums`),
    so the roof values must be rational."""
    _, counts, _, words, weights = _orbit_sums(system, phi, t, cfg.depth)
    if not counts.any():
        raise ValueError("no closed orbits yet")
    C = float(weights.sum())
    hist = np.full(cfg.height_bins, 1.0 / cfg.height_bins)
    return (EmpiricalMeasure(words[:, :cfg.depth], weights / C, hist), C,
            int(counts.sum()))


def chain_statistics(chain: MarkovMeasure, roofs: np.ndarray,
                     cfg: WeakStarConfig = WeakStarConfig()
                     ) -> EmpiricalMeasure:
    """Exact residence statistics of a (hidden) Markov chain whose state i
    lasts roofs[i] and shows the symbol chain.words[i][0]: a state path p
    carries nu(p) r(p_0) / mean roof, nu(p) = pi(p_0) P(p_0, p_1) ...,
    summed over the paths that show the same word."""
    P = chain.transition
    paths = _words(P > 0, cfg.depth)
    prob = chain.stationary[paths[:, 0]]
    for a, b in zip(paths.T[:-1], paths.T[1:]):
        prob = prob * P[a, b]
    mean_roof = float(np.dot(chain.stationary, roofs))
    emit = np.array([w[0] for w in chain.words])
    hist = np.full(cfg.height_bins, 1.0 / cfg.height_bins)
    return EmpiricalMeasure(emit[paths], prob * roofs[paths[:, 0]] / mean_roof,
                            hist)


def measure_statistics(mu: SuspendedMeasure,
                       cfg: WeakStarConfig = WeakStarConfig()
                       ) -> EmpiricalMeasure:
    """Exact cylinder statistics of a suspended Markov measure: the
    residence frequency of a word w is nu(w) r(w_0) / mean_roof.

    The base may be a w-block measure (`thermo.block_recode`): its state
    x_k ... x_{k+w-1} sits over fiber k, so it shows x_k and lasts r(x_k)."""
    return chain_statistics(mu.base, mu.roof.array, cfg)


def weak_star_distance(a, b, cfg: WeakStarConfig = WeakStarConfig()
                       ) -> float:
    """D(a, b) = sum_k 2^-k sum_{|w|=k} |freq_a(w) - freq_b(w)|
    + 2^-(depth+1) * sum_bins |height histogram difference|."""
    if isinstance(a, SuspendedMeasure):
        a = measure_statistics(a, cfg)
    if isinstance(b, SuspendedMeasure):
        b = measure_statistics(b, cfg)
    if a.words.shape[1] != b.words.shape[1]:
        raise ValueError("depth mismatch between empirical measures")
    if len(a.heights) != len(b.heights):
        raise ValueError("height-bin mismatch")
    return float(_distances(a.words[None], a.weights[None],
                            a.heights[None], b, cfg)[0])


def _distances(words, weights, heights, b: EmpiricalMeasure,
               cfg: WeakStarConfig) -> np.ndarray:
    """D(a_i, b) for K measures a_i given as word rows words[i] (n, depth),
    frequencies weights[i] (zero on unused rows) and histograms
    heights[i].  One signed pass over a table whose first column is the
    member id: the rows of each a_i with sign +, those of b tiled once per
    member with sign -.  Sorted, the rows with equal (id, k-word) sum to
    freq_a_i - freq_b; one reduceat gives them for every k, and
    np.bincount sums each member's weighted |differences|."""
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
    # row i of depth k starts a group when first[i] < k + 1; every depth
    # starts at row 0, so no group runs across two depths
    starts = np.flatnonzero(_first_difference(table)
                            <= np.arange(1, depth + 1)[:, None])
    level, row = np.divmod(starts, len(table))
    diff = np.add.reduceat(np.tile(signed, depth), starts)
    wk = np.array([cfg.depth_weight(k) for k in range(1, depth + 1)])
    return np.bincount(table[row, 0], wk[level] * np.abs(diff),
                       minlength=K) \
        + cfg.height_weight * np.abs(heights - b.heights).sum(axis=1)


# ----------------------------------------------------------------------
# rate function
# ----------------------------------------------------------------------


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
    mbar = entropy_and_mean(m_eq, psi)[1]
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
    """Achievable range of int psi dnu over invariant measures: the least
    and greatest cycle average psihat(c) / r(c) over closed orbits c, on
    the SFT recoded to psi's width."""
    sft_w, roof_w, _, psihat = _prepare(system, psi)
    A, r = sft_w.transitions, roof_w.array
    return (-_max_cycle_ratio(A, -psihat, r), _max_cycle_ratio(A, psihat, r))


def _max_cycle_ratio(A: np.ndarray, num: np.ndarray,
                     den: np.ndarray) -> float:
    """max over cycles c of num(c) / den(c), den > 0, by Dinkelbach's
    parametric search: while some cycle has sum(num - lam den) > 0, the
    ratio of the cycle of best mean weight is the next lam.  Best-mean
    cycles come from max-plus powers (walks of up to n edges) of the
    entering-edge weights, with argmax predecessors kept."""
    lam = float(np.min(num / den))  # no cycle ratio lies below it
    while True:
        w = np.where(A, (num - lam * den)[None, :], -np.inf)
        walks, preds = [w], []
        for _ in range(len(num) - 1):
            cand = walks[-1][:, :, None] + w[None]
            preds.append(cand.argmax(axis=1))
            walks.append(cand.max(axis=1))
        means = [np.diag(Pk) / (k + 1) for k, Pk in enumerate(walks)]
        k, i = np.unravel_index(np.argmax(means), (len(means), len(num)))
        walk = [i]
        for pred in reversed(preds[:k]):
            walk.append(pred[i, walk[-1]])
        ratio = float(num[walk].sum() / den[walk].sum())
        if not ratio > lam:
            return lam
        lam = ratio


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


def _kernel_stack(rows, params: np.ndarray) -> np.ndarray:
    """(K, n, n) Markov kernels from (K, dims) parameters: a state with m
    successors gives the next m - 1 parameters to its first m - 1 and the
    rest to its last successor (one successor: forced)."""
    P = np.zeros((len(params), len(rows), len(rows)))
    k = 0
    for i, succ in rows:
        probs = params[:, k: k + len(succ) - 1]
        k += len(succ) - 1
        P[:, i, succ[:-1]] = probs
        P[:, i, succ[-1]] = 1.0 - probs.sum(axis=1)
    return P


def _product(blocks) -> np.ndarray:
    """Rows of the Cartesian product of the row sets in blocks, the first
    block varying slowest (the order of itertools.product)."""
    out = np.zeros((1, 0))
    for B in blocks:
        out = np.hstack([np.repeat(out, len(B), axis=0),
                         np.tile(B, (len(out), 1))])
    return out


# spacing of the simplex grid that the direct rate method scores
_GRID_STEP = 0.02


def _kernel_grid(free, step: float):
    """(params, n_grid): parameter rows of the simplex grid over the free
    kernel rows `free` (successor lists), then of the vertex kernels."""
    def simplex_grid(m):
        ticks = np.arange(step, 1.0, step)[:, None]
        if m == 1:
            return ticks
        pts = _product([ticks, simplex_grid(m - 1)])
        return pts[pts[:, 0] + pts[:, 1:].sum(axis=1) < 1.0 - step / 2]

    grid = _product([simplex_grid(len(s) - 1) for s in free])
    # deterministic kernels reach the boundary of the psi-range, which the
    # open grid misses; picking a row's last successor sets its params 0
    vertices = _product([np.eye(len(s))[:, :-1] for s in free])
    return np.vstack([grid, vertices]), len(grid)


def _objective(P: np.ndarray, roofs, phi_v, psi_v):
    """(h + int phi, int psi, ok) for the suspended Markov measures of a
    (K, n, n) kernel stack; phi and psi are width-1 with values phi_v,
    psi_v.  Each kernel is clipped at 0 and renormalized, and again after
    entries below 1e-12 are zeroed.  pi is the min-norm least-squares
    solution of pi (P - I) = 0, sum pi = 1, so (1/2, 1/2) on the identity
    kernel.  ok: rows sum to 1 and pi P = pi, both within 1e-9."""
    P = np.maximum(P, 0.0)
    P = P / P.sum(axis=2, keepdims=True)
    P = np.where(P < 1e-12, 0.0, P)
    P = P / P.sum(axis=2, keepdims=True)
    rs = P.sum(axis=2)
    P = P / rs[..., None]
    n = P.shape[1]
    A = np.concatenate([P.transpose(0, 2, 1) - np.eye(n),
                        np.ones_like(P[:, :1])], axis=1)
    pi = np.linalg.pinv(A, rcond=np.finfo(float).eps * (n + 1))[:, :, -1]
    pi = np.maximum(pi, 0.0)
    pi = pi / pi.sum(axis=1, keepdims=True)
    pi = pi / pi.sum(axis=1, keepdims=True)
    err = np.abs((pi[:, None] @ P)[:, 0] - pi).max(axis=1)
    ok = (np.abs(rs - 1.0) <= 1e-9).all(axis=1) & (err <= 1e-9)
    H = -(pi[:, :, None] * P * np.log(np.where(P > 0, P, 1.0))).sum(
        axis=(1, 2))
    mean_roof, mphi, mpsi = (pi @ np.stack(
        [roofs, phi_v * roofs, psi_v * roofs], axis=1)).T
    return H / mean_roof + mphi / mean_roof, mpsi / mean_roof, ok


def _rate_direct(system, phi, psi, eps_grid, P0, mbar) -> dict:
    """Brute maximization of h + int phi over Markov kernels on a simplex
    grid, subject to |int psi - mbar| >= eps, then a constrained polish
    on the active boundary.  The grid and the deterministic vertex kernels
    are scored as one kernel stack."""
    if phi.width != 1 or psi.width != 1:
        raise ValueError("direct method supports width-1 potentials")
    n = system.sft.n_symbols
    rows = [(i, system.sft.successors(i)) for i in range(n)]
    free = [succ for _, succ in rows if len(succ) > 1]
    dims = sum(len(s) - 1 for s in free)
    if dims > 3:
        raise ValueError("direct method limited to <= 3 free kernel "
                         "parameters")
    roofs = system.roof.array
    phi_v, psi_v = (np.array([f.value((s,)) for s in range(n)])
                    for f in (phi, psi))
    params, n_grid = _kernel_grid(free, _GRID_STEP)
    obj, mpsi, ok = _objective(_kernel_stack(rows, params), roofs, phi_v,
                               psi_v)

    from scipy.optimize import minimize

    def polish(eps, sign, start):
        """maximize h + int phi subject to int psi = mbar + sign*eps."""
        target = mbar + sign * eps
        last = {}  # SLSQP asks neg and con at the same points

        def evaluate(x):
            if x.tobytes() not in last:
                P = _kernel_stack(rows, np.clip(x, 1e-9, 1 - 1e-9)[None])
                (o,), (m,), (good,) = _objective(P, roofs, phi_v, psi_v)
                last.clear()
                last[x.tobytes()] = float(o), float(m), bool(good)
            return last[x.tobytes()]

        def neg(x):
            o, _, good = evaluate(x)
            return -o if good else math.inf

        def con(x):
            _, m, good = evaluate(x)
            # one-sided: push int psi at least eps beyond the mean; the
            # concave objective makes the optimum sit on this boundary
            return sign * (m - target) if good else -1.0

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

    lo_u, hi_u = _psi_range(system, psi)
    out = {}
    for eps in eps_grid:
        if eps == 0:
            out[eps] = 0.0
            continue
        feasible = ok & (np.abs(mpsi - mbar) >= eps - 1e-12)
        i = int(np.argmax(np.where(feasible, obj, -math.inf)))
        best = float(obj[i]) if feasible[i] else -math.inf
        # polish on each boundary from the best grid point (the optimum
        # of a concave objective over the two-sided constraint set lies
        # on one of the boundaries unless it is a vertex)
        for sign in (+1, -1):
            tgt = mbar + sign * eps
            if tgt < lo_u - 1e-9 or tgt > hi_u + 1e-9:
                continue
            start = params[i] if feasible[i] and i < n_grid \
                else [1.0 / len(s) for s in free for _ in s[:-1]]
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
    psi_v = np.array([psi.value(w) for w in m.base.words])
    length = int(math.ceil(t / system.roof.min)) + 2
    words, h0 = _sample_orbits(m, n_samples, length, rng)
    integral, _ = _row_integrals(words, psi_v, m.roof, h0, t)
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
