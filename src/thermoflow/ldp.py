"""Weighted periodic-orbit equidistribution and large deviations.

An empirical measure is one table of residence-time cylinder frequencies
(the words of a fixed depth as sorted int rows with their weights, every
shorter table a prefix marginal) plus a normalized-height histogram; the
weak* distance is the weighted sum of total-variation discrepancies over
all depths.  Orbit segments are cut into fiber pieces by the array walk
of `suspension` over rows of gathered window symbols, and the distances
of K measures to one target come from one signed pass over one int64 key
per row, the member id and then the word in base largest symbol + 1.
The rate function q(eps) = P(phi) - sup{h + int phi : |int psi - mean|
>= eps} is computed both by a Legendre transform of the pressure curve
beta -> P(phi + beta psi) and by direct maximization over edge measures
(one Newton solve of a concave program), and compared to
Monte Carlo deviation frequencies on step-major paths, whose
Clopper-Pearson bounds come from an in-house incomplete beta function.
The module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .sft import _shortest_paths
from .suspension import (Roof, SuspPoint, Suspension, _column_integrals,
                         _pieces)
from .thermo import (CylinderPotential, NonConvergenceError, SuspendedMeasure,
                     _bracketed_root, _check_spectral, _check_support,
                     _gibbs_data, _orbit_sums, _prepare, _sample_orbits,
                     _spectral_root, _state_paths, _stationary_vector,
                     block_recode, entropy_and_mean, zero_potential)

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
    if not 0 < t < math.inf:
        raise ValueError(f"t must be finite and positive, got {t}")
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
    row): windows gathered by one index into the concatenated words, one
    walk from height 0, one signed pass."""
    n = int(max(np.atleast_1d(t)) / system.roof.min) + 2
    length = np.array([len(w) for w in words])[:, None]
    cols = np.add.outer(starts, np.arange(n + cfg.depth - 1)) % length
    windows = np.concatenate(words)[cols + np.cumsum(length)[:, None] - length]
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
    if not 0 < t < math.inf:
        raise ValueError(f"t must be finite and positive, got {t}")
    _, counts, _, words, weights = _orbit_sums(system, phi, t, cfg.depth)
    if not counts.any():
        raise ValueError("no closed orbits yet")
    C = float(weights.sum())
    hist = np.full(cfg.height_bins, 1.0 / cfg.height_bins)
    return (EmpiricalMeasure(words[:, :cfg.depth], weights / C, hist), C,
            int(counts.sum()))


def measure_statistics(mu: SuspendedMeasure,
                       cfg: WeakStarConfig = WeakStarConfig()
                       ) -> EmpiricalMeasure:
    """Exact cylinder statistics of a suspended Markov measure: a state
    path p (`thermo._state_paths`) shows the first symbol of each state's
    word and carries nu(p) r(p_0) / mean_roof; paths showing one word add.

    The base may be a w-block measure (`thermo.block_recode`): its state
    x_k ... x_{k+w-1} sits over fiber k, so it shows x_k and lasts r(x_k)."""
    paths, nu = _state_paths(mu.base, cfg.depth)
    emit = np.array([w[0] for w in mu.base.words])
    hist = np.full(cfg.height_bins, 1.0 / cfg.height_bins)
    return EmpiricalMeasure(emit[paths],
                            nu * mu.roof.array[paths[:, 0]] / mu.mean_roof,
                            hist)


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
    heights[i].  One signed pass over a table of int64 keys, the member id
    and then the word in base B = largest symbol + 1: the rows of each a_i
    with sign +, those of b once per member with sign -.  Stably sorted
    (the order of a lexsort of the id and word columns), the rows with
    equal key // B^(depth - k) (id and k-word) sum to freq_a_i - freq_b;
    one reduceat gives them for every k, and np.bincount sums each
    member's weighted |differences|.  ValueError where K B^depth does not
    fit in an int64."""
    K, n, depth = words.shape
    B = max(int(words.max(initial=0)), int(b.words.max(initial=0))) + 1
    if K * B ** depth >= 2 ** 63:
        raise ValueError(f"weak* keys overflow int64: K = {K} members of "
                         f"words in base B = {B} at depth D = {depth} "
                         f"need K B^D < 2^63")
    power = B ** np.arange(depth - 1, -1, -1, dtype=np.int64)  # B^(D-1)..1
    keys = np.empty((K, n + len(b.words)), dtype=np.int64)
    keys[:, :n], keys[:, n:] = words @ power, b.words @ power
    keys += np.arange(0, K * B ** depth, B ** depth)[:, None]
    signed = np.empty(keys.shape)
    signed[:, :n], signed[:, n:] = weights, -b.weights
    keys, signed = keys.ravel(), signed.ravel()
    order = np.argsort(keys, kind="stable")
    keys, signed = keys[order], signed[order]
    # row i of depth k starts a group where its key // B^(depth - k)
    # differs from row i - 1's; every depth starts at row 0, so no group
    # runs across two depths
    prefix = keys // power[:, None]
    new = np.ones(prefix.shape, dtype=bool)
    np.not_equal(prefix[:, 1:], prefix[:, :-1], out=new[:, 1:])
    starts = np.flatnonzero(new)
    level, row = np.divmod(starts, len(keys))
    diff = np.add.reduceat(signed[None].repeat(depth, axis=0).ravel(), starts)
    wk = np.array([cfg.depth_weight(k) for k in range(1, depth + 1)])
    return np.bincount(keys[row] // B ** depth, wk[level] * np.abs(diff),
                       minlength=K) \
        + cfg.height_weight * np.abs(heights - b.heights).sum(axis=1)


# ----------------------------------------------------------------------
# rate function
# ----------------------------------------------------------------------


def rate_function(system: Suspension, phi, psi: CylinderPotential,
                  eps_grid, method: str = "legendre") -> dict:
    """q(eps) = P(phi) - sup{h_nu + int phi dnu : |int psi dnu - m| >= eps},
    m the equilibrium mean of psi; math.inf when the constraint set is
    empty.

    The sup over int psi >= m + eps is attained at int psi = m + eps (the
    sup is concave in int psi, largest at m), so q(eps) is the lesser of
    qtilde(m + eps) and qtilde(m - eps), qtilde(u) = P(phi) - sup{h + int
    phi : int psi = u}.  Both methods work on the SFT recoded to the wider
    potential's width, where one Gibbs solve gives P(phi) and m:
    "legendre" as the Legendre transform of the pressure curve, "direct"
    as a concave program over edge measures."""
    if not isinstance(psi, CylinderPotential):
        raise ValueError("psi must be fiber-representable "
                         "(cylinder potential)")
    if method not in ("legendre", "direct"):
        raise ValueError(f"unknown rate method {method!r}")
    _check_eps(eps_grid)
    if phi is None:
        phi = zero_potential()
    _check_spectral(system, phi)
    sft_w, roof_w, words = block_recode(system.sft, system.roof,
                                        max(phi.width, psi.width))
    r = roof_w.array
    phihat, psihat = (f.values(words) * r for f in (phi, psi))
    src, dst = sft_w._edges
    P0, mbar = _pressure_and_mean(src, dst, phihat, psihat, r)
    lo_u, hi_u = _psi_range(system, psi)
    tol = 1e-12 * max(1.0, abs(lo_u), abs(hi_u))
    faces = {hi_u: _face(src, dst, (psihat - hi_u * r)[src]),
             lo_u: _face(src, dst, (lo_u * r - psihat)[src])}
    if method == "legendre":
        qtilde = _legendre(src, dst, r, phihat, psihat, P0, mbar)
    else:
        qtilde = _direct(src, dst, r[src], phihat[src], psihat[src], P0,
                         faces)

    def q(u):
        if u < lo_u - tol or u > hi_u + tol:
            return math.inf
        end = min(faces, key=lambda e: abs(u - e))
        if abs(u - end) > tol:
            return qtilde(u)
        # at an end the measures lie on its face; its best piece wins
        return max(0.0, P0 - max(_face_pressure(s, d, phihat[src[e]],
                                                r[src[e]], method)
                                 for e, s, d in faces[end]))

    return {eps: 0.0 if eps == 0 else min(q(mbar + eps), q(mbar - eps))
            for eps in eps_grid}


def _check_eps(eps_grid) -> None:
    """ValueError unless every eps of eps_grid is finite and >= 0."""
    for eps in eps_grid:
        if not 0 <= eps < math.inf:
            raise ValueError(f"eps must be finite and >= 0, got {eps}")


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
    parametric search: while some cycle c has w(c) > 0, w = num - lam den,
    its ratio is the next lam.  Bellman-Ford longest walks d on the
    entering-edge weights w from a virtual source find one: a d that grows
    by more than tol in round n ends a predecessor chain that closes such
    a cycle.  Growth that stops leaves w(c) <= len(c) tol on every cycle,
    so lam is within tol / min(den) of the max."""
    n = len(num)
    lam = float(np.min(num / den))  # no cycle ratio lies below it
    while True:
        w = num - lam * den
        tol = 1e-12 * (1.0 + float(np.max(np.abs(w))))
        W = np.where(A, w[None, :], -np.inf)
        best, pred = np.zeros(n), np.zeros(n, dtype=np.int64)
        for _ in range(n):
            cand = best[:, None] + W
            top = cand.max(axis=0)
            grew = top > best + tol
            if not grew.any():
                return lam
            best[grew], pred[grew] = top[grew], cand.argmax(axis=0)[grew]
        v = int(np.argmax(grew))
        for _ in range(n):  # back onto the cycle that the chain closes
            v = pred[v]
        cycle = [v]
        while pred[cycle[-1]] != v:
            cycle.append(pred[cycle[-1]])
        ratio = float(num[cycle].sum() / den[cycle].sum())
        if not ratio > lam:
            return lam
        lam = ratio


def _pressure_and_mean(src, dst, phihat, psihat, r):
    """(P, m): the pressure of the fiber integrals phihat on the
    transitions src -> dst and the psi mean <pi, psihat> / <pi, r> of its
    equilibrium state, pi = v u from one `_gibbs_data` solve."""
    P, _, _, v, u = _gibbs_data(len(r), src, dst, phihat, r)
    pi = v * u
    return P, float(pi @ psihat / (pi @ r))


def _legendre(src, dst, r, phihat, psihat, P0, mbar):
    """qtilde(u) = sup over beta in [-B, B] of beta u - Lambda(beta),
    Lambda(beta) = P(phi + beta psi) - P(phi), B = 40 / max|psi|.
    Lambda'(beta) is the psi mean of the equilibrium state of phi + beta
    psi, increasing from Lambda'(0) = m.  From beta = 0, the bracket
    doubles towards the side of u until Lambda' - u changes sign, and the
    one bracketed root (`thermo._bracketed_root`) solves Lambda'(beta) = u
    in it.  When u is not bracketed, the sup is at the nearer bound.
    Every evaluated beta gives a lower bound beta u - Lambda(beta) on the
    sup, and the largest one, within 2 tol of the maximizer, is its value
    to second order in tol."""
    norm = float(np.max(np.abs(psihat / r))) or 1.0
    tol = 1e-7 / norm
    curve = {0.0: 0.0}  # beta -> Lambda(beta)

    def slope(beta):
        P, mean = _pressure_and_mean(src, dst, phihat + beta * psihat,
                                     psihat, r)
        curve[beta] = P - P0
        return mean

    def qtilde(u):
        side = 1.0 if u > mbar else -1.0
        inner, f_inner = 0.0, mbar - u
        for size in (1, 2, 4, 8, 16, 32, 40):
            outer = side * size / norm
            f_outer = slope(outer) - u
            if side * f_outer >= 0:
                (lo, flo), (hi, fhi) = sorted([(inner, f_inner),
                                               (outer, f_outer)])
                _bracketed_root(lambda b: slope(b) - u, lo, hi, flo, fhi,
                                tol)
                break
            inner, f_inner = outer, f_outer
        return max(0.0, max(b * u - lam for b, lam in curve.items()))

    return qtilde


def _direct(src, dst, r, phihat, psihat, P0, faces):
    """qtilde(u) = P(phi) - F(u), F(u) = sup (h_nu + <nu, phihat>) /
    <nu, r> over shift-invariant nu with <nu, psihat> / <nu, r> = u
    (Abramov and the variational principle).  Potentials of width w read
    the states of the w-block recoding, so Markov measures on it attain
    the sup: nu is an edge measure on its transitions src -> dst, and the
    Charnes-Cooper scaling y = nu / <nu, r> turns the ratio into the
    concave program of `_max_entropy`.

    Inside the psi range the optimum is interior.  The Newton solve starts
    from the uniform-walk circulation z (`_circulation`) mixed with a
    circulation on the face of the range end beyond u, in the proportion
    that gives <y, psihat> = u."""
    z = _circulation(src, dst, r)
    u_z = float(psihat @ z)

    def qtilde(u):
        end = max(faces) if u > u_z else min(faces)
        e, s, d = faces[end][0]
        y = np.zeros(len(src))
        y[e] = _circulation(s, d, r[e])
        theta = (u - u_z) / (end - u_z)
        best = _max_entropy(src, dst, phihat, np.stack([r, psihat]),
                            [1.0, u], (1 - theta) * z + theta * y)
        return max(0.0, P0 - best)

    return qtilde


def _face_pressure(src, dst, phihat, r, method) -> float:
    """The pressure sup (h_nu + <nu, phihat>) / <nu, r> of the subshift of
    a strongly connected graph on states 0..m-1, edges src -> dst carrying
    the weights of their sources: by `_max_entropy` with the one
    constraint <y, r> = 1 for "direct", as the spectral root of its
    transition matrix for "legendre"."""
    if method == "direct":
        return _max_entropy(src, dst, phihat, r[None], [1.0],
                            _circulation(src, dst, r))
    m = int(src.max()) + 1
    phi_m, r_m = np.zeros(m), np.ones(m)
    phi_m[src], r_m[src] = phihat, r
    return _spectral_root(m, src, dst, phi_m, r_m, 1e-12)[0]


def _face(src, dst, weight) -> list:
    """The strongly connected pieces of the critical graph of an edge
    weight whose every cycle sum is <= 0, each as (edge indices, sources,
    targets) with its states renumbered 0..m-1.  The critical graph is the
    edges on cycles of weight 0.  D[i, j], the largest weight of a path
    i -> j (0 for the empty path), is minus the least path weight for
    -weight (`sft._shortest_paths`; float negation is exact); edge a -> b
    is critical when weight + D[b, a] = 0, and two critical states lie in
    one piece when D[i, j] + D[j, i] = 0.  Every cycle of a
    piece has weight 0, so its circulations keep <y, psihat> = u at the
    range end u once <y, r> = 1."""
    D = -_shortest_paths(int(src.max()) + 1, src, dst, -weight)
    tol = 1e-9 * (1.0 + float(np.max(np.abs(weight))))
    critical = np.flatnonzero(weight + D[dst, src] >= -tol)
    left = np.zeros(len(D), dtype=bool)  # critical states in no piece yet
    left[src[critical]] = True
    pieces = []
    while left.any():
        s = int(np.argmax(left))  # the least state left
        piece = left & (D[s] + D[:, s] >= -tol)
        left &= ~piece
        e = critical[piece[src[critical]]]
        states = np.flatnonzero(piece)
        pieces.append((e, np.searchsorted(states, src[e]),
                       np.searchsorted(states, dst[e])))
    return pieces


def _circulation(src, dst, r) -> np.ndarray:
    """The stationary edge measure of the uniform random walk on a
    strongly connected graph on states 0..m-1, scaled to <r, y> = 1: a
    positive circulation."""
    m = int(src.max()) + 1
    deg = np.bincount(src, minlength=m)
    y = _stationary_vector(m, src, dst, 1.0 / deg[src])[src] / deg[src]
    return y / (r @ y)


# barrier weights of the central path, and the Newton decrement that ends
# the centring at each (the last one to round-off)
_BARRIER = 10.0 ** -np.arange(15)
_CENTRED, _NEWTON_TOL = 1e-8, 1e-14
_NEWTON_MAX_ITER = 300


def _max_entropy(src, dst, c, K, b, y, max_iter=_NEWTON_MAX_ITER) -> float:
    """max H(y) + <c, y> over positive weights y on the edges src[e] ->
    dst[e] of a strongly connected graph on states 0..m-1, subject to
    circulation (inflow = outflow at every state) and K y = b, with K[0]
    positive and b[0] = 1, from a strictly feasible y.  H(y) = -sum_e y_e
    log(y_e / y_src(e)), y_a the outflow of a, is concave and
    1-homogeneous.

    Newton on the KKT system (Boyd & Vandenberghe, Convex Optimization,
    10.2 and 11.3) along the central path: g = -(H + <c, y>) - mu sum_e
    log y_e for mu = 1, 0.1, ..., 1e-14, each centred from the last.  C
    holds the circulation rows but the first (the rows sum to zero) over
    K; a step solves [[g'', C^T], [C, 0]] [dy, w] = [-g', (0, b) - C y],
    whose primal residual keeps round-off from piling up in the
    constraints (infeasible-start Newton, 10.3), and is halved until y
    stays positive and, while the Newton decrement -<g', dy> exceeds
    1e-12, until g falls by a hundredth of it (Armijo).
    The Hessian of -H is block-diagonal per source state a, diag(1 / y_e)
    - 1 / y_a on a's out-edges, and singular along per-state scalings of
    y; the only circulation among them is y itself, which <K[0], y> = 1
    excludes, so the KKT matrix is nonsingular.  Without the barrier,
    Newton crawls where the optimum has edges near 0 (u near an end of
    the range): -H is linear in each state's mass, and the steps push
    masses to the boundary.  The last barrier weight moves the value by
    at most 1e-14 per edge (the duality gap)."""
    m, E = int(src.max()) + 1, len(src)
    states = np.arange(1, m)[:, None]
    C = np.vstack([(src == states).astype(float) - (dst == states), K])
    block = src[:, None] == src[None, :]
    kkt = np.zeros((E + len(C), E + len(C)))
    kkt[:E, E:], kkt[E:, :E] = C.T, C
    rhs = np.zeros(E + len(C))

    def g(y, mu):
        out = np.bincount(src, y, m)[src]
        return float(y @ np.log(y / out) - c @ y - mu * np.log(y).sum())

    it = 0
    for mu in _BARRIER:
        tol = _NEWTON_TOL if mu == _BARRIER[-1] else _CENTRED
        while True:
            out = np.bincount(src, y, m)[src]
            rhs[:E] = c - np.log(y / out) + mu / y
            rhs[E:] = np.r_[np.zeros(m - 1), b] - C @ y
            kkt[:E, :E] = np.diag(1.0 / y + mu / y ** 2) \
                - block / out[:, None]
            try:
                step = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                # numerically singular near an end of the psi range: the
                # residual is that of the best multipliers
                dual = np.linalg.lstsq(C.T, rhs[:E], rcond=None)[0]
                raise NonConvergenceError(
                    f"Newton solve of the rate program on {E} edges met a "
                    f"singular KKT matrix after {it} iterations with KKT "
                    f"residual {np.linalg.norm(rhs[:E] - C.T @ dual):.3e}"
                ) from None
            dy = step[:E]
            decrement = float(rhs[:E] @ dy)
            if decrement <= tol:
                break
            if it == max_iter:
                raise NonConvergenceError(
                    f"Newton solve of the rate program on {E} edges "
                    f"stopped after {it} iterations with KKT residual "
                    f"{np.linalg.norm(rhs[:E] - C.T @ step[E:]):.3e}")
            it += 1
            t = 1.0
            while np.any(y + t * dy <= 0):
                t *= 0.5
            if decrement > 1e-12:
                g0 = g(y, mu)
                while g(y + t * dy, mu) > g0 - 0.01 * t * decrement \
                        and t > 1e-12:
                    t *= 0.5
            y = y + t * dy
    return -g(y, 0.0)


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
    # the path columns walked
    diagnostics: dict = field(default_factory=dict, compare=False)


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
    return _deviation_frequencies(system, m, psi, (eps,), t, n_samples,
                                  seed)[0]


def _deviation_frequencies(system: Suspension, m: SuspendedMeasure,
                           psi: CylinderPotential, eps_grid, t: float,
                           n_samples: int, seed: int) -> list:
    """deviation_frequency at each eps of eps_grid, from one walk of the
    seed's samples: the draws do not depend on eps, only the count does."""
    if not 0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    _check_eps(eps_grid)
    if psi.width != 1:
        raise ValueError("deviation_frequency supports width-1 psi")
    _check_support(system.sft, m.base)
    rng = np.random.default_rng(seed)
    mbar = entropy_and_mean(m, psi)[1]
    psi_v = psi.values(m.base.words)
    length = int(math.ceil(t / system.roof.min)) + 2
    u, columns = _sample_orbits(m, n_samples, length, rng)
    integral, _, walk = _column_integrals(columns, psi_v, m.roof, t, u)
    tol = 1e-9 * t * max(1.0, float(np.max(np.abs(psi_v))))
    distance = np.abs(integral - t * mbar)
    return [_deviation_count(int(np.sum(distance >= t * eps - tol)),
                             n_samples, t, walk) for eps in eps_grid]


def _deviation_count(hits: int, n_samples: int, t: float,
                     walk: dict) -> DeviationResult:
    """The frequency of hits deviations among n_samples walks to time t,
    with its interval."""
    alpha = 0.05
    if hits == 0:
        ci_hi_p = 1.0 - (alpha / 2) ** (1.0 / n_samples)
        return DeviationResult(0.0, -math.inf, -math.inf,
                               math.log(ci_hi_p) / t, 0, n_samples,
                               "zero hits: upper confidence bound only", walk)
    freq = hits / n_samples
    lo_p = _beta_quantile(hits, n_samples - hits + 1, alpha / 2)
    hi_p = _beta_quantile(hits + 1, n_samples - hits, 1 - alpha / 2) \
        if hits < n_samples else 1.0
    note = "" if hits >= 10 else "insufficient resolution"
    return DeviationResult(freq, math.log(freq) / t,
                           math.log(lo_p) / t, math.log(hi_p) / t,
                           hits, n_samples, note, walk)


_CF_MAX_ITER = 10_000


def _betainc(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b), from its
    continued fraction (Numerical Recipes, 3rd ed., 6.4) by the modified
    Lentz method, on the side of (a + 1) / (a + b + 2) where the fraction
    converges fast, I_x(a, b) = 1 - I_{1-x}(b, a) on the other.  The
    prefactor x^a (1 - x)^b / B(a, b) is taken in logs with math.lgamma."""
    if x <= 0.0 or x >= 1.0:
        return float(x >= 1.0)
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        for num in (m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x
                    / ((a + 2 * m) * (a + 1.0 + 2 * m))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    else:
        raise NonConvergenceError(
            f"incomplete beta continued fraction at a = {a}, b = {b}, "
            f"x = {x} did not converge in {_CF_MAX_ITER} terms")
    return math.exp(a * math.log(x) + b * math.log1p(-x)
                    - _log_beta(a, b)) * h / a


def _stirling_tail(x: float) -> float:
    """lgamma(x) - ((x - 1/2) log x - x + log sqrt(2 pi)) for x >= 10, by
    the Stirling series to within 1e-16."""
    z = 1.0 / (x * x)
    return (1 / 12 - z * (1 / 360 - z * (1 / 1260 - z * (
        1 / 1680 - z * (1 / 1188 - z * (691 / 360360 - z / 156)))))) / x


def _log_beta(a: float, b: float) -> float:
    """log B(a, b).  lgamma(a) + lgamma(b) - lgamma(a + b) cancels to
    about 1e-16 (a + b) log(a + b); above 10 the arguments go through the
    Stirling tails instead (the split of R's lbeta, after TOMS 708)."""
    p, q = min(a, b), max(a, b)
    if q < 10:
        return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    r = -math.log1p(q / p) if p else 0.0  # log(p / (p + q))
    if p < 10:
        return math.lgamma(p) + _stirling_tail(q) - _stirling_tail(p + q) \
            + p - p * math.log(p + q) + (q - 0.5) * math.log1p(-p / (p + q))
    return -0.5 * math.log(q) + 0.5 * math.log(2 * math.pi) + (p - 0.5) * r \
        + _stirling_tail(p) + _stirling_tail(q) - _stirling_tail(p + q) \
        + q * math.log1p(-p / (p + q))


def _beta_quantile(a: float, b: float, p: float) -> float:
    """x with I_x(a, b) = p, for a, b >= 1: Halley steps from the initial
    guess of Numerical Recipes (3rd ed., 6.4, invbetai), each kept inside
    the bracket that the signs of I_x - p give so far, or else replaced by
    its midpoint, until a step or the bracket is at most 1e-12 x (I_x
    carries round-off of about 1e-14).  When the mean
    a / (a + b) is above 1/2 it returns 1 - the quantile of 1 - p under
    (b, a), so that the variable solved for is the smaller of x and 1 - x
    and keeps its relative accuracy."""
    if a > b:
        return 1.0 - _beta_quantile(b, a, 1.0 - p)
    t = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
    z = t - (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t))
    z = z if p < 0.5 else -z
    al = (z * z - 3.0) / 6.0
    h = 2.0 / (1.0 / (2 * a - 1) + 1.0 / (2 * b - 1))
    w = z * math.sqrt(al + h) / h \
        - (1.0 / (2 * b - 1) - 1.0 / (2 * a - 1)) * (al + 5 / 6 - 2 / (3 * h))
    x = a / (a + b * math.exp(2.0 * w))
    lbeta = _log_beta(a, b)
    lo, hi = 0.0, 1.0
    for _ in range(200):
        err = _betainc(a, b, x) - p
        if err < 0:
            lo = x
        else:
            hi = x
        if hi - lo <= 1e-12 * x:
            return x
        density = math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                           - lbeta)
        if density > 0:  # else it underflowed far out in a tail
            u = err / density
            step = u / (1.0 - 0.5 * min(1.0, u * ((a - 1) / x
                                                   - (b - 1) / (1 - x))))
            if abs(step) <= 1e-12 * x:
                return x - step
            if lo < x - step < hi:
                x -= step
                continue
        x = 0.5 * (lo + hi)
    raise NonConvergenceError(
        f"beta quantile at a = {a}, b = {b}, p = {p} did not converge")
