"""Thermodynamic formalism for suspension flows over irreducible SFTs.

Pressure is computed three ways:

* ``spectral``: P(phi) is the unique s at which the Perron root of
  M(s)_{ee'} = A_{ee'} exp(phihat(e') - s r(e')) equals 1 (phihat
  integrates the potential over the fiber of e'); the log-Perron-root is
  strictly decreasing in s, and the Illinois method locates its zero in a
  fixed bracket.  Perron roots come from a warm-started power iteration on
  M + lam I, lam the running root estimate, which converges on periodic
  SFTs (bipartite graphs) too.
* ``separated``: growth-rate regression of exact phi-weighted partition
  sums Z(t) over words whose cumulative roof lands in (t - max r, t],
  computed by dynamic programming on an integer grid (requires rational
  roof values).
* ``gurevic``: growth rate of period-weighted sums over closed orbits,
  S(t) = sum_{period <= t} period * e^{Phi(orbit)}; the period weighting
  cancels the 1/t prefactor of the orbit count so the finite-t difference
  quotient stabilizes quickly.

Equilibrium states are built from Perron eigendata (Parry/Gibbs kernel),
on the w-block recoding when the potential has width w > 1.  Flow entropy
uses the Abramov quotient h_base / mean roof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .sft import BiWord, Sft
from .suspension import (OrbitSegment, Roof, SuspPoint, Suspension,
                         _residences)

__all__ = [
    "NonConvergenceError",
    "CylinderPotential",
    "DistancePotential",
    "MarkovMeasure",
    "SuspendedMeasure",
    "PressureResult",
    "birkhoff",
    "pressure",
    "equilibrium_state",
    "entropy_and_mean",
    "gibbs_ratio_stats",
    "bowen_constant_estimate",
    "block_recode",
    "combine_cylinder",
    "cylinder_approximation",
    "birkhoff_cycle",
    "random_markov_measure",
    "zero_potential",
]


class NonConvergenceError(RuntimeError):
    """Raised when an iterative numeric kernel fails to converge."""


# ----------------------------------------------------------------------
# potentials
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CylinderPotential:
    """Fiber-constant potential depending on the first `width` symbols."""

    width: int
    table: dict

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width >= 1 required")
        object.__setattr__(
            self, "table",
            {tuple(k): float(v) for k, v in self.table.items()})

    def value(self, word) -> float:
        return self.table[tuple(word[: self.width])]

    def at(self, p: SuspPoint) -> float:
        return self.value(p.base.window(0, self.width))

    def validate(self, sft: Sft):
        for w in _admissible_words(sft, self.width):
            if w not in self.table:
                raise ValueError(f"table missing admissible word {w}")

    def scaled(self, c: float) -> "CylinderPotential":
        return CylinderPotential(
            self.width, {k: c * v for k, v in self.table.items()})


def zero_potential() -> CylinderPotential:
    """phi = 0 as a width-1 potential with a defaulting table."""

    class _ZeroTable(dict):
        def __missing__(self, key):
            return 0.0

        def __contains__(self, key):
            return True

    p = CylinderPotential(1, {})
    object.__setattr__(p, "table", _ZeroTable())
    return p


@dataclass(frozen=True)
class DistancePotential:
    """gamma -> scale * d_GX(gamma, reference)."""

    reference: object  # Geodesic
    scale: float

    def __post_init__(self):
        if not math.isfinite(self.scale):
            raise ValueError("scale must be finite")

    def at_geodesic(self, geo) -> float:
        from .graph import d_GX
        v, _ = d_GX(geo, self.reference)
        return self.scale * v


def _admissible_words(sft: Sft, w: int):
    words = [(s,) for s in range(sft.n_symbols)]
    for _ in range(w - 1):
        words = [u + (b,) for u in words for b in sft.successors(u[-1])]
    return words


def combine_cylinder(a: CylinderPotential, b: CylinderPotential,
                     sft: Sft, cb: float = 1.0) -> CylinderPotential:
    """a + cb * b as a cylinder potential of width max(widths)."""
    w = max(a.width, b.width)
    table = {}
    for word in _admissible_words(sft, w):
        table[word] = a.value(word) + cb * b.value(word)
    return CylinderPotential(w, table)


# ----------------------------------------------------------------------
# measures
# ----------------------------------------------------------------------


class MarkovMeasure:
    """Shift-invariant Markov measure: stochastic kernel supported on the
    SFT transitions plus its stationary vector.  `words` names each state
    by a block of original symbols (single symbols by default)."""

    def __init__(self, transition, stationary=None, words=None):
        P = np.asarray(transition, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("kernel must be square")
        rs = P.sum(axis=1)
        if np.any(np.abs(rs - 1.0) > 1e-9):
            raise ValueError("kernel rows must sum to 1")
        P = P / rs[:, None]
        self.transition = P
        n = P.shape[0]
        if stationary is None:
            stationary = _stationary_vector(P)
        pi = np.asarray(stationary, dtype=float)
        pi = pi / pi.sum()
        if np.max(np.abs(pi @ P - pi)) > 1e-9:
            raise ValueError("stationary vector does not satisfy pi P = pi")
        self.stationary = pi
        if words is None:
            words = tuple((i,) for i in range(n))
        self.words = tuple(tuple(w) for w in words)

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    def entropy(self) -> float:
        P = self.transition
        pi = self.stationary
        with np.errstate(divide="ignore", invalid="ignore"):
            lp = np.where(P > 0, np.log(np.where(P > 0, P, 1.0)), 0.0)
        return float(-(pi[:, None] * P * lp).sum())

    def supported_on(self, sft: Sft) -> bool:
        P = self.transition
        for i in range(self.n_states):
            for j in range(self.n_states):
                if P[i, j] > 0:
                    a, b = self.words[i][-1], self.words[j][0]
                    if not sft.allowed(a, b):
                        return False
        return True

    def word_probability(self, word) -> float:
        """Probability of a cylinder in the *state* alphabet."""
        word = tuple(word)
        p = self.stationary[word[0]]
        for a, b in zip(word, word[1:]):
            p *= self.transition[a, b]
        return float(p)

    def sample_words(self, n: int, length: int, rng,
                     start_weights=None) -> np.ndarray:
        """n independent stationary sample paths (vectorized)."""
        P = self.transition
        k = self.n_states
        cum = np.cumsum(P, axis=1)
        w0 = self.stationary if start_weights is None else \
            np.asarray(start_weights, float) / np.sum(start_weights)
        out = np.empty((n, length), dtype=np.int64)
        out[:, 0] = rng.choice(k, size=n, p=w0)
        for j in range(1, length):
            u = rng.random(n)
            out[:, j] = (u[:, None] > cum[out[:, j - 1]]).sum(axis=1)
        return out


def _stationary_vector(P: np.ndarray) -> np.ndarray:
    n = P.shape[0]
    A = np.vstack([P.T - np.eye(n), np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    pi = np.maximum(pi, 0.0)
    return pi / pi.sum()


@dataclass(frozen=True)
class SuspendedMeasure:
    """Flow-invariant measure nu x Leb / mean_roof over a suspension."""

    base: MarkovMeasure
    roof: Roof
    mean_roof: float = field(default=None)

    def __post_init__(self):
        mr = float(np.dot(self.base.stationary,
                          [self.roof[i] for i in range(len(self.roof))]))
        object.__setattr__(self, "mean_roof", mr)

    def state_roofs(self) -> np.ndarray:
        return np.array([self.roof[i] for i in range(len(self.roof))])


# ----------------------------------------------------------------------
# block recoding and fiber rates
# ----------------------------------------------------------------------


def block_recode(sft: Sft, roof: Roof, w: int):
    """(Sft_w, Roof_w, words): the w-block presentation; state u -> v is
    allowed iff u[1:] == v[:-1] (and the extra transition is admissible,
    which the word construction already guarantees)."""
    if w == 1:
        return sft, roof, tuple((s,) for s in range(sft.n_symbols))
    words = _admissible_words(sft, w)
    idx = {u: i for i, u in enumerate(words)}
    n = len(words)
    A = [[0] * n for _ in range(n)]
    for i, u in enumerate(words):
        for b in sft.successors(u[-1]):
            v = u[1:] + (b,)
            A[i][idx[v]] = 1
    return (Sft(A), Roof([roof[u[0]] for u in words]), tuple(words))


def _prepare(system: Suspension, phi: CylinderPotential):
    """Recoded (sft, roof, words, phihat) matching the potential width."""
    sft_w, roof_w, words = block_recode(system.sft, system.roof, phi.width)
    phihat = np.array([phi.value(u) * roof_w[i]
                       for i, u in enumerate(words)])
    return sft_w, roof_w, words, phihat


# ----------------------------------------------------------------------
# Birkhoff integrals
# ----------------------------------------------------------------------


def birkhoff(system: Suspension, phi, seg: OrbitSegment) -> float:
    """Phi(x, t) = int_0^t phi(f_s x) ds."""
    if isinstance(phi, CylinderPotential):
        base = seg.start.base
        total = 0.0
        for k, lo, hi in _residences(base.symbol_at, system.roof.values,
                                     seg.start.height, seg.duration):
            total += (hi - lo) * phi.value(base.window(k, k + phi.width))
        return total
    if isinstance(phi, DistancePotential):
        from scipy.integrate import quad
        from .graph import Geodesic
        g = phi.reference.graph

        def f(s):
            return phi.at_geodesic(
                Geodesic(g, system.flow(seg.start, s)))

        t = seg.duration
        val, _ = quad(f, 0.0, t, epsabs=1e-8 * max(t, 1.0), limit=200)
        return val
    raise TypeError(f"unsupported potential {type(phi).__name__}")


def birkhoff_cycle(system: Suspension, phi: CylinderPotential, word) -> float:
    """Phi over one period of the closed orbit with cyclic word `word`."""
    word = tuple(word)
    n = len(word)
    total = 0.0
    for k in range(n):
        ww = tuple(word[(k + j) % n] for j in range(phi.width))
        total += phi.value(ww) * system.roof[word[k]]
    return total


# ----------------------------------------------------------------------
# Perron machinery
# ----------------------------------------------------------------------


_PERRON_TOL = 1e-13
_PERRON_MAX_ITER = 100_000


def _perron(M: np.ndarray, v0=None):
    """(Perron root, right Perron vector summing to 1) of an irreducible
    non-negative M by power iteration on M + lam I, lam = sum(M v) the
    running estimate, from v0 if given.  The shift makes the Perron root
    strictly dominant even when M is periodic.  The ratios (M v)_i / v_i
    bracket both lam and the root (Collatz-Wielandt), so the relative
    width of their range bounds the relative error of lam."""
    n = M.shape[0]
    v = np.full(n, 1.0 / n) if v0 is None else v0 / v0.sum()
    for it in range(1, _PERRON_MAX_ITER + 1):
        w = M @ v
        lam = w.sum()
        r = w / v
        res = (r.max() - r.min()) / lam
        if res <= _PERRON_TOL:
            return float(lam), v
        if not math.isfinite(res):
            break
        v = 0.5 * (w / lam + v)
    raise NonConvergenceError(
        f"Perron iteration on a {n}x{n} matrix stopped after {it} "
        f"iterations with relative residual {res:.3e}")


@dataclass(frozen=True)
class PressureResult:
    value: float
    error: float
    method: str
    diagnostics: dict

    def __iter__(self):  # allows `value, err = pressure(...)`
        return iter((self.value, self.error))


def _spectral_root(A: np.ndarray, phihat: np.ndarray, roofs: np.ndarray,
                   tol: float) -> tuple:
    """(root, half-width of the final bracket, Perron solves) of the
    decreasing s -> log Perron root of M(s), by the Illinois method."""
    v = None

    def log_perron(s):
        nonlocal v
        lam, v = _perron(A * np.exp(phihat - s * roofs)[None, :], v)
        return math.log(lam)

    # M(lo) >= A entrywise, so its Perron root is >= rho(A) >= 1; every row
    # of M(hi) sums to at most 1, so its Perron root is <= 1
    lo = float(np.min(phihat / roofs)) - 1e-12
    hi = float(np.max(phihat / roofs)) \
        + math.log(A.sum(axis=1).max()) / roofs.min() + 1e-12
    flo, fhi = log_perron(lo), log_perron(hi)
    solves, moved = 2, 0  # moved: the end replaced last, +1 lo, -1 hi
    while hi - lo > 2 * tol:
        # regula falsi point, kept tol inside the bracket so that the end
        # beyond the root moves too
        s = hi - fhi * (hi - lo) / (fhi - flo)
        s = min(max(s, lo + tol), hi - tol)
        fs = log_perron(s)
        solves += 1
        # Illinois: halve the value at an end kept twice in a row
        if fs > 0:
            lo, flo = s, fs
            if moved > 0:
                fhi *= 0.5
            moved = 1
        else:
            hi, fhi = s, fs
            if moved < 0:
                flo *= 0.5
            moved = -1
    return 0.5 * (lo + hi), 0.5 * (hi - lo), solves


def pressure(system: Suspension, phi, method: str = "spectral",
             t_grid=None, max_period: float = 12.0,
             tol: float = 1e-10) -> PressureResult:
    """Topological pressure of the suspension flow for the potential phi."""
    if isinstance(phi, DistancePotential):
        if method != "spectral":
            raise ValueError("distance potentials support only the "
                             "spectral pressure method")
        return _distance_potential_pressure(system, phi)
    if not isinstance(phi, CylinderPotential):
        raise TypeError("potential must be cylinder or distance")
    from .sft import is_irreducible
    if not is_irreducible(system.sft):
        raise ValueError("system is not irreducible")
    sft_w, roof_w, words, phihat = _prepare(system, phi)
    A = np.array(sft_w.transitions, dtype=float)
    roofs = np.array(roof_w.values, dtype=float)

    if method == "spectral":
        val, err, solves = _spectral_root(A, phihat, roofs, tol)
        return PressureResult(val, err, "spectral",
                              {"bracket_width": 2 * err,
                               "perron_solves": solves})
    if method == "separated":
        return _separated_pressure(sft_w, roof_w, phihat, t_grid,
                                   max_period)
    if method == "gurevic":
        return _gurevic_pressure(system, phi, max_period)
    raise ValueError(f"unknown pressure method {method!r}")


def _separated_pressure(sft: Sft, roof: Roof, phihat, t_grid,
                        max_period: float) -> PressureResult:
    fr = [Fraction(v).limit_denominator(10 ** 6) for v in roof.values]
    if any(float(f) != v for f, v in zip(fr, roof.values)):
        raise ValueError(
            "separated method needs rational roof values")
    L = math.lcm(*[f.denominator for f in fr])
    R = [int(f * L) for f in fr]
    n = sft.n_symbols
    Nmax = int(math.ceil(max_period * L)) + 1
    weights = np.exp(phihat)
    # V[N][s]: sum of e^Phi over admissible words with total scaled roof N
    # ending in s
    V = np.zeros((Nmax + 1, n))
    for s in range(n):
        if R[s] <= Nmax:
            V[R[s], s] += weights[s]
    succ = [sft.successors(s) for s in range(n)]
    for N in range(1, Nmax + 1):
        for s in range(n):
            if V[N, s] == 0.0:
                continue
            for s2 in succ[s]:
                N2 = N + R[s2]
                if N2 <= Nmax:
                    V[N2, s2] += V[N, s] * weights[s2]
    totals = V.sum(axis=1)
    maxR = max(R)
    if t_grid is None:
        t_grid = [max_period * (0.5 + 0.1 * j) for j in range(6)]
    ts, logs = [], []
    for t in t_grid:
        Nhi = int(math.floor(t * L + 1e-9))
        # regress against the largest cumulative-roof value actually
        # reached (the partition sum is constant between lattice points,
        # so using the requested t would bias the slope)
        while Nhi > 0 and totals[Nhi] == 0.0:
            Nhi -= 1
        Nlo = max(0, Nhi - maxR)
        Z = totals[Nlo + 1: Nhi + 1].sum()
        t_eff = Nhi / L
        if Z > 0 and (not ts or t_eff > ts[-1]):
            ts.append(t_eff)
            logs.append(math.log(Z))
    if len(ts) < 3:
        raise NonConvergenceError("separated: too few usable grid points")
    ts = np.array(ts)
    logs = np.array(logs)
    (slope, icpt), cov = np.polyfit(ts, logs, 1, cov=True)
    ci = 2.0 * math.sqrt(max(cov[0, 0], 0.0))
    resid = logs - (slope * ts + icpt)
    # regression CI underestimates the systematic finite-t bias; widen by
    # the residual spread over the grid span
    err = ci + 2.0 * float(np.max(np.abs(resid))) / float(ts[-1] - ts[0])
    return PressureResult(float(slope), err, "separated",
                          {"t_grid": list(map(float, ts)),
                           "log_Z": list(map(float, logs)),
                           "slope_ci": ci})


def _gurevic_pressure(system: Suspension, phi: CylinderPotential,
                      max_period: float) -> PressureResult:
    from .sft import enumerate_primitive_cycles
    max_len = int(math.floor(max_period / system.roof.min + 1e-9))
    cycles = enumerate_primitive_cycles(system.sft, max_len)
    data = []  # (period, period * e^Phi)
    for cyc in cycles:
        p = sum(system.roof[s] for s in cyc)
        if p <= max_period + 1e-12:
            data.append((p, p * math.exp(birkhoff_cycle(system, phi, cyc))))
    if not data:
        raise NonConvergenceError("no closed orbits up to max_period")
    data.sort()
    periods = np.array([d[0] for d in data])
    w = np.array([d[1] for d in data])
    csum = np.cumsum(w)

    # sample at the times where the sum actually jumps (it is constant in
    # between), restricted to the stabilized upper half of the range
    jump_ts, jump_logs = [], []
    for i in range(len(periods)):
        if i == len(periods) - 1 or periods[i + 1] > periods[i]:
            if periods[i] >= max_period / 2 - 1e-9:
                jump_ts.append(float(periods[i]))
                jump_logs.append(math.log(csum[i]))
    if len(jump_ts) < 3:
        raise NonConvergenceError("gurevic: too few grid points with orbits")
    ts = np.array(jump_ts)
    logs = np.array(jump_logs)
    diffs = list(np.diff(logs) / np.diff(ts))
    # the quotients oscillate around the limit with shrinking amplitude;
    # the last one is the estimate, half the last oscillation the error
    value = diffs[-1]
    err = 0.5 * abs(diffs[-1] - diffs[-2]) + 2.0 / max_period ** 2
    return PressureResult(float(value), float(err), "gurevic",
                          {"grid": ts.tolist(),
                           "log_S": logs.tolist(),
                           "difference_quotients": diffs,
                           "finite_t_value": logs[-1] / ts[-1]})


def _distance_potential_pressure(system: Suspension,
                                 phi: DistancePotential) -> PressureResult:
    """Approximate by cylinder potentials of widths 2, 4, 6; report the
    width-6 value with the width-4 -> 6 difference as the error."""
    vals = {}
    for w in (2, 4, 6):
        cyl = cylinder_approximation(system, phi, w)
        vals[w] = pressure(system, cyl, method="spectral").value
    err = abs(vals[6] - vals[4])
    return PressureResult(vals[6], err + 1e-9, "spectral",
                          {"widths": vals})


def cylinder_approximation(system: Suspension, phi: DistancePotential,
                           width: int) -> CylinderPotential:
    """Cylinder potential matching phi on the periodic extension of each
    admissible width-w word."""
    from .graph import Geodesic
    g = phi.reference.graph
    table = {}
    for u in _admissible_words(system.sft, width):
        if not system.sft.allowed(u[-1], u[0]):
            # extend to an admissible cycle for evaluation
            from .sft import glue_words
            gap = glue_words(system.sft, (u[-1],), (u[0],))
            cyc = u + gap
        else:
            cyc = u
        geo = Geodesic(g, SuspPoint(BiWord.periodic(cyc), 0.0))
        table[u] = phi.at_geodesic(geo)
    return CylinderPotential(width, table)


# ----------------------------------------------------------------------
# equilibrium states
# ----------------------------------------------------------------------


def equilibrium_state(system: Suspension, phi) -> SuspendedMeasure:
    """The Gibbs/equilibrium measure of phi via Perron eigendata of
    M(P(phi))."""
    if isinstance(phi, DistancePotential):
        phi = cylinder_approximation(system, phi, 4)
    sft_w, roof_w, words, phihat = _prepare(system, phi)
    A = np.array(sft_w.transitions, dtype=float)
    roofs = np.array(roof_w.values, dtype=float)
    P_val, _, _ = _spectral_root(A, phihat, roofs, 1e-12)
    M = A * np.exp(phihat - P_val * roofs)[None, :]
    lam, v = _perron(M)
    _, u = _perron(M.T)
    kernel = M * v[None, :] / (lam * v[:, None])
    kernel = kernel / kernel.sum(axis=1)[:, None]
    pi = u * v
    pi = pi / pi.sum()
    base = MarkovMeasure(kernel, pi, words)
    return SuspendedMeasure(base, roof_w)


def entropy_and_mean(mu: SuspendedMeasure, phi) -> tuple:
    """(h_mu, int phi dmu) for the flow measure: Abramov quotient for the
    entropy, fiber-rate average for the integral."""
    h_base = mu.base.entropy()
    h = h_base / mu.mean_roof
    if phi is None:
        return h, 0.0
    if not isinstance(phi, CylinderPotential):
        raise TypeError("entropy_and_mean needs a cylinder potential")
    phihat = _phihat_on_states(mu, phi)
    mean_phi = float(np.dot(mu.base.stationary, phihat)) / mu.mean_roof
    return h, mean_phi


def _phihat_on_states(mu: SuspendedMeasure, phi: CylinderPotential):
    """Fiber integrals of phi on the measure's state alphabet.  When the
    potential needs more symbols than a state word provides, average over
    admissible continuations weighted by the kernel."""
    out = np.zeros(mu.base.n_states)
    words = mu.base.words
    P = mu.base.transition
    for i, u in enumerate(words):
        if len(u) >= phi.width:
            out[i] = phi.value(u) * mu.roof[i]
        else:
            # average phi over kernel-weighted continuations
            vals = 0.0
            stack = [(u, i, 1.0)]
            while stack:
                w, st, pr = stack.pop()
                if len(w) >= phi.width:
                    vals += pr * phi.value(w)
                    continue
                for j in range(mu.base.n_states):
                    if P[st, j] > 0:
                        stack.append((w + (words[j][-1],), j,
                                      pr * P[st, j]))
            out[i] = vals * mu.roof[i]
    return out


def random_markov_measure(sft: Sft, rng, words=None) -> MarkovMeasure:
    """A random fully-supported Markov measure on the SFT transitions."""
    n = sft.n_symbols
    P = np.zeros((n, n))
    for i in range(n):
        succ = sft.successors(i)
        row = rng.random(len(succ)) + 0.05
        row = row / row.sum()
        for s, p in zip(succ, row):
            P[i, s] = p
    return MarkovMeasure(P, words=words)


# ----------------------------------------------------------------------
# Gibbs property and Bowen constants
# ----------------------------------------------------------------------


def _forced_depth(rho: float) -> int:
    """Least n with 2^-(n+1) < rho: agreement depth forced by a
    rho-ball under the forward-window base metric."""
    n = 0
    while 2.0 ** (-(n + 1)) >= rho:
        n += 1
    return n


def gibbs_ratio_stats(system: Suspension, mu: SuspendedMeasure, phi,
                      rho: float, t_grid, samples: int, seed: int,
                      delta0: float = None) -> dict:
    """Ratios mu(B_t(x, rho)) / e^{-t P + Phi(x, t)} over sampled points.

    The Bowen ball B_t(x, rho) is evaluated as the cylinder of the symbols
    forced through index c(t) + k(rho) crossed with the normalized-height
    window of radius rho, whose flow measure is
    nu(cylinder) * window_length / mean_roof.
    """
    if delta0 is None:
        delta0 = min(1.0, system.roof.min) / 4.0
    if rho >= delta0:
        raise ValueError("above expansivity scale")
    if len(mu.base.words[0]) != 1:
        raise ValueError("gibbs_ratio_stats needs a width-1 base measure")
    if isinstance(phi, CylinderPotential):
        P_val = pressure(system, phi, "spectral").value
    else:
        raise TypeError("cylinder potential required")
    rng = np.random.default_rng(seed)
    k_rho = _forced_depth(rho)
    tmax = max(t_grid)
    length = int(math.ceil(tmax / system.roof.min)) + k_rho + 3
    roofs = mu.state_roofs()
    start_w = mu.base.stationary * roofs
    paths = mu.base.sample_words(samples, length, rng,
                                 start_weights=start_w)
    heights = rng.random(samples) * roofs[paths[:, 0]]
    ratios = {t: [] for t in t_grid}
    logpi = np.log(mu.base.stationary)
    with np.errstate(divide="ignore"):
        logP = np.where(mu.base.transition > 0,
                        np.log(np.where(mu.base.transition > 0,
                                        mu.base.transition, 1.0)),
                        -np.inf)
    for s in range(samples):
        word = paths[s]
        h = heights[s]
        r0 = roofs[word[0]]
        u = h / r0
        cum = np.cumsum(roofs[word])
        start = SuspPoint(_biword_from_path(word, system), float(h))
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


def _biword_from_path(word, system: Suspension) -> BiWord:
    """Eventually-periodic point whose forward window matches `word`."""
    from .sft import glue_words
    word = tuple(int(s) for s in word)
    gap = glue_words(system.sft, (word[-1],), (word[0],)) \
        if not system.sft.allowed(word[-1], word[0]) else ()
    return BiWord.periodic(word + gap, phase=0)


def bowen_constant_estimate(system: Suspension, phi, eps: float,
                            S_grid, samples: int, seed: int,
                            delta0: float = None) -> dict:
    """V(eps, S) = sup over sampled eps-shadowing pairs of
    |Phi(x, S) - Phi(y, S)|; the Bowen property predicts a table bounded
    in S."""
    if delta0 is None:
        delta0 = min(1.0, system.roof.min) / 4.0
    if eps >= delta0:
        raise ValueError("above expansivity scale")
    rng = np.random.default_rng(seed)
    from .suspension import _BW_MAX_SHIFT
    k_eps = _forced_depth(eps)
    Smax = max(S_grid)
    n_sym = system.sft.n_symbols
    out = {}
    for S in S_grid:
        worst = 0.0
        length = int(math.ceil(S / system.roof.min)) + k_eps + \
            _BW_MAX_SHIFT + 4
        for _ in range(samples):
            word = [int(rng.integers(n_sym))]
            for _ in range(length + 2 * _BW_MAX_SHIFT):
                word.append(int(rng.choice(system.sft.successors(word[-1]))))
            word = tuple(word)
            x = _biword_from_path(word, system)
            # y agrees with x on the window forced by eps-shadowing along
            # [0, S] and takes a different admissible continuation beyond
            core = x.window(-_BW_MAX_SHIFT, length)
            tails = [s for s in range(n_sym)
                     if system.sft.allowed(core[-1], s)
                     and system.sft.allowed(s, s)]
            if tails:
                rt = (tails[int(rng.integers(len(tails)))],)
            else:
                rt = x.right_tail
            y = BiWord(x.left_tail, core, rt,
                       core_start=-_BW_MAX_SHIFT)
            r0 = system.roof[word[0]]
            h = float(rng.random()) * r0 * 0.999
            # the vertical component of an eps-ball allows a height
            # mismatch of up to eps in normalized units
            h2 = min(max(h + float(rng.uniform(-eps, eps)) * r0, 0.0),
                     r0 * 0.999)
            sx = OrbitSegment(SuspPoint(x, h), float(S))
            sy = OrbitSegment(SuspPoint(y, h2), float(S))
            diff = abs(birkhoff(system, phi, sx) -
                       birkhoff(system, phi, sy))
            worst = max(worst, diff)
        out[S] = worst
    return out
