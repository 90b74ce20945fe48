"""Thermodynamic formalism for suspension flows over irreducible SFTs.

Pressure is computed three ways:

* ``spectral``: P(phi) is the unique s at which the Perron root of
  M(s)_{ee'} = A_{ee'} exp(phihat(e') - s r(e')) equals 1 (phihat
  integrates the potential over the fiber of e'); the log-Perron-root is
  strictly decreasing in s with slope in [-max r, -min r], so each value
  brackets its zero, and a secant iteration inside those brackets
  (`_spectral_root`) needs one solve when the roof is constant and a few
  otherwise.  One kernel, `_perron`, finds every Perron root and
  accepts it on a Collatz-Wielandt certificate of relative width 1e-13.
  It reads M as the edge list of A (`Sft._edges`) with one weight per
  edge.  Up to _EIG_MAX_N states it starts from a dense eigenvector and
  usually stops at once; above, it runs a power iteration on M + lam I
  (lam the running root estimate, which converges on periodic SFTs too),
  warm-started from the last solve and applying M over the edges, so a
  block recode never builds a dense M.  `_perron` records how
  _EIG_MAX_N was measured.
* ``separated``: growth-rate regression of exact phi-weighted partition
  sums Z(t) over words whose cumulative roof lands in (t - max r, t].
* ``gurevic``: growth rate of the period-weighted closed-orbit sum
  psi(t) = sum tau(gamma) e^{Phi(gamma)} over closed orbits of period
  <= t with their repeats, tau the primitive period.

Both finite-t methods and ``ldp.weighted_orbit_measure`` read exact
closed-orbit sums from one lattice engine (`_orbit_sums`), which needs
rational roof values and L t <= _MAX_TICKS ticks on the lattice 1/L.

Equilibrium states are built from Perron eigendata (Parry/Gibbs kernel),
on the w-block recoding when the potential has width w > 1.  A Markov
kernel is one edge list of its positive entries in row-major order (as
`Sft._edges`); only the stationary solve and the `transition` view make
it dense.  Statistics, flow means and entropy read one table of its state
paths (`_state_paths`).  Sampled paths step along the edges, the last
successor of a state taking every u above the threshold before it, also
where round-off leaves its row's sum short of 1.  Flow entropy is the
Abramov quotient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from .sft import Sft, _words, is_irreducible
from .suspension import (OrbitSegment, Roof, Suspension, _column_integrals,
                         _forced_depth, _locate, _pieces)

__all__ = [
    "NonConvergenceError",
    "CylinderPotential",
    "MarkovMeasure",
    "SuspendedMeasure",
    "PressureResult",
    "birkhoff",
    "pressure",
    "equilibrium_state",
    "entropy_and_mean",
    "gibbs_ratio_stats",
    "block_recode",
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
        table = {tuple(k): float(v) for k, v in self.table.items()}
        for key in table:
            if len(key) != self.width:
                raise ValueError(f"the width-{self.width} potential table "
                                 f"has the key {key} of length {len(key)}")
        object.__setattr__(self, "table", table)

    def value(self, word) -> float:
        key = tuple(word[: self.width])
        try:
            return self.table[key]
        except KeyError:
            raise self._missing(key) from None

    def values(self, words) -> np.ndarray:
        """[value(u) for u in words] as a float array, one dict lookup
        per word; the words are tuples, read to their first `width`
        symbols."""
        w = self.width
        try:
            return np.array([self.table[u[:w]] for u in words], dtype=float)
        except KeyError as e:
            raise self._missing(e.args[0]) from None

    def _missing(self, key) -> ValueError:
        return ValueError(f"the width-{self.width} potential table has no "
                          f"value for the word {key}")


def zero_potential() -> CylinderPotential:
    """phi = 0 as a width-1 potential with a defaulting table."""

    class _ZeroTable(dict):
        def __missing__(self, key):
            return 0.0

    p = CylinderPotential(1, {})
    object.__setattr__(p, "table", _ZeroTable())
    return p


# ----------------------------------------------------------------------
# measures
# ----------------------------------------------------------------------


class MarkovMeasure:
    """Shift-invariant Markov measure: a stochastic kernel supported on the
    SFT transitions plus its stationary vector.  The kernel is one edge
    list of its positive entries, src -> dst with probability prob, in
    row-major order (that of `Sft._edges`); `transition` is a dense
    read-only view of it, built on first read.  `words` names each state
    by a block of original symbols (single symbols by default)."""

    def __init__(self, transition, stationary=None, words=None):
        P = np.asarray(transition, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("kernel must be square")
        src, dst = np.nonzero(P)
        self._set(src, dst, P[src, dst], P.sum(axis=1), stationary, words)

    @classmethod
    def from_edges(cls, n: int, src, dst, prob, stationary=None, words=None):
        """The measure of the entries prob on the edges src -> dst, in any
        order, of states 0..n-1."""
        order = np.lexsort((dst, src))
        src, dst, prob = (np.asarray(a)[order] for a in (src, dst, prob))
        mu = cls.__new__(cls)
        mu._set(src, dst, prob, np.bincount(src, prob, n), stationary, words)
        return mu

    def _set(self, src, dst, prob, row_sums, stationary, words):
        if not np.all(np.isfinite(prob) & (prob >= 0)):
            raise ValueError("kernel entries must be finite and >= 0")
        if np.any(np.abs(row_sums - 1.0) > 1e-9):
            raise ValueError("kernel rows must sum to 1")
        n, keep = len(row_sums), prob > 0
        self.n_states, self.src, self.dst = n, src[keep], dst[keep]
        self.prob = prob[keep] / row_sums[self.src]
        twice = np.flatnonzero(np.diff(self.src * n + self.dst) == 0)
        if twice.size:
            a, b = self.src[twice[0]], self.dst[twice[0]]
            raise ValueError(f"kernel entry ({a}, {b}) is given twice")
        if stationary is None:
            stationary = _stationary_vector(n, self.src, self.dst, self.prob)
        pi = np.asarray(stationary, dtype=float)
        pi = pi / pi.sum()
        if np.max(np.abs(np.bincount(self.dst, pi[self.src] * self.prob, n)
                         - pi)) > 1e-9:
            raise ValueError("stationary vector does not satisfy pi P = pi")
        self.stationary = pi
        if words is None:
            words = tuple((i,) for i in range(n))
        self.words = tuple(tuple(w) for w in words)

    @cached_property
    def transition(self) -> np.ndarray:
        P = np.zeros((self.n_states, self.n_states))
        P[self.src, self.dst] = self.prob
        P.setflags(write=False)
        return P

    def _edge(self, a, b) -> np.ndarray:
        """The edge-list index of each step a -> b."""
        n = self.n_states
        return np.searchsorted(self.src * n + self.dst, a * n + b)

    def entropy(self) -> float:
        """-sum nu(a b) log P(a, b) over the edges a -> b."""
        nu = self.stationary[self.src] * self.prob
        return float(-(nu * np.log(self.prob)).sum())

    def sample_columns(self, n: int, length: int, rng, start_weights=None):
        """n independent stationary sample paths, a new array of n states
        per step: one `rng.choice` for the starts, one `rng.random(n)` u a
        step.  The next state is the successor in the slot that counts the
        predecessor's thresholds below u, its row's cumulative sums with the
        last one made inf."""
        starts = np.searchsorted(self.src, np.arange(self.n_states))
        slot = np.arange(len(self.src)) - starts[self.src]
        table = np.zeros((self.n_states, slot.max() + 1))
        table[self.src, slot] = np.where(
            np.diff(self.src, append=self.n_states), np.inf, self.prob)
        thresholds = np.cumsum(table, axis=1)[:, :-1].T
        w0 = self.stationary if start_weights is None else \
            np.asarray(start_weights, float) / np.sum(start_weights)
        col = rng.choice(self.n_states, size=n, p=w0)
        yield col
        for _ in range(length - 1):
            u = rng.random(n)
            edge = starts.take(col)
            for column in thresholds:
                edge += u > column.take(col)
            col = self.dst.take(edge)
            yield col

    def sample_words(self, n: int, length: int, rng,
                     start_weights=None) -> np.ndarray:
        """n independent stationary sample paths, the (n, length) view of
        the step-major array of `sample_columns`."""
        return np.fromiter(self.sample_columns(n, length, rng, start_weights),
                           np.dtype((np.int64, n)), length).T


def _stationary_vector(n: int, src, dst, prob) -> np.ndarray:
    """pi P = pi, sum pi = 1 for the kernel P of the entries prob on the
    edges src -> dst: one direct solve on the dense P, the last balance
    equation replaced by the normalization; lstsq (least norm) where more
    than one closed class makes that singular."""
    P = np.zeros((n, n))
    P[src, dst] = prob
    A = P.T - np.eye(n)
    A[-1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    pi = np.maximum(pi, 0.0)
    return pi / pi.sum()


def _state_paths(base: MarkovMeasure, length: int):
    """(paths, nu): the state paths of `length` states along the kernel's
    edges, as the rows of an int array in lexicographic order, and their
    probabilities nu(p) = pi(p_0) P(p_0, p_1) ... P(p_-2, p_-1)."""
    paths = _words((base.src, base.dst), length)
    nu = base.stationary[paths[:, 0]]
    for a, b in zip(paths.T[:-1], paths.T[1:]):
        nu = nu * base.prob[base._edge(a, b)]
    return paths, nu


def _check_support(sft: Sft, base: MarkovMeasure) -> None:
    """ValueError unless base is a width-1 measure on transitions of the
    SFT; the message names a transition the SFT forbids."""
    if any(len(w) != 1 for w in base.words):
        raise ValueError("width-1 base measure required")
    a, b = (np.ravel(base.words)[s] for s in (base.src, base.dst))
    bad = np.flatnonzero(~sft.transitions[a, b])
    if bad.size:
        raise ValueError(f"the measure puts mass on the transition "
                         f"{a[bad[0]]} -> {b[bad[0]]}, which the SFT forbids")


@dataclass(frozen=True)
class SuspendedMeasure:
    """Flow-invariant measure nu x Leb / mean_roof over a suspension; roof
    gives each state of the base measure its value."""

    base: MarkovMeasure
    roof: Roof
    mean_roof: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "mean_roof", float(
            np.dot(self.base.stationary, self.roof.array)))


def _sample_orbits(mu: SuspendedMeasure, n: int, length: int, rng):
    """n orbits sampled from mu: their normalized start heights u, uniform
    in [0, 1) and drawn first, and the state columns of their paths, one
    step at a time, whose first state i is drawn with weight pi_i r_i."""
    if n < 1:
        raise ValueError(f"the sample count must be at least 1, got {n}")
    u = rng.random(n)
    return u, mu.base.sample_columns(
        n, length, rng, start_weights=mu.base.stationary * mu.roof.array)


# ----------------------------------------------------------------------
# block recoding and fiber rates
# ----------------------------------------------------------------------


def block_recode(sft: Sft, roof: Roof, w: int):
    """(Sft_w, Roof_w, words): the w-block presentation; state u -> v is
    allowed iff u[1:] == v[:-1] (and the extra transition is admissible,
    which the word construction already guarantees).  It is built by
    index: the transitions as a bool array (so `Sft` skips its 0/1 test),
    the edge cache from the same indices, and the roof by `Roof.take` of
    each word's first symbol; w = 1 returns sft and roof themselves."""
    if w == 1:
        return sft, roof, tuple((s,) for s in range(sft.n_symbols))
    # the rows u + (b,) of the (w + 1)-words are the edges u -> u[1:] + (b,)
    # in row-major order, and every w-word u has one; the rows are sorted,
    # so are the base-n keys of their first and last w symbols
    U = _words(sft._edges, w + 1)
    src, dst = (np.ravel_multi_index(V.T, (sft.n_symbols,) * w)
                for V in (U[:, :-1], U[:, 1:]))
    new = np.diff(src, prepend=-1) > 0
    W, i, j = U[new, :-1], np.cumsum(new) - 1, np.searchsorted(src[new], dst)
    A = np.zeros((len(W), len(W)), bool)
    A[i, j] = True
    sft_w = Sft(A)
    sft_w._edges = i, j  # fill the cache
    return sft_w, roof.take(W[:, 0]), tuple(map(tuple, W.tolist()))


def _prepare(system: Suspension, phi: CylinderPotential):
    """Recoded (sft, roof, words, phihat) matching the potential width."""
    sft_w, roof_w, words = block_recode(system.sft, system.roof, phi.width)
    return sft_w, roof_w, words, phi.values(words) * roof_w.array


# ----------------------------------------------------------------------
# Birkhoff integrals
# ----------------------------------------------------------------------


def birkhoff(system: Suspension, phi, seg: OrbitSegment) -> float:
    """Phi(x, t) = int_0^t phi(f_s x) ds for a cylinder potential: the
    fiber pieces of x's window (`_pieces`) weighted by phi on the window's
    positions."""
    if not isinstance(phi, CylinderPotential):
        raise TypeError(f"unsupported potential {type(phi).__name__}")
    n = int(math.ceil(seg.duration / system.roof.min)) + 2
    x = seg.start.base
    k, h = _locate(x.symbol_at, system.roof, seg.start.height)
    w = x.window(k, k + n + phi.width - 1)
    values = [phi.value(w[j:j + phi.width]) for j in range(n)]
    pieces, _ = _pieces(np.array([w[:n]]), system.roof, [h], [seg.duration])
    return float((pieces[0] * values).sum())


# ----------------------------------------------------------------------
# Perron machinery
# ----------------------------------------------------------------------


_PERRON_TOL = 1e-13
_EPS = float(np.finfo(float).eps)
_PERRON_MAX_ITER = 100_000
# the largest n whose Perron solve starts from a dense eigenvector
_EIG_MAX_N = 48


def _perron(n: int, src, dst, weight, v0=None) -> tuple:
    """(root, v, steps): the Perron root of an irreducible non-negative
    n x n matrix M, its right Perron vector summing to 1, and the number
    of products M v it took.  M holds weight[e] at (src[e], dst[e]), the
    edges sorted by source.

    The certificate: the ratios (M v)_i / v_i bracket the Perron root
    (Collatz-Wielandt), so the relative width of their range bounds the
    relative error of lam = sum(M v) for v summing to 1.  A vector is
    accepted once that width is at most _PERRON_TOL; until then v takes a
    power step on M + lam I, whose shift makes the Perron root strictly
    dominant even when M is periodic.

    The regime depends on n.  Up to _EIG_MAX_N states, M is dense and v
    starts as the eigenvector of `np.linalg.eig` for the eigenvalue of
    largest real part, in absolute value, and usually passes the
    certificate at once.  A non-finite M or a seed with a zero entry falls
    back to the start of larger n: v0 if given, else uniform.  Above, M v
    is one `take` and one `np.add.reduceat` over the edges, with no dense
    M built.  The bound is where one eigendecomposition stops paying for
    the power steps it saves.  With one BLAS thread, eig takes about 20 us
    at n = 2, 370 us at 32, 950 us at 48 and 2 ms at 64, and a
    warm-started solve 20 to 240 steps of about 10 us on the edge list,
    20 on rose2 and its block recodes, 100 or more where the second
    eigenvalue is close.  Timing `pressure` in both regimes on random
    SFTs of 32 to 64 states and on block recodes of golden, theta and
    rose2, eig was as fast or faster on every case up to 48 states but
    rose2 at 36 (1.35 times slower), the edge list on most above."""
    v = None
    if n <= _EIG_MAX_N:
        M = np.zeros((n, n))
        M[src, dst] = weight
        if np.isfinite(M).all():
            vals, vecs = np.linalg.eig(M)
            seed = np.abs(vecs[:, np.argmax(vals.real)])
            if np.all(seed > 0):
                v = seed / seed.sum()

        def times(v):
            return M @ v
    else:
        starts = np.searchsorted(src, np.arange(n))

        def times(v):
            return np.add.reduceat(weight * v.take(dst), starts)
    if v is None:
        v = np.full(n, 1.0 / n) if v0 is None else v0 / v0.sum()
    for it in range(1, _PERRON_MAX_ITER + 1):
        w = times(v)
        lam = w.sum()
        r = w / v
        res = (r.max() - r.min()) / lam
        if res <= _PERRON_TOL:
            return float(lam), v, it
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


def _bracketed_root(f, lo: float, hi: float, flo: float, fhi: float,
                    tol: float) -> tuple:
    """(root, half-width of the final bracket) of a continuous f on
    [lo, hi] by the Illinois method, given flo = f(lo) != 0 and fhi =
    f(hi) of the other sign or zero.  It reads only the signs and values
    of f, so it serves roots with no bound on the slope of f, such as the
    beta of `ldp._legendre`."""
    moved = 0  # the end replaced last, +1 lo, -1 hi
    while hi - lo > 2 * tol:
        # regula falsi point, kept tol inside the bracket so that the end
        # beyond the root moves too
        s = hi - fhi * (hi - lo) / (fhi - flo)
        s = min(max(s, lo + tol), hi - tol)
        fs = f(s)
        # Illinois: halve the value at an end kept twice in a row
        if (fs > 0) == (flo > 0):
            lo, flo = s, fs
            if moved > 0:
                fhi *= 0.5
            moved = 1
        else:
            hi, fhi = s, fs
            if moved < 0:
                flo *= 0.5
            moved = -1
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def _spectral_root(n: int, src, dst, phihat: np.ndarray, roofs: np.ndarray,
                   tol: float) -> tuple:
    """(root, half-width of the final bracket, last Perron vector, counts)
    of f(s) = log Perron root of M(s) = A diag(e^{phihat - s roofs}), A the
    0/1 matrix of the edges src -> dst on states 0..n-1, sorted by source.
    Every root is certified by `_perron` to relative width _PERRON_TOL;
    each solve above _EIG_MAX_N states starts from the last one's vector.
    counts holds the Perron solves and their products M v.

    f'(s) is minus the mean roof of the equilibrium state of phihat - s
    roofs (Parry-Pollicott, Asterisque 187-188, ch. 4), so it lies in
    [-r_max, -r_min], and one value f(s) puts the root in [s + f/r_max,
    s + f/r_min] when f >= 0 (the ends swapped when f < 0).  A computed
    f is within delta = 2 _PERRON_TOL + eps (|f| + 2 |s| r_max +
    max|phihat|) of the true one, eps = 2^-52: the certificate bounds
    |lam - rho| by _PERRON_TOL lam, and the second _PERRON_TOL covers the
    rounding of the certificate's ratios and sums and of exp (a few ulp
    each); the eps term covers the rounding of the argument phihat - s
    roofs of exp, which becomes a relative error of the weights, of the
    log, and of the bracket ends s + (f -/+ delta) / r (delta / r >= 2 eps
    |s|).  Each solve narrows the bracket by f -/+ delta.  The next point
    is the secant through the last two values when it lies inside the
    bracket and the last solve at least halved it, else the midpoint, so
    that every other solve halves the bracket.  The loop stops once the
    bracket is at most 2 tol wide or at the floor 2 delta / r_min that one
    solve at the root gives.  With a constant roof one solve reaches that
    floor."""
    v = None
    counts = {"perron_solves": 0, "perron_iterations": 0}
    r_min, r_max = float(roofs.min()), float(roofs.max())
    phi_max = float(np.abs(phihat).max())
    # M(lo) >= A entrywise, so its Perron root is >= rho(A) >= 1; every row
    # of M(hi) sums to at most 1, so its Perron root is <= 1
    lo = float(np.min(phihat / roofs)) - 1e-12
    hi = float(np.max(phihat / roofs)) \
        + math.log(np.bincount(src).max()) / r_min + 1e-12
    s, last = 0.5 * (lo + hi), None
    while True:
        root, v, steps = _perron(n, src, dst,
                                 np.exp(phihat - s * roofs)[dst], v)
        counts["perron_solves"] += 1
        counts["perron_iterations"] += steps
        f = math.log(root)
        delta = 2 * _PERRON_TOL \
            + _EPS * (abs(f) + 2 * abs(s) * r_max + phi_max)
        width = hi - lo
        lo = max(lo, s + (f - delta) / (r_max if f >= delta else r_min))
        hi = min(hi, s + (f + delta) / (r_min if f >= -delta else r_max))
        # the floor, with the rounding of the two ends
        if hi - lo <= 2 * max(tol, delta / r_min) \
                + 2 * _EPS * (abs(lo) + abs(hi)):
            return 0.5 * (lo + hi), 0.5 * (hi - lo), v, counts
        nxt = 0.5 * (lo + hi)
        if last is not None and last[1] != f and hi - lo <= 0.5 * width:
            secant = s - f * (s - last[0]) / (f - last[1])
            if lo < secant < hi:
                nxt = secant
        last, s = (s, f), nxt


def _gibbs_data(n: int, src, dst, phihat: np.ndarray, roofs: np.ndarray):
    """(P, x, lam, v, u): the pressure P of the fiber integrals phihat on
    the edges src -> dst (sorted by source), the weights x = e^{phihat - P
    roofs} of M = A diag(x), and the Perron root and the right and left
    Perron vectors of M.  The right solve starts from the root's last
    vector.  The left vector is x y, y the right Perron vector of A^T
    diag(x), over the reversed edges sorted by their new source.  The
    equilibrium state is the Markov chain M_ab v_b / (lam v_a) with
    stationary vector u v."""
    P_val, _, v, _ = _spectral_root(n, src, dst, phihat, roofs, 1e-12)
    x = np.exp(phihat - P_val * roofs)
    lam, v, _ = _perron(n, src, dst, x[dst], v)
    back = np.argsort(dst, kind="stable")
    _, y, _ = _perron(n, dst[back], src[back], x[src[back]])
    return P_val, x, lam, v, x * y


def _check_spectral(system: Suspension, phi) -> None:
    """Reject what no Perron solve takes: a potential that is not a
    cylinder potential (TypeError) and a reducible shift (ValueError)."""
    if not isinstance(phi, CylinderPotential):
        raise TypeError(f"unsupported potential {type(phi).__name__}")
    if not is_irreducible(system.sft):
        raise ValueError("system is not irreducible")


def pressure(system: Suspension, phi, method: str = "spectral",
             t_grid=None, max_period: float = 12.0,
             tol: float = 1e-10) -> PressureResult:
    """Topological pressure of the suspension flow for the potential phi."""
    _check_spectral(system, phi)
    sft_w, roof_w, words, phihat = _prepare(system, phi)

    if method == "spectral":
        val, err, _, counts = _spectral_root(
            sft_w.n_symbols, *sft_w._edges, phihat, roof_w.array, tol)
        return PressureResult(val, err, "spectral",
                              {"bracket_width": 2 * err, **counts})
    if method == "separated":
        return _separated_pressure(sft_w.transitions.astype(float), roof_w,
                                   phihat, t_grid, max_period)
    if method == "gurevic":
        return _gurevic_pressure(system, phi, max_period)
    raise ValueError(f"unknown pressure method {method!r}")


def _separated_pressure(A: np.ndarray, roof: Roof, phihat, t_grid,
                        max_period: float) -> PressureResult:
    L, R = _lattice(roof, max_period)
    Nmax = int(math.ceil(max_period * L)) + 1
    weights = np.exp(phihat)
    U = _tick_dp(A, R, weights[None, :], np.array([Nmax]))
    # totals[N]: sum of e^Phi over admissible words with total ticks N; a
    # word is its first symbol s followed by a path of N - R_s ticks from s
    paths = np.array([u[0].sum(axis=1) for u in U])
    totals = np.zeros(Nmax + 1)
    for s, r in enumerate(R):
        totals[r:] += weights[s] * paths[:Nmax + 1 - r, s]
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
                           "slope_ci": ci, "lattice": L, "ticks": Nmax})


def _gurevic_pressure(system: Suspension, phi: CylinderPotential,
                      max_period: float) -> PressureResult:
    """On whole periods g of the tick graph, W(N) = psi(N) - psi(N - h)
    sums the last h steps, h a quarter of the range; the estimate is
    log(W(N) / W(N - h)) / h at the top N, the error how far it moves as N
    slides back one window.  W is a sum of powers of the tick matrix's
    eigenvalues: the rate is exact for one eigenvalue, and oscillates with
    the second otherwise (theta).  Primitive orbits alone lack the
    repeats, which bias finite-t rates up (0.053 on golden (1,2) at
    t = 12)."""
    L, counts, traces, _, _ = _orbit_sums(system, phi, max_period)
    g = int(np.gcd.reduce(np.flatnonzero(traces))) or 1
    psi = np.cumsum(traces)[::g] / L
    J = len(psi) - 1
    h = J // 4
    ends = np.arange(J - h, J + 1)
    top, below = psi[ends] - psi[ends - h], psi[ends - h] - psi[ends - 2 * h]
    if h < 1 or not below[-1] > 0:
        raise NonConvergenceError("gurevic: too few lattice points with "
                                  "closed orbits")
    ok = below > 0
    rates = L / g * np.log(top[ok] / below[ok]) / h
    value = rates[-1]
    return PressureResult(float(value), float(np.max(np.abs(rates - value))),
                          "gurevic",
                          {"t_grid": (ends[ok] * g / L).tolist(),
                           "rates": rates.tolist(), "window": h * g / L,
                           "lattice": L, "ticks": len(counts) - 1,
                           "n_orbits": int(counts.sum())})


# ----------------------------------------------------------------------
# lattice engine for closed-orbit sums
# ----------------------------------------------------------------------


_MAX_TICKS = 4096


def _lattice(roof: Roof, t: float) -> tuple:
    """(L, R): the least L with every roof value on the lattice 1/L, and
    the ticks R_s = L r_s, read exactly from the stored values (a float is
    the binary fraction it stores).  ValueError for L t above _MAX_TICKS,
    which is where a float standing for a number that is not a binary
    fraction (0.1, 2 ** 0.5) ends up."""
    fr = [Fraction(v) for v in roof.values]
    L = math.lcm(*[f.denominator for f in fr])
    if L * Fraction(t) > _MAX_TICKS:
        raise ValueError(
            f"closed-orbit sums up to t = {float(t):g} on the roof lattice "
            f"1/{L} need more ticks than the cap {_MAX_TICKS}; they need "
            f"rational roof values with small denominators, given exactly "
            f"(as Fractions, or as strings such as \"1/3\" in a JSON roof)")
    return L, np.array([int(f * L) for f in fr])


def _tick_dp(A: np.ndarray, R: np.ndarray, weights: np.ndarray,
             top: np.ndarray) -> list:
    """U[N] for N = 0..top[0]: U[N][k, i, j] sums prod_{l=1..m}
    weights[k, s_l] over the admissible paths i = s_0, s_1, ..., s_m = j
    (m >= 0) of R[s_1] + ... + R[s_m] = N ticks.  Row k is kept while
    N <= top[k] (top is non-increasing), so U[N] has one row per k with
    top[k] >= N."""
    steps = [(rho, (A * (R == rho))[None] * weights[:, None, :])
             for rho in np.unique(R)]
    U = [np.broadcast_to(np.eye(len(R)), (len(top),) + A.shape)]
    for N in range(1, int(top[0]) + 1):
        rows = int(np.count_nonzero(top >= N))
        acc = np.zeros((rows,) + A.shape)
        for rho, B in steps:
            if rho <= N:
                acc += U[N - rho][:rows] @ B[:rows]
        U.append(acc)
    return U


def _orbit_sums(system: Suspension, phi: CylinderPotential, t: float,
                depth: int = None) -> tuple:
    """Exact sums over the closed orbits gamma of period <= t: (L, counts,
    traces, words, weights).  For p = 0..floor(L t), counts[p] is the
    number of primitive orbits of lattice period p (exact below 2^53) and
    traces[p] = tr_1(p) sums e^{Phi} over the closed orbits of p ticks,
    repeats included, times the lattice period of their primitive orbit.
    Unless depth is None, words lists the admissible words of length
    max(depth, phi.width) that occur in primitive orbits, sorted, and
    weights[i] = sum_gamma e^{Phi(gamma)} mu_gamma(words[i]) over them.

    On the SFT recoded to phi's width, the rotations of a q-fold repeat of
    a primitive orbit of lattice period p, each weighted by the ticks R of
    its last symbol, add up to p e^{q Phi}.  So tr_k(N) = sum_j R_j
    U_k[N]_jj = sum_{p | N} p A(p, k N / p), A(p, m) the sum of e^{m Phi}
    over the primitive orbits of period p, and p A(p, 1) = sum_{d | p}
    mu(d) tr_d(p / d): Moebius inversion with the exponent twisted along
    (k fixed is wrong once phi != 0); k = 0 counts.  Word weights invert
    the rotations that start with the word w instead: for orbits at least
    as long as w, e^{Phi(w[1:])} U_k[N - R(w[1:])][w[-1], w[0]]; a shorter
    orbit counts when w is periodic with its length (periodicity mask)."""
    sft_w, roof_w, states, phihat = _prepare(system, phi)
    L, R = _lattice(roof_w, t)
    P = int(math.floor(t * L + 1e-9))
    A = sft_w.transitions.astype(float)
    k = np.arange(P + 1)
    U = _tick_dp(A, R, np.exp(np.outer(k, phihat)),
                 np.r_[P, P // k[1:]])
    Ucat = np.concatenate(U)  # U[N][k] is its row off[N] + k
    off = np.cumsum([0] + [len(u) for u in U])
    # Moebius function: sum_{d | n} mu(d) = [n = 1]
    mu = np.zeros(P + 1, dtype=np.int64)
    mu[1:2] = 1  # a slice: no index 1 when P = 0
    for q in range(1, P + 1):
        mu[2 * q::q] -= mu[q]
    # the pairs (d, N) with d square-free and d N <= P
    d, N = np.nonzero((mu != 0)[:, None] & (k > 0)
                      & (k[:, None] <= P // np.maximum(k, 1)))
    tr = np.einsum("pjj,j->p", Ucat, R)
    counts = np.rint(np.bincount(d * N, mu[d] * tr[off[N]], P + 1)
                     / np.maximum(k, 1))
    traces = np.zeros(P + 1)
    traces[1:] = tr[off[1:-1] + 1]
    if not np.all(np.isfinite(tr)):
        raise NonConvergenceError(f"closed-orbit sums overflow on {P} "
                                  f"lattice ticks")
    if depth is None or not P:
        return L, counts, traces, None, None

    W = _words(sft_w._edges, max(depth, phi.width) - phi.width + 1)
    first, last = W[:, 0], W[:, -1]
    Rc = np.cumsum(R[W], axis=1)
    Fc = np.cumsum(phihat[W], axis=1)
    # rotations of N ticks that start with a word at least as long as the
    # word: the word, then a path of N - Rin ticks back to its first state;
    # Z[r, d] = sum_N U[N - lag_r][d] / N for each distinct lag Rin
    Rin, Fin = Rc[:, -1] - R[first], Fc[:, -1] - phihat[first]
    lags, r = np.unique(Rin, return_inverse=True)
    Z = np.zeros((len(lags), P + 1) + A.shape)
    for z, lag in zip(Z, lags):
        sel = N > lag
        np.add.at(z, d[sel], Ucat[off[N[sel] - lag] + d[sel]]
                  / N[sel, None, None])
    ds = np.flatnonzero(mu)
    marks = Z[r[:, None], ds, last[:, None], first[:, None]]
    acc = (marks * np.exp(np.outer(Fin, ds))) @ (mu[ds] / ds)
    seen = marks[:, 0] > 0
    # rotations of orbits of m < len(word) states: the periodicity mask
    per = np.zeros((len(W), W.shape[1] - 1), dtype=bool)
    for m in range(1, W.shape[1]):
        per[:, m - 1] = ((W[:, m:] == W[:, :-m]).all(axis=1)
                         & (A[W[:, m - 1], first] > 0))
    i, m = np.nonzero(per & (Rc[:, :-1] <= P))
    Nw, Fw = Rc[i, m, None], Fc[i, m, None]
    inside = ds * Nw <= P
    np.add.at(acc, i, np.where(inside, mu[ds] / (ds * Nw) * np.exp(
        np.where(inside, ds * Fw, 0.0)), 0.0).sum(axis=1))
    seen[i] = True
    weights = R[first] * acc
    if not np.all(np.isfinite(weights)):
        raise NonConvergenceError(f"closed-orbit sums overflow on {P} "
                                  f"lattice ticks")
    S = np.array(states)
    words = np.concatenate([S[W[:, :-1], 0], S[last]], axis=1)
    return L, counts, traces, words[seen], weights[seen]


# ----------------------------------------------------------------------
# equilibrium states
# ----------------------------------------------------------------------


def equilibrium_state(system: Suspension, phi) -> SuspendedMeasure:
    """The Gibbs/equilibrium measure of phi via Perron eigendata of
    M(P(phi))."""
    sft_w, roof_w, words, phihat = _prepare(system, phi)
    src, dst = sft_w._edges
    _, x, lam, v, u = _gibbs_data(len(words), src, dst, phihat,
                                  roof_w.array)
    prob = (x * v)[dst] / (lam * v[src])
    prob = prob / np.bincount(src, prob)[src]
    pi = u * v
    pi = pi / pi.sum()
    base = MarkovMeasure.from_edges(len(v), src, dst, prob, pi, words)
    return SuspendedMeasure(base, roof_w)


def entropy_and_mean(mu: SuspendedMeasure, phi) -> tuple:
    """(h_mu, int phi dmu) for the flow measure: Abramov quotient for the
    entropy; phi on the word of each state path p long enough for its
    width, weighted by nu(p) r(p_0) / mean roof, for the integral."""
    h = mu.base.entropy() / mu.mean_roof
    if phi is None:
        return h, 0.0
    if not isinstance(phi, CylinderPotential):
        raise TypeError("entropy_and_mean needs a cylinder potential")
    words = mu.base.words
    paths, nu = _state_paths(
        mu.base, max(1, phi.width - min(map(len, words)) + 1))
    vals = [phi.value(words[p[0]] + tuple(words[j][-1] for j in p[1:]))
            for p in paths.tolist()]
    weights = nu * mu.roof.array[paths[:, 0]] / mu.mean_roof
    return h, float(np.dot(weights, vals))


def random_markov_measure(sft: Sft, rng) -> MarkovMeasure:
    """A random fully-supported Markov measure on the SFT transitions."""
    src, dst = sft._edges
    prob = rng.random(len(src)) + 0.05
    return MarkovMeasure.from_edges(sft.n_symbols, src, dst,
                                    prob / np.bincount(src, prob)[src])


# ----------------------------------------------------------------------
# Gibbs property and Bowen constants
# ----------------------------------------------------------------------


def gibbs_ratio_stats(system: Suspension, mu: SuspendedMeasure, phi,
                      rho: float, t_grid, samples: int, seed: int) -> dict:
    """Ratios mu(B_t(x, rho)) / e^{-t P + Phi(x, t)} over sampled points.

    The Bowen ball B_t(x, rho) is evaluated as the cylinder of the symbols
    forced through index c(t) + k(rho) crossed with the normalized-height
    window of radius rho, whose flow measure is
    nu(cylinder) * window_length / mean_roof.  The base measure of mu and
    the cylinder potential phi must have width 1: the array walk reads
    Phi(x, t) and the occupied fiber c(t) off the sampled state paths."""
    if len(t_grid) == 0 or not all(0 < t < math.inf for t in t_grid):
        raise ValueError(f"t_grid must be non-empty with every t positive "
                         f"and finite, got {list(t_grid)}")
    if rho >= min(1.0, system.roof.min) / 4.0:
        raise ValueError("above expansivity scale")
    _check_support(system.sft, mu.base)
    if not isinstance(phi, CylinderPotential):
        raise TypeError("cylinder potential required")
    if phi.width != 1:
        raise ValueError("gibbs_ratio_stats needs a width-1 potential")
    k_rho = _forced_depth(rho)
    P_val = pressure(system, phi, "spectral").value
    rng = np.random.default_rng(seed)
    length = int(math.ceil(max(t_grid) / system.roof.min)) + k_rho + 3
    u, columns = _sample_orbits(mu, samples, length, rng)
    paths = np.array(list(columns)).T
    win = (np.minimum(1.0, u + rho) - np.maximum(0.0, u - rho)) \
        * mu.roof.array[paths[:, 0]]
    # log_nu[:, d - 1]: log nu of the cylinder of the first d + 1 states;
    # the ball depth d = c + k_rho is at least 2, as rho < 1/4
    log_nu = np.log(mu.base.stationary[paths[:, :1]]) + np.cumsum(np.log(
        mu.base.prob[mu.base._edge(paths[:, :-1], paths[:, 1:])]), axis=1)
    phi_v = phi.values(mu.base.words)
    per_t = {}
    for t in t_grid:
        Phi, c = _column_integrals(paths.T, phi_v, mu.roof, t, u)[:2]
        ball = np.exp(log_nu[np.arange(samples), c + k_rho - 1]) * win \
            / mu.mean_roof
        ratios = ball / np.exp(-t * P_val + Phi)
        per_t[t] = (float(ratios.min()), float(ratios.max()))
    lo, hi = zip(*per_t.values())
    return {"min_ratio": min(lo), "max_ratio": max(hi), "per_t": per_t}
