"""Exact reference values for the benchmark's pass rules.

Everything here is computed from plain model data (transition matrices,
roof values, potential tables) with numpy, scipy and integer arithmetic.
Nothing imports thermoflow, so a defect in the library cannot leak into
the reference it is checked against.  `selftest.py` checks each oracle
against brute force at small size.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


# ----------------------------------------------------------------------
# models as plain data
# ----------------------------------------------------------------------


def directed_edges(graph: dict):
    """(tails, heads, lengths as Fractions) of the directed edges of a
    metric graph in the JSON schema of tests/data: directed edge 2k runs
    from -> to along undirected edge k, 2k+1 runs back."""
    tail, head, length = [], [], []
    for e in graph["edges"]:
        a, b, ln = int(e["from"]), int(e["to"]), Fraction(str(e["length"]))
        tail += [a, b]
        head += [b, a]
        length += [ln, ln]
    return tail, head, length


def edge_shift(graph: dict):
    """(transition matrix, edge lengths) of the non-backtracking
    directed-edge shift of a metric graph."""
    tail, head, length = directed_edges(graph)
    n = len(tail)
    A = np.array([[int(head[e] == tail[f] and f != e ^ 1) for f in range(n)]
                  for e in range(n)])
    return A, length


def graph_distances(graph: dict):
    """All-pairs vertex distances (Floyd-Warshall, exact Fractions)."""
    nv = int(graph["vertices"])
    inf = None
    D = [[Fraction(0) if i == j else inf for j in range(nv)]
         for i in range(nv)]
    for e in graph["edges"]:
        a, b, ln = int(e["from"]), int(e["to"]), Fraction(str(e["length"]))
        for u, v in ((a, b), (b, a)):
            if D[u][v] is None or ln < D[u][v]:
                D[u][v] = ln
    for k in range(nv):
        for i in range(nv):
            for j in range(nv):
                if D[i][k] is not None and D[k][j] is not None:
                    via = D[i][k] + D[k][j]
                    if D[i][j] is None or via < D[i][j]:
                        D[i][j] = via
    return D


def point_distance(graph: dict, p1, p2) -> float:
    """Graph distance between positions (directed edge, offset from its
    tail)."""
    tail, head, length = directed_edges(graph)
    length = [float(x) for x in length]
    D = graph_distances(graph)
    (e1, s1), (e2, s2) = p1, p2
    best = math.inf
    if e1 == e2:
        best = abs(s1 - s2)
    if e1 == e2 ^ 1:
        best = min(best, abs(s1 - (length[e2] - s2)))
    for d1, v1 in ((s1, tail[e1]), (length[e1] - s1, head[e1])):
        for d2, v2 in ((s2, tail[e2]), (length[e2] - s2, head[e2])):
            best = min(best, d1 + float(D[v1][v2]) + d2)
    return best


# ----------------------------------------------------------------------
# specification constant
# ----------------------------------------------------------------------


def min_gap(A) -> int:
    """Least tau such that every ordered symbol pair (a, b) is joined by a
    word a u b with |u| <= tau (exact boolean matrix powers)."""
    A = np.asarray(A, dtype=bool)
    n = A.shape[0]
    reach = A.copy()
    best = np.where(A, 0, -1)
    k = 0
    while (best < 0).any():
        k += 1
        if k > n * n:
            raise ValueError("not irreducible")
        reach = (reach.astype(int) @ A.astype(int)) > 0
        best = np.where((best < 0) & reach, k, best)
    return int(best.max())


def margin(delta: float) -> int:
    """Extra agreed symbols for forward distance < delta: least m with
    2^-(m+2) < delta (the Bowen-Walters window convention)."""
    m = 0
    while 2.0 ** (-(m + 2)) >= delta:
        m += 1
    return m


def transition_bound(A, roof, delta: float) -> float:
    """(tau + margin(delta) + 2) * max roof, the gluing/closing contract."""
    return (min_gap(A) + margin(delta) + 2) * max(roof)


# ----------------------------------------------------------------------
# pressure and equilibrium states
# ----------------------------------------------------------------------


def admissible_words(A, width: int):
    """Admissible words of the given width in lexicographic order."""
    A = np.asarray(A, dtype=bool)
    words = [(s,) for s in range(A.shape[0])]
    for _ in range(width - 1):
        words = [w + (b,) for w in words for b in range(A.shape[0])
                 if A[w[-1], b]]
    return words


def block_system(A, roof, width: int, table: dict):
    """(B, roofs, phihat) of the width-block presentation: state u -> v iff
    u[1:] == v[:-1]; phihat(u) = phi(u) * r(u[0])."""
    words = admissible_words(A, width)
    idx = {w: i for i, w in enumerate(words)}
    n = len(words)
    B = np.zeros((n, n))
    A = np.asarray(A, dtype=bool)
    for i, u in enumerate(words):
        for b in range(A.shape[0]):
            if A[u[-1], b]:
                v = (u + (b,))[1:]
                if v in idx:
                    B[i, idx[v]] = 1.0
    roofs = np.array([float(roof[u[0]]) for u in words])
    phihat = np.array([float(table.get(u, 0.0)) * roofs[i]
                       for i, u in enumerate(words)])
    return B, roofs, phihat


def spectral_radius(M: np.ndarray) -> float:
    if M.shape[0] <= 400:
        return float(np.max(np.abs(np.linalg.eigvals(M))))
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import eigs
    val = eigs(csr_matrix(M), k=1, which="LM", return_eigenvectors=False,
               tol=1e-14)
    return float(abs(val[0]))


def pressure(A, roof, width: int, table: dict) -> float:
    """Flow pressure: the s with spectral radius of
    B * exp(phihat - s r)[None, :] equal to 1.  Uniform roofs give the
    closed form log(rho(B e^phihat)) / r; otherwise the convex, strictly
    decreasing s -> log rho is rooted by brentq."""
    from scipy.optimize import brentq
    B, roofs, phihat = block_system(A, roof, width, table)
    if np.all(roofs == roofs[0]):
        return math.log(spectral_radius(B * np.exp(phihat)[None, :])) \
            / roofs[0]

    def f(s):
        return math.log(spectral_radius(B * np.exp(phihat - s * roofs)
                                        [None, :]))

    lo = float(np.min(phihat / roofs)) - 1.0
    hi = float(np.max(phihat / roofs)) \
        + math.log(B.sum(axis=1).max()) / roofs.min() + 1.0
    return brentq(f, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps,
                  maxiter=200)


def golden12_pressure() -> float:
    """Zero-potential pressure of the golden shift with roof (1, 2): the
    root of e^-s + e^-3s = 1."""
    from scipy.optimize import brentq
    return brentq(lambda s: math.exp(-s) + math.exp(-3 * s) - 1.0,
                  0.01, 2.0, xtol=1e-15)


def equilibrium_frequencies(A, roof, table: dict) -> np.ndarray:
    """Residence-time frequency of each symbol under the equilibrium state
    of a width-1 potential: nu(s) r(s) / sum, nu(s) ~ u_s v_s from the
    Perron vectors of M(P)."""
    P = pressure(A, roof, 1, table)
    B, roofs, phihat = block_system(A, roof, 1, table)
    M = B * np.exp(phihat - P * roofs)[None, :]
    vals, right = np.linalg.eig(M)
    vals_l, left = np.linalg.eig(M.T)
    v = np.abs(np.real(right[:, np.argmax(np.real(vals))]))
    u = np.abs(np.real(left[:, np.argmax(np.real(vals_l))]))
    nu = u * v / np.dot(u, v)
    w = nu * roofs
    return w / w.sum()


def gibbs_band_bound(A, roof, table: dict, rho: float) -> float:
    """t-independent bound on max/min of mu(B_t(x, rho)) / e^{-tP + Phi(x, t)}
    for the equilibrium state of a width-1 potential (the Gibbs property
    with an explicit constant).

    With M = A e^{phihat - P r}, Perron vectors u, v and g = phihat - P r,
    the Bowen ball is the cylinder w_0 .. w_{c+k} (c the fiber occupied at
    time t, k the depth forced by rho) times a height window of length
    between rho r_0 and 2 rho r_0, so its log ratio is
    log u(w_0) + log v(w_{c+k}) + sum_{i=1}^{c+k} g(w_i) - (Phi - tP)
    + log(window / mean roof) + const.  The sum and Phi - tP differ by at
    most (k + 1) max|g| + 2 max r max|phi - P| (partial end fibers and the
    k forced symbols)."""
    P = pressure(A, roof, 1, table)
    B, roofs, phihat = block_system(A, roof, 1, table)
    M = B * np.exp(phihat - P * roofs)[None, :]
    vals, right = np.linalg.eig(M)
    vals_l, left = np.linalg.eig(M.T)
    v = np.abs(np.real(right[:, np.argmax(np.real(vals))]))
    u = np.abs(np.real(left[:, np.argmax(np.real(vals_l))]))
    k = 0
    while 2.0 ** (-(k + 1)) >= rho:
        k += 1
    g = np.max(np.abs(phihat - P * roofs))
    phi = np.array([float(table.get((s,), 0.0)) for s in range(len(roofs))])
    f = np.max(np.abs(phi - P))
    spread = (math.log(u.max() / u.min()) + math.log(v.max() / v.min())
              + math.log(2 * roofs.max() / roofs.min())
              + 2 * ((k + 1) * g + 2 * roofs.max() * f))
    return math.exp(spread)


# ----------------------------------------------------------------------
# large deviations on the full 2-shift
# ----------------------------------------------------------------------


def markov_flow_entropy(P, roof) -> float:
    """Abramov entropy h(nu) / mean roof of a Markov measure with kernel P
    (row-stochastic) on symbols with the given roof values."""
    P = np.asarray(P, dtype=float)
    vals, vecs = np.linalg.eig(P.T)
    pi = np.abs(np.real(vecs[:, np.argmin(np.abs(vals - 1.0))]))
    pi = pi / pi.sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = np.where(P > 0, np.log(np.where(P > 0, P, 1.0)), 0.0)
    return float(-(pi[:, None] * P * lp).sum()) / float(np.dot(pi, roof))


def binary_entropy(p: float) -> float:
    return -(p * math.log(p) + (1 - p) * math.log(1 - p))


def rate_full2_indicator(eps: float) -> float:
    """q(eps) for psi = 1_[1] under the measure of maximal entropy of the
    full 2-shift with unit roof: log 2 - H(1/2 + eps)."""
    return math.log(2) - binary_entropy(0.5 + eps)


def deviation_probability(t: int, eps, strict: bool = False) -> float:
    """Exact P(|(1/t) int_0^t psi - 1/2| >= eps) (or > eps) for psi = 1_[1]
    on the full 2-shift with unit roof, stationary start and a uniform
    start height h.  The integral is S + (1-h) x_0 + h x_t with
    S ~ Bin(t-1, 1/2); the two boundary fibers x_0, x_t are fair coins."""
    t = int(t)
    c = Fraction(t, 2)
    d = Fraction(str(eps)) * t
    total = Fraction(0)
    for k in range(t):
        pk = Fraction(math.comb(t - 1, k), 2 ** (t - 1))
        # x_0 = x_t: the integral is the integer k or k + 1
        for integral in (k, k + 1):
            dev = abs(integral - c)
            hit = dev > d if strict else dev >= d
            total += pk * Fraction(1, 4) * hit
        # x_0 != x_t: the integral is k + u with u uniform on (0, 1); the
        # event has Lebesgue measure independent of strictness
        upper = min(max(1 - (c + d - k), Fraction(0)), Fraction(1))
        lower = min(max(c - d - k, Fraction(0)), Fraction(1))
        total += pk * Fraction(1, 2) * min(upper + lower, Fraction(1))
    return float(total)


# ----------------------------------------------------------------------
# closed orbits
# ----------------------------------------------------------------------


def mobius(n: int) -> int:
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def primitive_orbit_count(A, roof, t: float) -> int:
    """Number of primitive closed orbits of period <= t.

    Each symbol s becomes a chain of R_s = r_s L clock ticks (L the common
    denominator of the roof values), so tr(T^N) counts closed walks of
    lattice length N: sum over d | N of d * P(d), with P(d) the primitive
    orbits of lattice period d.  Moebius inversion gives P(d); for unit
    roofs T = A and this is the classical count from tr(A^n)."""
    fr = [Fraction(r).limit_denominator(10 ** 6) for r in roof]
    L = math.lcm(*[f.denominator for f in fr])
    ticks = [int(f * L) for f in fr]
    starts = list(itertools.accumulate([0] + ticks[:-1]))
    size = sum(ticks)
    T = [[0] * size for _ in range(size)]
    A = np.asarray(A, dtype=bool)
    for s, (st, k) in enumerate(zip(starts, ticks)):
        for j in range(k - 1):
            T[st + j][st + j + 1] = 1
        for s2 in range(A.shape[0]):
            if A[s, s2]:
                T[st + k - 1][starts[s2]] = 1
    Nmax = int(math.floor(t * L + 1e-9))
    traces = [0]
    P = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(Nmax):
        P = [[sum(P[i][k] * T[k][j] for k in range(size) if P[i][k])
              for j in range(size)] for i in range(size)]
        traces.append(sum(P[i][i] for i in range(size)))
    count = 0
    for d in range(1, Nmax + 1):
        dp = sum(mobius(d // k) * traces[k]
                 for k in range(1, d + 1) if d % k == 0)
        count += dp // d
    return count


# ----------------------------------------------------------------------
# separated sets: words of a 2-symbol SFT with given pair statistics
# ----------------------------------------------------------------------


def _compositions(total: int, parts: int) -> int:
    """Ways to write `total` as an ordered sum of `parts` positive
    integers (1 way to write 0 as the empty sum)."""
    if parts == 0:
        return int(total == 0)
    if total < parts:
        return 0
    return math.comb(total - 1, parts - 1)


def word_count(n: int, n1: int, n11: int, allow00: bool = True,
               allow11: bool = True) -> int:
    """Binary words of length n with n1 ones and n11 adjacent 11 pairs,
    optionally forbidding 00 or 11.  The ones form r = n1 - n11 runs and
    the zeros fill r - 1, r or r + 1 runs (1, 2, 1 ways to place the
    outer runs), so the count is a sum of products of two binomials."""
    n0 = n - n1
    if not (0 <= n1 <= n) or n11 < 0:
        return 0
    if not allow11 and n11 > 0:
        return 0
    if n1 == 0:
        return int(n11 == 0 and (allow00 or n <= 1))
    r = n1 - n11
    if r < 1:
        return 0
    total = 0
    for z, mult in ((r - 1, 1), (r, 2), (r + 1, 1)):
        if not allow00 and n0 != z:
            continue
        total += mult * _compositions(n1, r) * _compositions(n0, z)
    return total


def stationary_2(P) -> tuple:
    """(pi_1, p_11) of a 2-state Markov kernel: stationary mass of 1 and
    of the pair 11."""
    P = np.asarray(P, dtype=float)
    a, b = P[0, 1], P[1, 0]
    pi1 = a / (a + b)
    return pi1, pi1 * P[1, 1]


def box_count(n: int, pi1: float, p11: float, zeta: float,
              allow00: bool = True, allow11: bool = True) -> int:
    """Exact number of admissible length-n words with
    |n1/n - pi1| <= zeta and |n11/(n-1) - p11| <= zeta."""
    total = 0
    for n1 in range(n + 1):
        if abs(n1 / n - pi1) > zeta:
            continue
        for n11 in range(max(0, n1 - 1) + 1):
            if abs(n11 / (n - 1) - p11) <= zeta:
                total += word_count(n, n1, n11, allow00, allow11)
    return total
