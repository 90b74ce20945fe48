"""Compact metric graphs and their geodesic flow.

A metric graph with all vertex degrees >= 2 and first Betti number >= 2
carries a geodesic flow conjugate to the suspension of the non-backtracking
directed-edge SFT with roof = edge lengths (unit speed: time equals
arclength).  Directed edges are indexed 2i (forward) and 2i+1 (reverse) for
undirected edge i; reversal(e) = e XOR 1.

The universal cover is a tree; lifts are handled by explicit two-ray
geometry: any two lifted geodesics either share a common segment (when the
edge words share a run) or are joined by a bridge between two vertices, so
pointwise tree distances are piecewise-linear in t and the d_GX integral
against e^{-2|t|} is evaluated in closed form per linear piece (quadrature
error zero; only the tail truncation contributes to the error bound).
`d_GX` is an array kernel over the two edge windows: one equality mask
yields every common run, every run's integral is evaluated at once, and
bridged alignments separate into per-vertex minima, so a call costs
O(n_win^2) array work plus O(n_win + V^2) for the bridges.

Every path length comes from the one (min, +) kernel `sft._shortest_paths`
on exact lengths: the vertex distances that bridge the lifts, built once
per graph, which also decide connectivity, and the systole, a least cycle
of the edge SFT.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .sft import Sft, _shortest_paths
from .suspension import Roof, SuspPoint, Suspension, _locate

__all__ = [
    "GraphModelError",
    "MetricGraph",
    "Geodesic",
    "build_edge_sft",
    "graph_suspension",
    "lift_distance",
    "d_GX",
]


class GraphModelError(ValueError):
    """Raised for graphs outside the model class (non-hyperbolic cases)."""


class MetricGraph:
    """vertices 0..n-1; edges given as (from, to, length) with length a
    positive rational (Fraction recommended for exact unwinding)."""

    def __init__(self, n_vertices: int, edges):
        self.n_vertices = int(n_vertices)
        und = []
        for (a, b, l) in edges:
            l = Fraction(l) if not isinstance(l, Fraction) else l
            if l <= 0:
                raise ValueError("edge lengths must be positive")
            if not (0 <= a < self.n_vertices and 0 <= b < self.n_vertices):
                raise ValueError("edge endpoint out of range")
            und.append((int(a), int(b), l))
        self.und_edges = tuple(und)
        m = len(und)
        if m == 0:
            raise GraphModelError("graph has no edges")
        # directed edges: 2i forward (a->b), 2i+1 reverse (b->a)
        self.tail = []
        self.head = []
        for (a, b, _) in und:
            self.tail += [a, b]
            self.head += [b, a]
        self.n_dir = 2 * m
        # the exact lengths, as the roof of the directed-edge suspension
        self.roof = Roof(l for (_, _, l) in und for _ in range(2))

        deg = [0] * self.n_vertices
        for (a, b, _) in und:
            deg[a] += 1
            deg[b] += 1
        if any(d < 2 for d in deg):
            raise GraphModelError(
                "vertex of degree <= 1: no bi-infinite non-backtracking "
                "geodesic passes through it"
            )
        self._vdist = _shortest_paths(self.n_vertices, self.tail, self.head,
                                      np.array(self.roof.values, dtype=object))
        self._vdist.setflags(write=False)
        if (self._vdist == math.inf).any():
            raise GraphModelError("graph not connected")
        betti = m - self.n_vertices + 1
        if betti < 2:
            raise GraphModelError(
                "elementary fundamental group"
                + (": fundamental group is Z: excluded case" if betti == 1
                   else "")
            )
        self.betti = betti

    @staticmethod
    def reversal(e: int) -> int:
        return e ^ 1

    # --- shortest closed geodesic / systole ---------------------------

    def systole(self) -> Fraction:
        """Length of the shortest closed geodesic (cyclically
        non-backtracking cycle): the least cycle of the edge SFT, each
        transition weighing the length of the edge it enters.  A cycle
        through e -> e' is the transition and a path e' -> e, so its least
        length is D[e', e] + r(e')."""
        sft, roof = build_edge_sft(self)
        src, dst = sft._edges
        r = np.array(roof.values, dtype=object)
        D = _shortest_paths(self.n_dir, src, dst, r[dst])
        return min(D[dst, src] + r[dst])

    @functools.cached_property
    def eps0(self) -> Fraction:
        """Half the systole."""
        return self.systole() / 2

    @property
    def delta0(self) -> Fraction:
        """Expansivity-scale surrogate used to validate Gibbs-ball radii."""
        return min(self.eps0, min(self.roof.values)) / 4

    # --- vertex distances ----------------------------------------------

    def vertex_distances(self) -> np.ndarray:
        """D[v, w]: the exact length of the shortest path v -> w, a
        read-only object array."""
        return self._vdist

    def point_distance(self, p1, p2):
        """Distance in the graph between positions (edge, offset)."""
        e1, s1 = p1
        e2, s2 = p2
        l1, l2 = self.roof[e1], self.roof[e2]
        if not (0 <= s1 <= l1 and 0 <= s2 <= l2):
            raise ValueError("offset outside edge")
        vd = self.vertex_distances()
        cands = []
        if e1 == e2:
            cands.append(abs(s1 - s2))
        if e1 == self.reversal(e2):
            cands.append(abs(s1 - (l2 - s2)))
        for d1, v1 in ((s1, self.tail[e1]), (l1 - s1, self.head[e1])):
            for d2, v2 in ((s2, self.tail[e2]), (l2 - s2, self.head[e2])):
                cands.append(d1 + vd[v1][v2] + d2)
        return min(cands)


def build_edge_sft(g: MetricGraph):
    """Directed-edge SFT with non-backtracking transitions and roof = edge
    lengths, kept exact."""
    A = np.equal.outer(g.head, g.tail)
    e = np.arange(g.n_dir)
    A[e, g.reversal(e)] = False
    return Sft(A), g.roof


def graph_suspension(g: MetricGraph) -> Suspension:
    sft, roof = build_edge_sft(g)
    return Suspension(sft, roof)


@dataclass(frozen=True)
class Geodesic:
    """A unit-speed bi-infinite local geodesic: a suspension point over the
    edge SFT.  base.symbol_at(k) is the k-th directed edge; height is the
    arclength already traversed along edge 0."""
    graph: MetricGraph
    susp: SuspPoint

    def edge_at(self, k: int) -> int:
        return self.susp.base.symbol_at(k)

    def shift_time(self, t) -> "Geodesic":
        base = self.susp.base
        k, h = _locate(base.symbol_at, self.graph.roof, self.susp.height + t)
        return Geodesic(self.graph, SuspPoint(base.shift(k) if k else base, h))

    def position(self, t):
        """(directed edge, offset along it) occupied at time t."""
        base = self.susp.base
        k, h = _locate(base.symbol_at, self.graph.roof, self.susp.height + t)
        return base.symbol_at(k), h


# ----------------------------------------------------------------------
# lifts and the d_GX metric
# ----------------------------------------------------------------------


def _agreement_run(w1, w2, i, j, lo, hi):
    """Largest [km, kp] with w1(i+s) == w2(j+s) for all s in [-km, kp],
    bounded by the coordinate windows [lo, hi] for both words (coordinates
    i+s and j+s must stay within [lo, hi])."""
    kp = 0
    while i + kp + 1 <= hi and j + kp + 1 <= hi \
            and w1(i + kp + 1) == w2(j + kp + 1):
        kp += 1
    hit_hi = (i + kp + 1 > hi) or (j + kp + 1 > hi)
    km = 0
    while i - km - 1 >= lo and j - km - 1 >= lo \
            and w1(i - km - 1) == w2(j - km - 1):
        km += 1
    hit_lo = (i - km - 1 < lo) or (j - km - 1 < lo)
    return km, kp, hit_lo, hit_hi


def _window(geo: Geodesic, nwin: int):
    """The edges on coordinates -nwin..nwin, as an int array, and the times
    from the floor of fiber 0 to the floors of fibers -nwin..nwin + 1, as
    float running sums of `g.roof.array` both ways from 0."""
    w = np.array(geo.susp.base.window(-nwin, nwin + 1))
    lens = geo.graph.roof.array[w]
    up = np.cumsum(lens[nwin:])
    down = np.cumsum(lens[nwin - 1::-1])
    return w, np.concatenate((-down[::-1], [0.0], up))


def _agreement_runs(w1, w2):
    """The maximal runs on which w1[i + s] == w2[j + s] for 0 <= s <
    end - i, one per run and diagonal: arrays i, j, end."""
    n = len(w1)
    # skew[k, c] = (w1[k - 1] == w2[k - 1 - c + n]): column c holds the
    # diagonal i - j = c - n, framed by all-False rows k = 0 and k = n + 1
    buf = np.zeros((n + 2, 2 * n + 1), dtype=bool)
    buf[1:-1, :n] = w1[:, None] == w2[::-1]
    skew = buf.ravel()[:(n + 2) * 2 * n].reshape(n + 2, 2 * n)
    step = np.diff(skew.view(np.int8), axis=0).T
    c, i = np.nonzero(step == 1)
    end = np.nonzero(step == -1)[1]
    return i, i - (c - n), end


def _integrate_rows(t, d):
    """Row sums of int d(t) e^{-2|t|} dt, d linear between the sorted kinks
    t of each row (0 among them) with values d there.  On each side of 0,
    sigma e^{2 sigma t} ((a + b t)/2 - sigma b/4), sigma = 1 for t <= 0 and
    -1 for t >= 0, is an antiderivative of (a + b t) e^{-2|t|}."""
    t0, t1 = t[:, :-1], t[:, 1:]
    dt = t1 - t0
    b = (d[:, 1:] - d[:, :-1]) / np.where(dt > 0, dt, 1.0)
    a = d[:, :-1] - b * t0
    sigma = np.where(t1 <= 0, 1.0, -1.0)

    def anti(t):
        return sigma * np.exp(2 * sigma * t) * ((a + b * t) / 2.0
                                                - sigma * b / 4.0)

    return np.where(dt > 0, anti(t1) - anti(t0), 0.0).sum(axis=1)


def d_GX(g1: Geodesic, g2: Geodesic, tail_horizon: float = 8.0):
    """The geodesic-space metric: min over lift alignments of
    int d_tree(lift1(t), lift2(t)) e^{-2|t|} dt, truncated at
    |t| = tail_horizon = T; returns (value, error bound).

    Both edge words are read once, on a window of coordinates that reaches
    past |t| = T on both sides.  Common-edge alignments glue the lifts
    along a maximal run on which the words agree, one per run and diagonal
    i - j of the windows' equality mask.  Bridged alignments join vertices
    v1, v2 that the lifts pass at times -a_x, -a_y by a path of length
    b = vd[v1][v2]; their integral F(a_x) + F(a_y) + b (1 - e^{-2T}),
    F(a) = int |t + a| e^{-2|t|} dt, is least at the least F per vertex.
    The value is the least integral over both kinds, common runs winning
    ties; the error bound is the tail int_T^inf (d(T) + 2(t-T)) e^{-2t} dt
    on both sides of the winner.
    """
    if g1.graph is not g2.graph and g1.graph != g2.graph:
        raise ValueError("geodesics over different graphs")
    g = g1.graph
    T = float(tail_horizon)
    if T < 1:
        raise ValueError("tail_horizon >= 1 required")
    nwin = math.ceil((T + g.roof.max) / g.roof.min) + 2
    n = 2 * nwin + 1
    w1, cum1 = _window(g1, nwin)
    w2, cum2 = _window(g2, nwin)
    # x(t) = t + a1[i]: lift 1's position past the tail of window edge i
    a1 = float(g1.susp.height) - cum1[:n]
    a2 = float(g2.susp.height) - cum2[:n]

    # common-edge rows: the lifts share [0, hi] past the tail of the run's
    # first edge; a run cut by the window's edge is cut beyond |t| = T,
    # where it changes no distance that is integrated
    i, j, end = _agreement_runs(w1, w2)
    hi = (cum1[end] - cum1[i])[:, None]
    ax, ay = a1[i][:, None], a2[j][:, None]
    rows = len(i)
    ts = np.empty((rows + 2 * n, 7))
    ts[:, :3] = (-T, 0.0, T)
    ts[:rows, 3:] = np.hstack((-ax, hi - ax, -ay, hi - ay))
    # bridged rows: F(a) for every fiber of both windows, kinked at -a
    a = np.concatenate((a1, a2))[:, None]
    ts[rows:, 3:] = T
    ts[rows:, 3:4] = -a
    np.minimum(np.maximum(ts, -T, out=ts), T, out=ts)
    ts.sort(axis=1)
    x, y = ts[:rows] + ax, ts[:rows] + ay
    xc = np.minimum(np.maximum(x, 0.0), hi)
    yc = np.minimum(np.maximum(y, 0.0), hi)
    d = np.vstack((np.abs(xc - yc) + (np.abs(x - xc) + np.abs(y - yc)),
                   np.abs(ts[rows:] + a)))
    value = _integrate_rows(ts, d)
    F = value[rows:]
    value = value[:rows]

    # the best bridged alignment, from F's least value per vertex
    on_v = np.asarray(g.tail)[np.concatenate((w1, w2))] \
        == np.arange(g.n_vertices)[:, None]
    Fv = np.where(on_v, F, np.inf)
    vd = np.array(g.vertex_distances(), dtype=float)
    total = Fv[:, :n].min(axis=1)[:, None] + Fv[:, n:].min(axis=1) \
        + (1.0 - math.exp(-2 * T)) * vd
    v1, v2 = np.unravel_index(np.argmin(total), total.shape)
    bx = a1[Fv[v1, :n].argmin()]
    by = a2[Fv[v2, n:].argmin()]
    b = vd[v1, v2]

    k = int(np.argmin(value)) if rows else None
    if k is None or total[v1, v2] < value[k]:
        val = total[v1, v2]
        d_lo = abs(-T + bx) + b + abs(-T + by)
        d_hi = abs(T + bx) + b + abs(T + by)
    else:
        val, d_lo, d_hi = value[k], d[k, 0], d[k, -1]
    tail_err = math.exp(-2 * T) * (d_lo + d_hi + 2.0) / 2.0
    return float(val), float(tail_err)


def lift_distance(g1: Geodesic, g2: Geodesic, t, window: int = 64):
    """Tree distance between the lifts synchronized at the divergence point
    of the two edge words nearest coordinate 0."""
    g = g1.graph
    if g is not g2.graph and g != g2.graph:
        raise ValueError("geodesics over different graphs")
    w1 = g1.susp.base.symbol_at
    w2 = g2.susp.base.symbol_at
    h1 = float(g1.susp.height)
    h2 = float(g2.susp.height)
    t = float(t)
    # position coverage check
    lengths = g.roof.floats
    need = max(abs(h1 + t), abs(h2 + t)) + g.roof.max
    if window * g.roof.min < need:
        raise ValueError("insufficient unwinding")
    if w1(0) == w2(0):
        km, kp, hit_lo, hit_hi = _agreement_run(w1, w2, 0, 0,
                                                -window, window)
        Lp = math.inf if hit_hi else math.fsum(
            lengths[w1(k)] for k in range(kp + 1))
        Lm = math.inf if hit_lo else math.fsum(
            lengths[w1(k)] for k in range(-km, 0))
        x = h1 + t
        y = h2 + t
        xc = min(max(x, -Lm), Lp)
        yc = min(max(y, -Lm), Lp)
        return abs(xc - yc) + abs(x - xc) + abs(y - yc)
    v1 = g.tail[w1(0)]
    v2 = g.tail[w2(0)]
    b = float(g.vertex_distances()[v1][v2])
    return abs(h1 + t) + b + abs(h2 + t)

