"""Compact metric graphs and their geodesic flow.

A metric graph with all vertex degrees >= 2 and first Betti number >= 2
carries a geodesic flow conjugate to the suspension of the non-backtracking
directed-edge SFT with roof = edge lengths (unit speed: time equals
arclength).  Directed edges are indexed 2i (forward) and 2i+1 (reverse) for
undirected edge i; reversal(e) = e XOR 1.

The universal cover is a tree; lifts are handled by explicit two-ray
geometry: any two lifted geodesics either share a common segment (when the
edge words share a run) or are joined by a bridge between two vertices, so
pointwise tree distances are piecewise-linear in t.  Each is a constant,
hinges (t - c)_+ or (-t - c)_+ and a term odd in t, so its integral
against e^{-2|t|} is a sum of closed-form hinge integrals (quadrature error
zero; only the tail truncation contributes to the error bound).
`d_GX` is an array kernel over the two edge windows: one equality mask
yields every common run, one hinge-integral call values every alignment,
and bridged alignments take each vertex's fiber nearest in time, so a call
costs O(n_win^2) array work plus O(V n_win + V^2) for the bridges.

Every path length comes from the one (min, +) kernel `sft._shortest_paths`
on exact lengths: the vertex distances that bridge the lifts, built once
per graph, which also decide connectivity, and the systole, a least cycle
of the edge SFT.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .sft import Sft, _shortest_paths
from .suspension import Roof, SuspPoint, Suspension, _check_finite, _locate

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
        # directed edges: 2i forward (a->b), 2i+1 reverse (b->a), as
        # read-only int arrays
        self.tail = np.array([v for (a, b, _) in und for v in (a, b)])
        self.head = np.array([v for (a, b, _) in und for v in (b, a)])
        self.tail.setflags(write=False)
        self.head.setflags(write=False)
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
        # the float copy that d_GX and lift_distance read
        self._vdist_float = self._vdist.astype(float)
        self._vdist_float.setflags(write=False)
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
        _check_finite("t", t)
        base = self.susp.base
        k, h = _locate(base.symbol_at, self.graph.roof, self.susp.height + t)
        return Geodesic(self.graph, SuspPoint(base.shift(k) if k else base, h))

    def position(self, t):
        """(directed edge, offset along it) occupied at time t."""
        _check_finite("t", t)
        base = self.susp.base
        k, h = _locate(base.symbol_at, self.graph.roof, self.susp.height + t)
        return base.symbol_at(k), h


# ----------------------------------------------------------------------
# lifts and the d_GX metric
# ----------------------------------------------------------------------


def _first_mismatch(w1, w2, default: int) -> int:
    """The first index at which the sequences w1 and w2 differ; `default`
    when they agree on their common length."""
    return next((k for k, (a, b) in enumerate(zip(w1, w2)) if a != b),
                default)


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


def _hinge_integral(c, T: float):
    """G(c) = int_{-T}^{T} (t - c)_+ e^{-2|t|} dt, elementwise on the float
    array c.  On [0, T], G(s) = (e^{-2s} - e^{-2T})/4 - e^{-2T} (T - s)/2,
    and G = 0 past T.  Since (t - c)_+ = (t - c) + (c - t)_+ and
    t e^{-2|t|} is odd, G(c) = (-c)_+ (1 - e^{-2T}) + G(min(|c|, T)) for
    every c.  The difference of exponentials is written as
    e^{-2s} (1 - e^{-2u}), u = T - s, so G is exactly 0.0 for c >= T."""
    s = np.minimum(np.abs(c), T)
    u = T - s
    return (np.maximum(-c, 0.0) * -math.expm1(-2 * T)
            - np.exp(-2 * s) * np.expm1(-2 * u) / 4
            - math.exp(-2 * T) * u / 2)


def d_GX(g1: Geodesic, g2: Geodesic, tail_horizon: float = 8.0):
    """The geodesic-space metric: min over lift alignments of
    int d_tree(lift1(t), lift2(t)) e^{-2|t|} dt, truncated at
    |t| = tail_horizon = T; returns (value, error bound).

    Both edge words are read once, on a window of coordinates that reaches
    past |t| = T on both sides; a lift passes the tail of window edge k at
    time -a[k].  An alignment's distance is a constant L, hinges
    2 (t - c)_+ or 2 (-t - c)_+ and a term odd in t, so its integral is
    L W0 + sum 2 G(c), W0 = 1 - e^{-2T}, G = `_hinge_integral` (one call
    for all).  A common-edge run, one per run and diagonal i - j of the
    windows' equality mask, glues the lifts along [0, hi] past the tail of
    its first edge: L = |a_x - a_y|, hinges max(a_x, a_y) and
    hi - min(a_x, a_y).  A bridge joins the vertices v1, v2 passed at a_x,
    a_y by a path of length b = vd[v1][v2]: L = |a_x| + |a_y| + b, hinges
    |a_x| and |a_y|; as F(a) = 2 G(|a|) + |a| W0 grows with |a|, each
    vertex's fiber of least |a| gives its least bridge.  The value is the
    least integral, common runs winning ties; the error bound is the tail
    int_T^inf (d(T) + 2(t-T)) e^{-2t} dt on both sides of the winner, where
    d(-T) + d(T) = 2 L + 2 sum over its hinges of (T - c)_+ + (-T - c)_+.
    """
    if g1.graph is not g2.graph and g1.graph != g2.graph:
        raise ValueError("geodesics over different graphs")
    g = g1.graph
    T = float(tail_horizon)
    _check_finite("tail_horizon", T)
    if T < 1:
        raise ValueError("tail_horizon >= 1 required")
    nwin = math.ceil((T + g.roof.max) / g.roof.min) + 2
    n = 2 * nwin + 1
    V = g.n_vertices
    w1, cum1 = _window(g1, nwin)
    w2, cum2 = _window(g2, nwin)
    # x(t) = t + a1[i]: lift 1's position past the tail of window edge i
    a1 = float(g1.susp.height) - cum1[:n]
    a2 = float(g2.susp.height) - cum2[:n]

    # common-edge runs; a run cut by the window's edge is cut beyond
    # |t| = T, where it changes no distance that is integrated
    i, j, end = _agreement_runs(w1, w2)
    rows = len(i)
    ax, ay = a1[i], a2[j]
    hi = cum1[end] - cum1[i]
    # the least |a| per vertex: least[v] on window 1, least[V + v] on
    # window 2, inf where a window misses v
    on_v = g.tail[np.concatenate((w1, w2))] == np.arange(V)[:, None]
    least = np.where(on_v, np.abs(np.concatenate((a1, a2))), np.inf) \
        .reshape(V, 2, n).min(axis=2).T.ravel()
    c = np.concatenate((np.maximum(ax, ay), hi - np.minimum(ax, ay), least))
    G2 = 2 * _hinge_integral(c, T)
    W0 = -math.expm1(-2 * T)
    common = G2[:rows] + G2[rows:2 * rows] + np.abs(ax - ay) * W0
    F = G2[2 * rows:] + least * W0
    vd = g._vdist_float
    bridged = F[:V, None] + F[V:] + W0 * vd

    v1, v2 = np.unravel_index(np.argmin(bridged), bridged.shape)
    k = int(np.argmin(common)) if rows else None
    if k is None or bridged[v1, v2] < common[k]:
        val = bridged[v1, v2]
        hinges = least[[v1, V + v2]]
        L = hinges.sum() + vd[v1, v2]
    else:
        val = common[k]
        hinges = c[[k, rows + k]]
        L = abs(ax[k] - ay[k])
    ends = (np.maximum(T - hinges, 0.0) + np.maximum(-T - hinges, 0.0)).sum()
    tail_err = math.exp(-2 * T) * (L + ends + 1.0)
    return float(val), float(tail_err)


def lift_distance(g1: Geodesic, g2: Geodesic, t, window: int = 64):
    """Tree distance between the lifts synchronized at the divergence point
    of the two edge words nearest coordinate 0.  Both words are read once on
    coordinates [-window, window], and the agreement run around 0 is
    scanned from 0 outwards on each side."""
    g = g1.graph
    if g is not g2.graph and g != g2.graph:
        raise ValueError("geodesics over different graphs")
    _check_finite("t", t)
    if not isinstance(window, numbers.Integral) or window < 1:
        raise ValueError(f"window must be a positive integer, got {window!r}")
    h1 = float(g1.susp.height)
    h2 = float(g2.susp.height)
    t = float(t)
    # position coverage check: a run cut by the window then ends past
    # h1 + t and h2 + t, so the clamp below leaves them as they are
    need = max(abs(h1 + t), abs(h2 + t)) + g.roof.max
    if window * g.roof.min < need:
        raise ValueError("insufficient unwinding")
    w1 = g1.susp.base.window(-window, window + 1)
    w2 = g2.susp.base.window(-window, window + 1)
    if w1[window] == w2[window]:
        kp = _first_mismatch(w1[window + 1:], w2[window + 1:], window)
        km = _first_mismatch(w1[window - 1::-1], w2[window - 1::-1], window)
        lengths = g.roof.floats
        Lp = math.fsum([lengths[s] for s in w1[window:window + kp + 1]])
        Lm = math.fsum([lengths[s] for s in w1[window - km:window]])
        x = h1 + t
        y = h2 + t
        xc = min(max(x, -Lm), Lp)
        yc = min(max(y, -Lm), Lp)
        return abs(xc - yc) + abs(x - xc) + abs(y - yc)
    v1 = g.tail[w1[window]]
    v2 = g.tail[w2[window]]
    b = float(g._vdist_float[v1, v2])
    return abs(h1 + t) + b + abs(h2 + t)
