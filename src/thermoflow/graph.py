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
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from .sft import Sft, _min_rotation, _primitive_root
from .suspension import (Roof, SuspPoint, Suspension, _fiber_times,
                         _locate)

__all__ = [
    "GraphModelError",
    "MetricGraph",
    "Geodesic",
    "ClosedGeodesic",
    "build_edge_sft",
    "graph_suspension",
    "lift_distance",
    "d_GX",
    "enumerate_closed_geodesics",
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
        self.length = []
        for (a, b, l) in und:
            self.tail += [a, b]
            self.head += [b, a]
            self.length += [l, l]
        self.n_dir = 2 * m

        deg = [0] * self.n_vertices
        for (a, b, _) in und:
            deg[a] += 1
            deg[b] += 1
        if any(d < 2 for d in deg):
            raise GraphModelError(
                "vertex of degree <= 1: no bi-infinite non-backtracking "
                "geodesic passes through it"
            )
        # connectivity
        adj = [[] for _ in range(self.n_vertices)]
        for e in range(self.n_dir):
            adj[self.tail[e]].append(e)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for e in adj[v]:
                w = self.head[e]
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != self.n_vertices:
            raise GraphModelError("graph not connected")
        betti = m - self.n_vertices + 1
        if betti < 2:
            raise GraphModelError(
                "elementary fundamental group"
                + (": fundamental group is Z: excluded case" if betti == 1
                   else "")
            )
        self.betti = betti
        self._adj = adj

    @staticmethod
    def reversal(e: int) -> int:
        return e ^ 1

    # --- shortest closed geodesic / systole ---------------------------

    def systole(self) -> Fraction:
        """Length of the shortest closed geodesic (cyclically
        non-backtracking cycle)."""
        best = None
        for e0 in range(self.n_dir):
            # Dijkstra over directed edges, states = directed edge just
            # traversed, forbidding immediate backtracking; close when a
            # successor returns to e0.
            dist = {e0: self.length[e0]}
            pq = [(self.length[e0], e0)]
            while pq:
                d, e = heapq.heappop(pq)
                if d > dist.get(e, None if e not in dist else dist[e]):
                    continue
                if best is not None and d >= best:
                    continue
                v = self.head[e]
                for e2 in self._adj[v]:
                    if e2 == self.reversal(e):
                        continue
                    if e2 == e0:
                        total = d
                        # cycle closes; check cyclic non-backtracking at
                        # the seam: predecessor of e0 is e, need
                        # e != reversal(e0), guaranteed by the loop filter
                        # only for the step e -> e2; check explicitly:
                        if e != self.reversal(e0):
                            if best is None or total < best:
                                best = total
                        continue
                    nd = d + self.length[e2]
                    if e2 not in dist or nd < dist[e2]:
                        dist[e2] = nd
                        heapq.heappush(pq, (nd, e2))
        if best is None:  # pragma: no cover - impossible for betti >= 2
            raise GraphModelError("no closed geodesic found")
        return best

    @property
    def eps0(self) -> Fraction:
        """Half the systole."""
        cached = getattr(self, "_eps0", None)
        if cached is None:
            cached = self.systole() / 2
            self._eps0 = cached
        return cached

    @property
    def delta0(self) -> Fraction:
        """Expansivity-scale surrogate used to validate Gibbs-ball radii."""
        return min(self.eps0, min(self.length)) / 4

    # --- vertex distances ----------------------------------------------

    def vertex_distances(self):
        cached = getattr(self, "_vdist", None)
        if cached is not None:
            return cached
        n = self.n_vertices
        out = []
        for s in range(n):
            dist = [None] * n
            dist[s] = Fraction(0)
            pq = [(Fraction(0), s)]
            while pq:
                d, v = heapq.heappop(pq)
                if dist[v] is not None and d > dist[v]:
                    continue
                for e in self._adj[v]:
                    w = self.head[e]
                    nd = d + self.length[e]
                    if dist[w] is None or nd < dist[w]:
                        dist[w] = nd
                        heapq.heappush(pq, (nd, w))
            out.append(dist)
        self._vdist = out
        return out

    def point_distance(self, p1, p2):
        """Distance in the graph between positions (edge, offset)."""
        e1, s1 = p1
        e2, s2 = p2
        l1, l2 = self.length[e1], self.length[e2]
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
    lengths."""
    n = g.n_dir
    A = [[0] * n for _ in range(n)]
    for e in range(n):
        for e2 in range(n):
            if g.head[e] == g.tail[e2] and e2 != g.reversal(e):
                A[e][e2] = 1
    sft = Sft(A)
    roof = Roof([float(l) for l in g.length])
    return sft, roof


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
        k, h = _locate(base.symbol_at, self.graph.length,
                       self.susp.height + t)
        return Geodesic(self.graph, SuspPoint(base.shift(k) if k else base, h))

    def position(self, t):
        """(directed edge, offset along it) occupied at time t."""
        base = self.susp.base
        k, h = _locate(base.symbol_at, self.graph.length,
                       self.susp.height + t)
        return base.symbol_at(k), h


@dataclass(frozen=True)
class ClosedGeodesic:
    graph: MetricGraph
    word: tuple  # primitive cyclically non-backtracking edge word
    period: Fraction


def enumerate_closed_geodesics(g: MetricGraph, max_period):
    """All primitive cyclically non-backtracking cycles of total length
    <= max_period, one representative per rotation (orientation kept)."""
    max_period = Fraction(max_period)
    out = []
    n = g.n_dir

    def dfs(start, path, plen):
        cur = path[-1]
        if g.head[cur] == g.tail[start] and cur != g.reversal(start) \
                and start != g.reversal(cur):
            word = tuple(path)
            if word == _min_rotation(word) and _primitive_root(word) == word:
                out.append(ClosedGeodesic(g, word, plen))
        for e in range(start, n):
            if g.head[cur] != g.tail[e] or e == g.reversal(cur):
                continue
            nl = plen + g.length[e]
            if nl <= max_period:
                path.append(e)
                dfs(start, path, nl)
                path.pop()

    for start in range(n):
        if g.length[start] <= max_period:
            dfs(start, [start], g.length[start])
    out.sort(key=lambda c: (c.period, c.word))
    return out


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


def _exp_segment(a, b, t0, t1):
    """integral of (a + b t) e^{-2|t|} over [t0, t1], t0 <= t1, assuming the
    interval does not straddle 0."""
    if t1 <= 0:
        # e^{2t}: antiderivative e^{2t} ((a + b t)/2 - b/4)
        def F(t):
            return math.exp(2 * t) * ((a + b * t) / 2.0 - b / 4.0)
        return F(t1) - F(t0)
    # t0 >= 0, e^{-2t}: antiderivative -e^{-2t} ((a + b t)/2 + b/4)
    def G(t):
        return -math.exp(-2 * t) * ((a + b * t) / 2.0 + b / 4.0)
    return G(t1) - G(t0)


def _integrate_pwl(breaks, dfun, T):
    """integral over [-T, T] of d(t) e^{-2|t|} where d is piecewise linear
    with kinks only at `breaks` (plus 0); dfun(t) -> d(t) as float."""
    pts = sorted({-T, T, 0.0} | {float(b) for b in breaks
                                 if -T < float(b) < T})
    total = 0.0
    for t0, t1 in zip(pts, pts[1:]):
        d0, d1 = dfun(t0), dfun(t1)
        b = (d1 - d0) / (t1 - t0)
        a = d0 - b * t0
        total += _exp_segment(a, b, t0, t1)
    return total


def _lb_from_d0(d0: float) -> float:
    """Lower bound for int d(t) e^{-2|t|} dt given d(0) = d0 and
    |d'| <= 2."""
    return d0 - 1.0 + math.exp(-d0)


def d_GX(g1: Geodesic, g2: Geodesic, tail_horizon: float = 8.0):
    """The geodesic-space metric: min over lift alignments of
    int d_tree(lift1(t), lift2(t)) e^{-2|t|} dt, truncated at
    |t| = tail_horizon; returns (value, error bound).

    Alignment candidates: every common-edge match (i, j) between the two
    edge words inside the combinatorial window, and every vertex pair
    bridged by a shortest path; both give two-ray tree configurations with
    piecewise-linear pointwise distance, integrated in closed form.  The
    error bound is the analytic tail int_T^inf (d(T) + 2(t-T)) e^{-2t} dt
    for both sides.
    """
    if g1.graph is not g2.graph and g1.graph != g2.graph:
        raise ValueError("geodesics over different graphs")
    g = g1.graph
    T = float(tail_horizon)
    if T < 1:
        raise ValueError("tail_horizon >= 1 required")
    minlen = float(min(g.length))
    h1 = float(g1.susp.height)
    h2 = float(g2.susp.height)
    nwin = math.ceil((T + float(max(g.length))) / minlen) + 2
    w1 = g1.susp.base.symbol_at
    w2 = g2.susp.base.symbol_at

    # arclength from the tail of edge 0 to the tail of edge i
    cum1 = _fiber_times(w1, g.length, -nwin, nwin + 1)
    cum2 = _fiber_times(w2, g.length, -nwin, nwin + 1)

    vd = g.vertex_distances()
    best = math.inf
    best_dT = (0.0, 0.0)

    def consider(dfun, breaks, d0):
        nonlocal best, best_dT
        if _lb_from_d0(d0) >= best:
            return
        val = _integrate_pwl(breaks, dfun, T)
        if val < best:
            best = val
            best_dT = (dfun(-T), dfun(T))

    # --- common-edge alignments ---------------------------------------
    idx_range = range(-nwin, nwin + 1)
    occ2 = {}
    for j in idx_range:
        occ2.setdefault(w2(j), []).append(j)

    seen_cfg = set()
    for i in idx_range:
        for j in occ2.get(w1(i), ()):
            # relative placement is determined by the agreement run's
            # endpoints, so dedupe by (i - j, run boundaries)
            km, kp, hit_lo, hit_hi = _agreement_run(
                w1, w2, i, j, -nwin, nwin)
            key = (i - j, i - km, i + kp, hit_lo, hit_hi)
            if key in seen_cfg:
                continue
            seen_cfg.add(key)
            anchor1 = float(cum1[i])
            anchor2 = float(cum2[j])
            Lp = math.inf if hit_hi else float(cum1[i + kp + 1]) - anchor1
            Lm = math.inf if hit_lo else anchor1 - float(cum1[i - km])
            ax = h1 - anchor1  # x(t) = t + ax
            ay = h2 - anchor2

            def dfun(t, ax=ax, ay=ay, Lp=Lp, Lm=Lm):
                x = t + ax
                y = t + ay
                xc = min(max(x, -Lm), Lp)
                yc = min(max(y, -Lm), Lp)
                return abs(xc - yc) + (x - xc if x > xc else xc - x) \
                    + (y - yc if y > yc else yc - y)

            breaks = []
            for A in (ax, ay):
                if Lp < math.inf:
                    breaks.append(Lp - A)
                if Lm < math.inf:
                    breaks.append(-Lm - A)
            consider(dfun, breaks, dfun(0.0))

    # --- bridged vertex alignments ------------------------------------
    seen_v = set()
    for i in idx_range:
        for j in idx_range:
            v1 = g.tail[w1(i)]
            v2 = g.tail[w2(j)]
            ax = h1 - float(cum1[i])
            ay = h2 - float(cum2[j])
            b = float(vd[v1][v2])
            key = (round(ax - ay, 12), round(ax, 12), b)
            if key in seen_v:
                continue
            seen_v.add(key)

            def dfun(t, ax=ax, ay=ay, b=b):
                return abs(t + ax) + b + abs(t + ay)

            consider(dfun, [-ax, -ay], dfun(0.0))

    tail_err = math.exp(-2 * T) * (best_dT[0] + best_dT[1] + 2.0) / 2.0
    return best, tail_err


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
    minlen = float(min(g.length))
    need = max(abs(h1 + t), abs(h2 + t)) + float(max(g.length))
    if window * minlen < need:
        raise ValueError("insufficient unwinding")
    if w1(0) == w2(0):
        km, kp, hit_lo, hit_hi = _agreement_run(w1, w2, 0, 0,
                                                -window, window)
        cum = _fiber_times(w1, g.length, -km, kp + 1)
        Lp = math.inf if hit_hi else float(cum[kp + 1])
        Lm = math.inf if hit_lo else -float(cum[-km])
        x = h1 + t
        y = h2 + t
        xc = min(max(x, -Lm), Lp)
        yc = min(max(y, -Lm), Lp)
        return abs(xc - yc) + abs(x - xc) + abs(y - yc)
    v1 = g.tail[w1(0)]
    v2 = g.tail[w2(0)]
    b = float(g.vertex_distances()[v1][v2])
    return abs(h1 + t) + b + abs(h2 + t)

