"""Reference path lengths on metric graphs by Dijkstra searches: the systole
as the shortest cyclically non-backtracking cycle through each directed
edge, and the vertex distances from one search per source vertex.  These
are the searches the (min, +) table `thermoflow.sft._shortest_paths`
replaced in `MetricGraph`; they use exact Fraction lengths and share no
code with it."""

import heapq
from fractions import Fraction


def _out_edges(g):
    """The directed edges leaving each vertex."""
    adj = [[] for _ in range(g.n_vertices)]
    for e in range(g.n_dir):
        adj[g.tail[e]].append(e)
    return adj


def systole(g) -> Fraction:
    """Length of the shortest closed geodesic: a Dijkstra search over
    directed edges from each e0, each state the edge just traversed, that
    forbids immediate backtracking and closes when a successor returns to
    e0 from an edge other than the reversal of e0."""
    adj = _out_edges(g)
    best = None
    for e0 in range(g.n_dir):
        dist = {e0: g.roof[e0]}
        pq = [(g.roof[e0], e0)]
        while pq:
            d, e = heapq.heappop(pq)
            if d > dist[e]:
                continue
            if best is not None and d >= best:
                continue
            for e2 in adj[g.head[e]]:
                if e2 == g.reversal(e):
                    continue
                if e2 == e0:
                    if e != g.reversal(e0) and (best is None or d < best):
                        best = d
                    continue
                nd = d + g.roof[e2]
                if e2 not in dist or nd < dist[e2]:
                    dist[e2] = nd
                    heapq.heappush(pq, (nd, e2))
    return best


def vertex_distances(g):
    """dist[s][v]: the shortest path length s -> v, None where v cannot
    be reached, by one Dijkstra search per source s."""
    adj = _out_edges(g)
    out = []
    for s in range(g.n_vertices):
        dist = [None] * g.n_vertices
        dist[s] = Fraction(0)
        pq = [(Fraction(0), s)]
        while pq:
            d, v = heapq.heappop(pq)
            if d > dist[v]:
                continue
            for e in adj[v]:
                w = g.head[e]
                nd = d + g.roof[e]
                if dist[w] is None or nd < dist[w]:
                    dist[w] = nd
                    heapq.heappush(pq, (nd, w))
        out.append(dist)
    return out
