"""Reference d_GX and lift distance: the oracle for the array kernel in
`thermoflow.graph`.

`d_GX` here walks every (i, j) pair of window coordinates in Python: one
agreement run per common-edge match, one bridged configuration per vertex
pair, each integrated segment by segment in closed form.  It is quadratic in
the window and slow, but each alignment is written out on its own, so the
tests use it as the oracle for the kernel.  `lift_distance` is the version
that sums the run's exact edge lengths.
"""

from __future__ import annotations

import math

from thermoflow.suspension import _fiber_times


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

