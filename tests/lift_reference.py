"""Reference lift distance: the oracle for `thermoflow.graph.lift_distance`.

It reads the two edge words one coordinate at a time through `symbol_at`
and extends the agreement run around coordinate 0 by a Python loop on each
side; the library reads both windows once and takes the run's ends from
their mismatches.  The two must agree bit for bit.
"""

from __future__ import annotations

import math


def agreement_run(w1, w2, window):
    """Largest [km, kp] within [-window, window] with w1(s) == w2(s) for
    all s in [-km, kp]."""
    kp = 0
    while kp < window and w1(kp + 1) == w2(kp + 1):
        kp += 1
    km = 0
    while km < window and w1(-km - 1) == w2(-km - 1):
        km += 1
    return km, kp


def lift_distance(g1, g2, t, window: int = 64):
    """Tree distance between the lifts synchronized at the divergence point
    of the two edge words nearest coordinate 0."""
    g = g1.graph
    w1 = g1.susp.base.symbol_at
    w2 = g2.susp.base.symbol_at
    h1 = float(g1.susp.height)
    h2 = float(g2.susp.height)
    t = float(t)
    lengths = g.roof.floats
    need = max(abs(h1 + t), abs(h2 + t)) + g.roof.max
    if window * g.roof.min < need:
        raise ValueError("insufficient unwinding")
    if w1(0) == w2(0):
        km, kp = agreement_run(w1, w2, window)
        Lp = math.fsum(lengths[w1(k)] for k in range(kp + 1))
        Lm = math.fsum(lengths[w1(k)] for k in range(-km, 0))
        x = h1 + t
        y = h2 + t
        xc = min(max(x, -Lm), Lp)
        yc = min(max(y, -Lm), Lp)
        return abs(xc - yc) + abs(x - xc) + abs(y - yc)
    v1 = g.tail[w1(0)]
    v2 = g.tail[w2(0)]
    b = float(g.vertex_distances()[v1][v2])
    return abs(h1 + t) + b + abs(h2 + t)
