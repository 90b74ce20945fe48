"""Reference Bowen-Walters evaluation: the oracle for the array kernel
`thermoflow.suspension._bw_distances`.

`bw_from_words` evaluates one pair of points from their symbol windows: the
direct route, then each of the 38 pattern signatures in both directions,
with a Python loop to the first disagreement of each, under one running
minimum that skips a pattern whose vertical cost alone reaches it.
`max_orbit_distance` walks the shadowing grid one point at a time and calls
it at every point.  The kernel must equal both bit for bit.
"""

from __future__ import annotations

import math

from thermoflow.suspension import _BW_MAX_SHIFT, _BW_PATTERNS, _locate


def bw_from_words(xs, ys, u: float, v: float, horizon: int) -> float:
    """Pattern-family distance of the points at normalized heights u, v
    over the windows xs, ys of coordinates [-M, horizon + M) of their base
    words (M = _BW_MAX_SHIFT), xs[M + j] holding coordinate j."""
    M = _BW_MAX_SHIFT

    def vv(n):
        return 0.0 if n >= horizon else 2.0 ** (-(n + 1))

    # direct route (no passage)
    j = 0
    while j < horizon and xs[M + j] == ys[M + j]:
        j += 1
    best = abs(u - v) + vv(j)

    for a, b, ua, vb in ((xs, ys, u, v), (ys, xs, v, u)):
        for S, rmax, rmin, first, interior, end in _BW_PATTERNS:
            vert = (1.0 - ua if first == 1 else ua) + interior
            vert += vb if end == 0 else 1.0 - vb
            if vert >= best:
                continue
            j = max(0, -rmin)
            while j < horizon and a[M + j + S] == b[M + j]:
                j += 1
            cost = vert + vv(j + rmax if j < horizon else horizon)
            if cost < best:
                best = cost
    return best


def max_orbit_distance(system, y, seg, delta: float) -> float:
    """Sup of `bw_from_words` over the shadowing grid of step <= delta/4 on
    [0, seg.duration], to the horizon max(4, ceil(log2(4/delta)))."""
    horizon = max(4, math.ceil(math.log2(4.0 / delta)))
    t = seg.duration
    n = max(1, math.ceil(t / (delta / 4.0)))
    step = t / n
    M = _BW_MAX_SHIFT
    span = int(t / system.roof.min) + horizon + M + 4
    yw = y.base.window(-M, span)
    xw = seg.start.base.window(-M, span)
    floats = system.roof.floats
    ky = kx = M
    hy, hx = y.height, seg.start.height
    width = 2 * M + horizon
    worst = 0.0
    for i in range(n + 1):
        ys = yw[ky - M:ky - M + width]
        xs = xw[kx - M:kx - M + width]
        d = bw_from_words(ys, xs, hy / floats[yw[ky]], hx / floats[xw[kx]],
                          horizon)
        if d > worst:
            worst = d
        if i < n:
            ky, hy = _locate(yw.__getitem__, system.roof, hy + step, ky)
            kx, hx = _locate(xw.__getitem__, system.roof, hx + step, kx)
    return worst
