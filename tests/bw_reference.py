"""Reference Bowen-Walters evaluation: the oracle for the array kernel
`thermoflow.suspension._bw_distances`.

`PATTERNS` enumerates the seam-passage patterns of up to five passages and
reduces them to their 38 distinct signatures, with no pruning: the kernel
evaluates only the four that can attain the minimum, and this family is
what it is checked against.  `bw_from_words` evaluates one pair of points
from their symbol windows of coordinates [-M, horizon + M), M = 5: the
direct route, then each of the 38 signatures in both directions, with a
Python loop to the first disagreement of each, under one running minimum
that skips a pattern whose vertical cost alone reaches it.
`max_orbit_distance` walks the shadowing grid one point at a time and calls
it at every point.  The kernel must equal both bit for bit.
"""

from __future__ import annotations

import itertools
import math

from thermoflow.suspension import _locate


def _pattern_signatures():
    """The signatures (S, rmax, rmin, first, interior, end) of the patterns
    of one to five passages, each kept once, in the order of its first
    pattern.

    first: +1 -> first passage up, contributes (1 - u); -1 -> first
    passage down, contributes u.  After a passage the level is 0 (up) or
    1 (down), so a passage pays one full seam-to-seam unit exactly when it
    repeats the previous direction: interior counts those repeats.
    end: the level after the last passage; the final vertical leg costs v
    or (1 - v).  The direct route (no passage) is evaluated separately."""
    sigs = {}
    for length in range(1, 6):
        for bits in range(1 << length):
            eps = [1 if (bits >> i) & 1 else -1 for i in range(length)]
            S = sum(eps)
            r = [S - c for c in itertools.accumulate(eps, initial=0)]
            interior = sum(a == b for a, b in zip(eps, eps[1:]))
            sigs[(S, max(r), min(r), eps[0], interior, int(eps[-1] < 0))] = 1
    return list(sigs)


PATTERNS = _pattern_signatures()
M = max(max(abs(s[0]), abs(s[1]), abs(s[2])) for s in PATTERNS)


def bw_from_words(xs, ys, u: float, v: float, horizon: int) -> float:
    """Pattern-family distance of the points at normalized heights u, v
    over the windows xs, ys of coordinates [-M, horizon + M) of their base
    words, xs[M + j] holding coordinate j."""

    def vv(n):
        return 0.0 if n >= horizon else 2.0 ** (-(n + 1))

    # direct route (no passage)
    j = 0
    while j < horizon and xs[M + j] == ys[M + j]:
        j += 1
    best = abs(u - v) + vv(j)

    for a, b, ua, vb in ((xs, ys, u, v), (ys, xs, v, u)):
        for S, rmax, rmin, first, interior, end in PATTERNS:
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
