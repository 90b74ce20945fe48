"""Suspension flows over SFTs with a positive locally-constant roof.

Points are (base sequence, height) with 0 <= height < r(x_0); the flow moves
vertically and wraps through the roof: (x, r(x_0)) ~ (sigma x, 0).

Fiber convention
----------------
Fiber k is the set of heights [0, r(x_k)) over coordinate k.  A height
equal to the roof belongs to the next fiber, at height 0; an orbit segment
is cut into pieces of positive length, one per fiber it meets.  Every
conversion between a time and a (fiber, height) coordinate, here and in the
graph, thermodynamic, large-deviation and entropy-density modules, goes
through one walk: `_locate` (time -> fiber, either direction),
`_residences` (the pieces of a segment) and `_fiber_times` (fiber -> time).
The walk only adds and subtracts roof values, so it is exact when heights
and roofs are Fractions.

Metric convention
-----------------
The base metric is the forward-window metric

    d(x, y) = 2^-(k+1),   k = min{ j >= 0 : x_j != y_j },

and d = 0 when x and y agree on [0, horizon).  Heights are compared in
normalized units u = s / r(x_0).  The Bowen-Walters distance is evaluated as
the minimum over a finite family of seam-passage patterns: a pattern is a
sequence of roof/floor crossings (up = +1, down = -1) applied while moving
from p to q, with horizontal motion allowed between crossings.  For a fixed
pattern the infimum over the intermediate words has a closed form: writing
S for the net shift, c_i for the partial shifts and r_i = S - c_i, the
horizontal cost is v(j* + max_i r_i) where j* is the first coordinate
j >= max(0, -min_i r_i) at which x_{j+S} differs from y_j (any disagreement
below that threshold escapes every forcing window and is free), and
v(n) = 2^-(n+1) truncated to 0 at the horizon.  The vertical cost adds the
height moves and one full unit per interior crossing away from a seam.
Patterns up to five crossings are enumerated once and pruned by dominance;
the distance is the minimum over the surviving patterns evaluated in both
directions, so symmetry is exact and the triangle inequality holds for every
chain realizable within the pattern family (stress-checked on randomized
triples in the test suite).  Flowing by s moves a point by at most
2|s|/min r in this metric, the Lipschitz constant the shadowing grid
relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sft import (BiWord, Sft, _close_word, _primitive_root, glue_words,
                  min_gap_bound)

__all__ = [
    "Roof",
    "SuspPoint",
    "OrbitSegment",
    "GluingResult",
    "ClosedOrbit",
    "Suspension",
]


class Roof:
    """Per-symbol positive roof values (time units).

    `values` keeps the values as given: Fractions and ints stay exact, and a
    float is the binary fraction it stores.  The fiber walk and the lattice
    engine of closed-orbit sums read them exactly.  `array` is their one
    float64 view: the values are validated on it, `min` and `max` read it,
    and so does every numeric kernel.  A roof value that is not a binary
    fraction, such as 1/3, must be given exactly for closed-orbit sums."""

    def __init__(self, values):
        self.values = tuple(values)
        self.array = np.array(self.values, dtype=float)
        if not self.values or not (0 < self.array.min()
                                   and self.array.max() < math.inf):
            raise ValueError("roof values must be finite and positive")
        self.array.setflags(write=False)

    def __getitem__(self, i):
        return self.values[i]

    def __len__(self):
        return len(self.values)

    @property
    def max(self) -> float:
        return float(self.array.max())

    @property
    def min(self) -> float:
        return float(self.array.min())

    def __eq__(self, other):
        return isinstance(other, Roof) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"Roof({self.values})"


@dataclass(frozen=True)
class SuspPoint:
    base: BiWord
    height: float = 0.0


@dataclass(frozen=True)
class OrbitSegment:
    start: SuspPoint
    duration: float

    def __post_init__(self):
        if not (self.duration >= 0 and math.isfinite(self.duration)):
            raise ValueError("duration must be finite and nonnegative")


@dataclass(frozen=True)
class GluingResult:
    point: SuspPoint
    transition_times: tuple
    block_starts: tuple


@dataclass(frozen=True)
class ClosedOrbit:
    point: SuspPoint
    word: tuple  # cyclic word read from the point's origin
    period: float


def _pattern_signatures(max_len: int = 5):
    """Enumerate seam-passage patterns and reduce them to evaluation
    signatures (S, rmax, rmin, vert), where vert describes the vertical cost
    as a function of the two normalized heights:

        vert = (u_coeff_kind, interior, end_level)

    u_coeff_kind: 0 -> no passage (direct route, |u - v| handled separately);
    +1 -> first passage up, contributes (1 - u); -1 -> first passage down,
    contributes u.  interior: full seam-to-seam units paid between passages.
    end_level: 0 or 1, the level after the last passage; the final vertical
    leg costs v or (1 - v).
    Dominated signatures are pruned."""
    sigs = {}
    for length in range(1, max_len + 1):
        for bits in range(1 << length):
            eps = [1 if (bits >> i) & 1 else -1 for i in range(length)]
            # vertical bookkeeping in normalized units
            interior = 0
            level = None
            for k, e in enumerate(eps):
                if k == 0:
                    level = 0 if e == 1 else 1
                else:
                    if e == 1:
                        interior += 1 - level  # climb from `level` to 1
                        level = 0
                    else:
                        interior += level  # descend from `level` to 0
                        level = 1
            S = sum(eps)
            partial = 0
            rvals = [S]
            for e in eps:
                partial += e
                rvals.append(S - partial)
            key = (S, max(rvals), min(rvals), eps[0], interior, level)
            sigs[key] = True
    # dominance pruning: same S, first-passage direction and end level;
    # one signature dominates another when its interior cost is <= and its
    # forcing window is at least as favorable.
    out = []
    keys = list(sigs)
    for k in keys:
        S, rmax, rmin, first, interior, end = k
        dominated = False
        for k2 in keys:
            if k2 == k:
                continue
            S2, rmax2, rmin2, first2, interior2, end2 = k2
            if (
                S2 == S and first2 == first and end2 == end
                and interior2 <= interior and rmax2 >= rmax and rmin2 <= rmin
                and (interior2, rmax2, rmin2) != (interior, rmax, rmin)
            ):
                dominated = True
                break
        if not dominated:
            out.append(k)
    return out


_BW_PATTERNS = _pattern_signatures(5)
_BW_MAX_SHIFT = max(
    max(abs(s[0]), abs(s[1]), abs(s[2])) for s in _BW_PATTERNS
)


def _bw_from_words(xs, ys, u: float, v: float, horizon: int) -> float:
    """Pattern-family Bowen-Walters distance from symbol windows.

    xs, ys are sequences containing coordinates [-M, horizon + M) of the two
    base words (M = _BW_MAX_SHIFT), indexed so that xs[M + j] is coordinate
    j.  u, v are the normalized heights."""
    M = _BW_MAX_SHIFT

    def vv(n):
        return 0.0 if n >= horizon else 2.0 ** (-(n + 1))

    # direct route (no passage)
    j = 0
    while j < horizon and xs[M + j] == ys[M + j]:
        j += 1
    best = abs(u - v) + vv(j)

    for S, rmax, rmin, first, interior, end in _BW_PATTERNS:
        vert = (1.0 - u if first == 1 else u) + interior
        vert += v if end == 0 else 1.0 - v
        if vert >= best:
            continue
        j = max(0, -rmin)
        while j < horizon and xs[M + j + S] == ys[M + j]:
            j += 1
        cost = vert + vv(j + rmax if j < horizon else horizon)
        if cost < best:
            best = cost
    return best


def _locate(symbol_at, lengths, h, k=0):
    """The fiber walk: (k', h') with 0 <= h' < lengths[symbol_at(k')] for
    the point at height h (of either sign, any size) above the floor of
    fiber k.  symbol_at maps a coordinate to a symbol, lengths a symbol to
    its roof value; a height equal to a fiber's length belongs to the next
    fiber."""
    while h < 0:
        k -= 1
        h += lengths[symbol_at(k)]
    r = lengths[symbol_at(k)]
    while h >= r:
        h -= r
        k += 1
        r = lengths[symbol_at(k)]
    return k, h


def _residences(symbol_at, lengths, h, t, k=0):
    """The positive-length pieces (k, lo, hi) of the orbit segment of
    duration t >= 0 from height h of fiber k: fiber k is occupied at
    heights [lo, hi), for hi - lo time units."""
    k_end, h_end = _locate(symbol_at, lengths, h + t, k)
    for j in range(k, k_end):
        yield j, h, lengths[symbol_at(j)]
        h = 0
    if h_end > h:
        yield k_end, h, h_end


def _fiber_times(symbol_at, lengths, lo, hi):
    """{k: time from the floor of fiber 0 to the floor of fiber k} for
    lo <= k <= hi (lo <= 0 <= hi), by running sums of the roof values."""
    times = {0: 0}
    for k in range(hi):
        times[k + 1] = times[k] + lengths[symbol_at(k)]
    for k in range(-1, lo - 1, -1):
        times[k] = times[k + 1] - lengths[symbol_at(k)]
    return times


class Suspension:
    """A suspension flow over an irreducible SFT with locally-constant roof."""

    def __init__(self, sft: Sft, roof: Roof):
        if len(roof) != sft.n_symbols:
            raise ValueError("roof must assign a value to every symbol")
        self.sft = sft
        self.roof = roof

    def __eq__(self, other):
        return (
            isinstance(other, Suspension)
            and self.sft == other.sft
            and self.roof == other.roof
        )

    def __hash__(self):
        return hash((self.sft, self.roof))

    # ------------------------------------------------------------------
    # flow
    # ------------------------------------------------------------------

    def point(self, base: BiWord, height=0.0) -> SuspPoint:
        r0 = self.roof[base.symbol_at(0)]
        if not (0 <= height < r0):
            raise ValueError(f"height {height} outside [0, {r0})")
        return SuspPoint(base, height)

    def flow(self, p: SuspPoint, t) -> SuspPoint:
        """phi_t; exact arithmetic when height and roof values are exact."""
        k, h = _locate(p.base.symbol_at, self.roof.values, p.height + t)
        return SuspPoint(p.base.shift(k) if k else p.base, h)

    # ------------------------------------------------------------------
    # Bowen-Walters metric
    # ------------------------------------------------------------------

    def bw_distance(self, p: SuspPoint, q: SuspPoint, horizon: int = 32):
        """Pattern-family evaluation of the Bowen-Walters chain metric; see
        module docstring.  Symmetric; 0 iff the points agree up to horizon
        resolution."""
        if horizon < 1:
            raise ValueError("horizon >= 1 required")
        M = _BW_MAX_SHIFT
        x, y = p.base, q.base
        u = p.height / self.roof[x.symbol_at(0)]
        v = q.height / self.roof[y.symbol_at(0)]
        xs = x.window(-M, horizon + M)
        ys = y.window(-M, horizon + M)
        return min(
            _bw_from_words(xs, ys, u, v, horizon),
            _bw_from_words(ys, xs, v, u, horizon),
        )

    # ------------------------------------------------------------------
    # shadowing
    # ------------------------------------------------------------------

    def shadows(self, y: SuspPoint, seg: OrbitSegment, delta: float,
                horizon: int | None = None) -> bool:
        """True iff bw_distance(flow(y, s), flow(x, s)) < delta on a grid of
        step <= delta/4 covering [0, t] (endpoints included)."""
        if delta <= 0:
            raise ValueError("delta must be positive")
        return self.max_orbit_distance(y, seg, delta, horizon) < delta

    def max_orbit_distance(self, y: SuspPoint, seg: OrbitSegment,
                           delta: float, horizon: int | None = None) -> float:
        """Sup of bw_distance along the shadowing grid (step <= delta/4)."""
        if horizon is None:
            horizon = max(4, math.ceil(math.log2(4.0 / delta)))
        t = seg.duration
        n = max(1, math.ceil(t / (delta / 4.0)))
        step = t / n if n else 0.0
        M = _BW_MAX_SHIFT
        span = int(t / self.roof.min) + horizon + M + 4
        yw = y.base.window(-M, span)
        xw = seg.start.base.window(-M, span)
        roof = self.roof.array.tolist()
        # ky, kx index the windows: coordinate k sits at index k + M
        ky = kx = M
        hy, hx = y.height, seg.start.height
        width = 2 * M + horizon
        worst = 0.0
        for i in range(n + 1):
            ys = yw[ky - M:ky - M + width]
            xs = xw[kx - M:kx - M + width]
            u = hy / roof[yw[ky]]
            v = hx / roof[xw[kx]]
            d = min(
                _bw_from_words(ys, xs, u, v, horizon),
                _bw_from_words(xs, ys, v, u, horizon),
            )
            if d > worst:
                worst = d
            if i < n:
                ky, hy = _locate(yw.__getitem__, roof, hy + step, ky)
                kx, hx = _locate(xw.__getitem__, roof, hx + step, kx)
        return worst

    # ------------------------------------------------------------------
    # gluing and closing
    # ------------------------------------------------------------------

    @staticmethod
    def margin(delta: float) -> int:
        """Extra agreed symbols past the occupied window needed so that the
        forward distance stays below delta: least m with 2^-(m+2) < delta."""
        m = 0
        while 2.0 ** (-(m + 2)) >= delta:
            m += 1
        return m

    def transition_bound(self, delta: float) -> float:
        """Declared maximum transition time for gluing at scale delta:
        (tau + margin(delta) + 2) * max roof — the three non-gap terms are
        the residual roof of the block's last occupied symbol, the margin
        symbols, and the next block's starting height.  Equals the
        delta-independent bound (tau + 2) * max roof whenever margin = 0,
        i.e. delta > 1/4."""
        tau = min_gap_bound(self.sft)
        return (tau + self.margin(delta) + 2) * self.roof.max

    def glue_segments(self, segs, delta: float) -> GluingResult:
        """One orbit delta-shadowing every segment in order, transition
        times bounded by transition_bound(delta).

        The base word concatenates, for each segment, the window of symbols
        it occupies plus margin(delta) extra agreed symbols, joined by
        glue_words gaps; the tails repeat the first/last inputs' tails.
        """
        segs = list(segs)
        if not segs:
            raise ValueError("need at least one segment")
        m = self.margin(delta)
        windows = []
        heights = []
        for seg in segs:
            x = seg.start.base
            # the segment visits symbols 0..c
            c, _ = _locate(x.symbol_at, self.roof.values,
                           seg.start.height + seg.duration)
            windows.append(x.window(0, c + m + 1))
            heights.append(seg.start.height)

        first = segs[0].start.base
        last = segs[-1].start.base

        # left tail: continue the first segment's own past
        lt = first.left_tail
        nlt = len(lt)
        back = max(0, -first.core_start)
        left_prefix = first.window(-back, 0)
        lt_rot = lt[(-back - first.core_start) % nlt:] + \
            lt[:(-back - first.core_start) % nlt]

        core = list(left_prefix)
        pos0 = len(left_prefix)  # index in `core` of the first window symbol
        gap_words = []
        block_core_starts = []  # index in `core` where each window begins
        for j, w in enumerate(windows):
            if j > 0:
                u = glue_words(self.sft, (core[-1],), (w[0],))
                gap_words.append(u)
                core.extend(u)
            block_core_starts.append(len(core))
            core.extend(w)

        # right tail: continue the last segment's own future beyond its
        # window
        wlen = len(windows[-1])
        rt = last.right_tail
        nrt = len(rt)
        last_end = wlen  # first coordinate of `last` beyond the window
        rt_region_start = max(last_end, last.core_start + len(last.core))
        right_suffix = last.window(last_end, rt_region_start)
        core.extend(right_suffix)
        rshift = (rt_region_start - last.core_start - len(last.core)) % nrt
        rt_rot = rt[rshift:] + rt[:rshift]

        base = BiWord(lt_rot, tuple(core), rt_rot,
                      core_start=-len(left_prefix))
        # coordinates: window j starts at base coordinate
        # block_core_starts[j] - len(left_prefix)
        y0 = SuspPoint(base, heights[0])

        # exact block start times along the glued orbit
        coords = [c - len(left_prefix) for c in block_core_starts]
        times = _fiber_times(base.symbol_at, self.roof.values, 0, coords[-1])
        starts = [times[c] + h - heights[0] for c, h in zip(coords, heights)]
        taus = []
        for j in range(len(segs) - 1):
            tau_j = starts[j + 1] - (starts[j] + segs[j].duration)
            taus.append(tau_j)
        bound = self.transition_bound(delta)
        for tau_j in taus:
            if not (-1e-9 <= tau_j <= bound + 1e-9):  # pragma: no cover
                raise AssertionError(
                    f"transition time {tau_j} exceeds bound {bound}"
                )
        # bookkeeping values s_j = sum_{i<=j} t_i + sum_{i<j} tau_i
        s_vals = []
        acc = 0.0
        for j, seg in enumerate(segs):
            acc += seg.duration
            s_vals.append(acc)
            if j < len(taus):
                acc += taus[j]
        return GluingResult(y0, tuple(taus), tuple(s_vals))

    def close_segment(self, seg: OrbitSegment, delta: float):
        """Periodic orbit delta-shadowing seg, of period at most
        seg.duration + (tau + margin(delta) + 2) * max roof."""
        m = self.margin(delta)
        x = seg.start.base
        c, _ = _locate(x.symbol_at, self.roof.values,
                       seg.start.height + seg.duration)
        cyc = _primitive_root(_close_word(self.sft, x.window(0, c + m + 1)))
        base = BiWord.periodic(cyc, phase=0)
        period = sum(self.roof[s] for s in cyc)
        y = SuspPoint(base, seg.start.height)
        achieved = self.max_orbit_distance(y, seg, delta)
        orbit = ClosedOrbit(y, cyc, period)
        return orbit, achieved
