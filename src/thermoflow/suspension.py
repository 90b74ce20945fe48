"""Suspension flows over SFTs with a positive locally-constant roof.

Points are (base sequence, height) with 0 <= height < r(x_0); the flow moves
vertically and wraps through the roof: (x, r(x_0)) ~ (sigma x, 0).

Fiber convention
----------------
Fiber k is the set of heights [0, r(x_k)) over coordinate k.  A height
equal to the roof belongs to the next fiber, at height 0; an orbit segment
is cut into pieces of positive length, one per fiber it meets.  This
module owns that rule, and every walk takes the `Roof`: a float height
walks its floats and compares with the exact `Roof.values` only where the
floats are equal; an exact height walks the exact values.  `_locate` maps
a time to a fiber and height (flows, gluing, geodesics), `_fiber_times`
a fiber to its start time, and `_pieces` cuts many segments into fiber
pieces at once (`birkhoff` on cylinder potentials, `empirical_measure`,
separated sets and glued families).  `_column_integrals` integrates along
sampled paths fed one column at a time: streamed (`deviation_frequency`)
or the columns of a path array (`gibbs_ratio_stats`).

Metric convention
-----------------
The base metric is the forward-window metric

    d(x, y) = 2^-(k+1),   k = min{ j >= 0 : x_j != y_j },

and d = 0 when x and y agree on [0, horizon).  Heights are compared in
normalized units u = s / r(x_0).  The Bowen-Walters distance is evaluated as
the minimum over seam-passage patterns: a pattern is a sequence of
roof/floor crossings (up = +1, down = -1) applied while moving from p to
q, with horizontal motion allowed between crossings.  For a fixed
pattern the infimum over the intermediate words has a closed form: writing
S for the net shift, c_i for the partial shifts and r_i = S - c_i, the
horizontal cost is v(j* + max_i r_i) where j* is the first coordinate
j >= max(0, -min_i r_i) at which x_{j+S} differs from y_j (any disagreement
below that threshold escapes every forcing window and is free), and
v(n) = 2^-(n+1) truncated to 0 at the horizon.  The vertical cost adds the
height moves and one full unit per interior crossing away from a seam.
The distance is the minimum over all patterns, of any length, evaluated in
both directions.  Only the four alternating patterns can attain it, and
they map to one another when p and q swap (see `_BW_SIGNATURES`), so only
they are evaluated, from p to q.  Symmetry is exact and the triangle
inequality holds for every chain realizable within the pattern family
(stress-checked on randomized triples in the test suite).  Flowing by s
moves a point by at most 2|s|/min r in this metric, the Lipschitz constant
the shadowing grid relies on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .sft import (BiWord, Sft, _close_word, _glue_blocks, _primitive_root,
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
    float64 view: the values are validated on it, `min` and `max` are its
    extremes as floats, and every numeric kernel reads it; `floats` holds
    the same floats as a tuple, for the scalar walk.  A roof value that is
    not a binary fraction, such as 1/3, must be given exactly for
    closed-orbit sums.  `take` builds the roof of a recoding by index, so
    each value is converted to float once, by the roof it comes from."""

    def __init__(self, values):
        values = tuple(values)
        self._set(values, np.array(values, dtype=float))

    def take(self, idx) -> "Roof":
        """The roof whose value i is this roof's value idx[i]: the exact
        values by tuple indexing, the float view by `array.take`, the same
        floats that converting the values again would give."""
        idx = np.asarray(idx, dtype=np.intp)
        roof = Roof.__new__(Roof)
        roof._set(tuple(map(self.values.__getitem__, idx.tolist())),
                  self.array.take(idx))
        return roof

    def _set(self, values: tuple, array: np.ndarray):
        self.values = values
        self.array = array
        # an empty roof has min = inf above max = -inf; a NaN is NaN in both
        self.min = float(array.min(initial=math.inf))
        self.max = float(array.max(initial=-math.inf))
        if not 0 < self.min <= self.max < math.inf:
            raise ValueError("roof values must be finite and positive")
        array.setflags(write=False)
        self.floats = tuple(array.tolist())

    def __getitem__(self, i):
        return self.values[i]

    def __len__(self):
        return len(self.values)

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


# The seam-passage patterns (of any length) reduce to signatures (S, rmax,
# rmin, first, interior, end): S the net shift, rmax and rmin bounding the
# partial shifts r_i, `first` the first passage (+1 up, paying 1 - u; -1
# down, paying u), `interior` the passages that repeat the previous
# direction, each paying a full seam-to-seam unit, and `end` the level
# after the last passage (0 after up, 1 after down), where the last leg
# pays v or 1 - v.  Only the alternating patterns have interior 0, one
# signature per (first, end), and only they can attain the minimum: a
# pattern with interior k >= 1 costs legs + k + h >= legs + 1, while the
# alternating one with its (first, end) has the same legs and costs
# legs + h' <= legs + 1/2, every horizontal cost being at most v(0) = 1/2.
# Rounding is monotone, so the minimum over these four is the minimum over
# all patterns, bit for bit.  The four are closed under swapping x and y:
# + from x to y costs what - costs from y to x (the same shifted diagonal,
# the same two legs added in the other order, and float addition
# commutes), and +- and -+ are their own mirrors.  So one direction gives
# the minimum of both, and it is exactly symmetric.  Columns: the patterns
# +, +-, -, -+; rows S, rmax, rmin, first, end.
_BW_SIGNATURES = np.array([[1, 0, -1, 0],
                           [1, 0, 0, 1],
                           [0, -1, -1, 0],
                           [1, 1, -1, -1],
                           [0, 1, 1, 0]])
_BW_MAX_SHIFT = int(np.abs(_BW_SIGNATURES[:3]).max())


def _bw_distances(words, pair, u, v, horizon: int) -> np.ndarray:
    """Pattern-family Bowen-Walters distances of many points: the direct
    route and the four signatures of `_BW_SIGNATURES` from x to y, under
    one minimum, which is the minimum of both directions.

    words[p] is an int array (2, horizon + 2M) holding coordinates
    [-M, horizon + M) of the base words x, y of row p (M = _BW_MAX_SHIFT),
    so that words[p, 0, M + j] is x_j; point i reads row pair[i] at the
    normalized heights u[i] over x and v[i] over y: float arrays, or
    object arrays of exact heights, on which each operation is Python's
    own.

    The horizontal costs depend on the rows only: one gather of the 2M + 1
    diagonals gives, per row, the first disagreement at or after each j
    (one reversed minimum.accumulate), hence every signature's cost
    v(j* + rmax).  Each point then adds, for every signature, first leg +
    last leg + that cost, the float operations of the scalar evaluation in
    its order."""
    M = _BW_MAX_SHIFT
    S, rmax, rmin, first, end = _BW_SIGNATURES
    # rows and points run along the last axis
    x, y = words.transpose(1, 2, 0)
    j = np.arange(horizon)
    miss = x[j + np.arange(2 * M + 1)[:, None]] != y[M + j]
    # nxt[M + s, j, p]: the least j' >= j with x_{j' + s} != y_{j'};
    # horizon where there is none, and for j >= horizon
    nxt = np.full((2 * M + 1, horizon + M + 1, len(words)), horizon)
    np.copyto(nxt[:, :horizon], j[:, None], where=miss)
    nxt = np.minimum.accumulate(nxt[:, ::-1], axis=1)[:, ::-1]
    # vv[n] = 2^-(n+1), and 0 from the horizon on
    vv = np.zeros(horizon + M + 1)
    vv[:horizon] = np.ldexp(1.0, -1 - j)
    # the first leg is u going down (first -1) and 1 - u going up, the
    # last leg v at end level 0 and 1 - v at level 1
    cost = np.stack((u, 1.0 - u))[(first > 0).astype(int)]
    cost += np.stack((v, 1.0 - v))[end]
    cost += vv[nxt[M + S, -rmin] + rmax[:, None]][:, pair]
    return np.minimum(np.abs(u - v) + vv[nxt[M, 0]][pair], cost.min(axis=0))


def _forced_depth(rho: float) -> int:
    """Least n with 2^-(n+1) < rho: agreement depth forced by a
    rho-ball under the forward-window base metric; 0 < rho < inf."""
    if not 0 < rho < math.inf:
        raise ValueError(f"the scale must be positive and finite, got {rho}")
    n = 0
    while 2.0 ** (-(n + 1)) >= rho:
        n += 1
    return n


def _check_finite(name: str, value):
    """Raise ValueError naming `name` unless `value` is a finite number."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _locate(symbol_at, roof: Roof, h, k=0):
    """The fiber walk: (k', h') with 0 <= h' < roof[symbol_at(k')] for the
    point at height h (of either sign, any size) above the floor of fiber
    k.  symbol_at maps a coordinate to a symbol; a height equal to a
    fiber's roof value belongs to the next fiber.

    A float height walks `roof.floats` (float - Fraction is float(h) -
    float(r) anyway) and compares with them first: h > float(r) implies
    h > r, so only equal floats compare with the exact `roof.values`."""
    exact = roof.values
    floats = roof.floats if isinstance(h, float) else exact
    while h < 0:
        k -= 1
        h += floats[symbol_at(k)]
    s = symbol_at(k)
    while h > floats[s] or h == floats[s] and h >= exact[s]:
        h -= floats[s]
        k += 1
        s = symbol_at(k)
    return k, h


def _fiber_times(symbol_at, roof: Roof, lo, hi):
    """{k: time from the floor of fiber 0 to the floor of fiber k} for
    lo <= k <= hi (lo <= 0 <= hi), by running sums of the roof values."""
    times = {0: 0}
    for k in range(hi):
        times[k + 1] = times[k] + roof.values[symbol_at(k)]
    for k in range(-1, lo - 1, -1):
        times[k] = times[k + 1] - roof.values[symbol_at(k)]
    return times


def _pieces(fibers: np.ndarray, roof: Roof, h, t):
    """The array fiber walk: row i of `fibers` holds the symbols of the
    fibers that a segment from height h of fiber 0 meets in time t (each
    one value, or one per row), reaching past h + t.  Returns the piece
    durations (K, n), zero past the last piece, and the index k of the
    fiber occupied at h + t in each row.

    The residues h + t - r_0 - ... - r_{j-1} are one subtract.accumulate,
    the float subtractions of `_locate` in its order.  Fiber j is whole
    when its residue is at least r_j: compared on `roof.array`, and with
    the exact `roof.values` where the two floats are equal; an exact h + t
    walks the exact values."""
    K, n = fibers.shape
    hs = h if np.ndim(h) else [h] * K
    total = [a + b for a, b in zip(hs, t if np.ndim(t) else [t] * K)]
    exact = not all(isinstance(v, float) for v in total)
    table = np.array(roof.values, dtype=object) if exact else roof.array
    lengths = table.take(fibers)
    res = np.subtract.accumulate(np.concatenate(
        [np.array(total, dtype=table.dtype)[:, None], lengths], axis=1),
        axis=1)[:, :-1]
    whole = np.asarray(res >= lengths, dtype=bool)
    i, j = np.nonzero(res == lengths)
    if len(i):
        whole[i, j] = [r >= roof.values[s] for r, s in
                       zip(res[i, j].tolist(), fibers[i, j].tolist())]
    k = whole.sum(axis=1)
    rows = np.arange(K)
    pieces = roof.array.take(fibers) * (np.arange(n) < k[:, None])
    pieces[rows, k] = res[rows, k].astype(float)
    pieces[:, 0] -= np.array(hs, dtype=float)
    return pieces, k


def _column_integrals(columns, values, roof: Roof, t, u):
    """The walk of sampled paths, fed one column of n states at a time:
    int_0^t of the fiber-constant `values` from height h0 = u r(s_0) of
    the first fiber, u in [0, 1] the normalized start heights, the index k
    of the fiber occupied at h0 + t (compared on `roof.array` only), and
    {"columns": walked}.  One pass holds the running sums of the roof and
    of values * roof while the roof sum is <= h0 + t, counts those fibers
    and keeps the state occupied at h0 + t: O(n) memory for any t.  The
    paths must reach past h0 + t.  Its callers draw uniform float heights,
    where a float tie has probability zero; `_pieces` keeps the exact
    compare at ties."""
    columns = iter(columns)
    first = next(columns)
    n = len(first)
    h0 = u * roof.array.take(first)
    total = h0 + t
    table = np.stack([roof.array, values * roof.array])
    acc = np.zeros((2, n))
    # while the largest roof sum plus the largest roof is <= the least h0 +
    # t, every row ends its next fiber by its h0 + t (float addition rounds
    # monotonically), so the walk only adds
    walked, bound, rmax = 0, float(total.min()), roof.max
    columns = itertools.chain([first], columns)
    while acc[0].max() + rmax <= bound:
        col = next(columns, None)
        if col is None:
            break
        for a, row in zip(acc, table):  # an n-long temporary, not (2, n)
            a += row.take(col)
        walked += 1
    held, state = acc.copy(), first.copy()
    k, done = np.full(n, walked, np.int64), np.ones(n, bool)
    for col in columns:
        np.copyto(state, col, where=done)
        for a, row in zip(acc, table):
            a += row.take(col)
        done = acc[0] <= total
        np.copyto(held, acc, where=done)
        k += done
        walked += 1
    if np.any(done | (u < 0) | (u > 1)):
        raise ValueError("start heights must lie in [0, r(s_0)] and the "
                         "paths reach past t + r(s_0)")
    end, full = held
    last = (total - end) * values.take(state)
    return full - h0 * values.take(first) + last, k, {"columns": walked}


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
        _check_finite("t", t)
        k, h = _locate(p.base.symbol_at, self.roof, p.height + t)
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
        words = np.array([[x.window(-M, horizon + M),
                           y.window(-M, horizon + M)]])
        return float(_bw_distances(words, [0], np.array([u]), np.array([v]),
                                   horizon)[0])

    # ------------------------------------------------------------------
    # shadowing
    # ------------------------------------------------------------------

    def shadows(self, y: SuspPoint, seg: OrbitSegment, delta: float) -> bool:
        """True iff bw_distance(flow(y, s), flow(x, s)) < delta on a grid of
        step <= delta/4 covering [0, t] (endpoints included)."""
        return self.max_orbit_distance(y, seg, delta) < delta

    def max_orbit_distance(self, y: SuspPoint, seg: OrbitSegment,
                           delta: float) -> float:
        """Sup of bw_distance along the shadowing grid (step <= delta/4),
        read to the horizon max(4, ceil(log2(4/delta))).  The fiber walk
        places the grid points; the points on one pair of fibers share
        their symbol windows, read once per pair by `_bw_distances`."""
        _check_finite("delta", delta)
        if delta <= 0:
            raise ValueError("delta must be positive")
        horizon = max(4, math.ceil(math.log2(4.0 / delta)))
        t = seg.duration
        n = max(1, math.ceil(t / (delta / 4.0)))
        step = t / n
        M = _BW_MAX_SHIFT
        span = int(t / self.roof.min) + horizon + M + 4
        yw = y.base.window(-M, span)
        xw = seg.start.base.window(-M, span)
        roof = self.roof
        # ky, kx index the windows: coordinate k sits at index k + M
        ky = kx = M
        hy, hx = y.height, seg.start.height
        walk = [(ky, kx, hy, hx)]
        for _ in range(n):
            ky, hy = _locate(yw.__getitem__, roof, hy + step, ky)
            kx, hx = _locate(xw.__getitem__, roof, hx + step, kx)
            walk.append((ky, kx, hy, hx))
        ky, kx, hy, hx = zip(*walk)
        fibers = np.array((ky, kx))
        windows = np.array((yw, xw))
        # normalized heights float(h) / r: what h / roof.floats[s] gives for
        # a float, int or Fraction h
        u, v = np.array((hy, hx), dtype=float) \
            / roof.array[windows[[[0], [1]], fibers]]
        # the fibers only move forward: a new pair starts where either moves
        new = np.ones(n + 1, dtype=bool)
        new[1:] = (fibers[:, 1:] != fibers[:, :-1]).any(axis=0)
        # each new pair's windows: coordinates [k - M, k + horizon + M) of
        # yw and xw, where coordinate k sits at index k + M
        cols = np.arange(horizon + 2 * M) - M
        words = windows[[[0], [1]], fibers[:, new].T[:, :, None] + cols]
        d = _bw_distances(words, np.cumsum(new) - 1, u, v, horizon)
        return float(d.max())

    # ------------------------------------------------------------------
    # gluing and closing
    # ------------------------------------------------------------------

    @staticmethod
    def margin(delta: float) -> int:
        """Extra agreed symbols past the occupied window needed so that the
        forward distance stays below delta: least m with 2^-(m+2) < delta."""
        return max(0, _forced_depth(delta) - 1)

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
        for seg in segs:
            x = seg.start.base
            # the segment visits symbols 0..c
            c, _ = _locate(x.symbol_at, self.roof,
                           seg.start.height + seg.duration)
            windows.append(x.window(0, c + m + 1))

        first = segs[0].start.base
        last = segs[-1].start.base

        # left tail: continue the first segment's own past
        lt = first.left_tail
        nlt = len(lt)
        back = max(0, -first.core_start)
        left_prefix = first.window(-back, 0)
        lt_rot = lt[(-back - first.core_start) % nlt:] + \
            lt[:(-back - first.core_start) % nlt]

        # window j starts at base coordinate coords[j]
        glued, coords = _glue_blocks(self.sft, windows)

        # right tail: continue the last segment's own future beyond its
        # window
        wlen = len(windows[-1])
        rt = last.right_tail
        nrt = len(rt)
        last_end = wlen  # first coordinate of `last` beyond the window
        rt_region_start = max(last_end, last.core_start + len(last.core))
        right_suffix = last.window(last_end, rt_region_start)
        rshift = (rt_region_start - last.core_start - len(last.core)) % nrt
        rt_rot = rt[rshift:] + rt[:rshift]

        base = BiWord(lt_rot, left_prefix + glued + right_suffix, rt_rot,
                      core_start=-len(left_prefix))
        h0 = segs[0].start.height
        y0 = SuspPoint(base, h0)

        # exact block start times along the glued orbit
        times = _fiber_times(base.symbol_at, self.roof, 0, coords[-1])
        starts = [times[c] + seg.start.height - h0
                  for c, seg in zip(coords, segs)]
        taus = [b - (a + seg.duration)
                for a, b, seg in zip(starts, starts[1:], segs)]
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
        c, _ = _locate(x.symbol_at, self.roof, seg.start.height + seg.duration)
        cyc = _primitive_root(_close_word(self.sft, x.window(0, c + m + 1)))
        base = BiWord.periodic(cyc, phase=0)
        period = sum(self.roof[s] for s in cyc)
        y = SuspPoint(base, seg.start.height)
        achieved = self.max_orbit_distance(y, seg, delta)
        orbit = ClosedOrbit(y, cyc, period)
        return orbit, achieved
