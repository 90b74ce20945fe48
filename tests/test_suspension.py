"""Suspension flows: evolution, the chain metric on the mapping torus,
shadowing, gluing, and periodic closing."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermoflow import (
    BiWord,
    OrbitSegment,
    Roof,
    Sft,
    SuspPoint,
    Suspension,
    graph_suspension,
    min_gap_bound,
)

from thermoflow.suspension import (_BW_MAX_SHIFT, _BW_SIGNATURES,
                                   _bw_distances, _column_integrals,
                                   _forced_depth, _locate, _pieces)
from thermoflow.thermo import (SuspendedMeasure, _sample_orbits,
                               random_markov_measure)

import bw_reference
from row_integrals_reference import row_integrals

from test_sft import random_irreducible_sft, _random_word


def _random_point(system, rng):
    word = _random_word(system.sft, rng, max_len=5)
    from thermoflow import glue_words
    gap = glue_words(system.sft, (word[-1],), (word[0],))
    base = BiWord.periodic(word + gap, phase=int(rng.integers(len(word))))
    h = float(rng.random()) * system.roof[base.symbol_at(0)]
    return system.point(base, h)


# --- flow -------------------------------------------------------------------

def test_locate_compares_floats_first_with_exact_ties(theta):
    """The fiber walk on the float view with exact compares at float ties
    returns what the walk with exact compares returns (same k, same height
    and type), on Fraction roofs, for float heights at and next to the
    float fiber floors and for Fraction heights.  The array walk from the
    floor of fiber 0 to a height h >= 0 ends in the same fiber, its last
    piece the same height."""
    from stats_reference import locate
    thirds = (1, Fraction(1, 3))
    cases = [(thirds, BiWord.periodic((1, 0, 1, 1, 0)).symbol_at),
             (theta.roof.values, BiWord.periodic((0, 2, 5, 1)).symbol_at)]
    rng = np.random.default_rng(5)
    for lengths, symbol_at in cases:
        floats = [float(v) for v in lengths]
        # the fiber floors summed in floats, both directions from 0
        floors, acc = [], 0.0
        for k in range(12):
            acc += floats[symbol_at(k)]
            floors.append(acc)
        acc = 0.0
        for k in range(-1, -12, -1):
            acc -= floats[symbol_at(k)]
            floors.append(acc)
        heights = [f + d for f in floors for d in (0.0, -1e-12, 1e-12)]
        heights += [float(np.nextafter(f, s)) for f in floors
                    for s in (-np.inf, np.inf)]
        heights += [Fraction(int(rng.integers(-40, 40)), 3)
                    for _ in range(40)]
        heights += rng.uniform(-6.0, 6.0, 40).tolist()
        roof = Roof(lengths)
        fibers = np.array([[symbol_at(j) for j in range(40)]])
        for h in heights:
            for k in (0, 3):
                got = _locate(symbol_at, roof, h, k)
                want = locate(symbol_at, lengths, h, k)
                assert got == want and type(got[1]) is type(want[1]), h
            if h >= 0:
                pieces, k = _pieces(fibers, roof, 0, h)
                k_end, h_end = _locate(symbol_at, roof, h)
                assert k.tolist() == [k_end], h
                assert pieces[0, k_end] == float(h_end), h


def test_flow_examples(full2_unit, golden12):
    x = BiWord.periodic((0, 1), phase=0)
    p = full2_unit.point(x, 0.3)
    q = full2_unit.flow(p, 0.5)
    assert q.base == x and abs(q.height - 0.8) < 1e-12

    p = full2_unit.point(x, 0.7)
    q = full2_unit.flow(p, 0.5)
    assert q.base == x.shift(1) and abs(q.height - 0.2) < 1e-12

    y = BiWord.periodic((1, 0), phase=0)  # symbol 1 at origin, roof 2
    p = golden12.point(y, 1.5)
    q = golden12.flow(p, 1.0)
    assert q.base == y.shift(1) and abs(q.height - 0.5) < 1e-12


def test_flow_additive_and_invertible(golden12):
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = _random_point(golden12, rng)
        a = float(rng.uniform(-10, 10))
        b = float(rng.uniform(-10, 10))
        lhs = golden12.flow(golden12.flow(p, a), b)
        rhs = golden12.flow(p, a + b)
        assert lhs.base == rhs.base
        assert abs(lhs.height - rhs.height) < 1e-9
        back = golden12.flow(golden12.flow(p, a), -a)
        assert back.base == p.base
        assert abs(back.height - p.height) < 1e-9


def test_flow_exact_on_fractions(theta):
    """On exact roofs (1, 3/2, 2) and Fraction times the flow is a group
    action with ==, not to a tolerance."""
    system = graph_suspension(theta)
    rng = np.random.default_rng(11)
    for _ in range(60):
        p = _random_point(system, rng)
        p = SuspPoint(p.base, Fraction(int(rng.integers(4)), 4)
                      * system.roof[p.base.symbol_at(0)])
        a = Fraction(int(rng.integers(-60, 60)), 3)
        b = Fraction(int(rng.integers(-60, 60)), 4)
        q = system.flow(p, a + b)
        assert system.flow(system.flow(p, a), b) == q
        assert system.flow(q, -(a + b)) == p
        assert isinstance(q.height, Fraction)
        assert 0 <= q.height < system.roof[q.base.symbol_at(0)]


def test_flow_to_roof_lands_on_next_floor(golden12, theta):
    y = BiWord.periodic((1, 0), phase=0)  # roofs 2, 1
    q = golden12.flow(golden12.point(y, 0.5), 1.5)
    assert q == SuspPoint(y.shift(1), 0.0)
    assert golden12.flow(q, 1.0) == SuspPoint(y.shift(2), 0.0)
    assert golden12.flow(q, -2.0) == SuspPoint(y, 0.0)
    system = graph_suspension(theta)
    x = BiWord.periodic((2, 5), phase=0)  # edges of length 3/2
    q = system.flow(SuspPoint(x, Fraction(1, 2)), 1)
    assert q == SuspPoint(x.shift(1), Fraction(0))


# --- bw_distance ------------------------------------------------------------

def test_row_walk_ending_on_a_roof_occupies_the_next_fiber(golden12):
    """golden (1,2) from height 0 for t = 3 ends on the floor of fiber 2,
    which it then occupies; phi = (1, 10) integrates to 1 + 2 * 10."""
    integral, k = _column_integrals(np.array([[0, 1, 0, 0, 1]]).T,
                                    np.array([1.0, 10.0]), golden12.roof,
                                    3.0, np.zeros(1))[:2]
    assert k.tolist() == [2] and integral.tolist() == [21.0]


def _walk_system(name, request):
    if name == "thirds":
        return Suspension(Sft([[1, 1], [1, 1]]), Roof([1, Fraction(1, 3)]))
    if name in ("rose2", "theta"):
        return graph_suspension(request.getfixturevalue(name))
    return request.getfixturevalue(name)


def _same_walk(got, want):
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


WALK_MODELS = ["full2_unit", "golden12", "thirds", "rose2", "theta"]


@pytest.mark.parametrize("name", WALK_MODELS)
def test_column_walk_streams_the_sampled_orbits(name, request):
    """Streamed paths integrate bit for bit as the reference walk over the
    whole path array, whose normalized heights are drawn before the same
    paths from the same generator."""
    system = _walk_system(name, request)
    roofs = system.roof.array
    for seed in range(3):
        rng = np.random.default_rng(seed)
        mu = SuspendedMeasure(random_markov_measure(system.sft, rng),
                              system.roof)
        values = rng.normal(size=len(roofs))
        for t in (0.5, 6.25, 31.0):
            length = math.ceil(t / system.roof.min) + 2
            u, columns = _sample_orbits(mu, 300, length,
                                        np.random.default_rng(seed))
            got = _column_integrals(columns, values, system.roof, t, u)
            ref_rng = np.random.default_rng(seed)
            u = ref_rng.random(300)
            paths = mu.base.sample_words(
                300, length, ref_rng, mu.base.stationary * roofs)
            h0 = u * roofs[paths[:, 0]]
            _same_walk(got, row_integrals(paths, values, system.roof, h0, t))
            assert got[2] == {"columns": length}


@pytest.mark.parametrize("name", WALK_MODELS)
def test_column_walk_matches_row_reference_at_ties(name, request):
    """Heights 0 and r_0 (1 - 2^-52), and times t where a roof sum S_j
    of a path equals t or fl(t + r_0), so that h0 + t can fall on the end
    of a fiber: bit for bit the reference walk."""
    system = _walk_system(name, request)
    roofs = system.roof.array
    rng = np.random.default_rng(11)
    mu = random_markov_measure(system.sft, rng)
    values = rng.normal(size=len(roofs))
    paths = mu.sample_words(200, 64, rng)
    sums = np.cumsum(roofs[paths], axis=1)
    r0 = roofs[paths[:, 0]]
    times = []
    for j in (3, 17, 40):
        times.append(float(sums[0, j]))
        t = float(sums[0, j] - r0[0])
        assert t + r0[0] == sums[0, j]
        times.append(t)
    for t in times:
        for scale in (0.0, 1.0 - 2.0 ** -52):
            got = _column_integrals(paths.T, values, system.roof, t,
                                    np.full(len(paths), scale))
            _same_walk(got[:2], row_integrals(paths, values, system.roof,
                                              scale * r0, t))


def test_column_walk_rejects_heights_off_the_fiber_and_short_paths(
        golden12):
    columns = np.array([[0, 1, 0, 0, 1]]).T
    values = np.array([1.0, 10.0])
    for u in (-0.5, 1.5):
        with pytest.raises(ValueError, match="start heights"):
            _column_integrals(columns, values, golden12.roof, 2.0,
                              np.array([u]))
    with pytest.raises(ValueError, match="reach past"):
        _column_integrals(columns, values, golden12.roof, 6.5,
                          np.array([0.5]))


def test_bw_identity_and_vertical(full2_unit):
    x = BiWord.periodic((0, 1), phase=0)
    p = full2_unit.point(x, 0.3)
    assert full2_unit.bw_distance(p, p) == 0.0
    q = full2_unit.point(x, 0.45)
    assert full2_unit.bw_distance(p, q) <= 0.15 + 1e-12


def test_bw_forward_agreement(full2_unit):
    # bases agreeing on [-5, 5], equal heights -> distance <= 2^-5
    a = BiWord.periodic((0,) * 6 + (1,) * 6, phase=0)
    b = BiWord.periodic((0,) * 6 + (1,) * 5 + (0,), phase=0)
    # both read 0 on [-6+..], first disagreement at coordinate >= 5
    p = full2_unit.point(a, 0.0)
    q = full2_unit.point(b, 0.0)
    assert full2_unit.bw_distance(p, q) <= 2.0 ** (-5) + 1e-12


def test_bw_differs_at_origin(full2_unit):
    a = BiWord.periodic((0,), phase=0)
    b = BiWord.periodic((1,), phase=0)
    p = full2_unit.point(a, 0.0)
    q = full2_unit.point(b, 0.0)
    # the evaluation restricts chains to the declared pattern family, which
    # is within a factor 2 of the chain infimum: >= (1/2) * d(x, y) = 1/4
    assert full2_unit.bw_distance(p, q) >= 0.25


def test_no_pattern_signature_dominates_another():
    """No two of the oracle's 38 signatures share S, first passage and end
    level with one no dearer inside (interior) and no narrower in its
    forcing window (rmax >=, rmin <=) than the other, so this same-S
    dominance prunes none of them; the kernel's pruning rests on the
    bound on horizontal costs instead (next test)."""
    patterns = bw_reference.PATTERNS
    assert len(set(patterns)) == len(patterns) == 38
    for a, b in itertools.permutations(patterns, 2):
        S, rmax, rmin, first, interior, end = a
        S2, rmax2, rmin2, first2, interior2, end2 = b
        assert not (S2 == S and first2 == first and end2 == end
                    and interior2 <= interior and rmax2 >= rmax
                    and rmin2 <= rmin), (a, b)


def test_kernel_signatures_are_the_alternating_ones():
    """The premises of the kernel's pruning: its four signatures are the
    interior-0 signatures of the oracle's family, one per (first, end),
    and every other signature repeats a direction (interior >= 1).  And
    the four map onto themselves when x and y swap: read from y to x, a
    signature costs what (-S, rmax - S, rmin - S, first', end') costs from
    x to y, its first leg becoming the last and its last the first."""
    table = _BW_SIGNATURES.T.tolist()
    kernel = [(S, rmax, rmin, first, 0, end)
              for S, rmax, rmin, first, end in table]
    alternating = [s for s in bw_reference.PATTERNS if s[4] == 0]
    assert sorted(kernel) == sorted(alternating)
    assert sorted((s[3], s[5]) for s in kernel) == \
        [(-1, 0), (-1, 1), (1, 0), (1, 1)]
    assert all(s[4] >= 1 for s in bw_reference.PATTERNS if s not in kernel)
    mirrored = [[-S, rmax - S, rmin - S, 2 * end - 1, int(first > 0)]
                for S, rmax, rmin, first, end in table]
    assert sorted(mirrored) == sorted(table)
    assert _BW_MAX_SHIFT == 1


def test_bw_metric_axioms_random_triples(golden12):
    rng = np.random.default_rng(7)
    pts = [_random_point(golden12, rng) for _ in range(60)]
    d = golden12.bw_distance
    # symmetry exact
    for i in range(0, 60, 3):
        p, q = pts[i], pts[(i + 1) % 60]
        assert d(p, q) == d(q, p)
    # triangle inequality on 1000 random triples
    idx = rng.integers(0, 60, size=(1000, 3))
    for i, j, k in idx:
        p, q, r = pts[i], pts[j], pts[k]
        assert d(p, r) <= d(p, q) + d(q, r) + 1e-12


def test_bw_zero_iff_equal_up_to_horizon(golden12):
    rng = np.random.default_rng(9)
    for _ in range(30):
        p = _random_point(golden12, rng)
        assert golden12.bw_distance(p, p, horizon=8) == 0.0
        q = _random_point(golden12, rng)
        if q.base != p.base or abs(q.height - p.height) > 1e-9:
            assert golden12.bw_distance(p, q, horizon=32) > 0.0


def _bw_corpus(rng, horizon):
    """Window pairs over 2 or 3 symbols for one horizon, of the oracle's
    coordinates [-5, horizon + 5): equal words, near-equal ones (one to
    three symbols changed), unrelated ones, and x rolled by each shift
    -5..5 with up to two symbols changed, where the shifted diagonals
    hold long runs of agreement."""
    width = horizon + 2 * bw_reference.M
    pairs = []
    for n_sym in (2, 3):
        for kind in range(6):
            x = rng.integers(n_sym, size=width)
            y = x.copy()
            if kind in (2, 3, 4):
                at = rng.integers(width, size=kind - 1)
                y[at] = (y[at] + 1) % n_sym
            elif kind == 5:
                y = rng.integers(n_sym, size=width)
            pairs.append((x, y))
        for shift in range(-bw_reference.M, bw_reference.M + 1):
            x = rng.integers(n_sym, size=width)
            y = np.roll(x, shift)
            at = rng.integers(width, size=rng.integers(3))
            y[at] = (y[at] + 1) % n_sym
            pairs.append((x, y))
    return pairs


def _kernel_windows(words):
    """The kernel's coordinates [-1, horizon + 1) of the oracle's windows
    [-5, horizon + 5), along the last axis."""
    cut = bw_reference.M - _BW_MAX_SHIFT
    return words[..., cut:words.shape[-1] - cut]


def test_bw_kernel_matches_scalar_reference():
    """One kernel call per horizon 1..40 over a seeded corpus of window
    pairs, each read at heights 0, 1 - 2^-52 and random: bit for bit the
    scalar loop over the 38 signatures, pair by pair."""
    rng = np.random.default_rng(26)
    top = 1.0 - 2.0 ** -52
    for horizon in range(1, 41):
        pairs = _bw_corpus(rng, horizon)
        words = np.array(pairs)
        pair, us, vs = [], [], []
        for p in range(len(pairs)):
            for u, v in ((0.0, 0.0), (top, 0.0), (0.0, top), (top, top),
                         tuple(rng.random(2))):
                pair.append(p)
                us.append(u)
                vs.append(v)
        got = _bw_distances(_kernel_windows(words), np.array(pair),
                            np.array(us), np.array(vs), horizon)
        want = [bw_reference.bw_from_words(*words[p].tolist(), u, v, horizon)
                for p, u, v in zip(pair, us, vs)]
        assert got.tolist() == want, horizon


def test_bw_distance_matches_scalar_reference(golden12, theta):
    """The one-point call: bit for bit the scalar loop on the windows, with
    float heights and with exact heights over theta's exact roof, where the
    scalar loop adds Fractions exactly until a float joins them."""
    rng = np.random.default_rng(27)
    M = bw_reference.M
    exact = graph_suspension(theta)
    for system in (golden12, exact):
        for k in range(60):
            p, q = _random_point(system, rng), _random_point(system, rng)
            if system is exact:
                p = SuspPoint(p.base, Fraction(k % 7, 7)
                              * system.roof[p.base.symbol_at(0)])
            if system is exact and k % 2:
                q = SuspPoint(q.base, Fraction(k % 5, 5)
                              * system.roof[q.base.symbol_at(0)])
            u = p.height / system.roof[p.base.symbol_at(0)]
            v = q.height / system.roof[q.base.symbol_at(0)]
            horizon = (1, 8, 32)[k % 3]
            assert system.bw_distance(p, q, horizon) == \
                bw_reference.bw_from_words(p.base.window(-M, horizon + M),
                                           q.base.window(-M, horizon + M),
                                           u, v, horizon)


# --- shadowing --------------------------------------------------------------

def test_shadows_self(golden12):
    rng = np.random.default_rng(3)
    p = _random_point(golden12, rng)
    seg = OrbitSegment(p, 5.0)
    for delta in (0.5, 0.1, 0.02):
        assert golden12.shadows(p, seg, delta)


def test_shadows_origin_mismatch(full2_unit):
    a = BiWord.periodic((0,), phase=0)
    b = BiWord.periodic((1, 0, 0, 0, 0, 0, 0, 0), phase=0)
    seg = OrbitSegment(full2_unit.point(a, 0.0), 1.0)
    assert not full2_unit.shadows(full2_unit.point(b, 0.0), seg, 0.1)


def test_max_orbit_distance_exact_roof_matches_float_roof(theta):
    """The shadowing grid walks the roof's float view, so an exact roof
    (1, 3/2, 2) and the same roof given as floats give the same sup."""
    exact = graph_suspension(theta)
    floats = Suspension(exact.sft, Roof([float(r) for r in theta.roof.values]))
    rng = np.random.default_rng(9)
    for _ in range(20):
        y, x = _random_point(exact, rng), _random_point(exact, rng)
        seg = OrbitSegment(x, float(rng.uniform(0.5, 6.0)))
        for delta in (0.3, 0.1):
            assert exact.max_orbit_distance(y, seg, delta) \
                == floats.max_orbit_distance(y, seg, delta)


@pytest.mark.parametrize("name", ["golden12", "theta", "thirds",
                                  "random"])
def test_max_orbit_distance_matches_grid_reference(name, request):
    """The shadowing sup equals the per-point reference walk bit for bit at
    delta = 0.3, 0.05 and 0.01 (horizons 4, 7 and 9): y unrelated to x, on
    x's base at another height, and x flowed a little."""
    rng = np.random.default_rng(31)
    if name == "random":
        sfts = [random_irreducible_sft(rng, max_symbols=4) for _ in range(2)]
        systems = [Suspension(sft, Roof(rng.uniform(0.5, 2.0, sft.n_symbols)))
                   for sft in sfts]
    else:
        systems = [_walk_system(name, request)]
    for system in systems:
        for delta in (0.3, 0.05, 0.01):
            x = _random_point(system, rng)
            seg = OrbitSegment(x, float(rng.uniform(0.5, 4.0)))
            r0 = system.roof[x.base.symbol_at(0)]
            for y in (_random_point(system, rng),
                      system.point(x.base, float(rng.random()) * r0),
                      system.flow(x, float(rng.uniform(0.0, delta)))):
                assert system.max_orbit_distance(y, seg, delta) == \
                    bw_reference.max_orbit_distance(system, y, seg, delta)


# --- gluing -----------------------------------------------------------------

def test_glue_single_segment_identity(golden12):
    rng = np.random.default_rng(1)
    p = _random_point(golden12, rng)
    seg = OrbitSegment(p, 4.0)
    res = golden12.glue_segments([seg], 0.25)
    assert res.point == p
    assert res.transition_times == ()
    assert res.block_starts == (4.0,)


def test_glue_full_shift_blocks(full2_unit):
    zeros = BiWord.periodic((0,), phase=0)
    ones = BiWord.periodic((1,), phase=0)
    segs = [OrbitSegment(full2_unit.point(zeros, 0.0), 3.0),
            OrbitSegment(full2_unit.point(ones, 0.0), 3.0)]
    res = full2_unit.glue_segments(segs, 0.25)
    w = res.point.base.window(0, 10)
    assert w[:4] == (0, 0, 0, 0)  # the 0-block window survives
    assert 1 in w  # followed by the 1-block
    assert all(t <= full2_unit.transition_bound(0.25) + 1e-9
               for t in res.transition_times)
    for j, seg in enumerate(segs):
        y = full2_unit.flow(res.point, res.block_starts[j] - seg.duration)
        assert full2_unit.shadows(y, seg, 0.25)


def test_glue_golden_gap_word(golden12):
    sys1 = Suspension(Sft([[1, 1], [1, 0]]), Roof([1.0, 1.0]))
    x = BiWord.periodic((0, 1), phase=1)  # symbol 1 at origin
    segs = [OrbitSegment(sys1.point(x, 0.0), 2.0)] * 2
    res = sys1.glue_segments(segs, 0.3)
    assert all(t <= (min_gap_bound(sys1.sft) + 2) * 1.0 + 1e-9
               for t in res.transition_times)
    del golden12


def test_glue_bookkeeping_identity(golden12):
    rng = np.random.default_rng(17)
    segs = [OrbitSegment(_random_point(golden12, rng),
                         float(rng.uniform(1, 6))) for _ in range(4)]
    res = golden12.glue_segments(segs, 0.3)
    acc = 0.0
    for j, seg in enumerate(segs):
        acc += seg.duration
        assert abs(res.block_starts[j] - acc) < 1e-9
        if j < len(res.transition_times):
            acc += res.transition_times[j]


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_glue_random_sfts_property(seed):
    rng = np.random.default_rng(seed)
    sft = random_irreducible_sft(rng, max_symbols=5)
    roof = Roof([float(rng.uniform(0.5, 2.0))
                 for _ in range(sft.n_symbols)])
    system = Suspension(sft, roof)
    delta = 0.3
    k = int(rng.integers(1, 5))
    segs = [OrbitSegment(_random_point(system, rng),
                         float(rng.uniform(0.5, 8.0))) for _ in range(k)]
    res = system.glue_segments(segs, delta)
    bound = system.transition_bound(delta)
    assert all(-1e-9 <= t <= bound + 1e-9 for t in res.transition_times)
    for j, seg in enumerate(segs):
        y = system.flow(res.point, res.block_starts[j] - seg.duration)
        assert system.shadows(y, seg, delta)


# --- closing ----------------------------------------------------------------

def test_close_already_periodic(full2_unit):
    x = BiWord.periodic((0, 1), phase=0)
    seg = OrbitSegment(full2_unit.point(x, 0.0), 2.0)
    orbit, achieved = full2_unit.close_segment(seg, 0.25)
    R = full2_unit.transition_bound(0.25)
    assert orbit.period <= seg.duration + R + 1e-9
    assert achieved < 0.25


def test_close_primitivizes(full2_unit):
    x = BiWord.periodic((0, 1), phase=0)
    seg = OrbitSegment(full2_unit.point(x, 0.0), 4.0)  # core "0101.."
    orbit, _ = full2_unit.close_segment(seg, 0.25)
    assert orbit.word in ((0, 1), (1, 0))
    assert orbit.period == 2.0


def test_close_period_bound_uniform(golden12):
    """Closing excess is bounded by R independent of the segment."""
    rng = np.random.default_rng(29)
    delta = 0.3
    R = golden12.transition_bound(delta)
    for _ in range(100):
        p = _random_point(golden12, rng)
        t = float(rng.uniform(0.5, 12.0))
        orbit, achieved = golden12.close_segment(OrbitSegment(p, t), delta)
        assert achieved < delta
        # period may divide the closed word (primitivization), so only the
        # upper excess bound is asserted
        assert orbit.period <= t + R + 1e-9


def test_margin_and_transition_bound(golden12):
    assert Suspension.margin(0.3) == 0
    assert Suspension.margin(0.25) == 1
    assert Suspension.margin(0.1) == 2
    tau = min_gap_bound(golden12.sft)
    assert golden12.transition_bound(0.3) == (tau + 2) * golden12.roof.max


@pytest.mark.parametrize("delta", [0.0, -0.1, math.inf, math.nan])
def test_scale_must_be_positive_and_finite(golden12, delta):
    """The forced depth of a delta-ball, and so the margin, the transition
    bound, gluing and closing, raise ValueError unless 0 < delta < inf;
    delta <= 0 used to loop forever."""
    seg = OrbitSegment(golden12.point(BiWord.periodic((0, 1)), 0.0), 2.0)
    calls = [lambda: _forced_depth(delta), lambda: Suspension.margin(delta),
             lambda: golden12.transition_bound(delta),
             lambda: golden12.glue_segments([seg, seg], delta),
             lambda: golden12.close_segment(seg, delta)]
    for call in calls:
        with pytest.raises(ValueError, match="positive and finite"):
            call()
