"""Suspension flows: evolution, the chain metric on the mapping torus,
shadowing, gluing, and periodic closing."""

import math
from fractions import Fraction

import numpy as np
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

from test_sft import random_irreducible_sft, _random_word


def _random_point(system, rng):
    word = _random_word(system.sft, rng, max_len=5)
    from thermoflow import glue_words
    gap = glue_words(system.sft, (word[-1],), (word[0],))
    base = BiWord.periodic(word + gap, phase=int(rng.integers(len(word))))
    h = float(rng.random()) * system.roof[base.symbol_at(0)]
    return system.point(base, h)


# --- flow -------------------------------------------------------------------

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
    floats = Suspension(exact.sft, Roof([float(r) for r in theta.length]))
    rng = np.random.default_rng(9)
    for _ in range(20):
        y, x = _random_point(exact, rng), _random_point(exact, rng)
        seg = OrbitSegment(x, float(rng.uniform(0.5, 6.0)))
        for delta in (0.3, 0.1):
            assert exact.max_orbit_distance(y, seg, delta) \
                == floats.max_orbit_distance(y, seg, delta)


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
