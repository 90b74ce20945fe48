"""Weighted periodic-orbit equidistribution, the truncated weak* metric,
rate functions by two methods, and Monte Carlo deviation frequencies."""

import math

import numpy as np
import pytest

from thermoflow import (
    BiWord,
    CylinderPotential,
    OrbitSegment,
    WeakStarConfig,
    birkhoff,
    deviation_frequency,
    empirical_measure,
    enumerate_closed_geodesics,
    equilibrium_state,
    graph_suspension,
    measure_statistics,
    orbit_measure,
    pressure,
    rate_function,
    weak_star_distance,
    weighted_orbit_measure,
    zero_potential,
)

from exact_deviation import exact_deviation_probability

CFG = WeakStarConfig()


def ind1(width=1):
    """Indicator of symbol 1 as a width-1 potential."""
    return CylinderPotential(1, {(0,): 0.0, (1,): 1.0})


# --- orbit / empirical measures ----------------------------------------------

def test_orbit_measure_examples(rose2):
    system = graph_suspension(rose2)
    m = orbit_measure(system, (0,), CFG)
    assert abs(m.frequency((0,)) - 1.0) < 1e-12
    m = orbit_measure(system, (0, 2), CFG)
    assert abs(m.frequency((0,)) - 0.5) < 1e-12
    assert abs(m.frequency((2,)) - 0.5) < 1e-12


def test_empirical_equals_orbit_on_period(full2_unit):
    x = full2_unit.point(BiWord.periodic((0, 1, 1)), 0.0)
    e = empirical_measure(full2_unit, x, 3.0, CFG)
    m = orbit_measure(full2_unit, (0, 1, 1), CFG)
    assert weak_star_distance(e, m, CFG) < 1e-12


def test_segment_ending_on_a_roof_has_no_empty_piece(golden12):
    """golden (1,2) from height 0 for t = 3 meets two fibers, weights 1 and
    2; the fiber whose floor the segment ends on gets no piece."""
    x = golden12.point(BiWord.periodic((0, 1, 0, 0, 1), phase=0), 0.0)
    phi = CylinderPotential(1, {(0,): 1.0, (1,): 10.0})
    assert birkhoff(golden12, phi, OrbitSegment(x, 3.0)) == 21.0
    e = empirical_measure(golden12, x, 3.0, CFG)
    assert e.freqs[1] == {(0,): 1.0 / 3.0, (1,): 2.0 / 3.0}
    assert set(e.freqs[CFG.depth]) == {(0, 1, 0, 0, 1, 0), (1, 0, 0, 1, 0, 1)}


def test_empirical_additivity(full2_unit):
    x = full2_unit.point(BiWord.periodic((0, 1, 1, 0, 1)), 0.3)
    t = 4.0
    e2t = empirical_measure(full2_unit, x, 2 * t, CFG)
    ea = empirical_measure(full2_unit, x, t, CFG)
    eb = empirical_measure(full2_unit, full2_unit.flow(x, t), t, CFG)
    for depth in range(1, CFG.depth + 1):
        for w in ea.freqs[depth]:
            avg = 0.5 * ea.frequency(w) + 0.5 * eb.frequency(w)
            assert abs(e2t.frequency(w) - avg) < 1e-9


def test_marginalization_consistency(full2_unit):
    x = full2_unit.point(BiWord.periodic((0, 1, 1, 0)), 0.2)
    e = empirical_measure(full2_unit, x, 7.3, CFG)
    e.check_marginalization(full2_unit.sft)


# --- weak* metric -------------------------------------------------------------

def test_weak_star_metric_axioms(full2_unit):
    rng = np.random.default_rng(3)
    words = [(0,), (0, 1), (0, 1, 1), (1, 0, 0, 1)]
    ms = [orbit_measure(full2_unit, w, CFG) for w in words]
    for a in ms:
        assert weak_star_distance(a, a, CFG) == 0.0
        for b in ms:
            assert weak_star_distance(a, b, CFG) == \
                weak_star_distance(b, a, CFG)
            for c in ms:
                assert weak_star_distance(a, c, CFG) <= \
                    weak_star_distance(a, b, CFG) + \
                    weak_star_distance(b, c, CFG) + 1e-12
    del rng


def test_weak_star_bernoulli_closed_form(full2_unit):
    from thermoflow import MarkovMeasure, SuspendedMeasure
    cfg = WeakStarConfig(depth=1)
    a = SuspendedMeasure(MarkovMeasure([[0.5, 0.5], [0.5, 0.5]]),
                         full2_unit.roof)
    b = SuspendedMeasure(MarkovMeasure([[0.4, 0.6], [0.4, 0.6]]),
                         full2_unit.roof)
    sa = measure_statistics(a, cfg)
    sb = measure_statistics(b, cfg)
    d = weak_star_distance(sa, sb, cfg)
    assert abs(d - 0.5 * (0.1 + 0.1)) < 1e-12


# --- equidistribution ----------------------------------------------------------

def test_equidistribution_rose2_both_potentials(rose2):
    system = graph_suspension(rose2)
    phi0 = zero_potential()
    phi_ab = CylinderPotential(1, {(0,): 0.15, (1,): 0.0,
                                   (2,): -0.1, (3,): 0.05})
    for phi in (phi0, phi_ab):
        target = measure_statistics(equilibrium_state(system, phi), CFG)
        Ds = []
        for t in (4.0, 8.0, 12.0):
            emp, C, n = weighted_orbit_measure(system, phi, t, CFG)
            Ds.append(weak_star_distance(emp, target, CFG))
        assert Ds[0] >= Ds[1] >= Ds[2]
        assert Ds[2] < 0.05


def test_weighted_measure_single_orbit(rose2):
    system = graph_suspension(rose2)
    emp, C, n = weighted_orbit_measure(system, zero_potential(), 1.0, CFG)
    assert n == 4
    assert abs(emp.frequency((0,)) - 0.25) < 1e-12


def test_weighted_measure_no_orbits(rose2):
    from fractions import Fraction
    from thermoflow import MetricGraph
    theta_unit = MetricGraph(2, [(0, 1, 1)] * 3)
    system = graph_suspension(theta_unit)
    with pytest.raises(ValueError, match="no closed orbits yet"):
        weighted_orbit_measure(system, zero_potential(), 1.0, CFG)
    del Fraction


def test_gurevic_periodic_consistency(rose2):
    """(1/t) log C(t) -> P(phi): with C(t) = sum_{Per(t)} e^{Phi}, the
    finite-t count carries a 1/(P t) prefactor (orbits ~ e^{Pt}/(Pt)), so
    the consistency check compares after the log(P t)/t correction."""
    system = graph_suspension(rose2)
    phi = zero_potential()
    P, _ = pressure(system, phi, "spectral")
    t = 12.0
    _, C, _ = weighted_orbit_measure(system, phi, t, CFG)
    raw = math.log(C) / t
    corrected = raw + math.log(P * t) / t
    assert abs(corrected - P) < 0.05
    assert abs(raw - P) < math.log(P * t) / t + 0.05


# --- rate function --------------------------------------------------------------

def test_rate_function_bernoulli_golden(full2_unit):
    psi = ind1()
    expected = math.log(2) - (-(0.6 * math.log(0.6) + 0.4 * math.log(0.4)))
    for method in ("legendre", "direct"):
        q = rate_function(full2_unit, zero_potential(), psi, [0.1], method)
        assert abs(q[0.1] - expected) < 1e-3, method


def test_rate_function_endpoints(full2_unit):
    psi = ind1()
    for method in ("legendre", "direct"):
        q = rate_function(full2_unit, zero_potential(), psi,
                          [0.0, 0.5, 0.6], method)
        assert abs(q[0.0]) < 1e-9
        assert abs(q[0.5] - math.log(2)) < 1e-6
        assert q[0.6] == math.inf


def test_rate_function_monotone_convex(full2_unit):
    psi = ind1()
    eps = [0.05, 0.1, 0.15, 0.2, 0.25]
    q = rate_function(full2_unit, zero_potential(), psi, eps, "legendre")
    vals = [q[e] for e in eps]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    # convexity on the sampled grid
    for i in range(1, len(vals) - 1):
        assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-9


def test_rate_methods_agree(full2_unit):
    psi = ind1()
    eps = [0.05, 0.1, 0.2]
    ql = rate_function(full2_unit, zero_potential(), psi, eps, "legendre")
    qd = rate_function(full2_unit, zero_potential(), psi, eps, "direct")
    for e in eps:
        assert abs(ql[e] - qd[e]) < 0.04  # 2x the declared grid step


def test_rate_golden_mean_methods_agree():
    from thermoflow import Roof, Sft, Suspension
    system = Suspension(Sft([[1, 1], [1, 0]]), Roof([1.0, 1.0]))
    psi = ind1()
    ql = rate_function(system, zero_potential(), psi, [0.05, 0.1],
                       "legendre")
    qd = rate_function(system, zero_potential(), psi, [0.05, 0.1],
                       "direct")
    for e in (0.05, 0.1):
        assert abs(ql[e] - qd[e]) < 0.04


# --- Monte Carlo deviations -----------------------------------------------------

def test_deviation_frequency_eps_zero(full2_unit):
    mu = equilibrium_state(full2_unit, zero_potential())
    dev = deviation_frequency(full2_unit, mu, ind1(), 0.0, 20.0, 2000, 7)
    assert dev.frequency == 1.0
    assert abs(dev.log_rate) < 1e-12


def test_deviation_monotone_in_eps(full2_unit):
    mu = equilibrium_state(full2_unit, zero_potential())
    rates = []
    for eps in (0.05, 0.1, 0.15):
        dev = deviation_frequency(full2_unit, mu, ind1(), eps, 50.0,
                                  20000, 7)
        rates.append(dev.log_rate)
    assert rates[0] > rates[1] > rates[2]


def test_deviation_insufficient_resolution_note(full2_unit):
    mu = equilibrium_state(full2_unit, zero_potential())
    dev = deviation_frequency(full2_unit, mu, ind1(), 0.25, 50.0, 200, 7)
    assert 0 < dev.hits < 10
    assert dev.note and "insufficient resolution" in dev.note
    zero = deviation_frequency(full2_unit, mu, ind1(), 0.45, 50.0, 200, 7)
    assert zero.hits == 0
    assert "upper confidence bound only" in zero.note


def test_deviation_reproducible(full2_unit):
    mu = equilibrium_state(full2_unit, zero_potential())
    a = deviation_frequency(full2_unit, mu, ind1(), 0.1, 30.0, 5000, 42)
    b = deviation_frequency(full2_unit, mu, ind1(), 0.1, 30.0, 5000, 42)
    assert a == b


def test_deviation_counts_boundary_atoms(full2_unit):
    # at t = 30, eps = 0.1 the integral has atoms at I = 12 and I = 18 on the
    # boundary; the exact P is 0.313263 under >=, 0.232710 under strict >
    mu = equilibrium_state(full2_unit, zero_potential())
    n = 20_000
    dev = deviation_frequency(full2_unit, mu, ind1(), 0.1, 30.0, n, 7)
    p = float(exact_deviation_probability(30, "0.1"))
    assert abs(dev.frequency - p) <= 4 * math.sqrt(p * (1 - p) / n)
