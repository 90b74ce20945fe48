"""Acceptance gate: ten end-to-end criteria with pinned tolerances and
runtime budgets.  Each test is self-contained and names the claim it
verifies; tolerance constants are frozen here, not imported."""

import math
import time

import numpy as np
from scipy.optimize import brentq

from thermoflow import (
    ApproxTarget,
    BiWord,
    CylinderPotential,
    MarkovMeasure,
    OrbitSegment,
    Roof,
    Sft,
    Suspension,
    WeakStarConfig,
    build_edge_sft,
    d_GX,
    deviation_frequency,
    entropy_and_mean,
    equilibrium_state,
    ergodic_approximation,
    gibbs_ratio_stats,
    glue_words,
    graph_suspension,
    lift_distance,
    measure_statistics,
    min_gap_bound,
    pressure,
    rate_function,
    weak_star_distance,
    weighted_orbit_measure,
    zero_potential,
)

from exact_deviation import exact_deviation_probability
from test_sft import brute_force_gap_bound, random_irreducible_sft
from test_graph import correlated_pair, random_geodesic

CFG = WeakStarConfig()
GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


def _random_point(system, rng, max_len=5):
    word = [int(rng.integers(system.sft.n_symbols))]
    for _ in range(int(rng.integers(1, max_len + 1))):
        succ = system.sft.successors(word[-1])
        word.append(int(succ[rng.integers(len(succ))]))
    gap = glue_words(system.sft, (word[-1],), (word[0],))
    base = BiWord.periodic(tuple(word) + tuple(gap),
                           phase=int(rng.integers(len(word))))
    h = float(rng.random()) * system.roof[base.symbol_at(0)]
    return system.point(base, h)


# --- 1: specification constants ------------------------------------------------

def test_criterion_1_specification_constants(rose2):
    start = time.monotonic()
    rose_sft, _ = build_edge_sft(rose2)
    cases = ((Sft([[1, 1], [1, 1]]), 0),
             (Sft([[1, 1], [1, 0]]), 1),
             (rose_sft, 1))
    for sft, expect in cases:
        assert min_gap_bound(sft) == expect
        assert brute_force_gap_bound(sft, max_gap=3) == expect
    assert time.monotonic() - start < 1.0


# --- 2: gluing contract ----------------------------------------------------------

def test_criterion_2_gluing_contract():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    delta = 0.3
    for _ in range(200):
        sft = random_irreducible_sft(rng, max_symbols=5)
        roof = Roof([float(rng.uniform(0.5, 2.0))
                     for _ in range(sft.n_symbols)])
        system = Suspension(sft, roof)
        tau = min_gap_bound(sft)
        k = int(rng.integers(1, 4))
        segs = [OrbitSegment(_random_point(system, rng),
                             float(rng.uniform(0.5, 6.0)))
                for _ in range(k)]
        res = system.glue_segments(segs, delta)
        # maximum transition time (tau + 2) * max r
        assert all(t <= (tau + 2) * roof.max + 1e-9
                   for t in res.transition_times)
        for j, seg in enumerate(segs):
            y = system.flow(res.point, res.block_starts[j] - seg.duration)
            assert system.shadows(y, seg, delta)
    assert time.monotonic() - start < 30.0


# --- 3: metric lemmas -------------------------------------------------------------

def test_criterion_3_metric_lemmas(rose2, theta):
    start = time.monotonic()
    # comparison bound with K = 1/2: d_GX >= (1/2) d_X, certified errors
    for g in (rose2, theta):
        rng = np.random.default_rng(33)
        violations = 0
        for _ in range(500):
            g1 = random_geodesic(g, rng)
            g2 = random_geodesic(g, rng)
            s = float(rng.uniform(-2, 2))
            t = float(rng.uniform(-2, 2))
            g1s, g2t = g1.shift_time(s), g2.shift_time(t)
            e1, h1 = g1s.position(0.0)
            e2, h2 = g2t.position(0.0)
            dx = float(g.point_distance((e1, h1), (e2, h2)))
            v, err = d_GX(g1s, g2t)
            if dx > 2.0 * (v + err) + 1e-9:
                violations += 1
        assert violations == 0, f"comparison-lemma violations on {g}"
    # shadowing in X with T(eps) = -log eps on correlated pairs
    for g in (rose2, theta):
        rng = np.random.default_rng(34)
        a, b = 8.0, 12.0
        checked = violations = 0
        for _ in range(500):
            eps = float(rng.choice([0.1, 0.3]))
            T = -math.log(eps)
            g1, g2 = correlated_pair(g, rng)
            ts = np.linspace(a - T, b + T, 13)
            if any(lift_distance(g1, g2, float(t), window=64) >= eps / 2
                   for t in ts):
                continue
            checked += 1
            for t in np.linspace(a, b, 5):
                v, err = d_GX(g1.shift_time(float(t)),
                              g2.shift_time(float(t)))
                if v - err >= eps:
                    violations += 1
        assert checked >= 100, "hypothesis rarely satisfied"
        assert violations == 0, f"shadow-lemma violations on {g}"
    assert time.monotonic() - start < 60.0


# --- 4: time changes ---------------------------------------------------------------

def test_criterion_4_time_changes(rose2):
    rng = np.random.default_rng(44)
    T1 = 6.0
    for eps in (0.05, 0.1):
        for _ in range(100):  # 100 pairs per eps = 200 pairs
            g1 = random_geodesic(rose2, rng)
            c = float(rng.uniform(-eps, eps)) * 0.9
            g2 = g1.shift_time(c)
            wiggle = (eps - abs(c)) * 0.9
            freq = float(rng.uniform(0.2, 0.8))

            def rho(t):
                return t + c + wiggle * math.sin(freq * t)

            for t in np.linspace(0.0, T1 - 2 * eps, 9):
                assert abs(rho(t) - (t + c)) < eps
                assert abs(t - rho(t)) < 2 * eps
                e1, h1 = g1.position(float(t))
                e2, h2 = g2.position(float(t))
                dx = float(rose2.point_distance((e1, h1), (e2, h2)))
                assert dx < 3 * eps


# --- 5: pressure golden values ------------------------------------------------------

def test_criterion_5_pressure_golden_values(rose2):
    oracle_12 = brentq(
        lambda s: math.exp(-s) + math.exp(-3 * s) - 1.0, 0.01, 2.0,
        xtol=1e-14)
    assert abs(oracle_12 - 0.38224) < 1e-5  # quoted to 5 decimals
    systems = (
        (Suspension(Sft([[1, 1], [1, 1]]), Roof([1.0, 1.0])), math.log(2)),
        (graph_suspension(rose2), math.log(3)),
        (Suspension(Sft([[1, 1], [1, 0]]), Roof([1.0, 1.0])),
         math.log(GOLDEN_RATIO)),
        (Suspension(Sft([[1, 1], [1, 0]]), Roof([1.0, 2.0])), oracle_12),
    )
    for system, truth in systems:
        v, _ = pressure(system, zero_potential(), "spectral")
        assert abs(v - truth) <= 1e-8
        for method in ("separated", "gurevic"):
            v, _ = pressure(system, zero_potential(), method,
                            max_period=12.0)
            assert abs(v - truth) <= 0.05, (method, v, truth)


# --- 6: equilibrium + Gibbs -----------------------------------------------------------

def test_criterion_6_equilibrium_and_gibbs(full2_unit, golden12):
    for system in (full2_unit, golden12):
        phi = CylinderPotential(1, {(0,): 0.1, (1,): -0.2})
        mu = equilibrium_state(system, phi)
        h, m = entropy_and_mean(mu, phi)
        P, _ = pressure(system, phi, "spectral")
        assert abs(h + m - P) < 1e-6
        # 400 samples: the sup/inf band estimate is stable at this size
        stats = gibbs_ratio_stats(system, mu, phi, rho=0.05,
                                  t_grid=[10.0, 30.0], samples=400, seed=6)
        lo10, hi10 = stats["per_t"][10.0]
        lo30, hi30 = stats["per_t"][30.0]
        assert (hi30 / lo30) <= 1.2 * (hi10 / lo10)
    # negative control: a non-equilibrium measure escapes the band
    nu = MarkovMeasure([[0.9, 0.1], [0.9, 0.1]])
    from thermoflow import SuspendedMeasure
    bad = SuspendedMeasure(nu, full2_unit.roof)
    stats = gibbs_ratio_stats(full2_unit, bad, zero_potential(), rho=0.05,
                              t_grid=[10.0, 20.0], samples=400, seed=6)
    band10 = stats["per_t"][10.0][1] / stats["per_t"][10.0][0]
    band20 = stats["per_t"][20.0][1] / stats["per_t"][20.0][0]
    assert band20 > 1.2 * band10


# --- 7: equidistribution ----------------------------------------------------------------

def test_criterion_7_equidistribution(rose2):
    start = time.monotonic()
    system = graph_suspension(rose2)
    phi_nonzero = CylinderPotential(1, {(0,): 0.15, (1,): 0.0,
                                        (2,): -0.1, (3,): 0.05})
    for phi in (zero_potential(), phi_nonzero):
        target = measure_statistics(equilibrium_state(system, phi), CFG)
        Ds = []
        for t in (4.0, 8.0, 12.0):
            emp, _, _ = weighted_orbit_measure(system, phi, t, CFG)
            Ds.append(weak_star_distance(emp, target, CFG))
        assert Ds[0] >= Ds[1] >= Ds[2]
        assert Ds[2] < 0.05
    assert time.monotonic() - start < 120.0


# --- 8: entropy density -----------------------------------------------------------------

def test_criterion_8_entropy_density(full2_unit):
    eta = 0.05
    target = ApproxTarget(
        ((MarkovMeasure([[0.9, 0.1], [0.9, 0.1]]), 0.5),
         (MarkovMeasure([[0.1, 0.9], [0.1, 0.9]]), 0.5)), eta)
    rep = ergodic_approximation(full2_unit, target, CFG, seed=0)
    assert rep.D < 0.05
    assert abs(rep.h_nu - 0.32508) < 0.05
    cert = rep.count_certificate
    # log(#E_m)/(tm) > h_mu - eta - (sum h_i + log C)/t
    assert cert["log_Em_rate"] > cert["bound"]


# --- 9: large deviations ----------------------------------------------------------------

def test_criterion_9_rate_function(full2_unit):
    psi = CylinderPotential(1, {(0,): 0.0, (1,): 1.0})
    H06 = -(0.6 * math.log(0.6) + 0.4 * math.log(0.4))
    expected = math.log(2) - H06  # ~ 0.02014
    for method in ("legendre", "direct"):
        q = rate_function(full2_unit, zero_potential(), psi, [0.1], method)
        assert abs(q[0.1] - expected) < 1e-9, method


def test_criterion_9_monte_carlo_band(full2_unit):
    """The sampler matches the exact finite-t probability, and the exact
    log-rates approach -q(0.1) from below within the log(t)/t prefactor.

    The t = 50 log-rate itself is not pinned to an asymptotic band: the exact
    value -0.03457 lies below [-q(0.12), -q(0.08)] = [-0.02908, -0.01286],
    because of the Bahadur-Rao prefactor the principle drops in the limit."""
    start = time.monotonic()
    psi = CylinderPotential(1, {(0,): 0.0, (1,): 1.0})
    q = rate_function(full2_unit, zero_potential(), psi, [0.1], "legendre")
    mu = equilibrium_state(full2_unit, zero_potential())
    n = 100_000
    dev = deviation_frequency(full2_unit, mu, psi, 0.1, 50.0, n, 42)
    assert time.monotonic() - start < 300.0
    # (a) sampler check against the exact P_50 under the >= convention
    p50 = float(exact_deviation_probability(50, "0.1"))
    sigma = math.sqrt(p50 * (1 - p50) / n)
    assert abs(dev.frequency - p50) <= 4 * sigma, (
        f"Monte Carlo frequency {dev.frequency:.5f} is more than 4 sigma "
        f"({4 * sigma:.5f}) from the exact finite-t probability {p50:.6f}")
    # (b) exact log-rates rise towards -q(0.1) with gap at most log(t)/t
    ts = (50, 100, 200, 400, 800)
    rates = [math.log(exact_deviation_probability(t, "0.1")) / t for t in ts]
    assert all(a < b for a, b in zip(rates, rates[1:])), rates
    for t, r in zip(ts, rates):
        assert r < -q[0.1], (t, r, -q[0.1])
        assert -q[0.1] - r <= math.log(t) / t, (t, r, -q[0.1])


# --- 10: closing ------------------------------------------------------------------------

def test_criterion_10_closing(full2_unit, golden12):
    delta = 0.3
    for system in (full2_unit, golden12):
        rng = np.random.default_rng(100)
        R = system.transition_bound(delta)
        for _ in range(200):
            p = _random_point(system, rng)
            t = float(rng.uniform(0.5, 12.0))
            orbit, achieved = system.close_segment(OrbitSegment(p, t),
                                                   delta)
            assert achieved < delta
            assert orbit.period <= t + R + 1e-9
