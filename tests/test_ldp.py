"""Weighted periodic-orbit equidistribution, the truncated weak* metric,
rate functions by two methods, and Monte Carlo deviation frequencies."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from thermoflow import (
    BiWord,
    CylinderPotential,
    MarkovMeasure,
    OrbitSegment,
    Roof,
    Sft,
    SuspPoint,
    Suspension,
    SuspendedMeasure,
    WeakStarConfig,
    birkhoff,
    deviation_frequency,
    empirical_measure,
    entropy_and_mean,
    equilibrium_state,
    graph_suspension,
    measure_statistics,
    orbit_measure,
    pressure,
    random_markov_measure,
    rate_function,
    weak_star_distance,
    weighted_orbit_measure,
    zero_potential,
)

from thermoflow import ldp
from thermoflow.ldp import (_beta_quantile, _distances, _histograms,
                            _psi_range, _segment_distances)
from thermoflow.sft import _close_word
from thermoflow.thermo import NonConvergenceError

from exact_deviation import exact_deviation_probability
from row_integrals_reference import row_integrals

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


def _assert_tables_match(new, old):
    """The same words at every depth, frequencies and heights within
    1e-12."""
    assert set(new.freqs) == set(old.freqs)
    for k, table in old.freqs.items():
        assert set(new.freqs[k]) == set(table), k
        for w, f in table.items():
            assert abs(new.freqs[k][w] - f) <= 1e-12, (k, w)
    assert np.allclose(new.heights, old.heights, rtol=0, atol=1e-12)


@pytest.mark.parametrize("depth", [1, 6])
@pytest.mark.parametrize("name", ["full2", "golden12", "rose2", "theta"])
def test_statistics_match_dict_reference(name, depth, full2_unit, golden12,
                                         rose2, theta):
    """Every statistics producer gives the word tables of the dict-based
    reference (same words, frequencies within 1e-12), and so does every
    weak* distance between them, on seeded inputs."""
    import stats_reference as ref
    from cycle_reference import reference_weighted_measure
    from thermoflow import (ApproxTarget, SuspendedMeasure,
                            mixture_statistics, random_markov_measure)
    from thermoflow.entropy_density import _build_block_chain
    from thermoflow.sft import _close_word
    system = {"full2": full2_unit, "golden12": golden12,
              "rose2": graph_suspension(rose2),
              "theta": graph_suspension(theta)}[name]
    cfg = WeakStarConfig(depth=depth)
    sft = system.sft
    rng = np.random.default_rng(depth)
    hist = np.full(cfg.height_bins, 1.0 / cfg.height_bins)

    def closed_word(length):
        word = [int(rng.integers(sft.n_symbols))]
        while len(word) < length:
            word.append(int(rng.choice(sft.successors(word[-1]))))
        return _close_word(sft, word)

    target = ApproxTarget(((random_markov_measure(sft, rng), 0.3),
                           (random_markov_measure(sft, rng), 0.7)), 0.1)
    chain = _build_block_chain(system, target, 12)
    mu = SuspendedMeasure(target.components[0][0], system.roof)
    pairs = [(measure_statistics(mu, cfg), ref.measure_statistics(mu, cfg)),
             (mixture_statistics(target, system.roof, cfg),
              ref.mixture_statistics(target, system.roof, cfg)),
             (measure_statistics(chain, cfg),
              ref.chain_statistics(chain.base, chain.roof.array, cfg))]
    for length in (1, 3, 7):
        w = closed_word(length)
        pairs.append((orbit_measure(system, w, cfg),
                      ref.orbit_measure(system, w, cfg)))
        x = system.point(BiWord.periodic(closed_word(length + 5)),
                         float(rng.uniform(0.0, system.roof.min)))
        t = float(rng.uniform(0.5, 15.0))
        pairs.append((empirical_measure(system, x, t, cfg),
                      ref.empirical_measure(system, x, t, cfg)))
    freqs, _, _ = reference_weighted_measure(system, zero_potential(), 5.0,
                                             cfg)
    pairs.append((weighted_orbit_measure(system, zero_potential(), 5.0,
                                         cfg)[0],
                  ref.EmpiricalMeasure(freqs, hist, sft.n_symbols)))
    for new, old in pairs:
        _assert_tables_match(new, old)
    for new_a, old_a in pairs:
        for new_b, old_b in pairs:
            assert abs(weak_star_distance(new_a, new_b, cfg)
                       - ref.weak_star_distance(old_a, old_b, cfg)) <= 1e-12
    assert abs(weak_star_distance(mu, pairs[3][0], cfg)
               - ref.weak_star_distance(mu, pairs[3][1], cfg)) <= 1e-12


# on this periodic word with roof (1, 1/3) the fiber floors sit at 0, 1/3,
# 4/3, 5/3, 2, 3, 10/3, 13/3, ...; summed in floats, 5/3 and 10/3 overshoot
# by about 1.7e-16, which would leave a spurious piece on the next fiber
THIRDS_WORD = (1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0)


@pytest.mark.parametrize("h, t", [
    (Fraction(1, 6), Fraction(7, 6)),  # exact: ends on the floor 4/3
    (0, Fraction(5, 3)),  # exact: ends on the floor 5/3
    (Fraction(1, 18), Fraction(59, 18)),  # exact: ends on the floor 10/3
    (Fraction(1, 3) - Fraction(1, 10 ** 9), Fraction(3)),  # exact, near 1/3
    (0.0, float(Fraction(1, 3))),  # h + t ties float(1/3), below 1/3
    (0.0, 3.0),  # float: 3 = 1/3 + 1 + 1/3 + 1/3 + 1 in float sums
    (Fraction(1, 6), 2.5),  # Fraction start, float end
    (Fraction(1, 12), 0.25),  # Fraction start, float end on one fiber
])
def test_empirical_measure_on_fraction_boundaries(h, t, theta):
    """Segments that end exactly on a Fraction fiber floor, or start at a
    Fraction height, have the pieces of the exact scalar walk: the same
    words, frequencies and heights within 1e-12, on a Fraction roof and on
    a graph with Fraction edge lengths."""
    import stats_reference as ref
    system = Suspension(Sft([[1, 1], [1, 1]]), Roof([1, Fraction(1, 3)]))
    graph = graph_suspension(theta)
    cases = [(system, BiWord.periodic(THIRDS_WORD))]
    word = [0]
    while len(word) < 7:
        word.append(int(graph.sft.successors(word[-1])[0]))
    cases.append((graph, BiWord.periodic(_close_word(graph.sft, word))))
    for sys_, base in cases:
        x = SuspPoint(base, h)
        new = empirical_measure(sys_, x, t, CFG)
        old = ref.empirical_measure(sys_, x, t, CFG)
        _assert_tables_match(new, old)
        cycle = base.left_tail
        assert abs(weak_star_distance(new, orbit_measure(sys_, cycle, CFG),
                                      CFG)
                   - ref.weak_star_distance(
                       old, ref.orbit_measure(sys_, cycle, CFG), CFG)) \
            <= 1e-12


# --- equidistribution ----------------------------------------------------------

def test_equidistribution_rose2_both_potentials(rose2, theta):
    """D(weighted orbit measure, equilibrium statistics) falls along a
    ladder of period cutoffs up to t = 30, on rose2 (criterion 7's inputs)
    and on the bipartite theta graph."""
    ladders = (
        (rose2, CylinderPotential(1, {(0,): 0.15, (1,): 0.0,
                                      (2,): -0.1, (3,): 0.05})),
        (theta, CylinderPotential(1, {(s,): 0.04 * (s - 2.5)
                                      for s in range(6)})),
    )
    for graph, phi_ab in ladders:
        system = graph_suspension(graph)
        for phi in (zero_potential(), phi_ab):
            target = measure_statistics(equilibrium_state(system, phi), CFG)
            Ds = []
            for t in (4.0, 8.0, 12.0, 20.0, 30.0):
                emp, C, n = weighted_orbit_measure(system, phi, t, CFG)
                Ds.append(weak_star_distance(emp, target, CFG))
            assert all(a >= b for a, b in zip(Ds, Ds[1:])), Ds
            assert Ds[-1] < 0.05, Ds


def test_equidistribution_width2_potential(golden):
    """A width-2 potential recodes the base to 2-blocks; the statistics of
    its equilibrium state show each block's first symbol, the one its fiber
    lies over, and the weighted orbit measures converge to them."""
    system = Suspension(golden, Roof([1, 2]))
    phi = CylinderPotential(2, {(0, 0): 0.1, (0, 1): -0.2, (1, 0): 0.3,
                                (1, 1): 0.0})
    target = measure_statistics(equilibrium_state(system, phi), CFG)
    emp, _, _ = weighted_orbit_measure(system, phi, 24.0, CFG)
    assert weak_star_distance(emp, target, CFG) < 1e-3


def test_weighted_measure_single_orbit(rose2):
    system = graph_suspension(rose2)
    emp, C, n = weighted_orbit_measure(system, zero_potential(), 1.0, CFG)
    assert n == 4
    assert abs(emp.frequency((0,)) - 0.25) < 1e-12


def test_weighted_measure_no_orbits(rose2):
    from thermoflow import MetricGraph
    theta_unit = MetricGraph(2, [(0, 1, 1)] * 3)
    system = graph_suspension(theta_unit)
    with pytest.raises(ValueError, match="no closed orbits yet"):
        weighted_orbit_measure(system, zero_potential(), 1.0, CFG)


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

def test_legendre_range_reaches_long_cycles():
    """The psi-range must reach cycles of every length: on an 8-cycle with
    a loop at 0, psi = 1 on symbol 3 averages between 0 (the loop) and 1/8
    (the 8-cycle), so mean + 0.02 is achievable and the Legendre rate at
    eps = 0.02 is finite."""
    A = np.zeros((8, 8), dtype=int)
    A[np.arange(8), (np.arange(8) + 1) % 8] = 1
    A[0, 0] = 1
    system = Suspension(Sft(A.tolist()), Roof([1.0] * 8))
    psi = CylinderPotential(1, {(s,): float(s == 3) for s in range(8)})
    q = {m: rate_function(system, zero_potential(), psi, [0.02], m)[0.02]
         for m in ("legendre", "direct")}
    assert math.isfinite(q["legendre"])
    assert abs(q["legendre"] - q["direct"]) < 1e-9, q


def test_rate_function_bernoulli_golden(full2_unit):
    psi = ind1()
    expected = math.log(2) - (-(0.6 * math.log(0.6) + 0.4 * math.log(0.4)))
    for method in ("legendre", "direct"):
        q = rate_function(full2_unit, zero_potential(), psi, [0.1], method)
        assert abs(q[0.1] - expected) < 1e-9, method


def test_rate_function_endpoints(full2_unit):
    psi = ind1()
    for method in ("legendre", "direct"):
        q = rate_function(full2_unit, zero_potential(), psi,
                          [0.0, 0.5, 0.6], method)
        assert abs(q[0.0]) < 1e-9
        assert abs(q[0.5] - math.log(2)) < 1e-9
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
    """Both methods give the full2 closed form q(eps) = log 2 - H(1/2 +
    eps) for psi = 1_[1]."""
    psi = ind1()
    eps = [0.05, 0.1, 0.2]
    ql = rate_function(full2_unit, zero_potential(), psi, eps, "legendre")
    qd = rate_function(full2_unit, zero_potential(), psi, eps, "direct")
    for e in eps:
        p = 0.5 + e
        exact = math.log(2) + p * math.log(p) + (1 - p) * math.log(1 - p)
        assert abs(ql[e] - exact) < 1e-9 and abs(qd[e] - exact) < 1e-9


def test_rate_golden_mean_methods_agree():
    system = Suspension(Sft([[1, 1], [1, 0]]), Roof([1.0, 1.0]))
    psi = ind1()
    ql = rate_function(system, zero_potential(), psi, [0.05, 0.1],
                       "legendre")
    qd = rate_function(system, zero_potential(), psi, [0.05, 0.1],
                       "direct")
    for e in (0.05, 0.1):
        assert abs(ql[e] - qd[e]) < 1e-9


def test_direct_matches_oracle(full2_unit, golden12):
    """The Newton solve equals the grid-and-SLSQP oracle of
    `rate_reference.py` on a seeded corpus: full2 and golden (1, 2), phi
    zero, fixed and seeded, four seeded eps inside the psi range, both
    ends of the range and one eps beyond it (42 values)."""
    from rate_reference import rate_direct
    psi, rng = ind1(), np.random.default_rng(2016)
    fixed = CylinderPotential(1, {(0,): 0.1, (1,): -0.2})
    for system in (full2_unit, golden12):
        lo, hi = _psi_range(system, psi)
        for phi in (zero_potential(), fixed, CylinderPotential(
                1, {(s,): float(rng.normal(0, 0.5)) for s in (0, 1)})):
            m = entropy_and_mean(equilibrium_state(system, phi), psi)[1]
            reach = max(hi - m, m - lo)
            eps = rng.uniform(0, reach, 4).tolist() \
                + [hi - m, m - lo, reach + 0.05]
            got = rate_function(system, phi, psi, eps, "direct")
            want = rate_direct(system, phi, psi, eps)
            assert got[eps[-1]] == want[eps[-1]] == math.inf
            for e in eps[:-1]:
                assert abs(got[e] - want[e]) < 1e-9, (system, phi, e)


def _random_table(rng, sft, width, scale):
    from thermoflow.sft import _words
    return CylinderPotential(width, {
        tuple(w): float(rng.normal(0, scale))
        for w in _words(sft._edges, width).tolist()})


def _methods_agree(system, phi, psi, fractions):
    """Legendre and direct agree within 1e-9 at eps = f times the distance
    from the mean to the nearer end of the psi range, for each f, and at
    the distances to both ends."""
    lo, hi = _psi_range(system, psi)
    m = entropy_and_mean(equilibrium_state(system, phi), psi)[1]
    eps = [f * min(hi - m, m - lo) for f in fractions] + [hi - m, m - lo]
    ql = rate_function(system, phi, psi, eps, "legendre")
    qd = rate_function(system, phi, psi, eps, "direct")
    for e in eps:
        assert math.isfinite(qd[e]) and abs(ql[e] - qd[e]) < 1e-9, e


@pytest.mark.parametrize("name", ["theta", "rose2"])
def test_direct_matches_legendre_on_graphs(name, request):
    """The direct method runs on the graph models, which have more than 3
    free kernel parameters, and agrees with Legendre."""
    system = graph_suspension(request.getfixturevalue(name))
    rng = np.random.default_rng(7)
    for phi in (zero_potential(), _random_table(rng, system.sft, 1, 0.3)):
        _methods_agree(system, phi, _random_table(rng, system.sft, 1, 1.0),
                       [0.2, 0.6, 0.9])


@pytest.mark.parametrize("seed", range(6))
def test_direct_matches_legendre_width2(seed):
    """Width-2 phi and psi on seeded irreducible SFTs of 3-5 symbols with
    roofs drawn from [0.5, 2].  At 0.999 of the way to the range end the
    optimum has edges near 0, where Newton without the barrier path
    crawls.  At the range ends Legendre reads the pressure of the face,
    which the pressure curve reaches only as beta -> +-inf."""
    from thermoflow.sft import is_irreducible
    rng = np.random.default_rng(100 + seed)
    k = int(rng.integers(3, 6))
    while True:
        A = (rng.random((k, k)) < 0.6).astype(int)
        if A.any(axis=0).all() and A.any(axis=1).all() \
                and is_irreducible(Sft(A)):
            break
    system = Suspension(Sft(A), Roof(rng.uniform(0.5, 2.0, k).tolist()))
    phi = _random_table(rng, system.sft, 2, 0.3)
    _methods_agree(system, phi, _random_table(rng, system.sft, 2, 1.0),
                   [0.3, 0.8, 0.999])


@pytest.mark.parametrize("name", ["theta", "rose2", "sft"])
def test_psi_range_matches_max_plus_oracle(name, request):
    """The Bellman-Ford cycle search of `_max_cycle_ratio` gives both ends
    of the psi range of the max-plus-power oracle in `rate_reference.py`
    within 1e-14: seeded potentials of widths 1-3 on the graph models and
    on three seeded irreducible SFTs of 3-4 symbols with roofs in
    [0.5, 2]."""
    from rate_reference import max_cycle_ratio
    from thermoflow.ldp import _max_cycle_ratio
    from thermoflow.sft import is_irreducible
    from thermoflow.thermo import _prepare
    rng = np.random.default_rng(17)
    if name == "sft":
        systems = []
        while len(systems) < 3:
            k = int(rng.integers(3, 5))
            A = (rng.random((k, k)) < 0.6).astype(int)
            if A.any(axis=0).all() and A.any(axis=1).all() \
                    and is_irreducible(Sft(A)):
                systems.append(Suspension(Sft(A), Roof(
                    rng.uniform(0.5, 2.0, k).tolist())))
    else:
        systems = [graph_suspension(request.getfixturevalue(name))]
    for system in systems:
        for width in (1, 2, 3):
            sft_w, roof_w, _, psihat = _prepare(
                system, _random_table(rng, system.sft, width, 1.0))
            A, r = sft_w.transitions, roof_w.array
            for num in (psihat, -psihat):
                assert abs(_max_cycle_ratio(A, num, r)
                           - max_cycle_ratio(A, num, r)) < 1e-14, width


def _face_cases(system, psi) -> list:
    """(src, dst, weight) of the critical graph at each end of the psi
    range, on the SFT recoded to psi's width, as `rate_function` builds
    them."""
    from thermoflow.thermo import _prepare
    sft_w, roof_w, _, psihat = _prepare(system, psi)
    src, dst = sft_w._edges
    r = roof_w.array
    lo, hi = _psi_range(system, psi)
    return [(src, dst, (psihat - hi * r)[src]),
            (src, dst, (lo * r - psihat)[src])]


def _assert_faces_match(cases) -> int:
    """`_face` gives the pieces of the set-routine oracle, in its order;
    returns how many faces have two or more pieces."""
    from face_reference import face
    from thermoflow.ldp import _face
    multi = 0
    for src, dst, weight in cases:
        got, want = _face(src, dst, weight), face(src, dst, weight)
        assert len(got) == len(want) >= 1
        for g, w in zip(got, want):
            for a, b in zip(g, w):
                assert np.array_equal(a, b)
        multi += len(got) > 1
    return multi


@pytest.mark.parametrize("name", ["full2_unit", "golden12", "rose2",
                                  "theta"])
def test_face_matches_set_routine_oracle(name, request):
    """The critical-graph pieces at both ends of the psi range equal those
    of `face_reference.face` (edge indices, renumbered sources and
    targets, piece order) for seeded psi of widths 1-3."""
    system = request.getfixturevalue(name)
    if name in ("rose2", "theta"):
        system = graph_suspension(system)
    rng = np.random.default_rng(23)
    _assert_faces_match(
        case for width in (1, 2, 3) for _ in range(2)
        for case in _face_cases(
            system, _random_table(rng, system.sft, width, 1.0)))


def test_face_matches_set_routine_oracle_with_ties():
    """On 40 seeded irreducible SFTs of 3-6 symbols with roofs in {1, 2}
    and 0/1-valued psi of widths 1-2, cycle ratios tie, so faces of two
    or more pieces occur; their pieces equal the oracle's too."""
    from thermoflow.sft import _words, is_irreducible
    rng = np.random.default_rng(29)
    cases = []
    while len(cases) < 80:
        k = int(rng.integers(3, 7))
        A = (rng.random((k, k)) < 0.5).astype(int)
        if not (A.any(axis=0).all() and A.any(axis=1).all()
                and is_irreducible(Sft(A))):
            continue
        system = Suspension(Sft(A), Roof(rng.integers(1, 3, k).tolist()))
        width = int(rng.integers(1, 3))
        psi = CylinderPotential(width, {
            tuple(w): float(rng.integers(0, 2))
            for w in _words(system.sft._edges, width).tolist()})
        cases += _face_cases(system, psi)
    assert _assert_faces_match(cases) >= 10


def test_psi_range_separates_near_ties(full2_unit):
    """Two loops whose psi averages differ by 1e-9 give the two ends of the
    range exactly: the growth tolerance of the cycle search sits far
    below the gap."""
    psi = CylinderPotential(1, {(0,): 1.0, (1,): 1.0 - 1e-9})
    assert _psi_range(full2_unit, psi) == (1.0 - 1e-9, 1.0)


@pytest.mark.parametrize("k", range(5, 13))
def test_direct_near_the_range_end_is_right_or_raises(full2_unit, k):
    """For psi = 1_[1] on full2 at u = 1 - 1e-k, direct is within 1e-9 of
    the closed form log 2 - H(u) or raises NonConvergenceError, never a
    silent error (1.06e-8 at k = 7 while round-off could pile up in the
    constraint rows of the Newton steps)."""
    d = 10.0 ** -k
    exact = math.log(2) + (1 - d) * math.log(1 - d) + d * math.log(d)
    try:
        q = rate_function(full2_unit, None, ind1(), [0.5 - d], "direct")
    except NonConvergenceError:
        return
    assert abs(q[0.5 - d] - exact) <= 1e-9


def test_direct_singular_kkt_near_range_end_is_nonconvergence(full2_unit):
    """At u = 1 - 1e-10 for psi = 1_[1] on full2, inside the psi range but
    beyond the reach of its face, the KKT matrix of the first Newton step
    is numerically singular: a NonConvergenceError that names the edges,
    the iteration and the KKT residual, not numpy's LinAlgError."""
    psi = CylinderPotential(1, {(0,): 0.0, (1,): 1.0})
    with pytest.raises(NonConvergenceError,
                       match=r"4 edges met a singular KKT matrix after 0 "
                             r"iterations with KKT residual \d"):
        rate_function(full2_unit, None, psi, [0.5 - 1e-10], "direct")


def test_direct_newton_failure_names_iterations_and_residual(golden12):
    """A Newton solve that does not converge raises, naming its iteration
    count and KKT residual (an iteration cap of 2 through the private
    solver)."""
    from thermoflow.ldp import _circulation, _max_entropy
    src, dst = np.nonzero(golden12.sft.transitions)
    r = golden12.roof.array[src]
    with pytest.raises(NonConvergenceError,
                       match=r"3 edges .* after 2 iterations .* KKT "
                             r"residual \d"):
        _max_entropy(src, dst, np.array([0.1, 0.1, -0.2]), r[None], [1.0],
                     _circulation(src, dst, r), max_iter=2)


def test_rate_function_solves_the_spectral_root_once(golden12,
                                                     monkeypatch):
    """P(phi) and the psi mean come from one Gibbs solve on the recoded
    shift: one `direct` call on golden (1,2) makes one spectral root."""
    import thermoflow.thermo as thermo
    calls = []
    root = thermo._spectral_root

    def counted(*args):
        calls.append(args)
        return root(*args)

    monkeypatch.setattr(thermo, "_spectral_root", counted)
    phi = CylinderPotential(1, {(0,): 0.1, (1,): -0.2})
    rate_function(golden12, phi, ind1(), [0.05, 0.1], "direct")
    assert len(calls) == 1


def test_rate_function_rejects_what_pressure_rejects(full2_unit):
    """A potential that is not a cylinder potential is a TypeError and a
    reducible shift a ValueError, as in `pressure`."""
    with pytest.raises(TypeError, match="unsupported potential"):
        rate_function(full2_unit, {(0,): 0.0}, ind1(), [0.1])
    reducible = Suspension(Sft([[1, 0], [0, 1]]), Roof([1.0, 1.0]))
    with pytest.raises(ValueError, match="not irreducible"):
        rate_function(reducible, None, ind1(), [0.1])


def _scalar_objective(system, P, phi, psi):
    """One kernel at a time through the measure classes: (h + int phi,
    int psi) of the suspended Markov measure of P, None when it fails."""
    P = np.maximum(P, 0.0)
    P = P / P.sum(axis=1, keepdims=True)
    P = np.where(P < 1e-12, 0.0, P)
    try:
        nu = MarkovMeasure(P / P.sum(axis=1, keepdims=True))
    except ValueError:
        return None
    mu = SuspendedMeasure(nu, system.roof)
    h, int_phi = entropy_and_mean(mu, phi)
    return h + int_phi, entropy_and_mean(mu, psi)[1]


@pytest.mark.parametrize("name", ["full2/zero", "full2/phi", "golden12/zero",
                                  "golden12/phi", "sft3/phi"])
def test_batched_objective_matches_scalar_path(name, full2_unit, golden12):
    """The oracle direct method's one-stack objective agrees with the
    measure classes on every grid and vertex kernel (full2, golden (1, 2))
    and on every vertex and every 50th grid kernel of a 3-symbol SFT with
    three free parameters, the reducible identity kernel of full2
    included."""
    from rate_reference import kernel_grid, kernel_stack, objective
    model, pot = name.split("/")
    sft3 = Suspension(Sft([[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
                      Roof([1.0, 1.5, 0.5]))
    system = {"full2": full2_unit, "golden12": golden12, "sft3": sft3}[model]
    n = system.sft.n_symbols
    rows = [(i, system.sft.successors(i)) for i in range(n)]
    params, n_grid = kernel_grid([s for _, s in rows if len(s) > 1], 0.02)
    if model == "sft3":
        assert params.shape[1] == 3
        params = np.vstack([params[:n_grid:50], params[n_grid:]])
    P = kernel_stack(rows, params)
    if model == "full2":
        assert any(np.array_equal(k, np.eye(2)) for k in P)
    phi = CylinderPotential(1, {(s,): v for s, v in
                                enumerate([0.1, -0.2, 0.3][:n])}) \
        if pot == "phi" else zero_potential()
    psi = CylinderPotential(1, {(s,): float(s == 1) for s in range(n)})
    obj, mpsi, ok = objective(P, system.roof.array,
                              np.array([phi.value((s,)) for s in range(n)]),
                              np.array([psi.value((s,)) for s in range(n)]))
    for k, o, m, good in zip(P, obj, mpsi, ok):
        ref = _scalar_objective(system, k, phi, psi)
        assert good == (ref is not None)
        assert abs(o - ref[0]) <= 1e-14 and abs(m - ref[1]) <= 1e-14, k


def _per_member_windows(words, starts, width):
    """Each member's window, one np.take(..., mode="wrap") per word."""
    cols = np.arange(width)
    return np.stack([np.take(w, s + cols, mode="wrap")
                     for w, s in zip(words, starts)])


@pytest.mark.parametrize("per_row_t", [False, True])
@pytest.mark.parametrize("model", ["full2_unit", "golden12", "rose2"])
def test_segment_windows_one_gather_match_per_member_take(
        model, per_row_t, request, monkeypatch):
    """The one index into the concatenated words gathers the windows and
    gives the distances of a per-member np.take(..., mode="wrap"), bit for
    bit, on words of unequal lengths whose windows wrap several times."""
    system = request.getfixturevalue(model)
    if model == "rose2":
        system = graph_suspension(system)
    rng = np.random.default_rng(9)
    words = []
    for length in (1, 2, 5, 11, 26, 40):
        w = [int(rng.integers(system.sft.n_symbols))]
        while len(w) < length:
            succ = system.sft.successors(w[-1])
            w.append(int(succ[rng.integers(len(succ))]))
        words.append(_close_word(system.sft, w))
    starts = [int(s) for s in rng.integers(0, 200, len(words))]
    t = rng.uniform(90.0, 120.0, len(words)) if per_row_t else 120.0
    b = measure_statistics(SuspendedMeasure(
        random_markov_measure(system.sft, rng), system.roof), CFG)
    seen = []
    monkeypatch.setattr(ldp, "sliding_window_view",
                        lambda a, *args, **kw: seen.append(a.copy())
                        or sliding_window_view(a, *args, **kw))
    got = _segment_distances(system, words, starts, t, b, CFG)
    n = int(np.max(t) / system.roof.min) + 2
    windows = _per_member_windows(words, starts, n + CFG.depth - 1)
    assert windows.shape[1] > 2 * max(map(len, words))  # wraps twice
    assert len(seen) == 1 and seen[0].dtype == windows.dtype
    assert np.array_equal(seen[0], windows)
    pieces, hist = _histograms(windows[:, :n], system.roof, 0.0, t,
                               CFG.height_bins)
    want = _distances(sliding_window_view(windows, CFG.depth, axis=1),
                      pieces / pieces.sum(axis=1, keepdims=True),
                      hist / hist.sum(axis=1, keepdims=True), b, CFG)
    assert got.tobytes() == want.tobytes()


# --- the keyed weak* kernel against the lexsort oracle ------------------------

def _spy_distances(monkeypatch):
    """Record the arguments of every `ldp._distances` call."""
    calls = []

    def spy(*args):
        calls.append(args)
        return _distances(*args)
    monkeypatch.setattr(ldp, "_distances", spy)
    return calls


def _assert_statistics_match_oracle(got, mu, cfg):
    """measure_statistics(mu) bit for bit against the table built from the
    state paths of the edge-search walk."""
    import weakstar_reference as ref
    paths, nu = ref.state_paths(mu.base, cfg.depth)
    emit = np.array([w[0] for w in mu.base.words])
    want = ldp.EmpiricalMeasure(emit[paths], nu * mu.roof.array[paths[:, 0]]
                                / mu.mean_roof, got.heights)
    assert np.array_equal(got.words, want.words)
    assert got.weights.tobytes() == want.weights.tobytes()


@pytest.mark.parametrize("depth", [1, 6])
@pytest.mark.parametrize("name", ["full2", "golden"])
def test_separated_set_distances_match_lexsort_oracle(name, depth,
                                                      monkeypatch):
    """Every separated-set distance (K = 20 members against the target's
    statistics) at t = 24 ... 70 is bit for bit that of the lexsorted
    (member id, word) table, and so is the target's table."""
    import weakstar_reference as ref
    from thermoflow import separated_generic_set
    system, P = {"full2": (Sft([[1, 1], [1, 1]]), [[0.3, 0.7], [0.6, 0.4]]),
                 "golden": (Sft([[1, 1], [1, 0]]), [[0.6, 0.4], [1.0, 0.0]])
                 }[name]
    system = Suspension(system, Roof([1.0, 1.0]))
    mu = MarkovMeasure(P)
    flow_mu = SuspendedMeasure(mu, system.roof)
    cfg = WeakStarConfig(depth=depth)
    h = entropy_and_mean(flow_mu, None)[0] - 0.1
    calls = _spy_distances(monkeypatch)
    for t in range(24, 71):
        got = separated_generic_set(system, mu, h, float(t), 0.2, seed=t,
                                    cfg=cfg).sampled_D
        words, weights, heights, b, _ = calls[-1]
        assert words.shape == (20, words.shape[1], depth)
        want = ref.distances(*calls[-1])
        assert np.array(got).tobytes() == want.tobytes(), t
        _assert_statistics_match_oracle(b, flow_mu, cfg)
    assert len(calls) == 47


@pytest.mark.parametrize("depth", [1, 6])
@pytest.mark.parametrize("name", ["full2", "golden12", "rose2", "theta"])
def test_orbit_ladder_distances_match_lexsort_oracle(
        name, depth, full2_unit, golden12, rose2, theta, monkeypatch):
    """The weak* distance of each weighted orbit measure on a t-ladder to
    its equilibrium target (K = 1), for phi = 0 and a seeded width-1 phi,
    is bit for bit that of the lexsort oracle, and so is every target
    table built from the walk that carries its own probabilities."""
    import weakstar_reference as ref
    system = {"full2": full2_unit, "golden12": golden12,
              "rose2": graph_suspension(rose2),
              "theta": graph_suspension(theta)}[name]
    ladder = {"full2": range(4, 13), "golden12": range(6, 20),
              "rose2": range(4, 10), "theta": range(4, 15)}[name]
    cfg = WeakStarConfig(depth=depth)
    rng = np.random.default_rng(depth)
    n = system.sft.n_symbols
    calls = _spy_distances(monkeypatch)
    for phi in (zero_potential(), CylinderPotential(1, {
            (i,): float(v) for i, v in enumerate(rng.normal(0, 0.2, n))})):
        mu = equilibrium_state(system, phi)
        target = measure_statistics(mu, cfg)
        _assert_statistics_match_oracle(target, mu, cfg)
        for t in ladder:
            emp = weighted_orbit_measure(system, phi, float(t), cfg)[0]
            got = weak_star_distance(emp, target, cfg)
            assert calls[-1][0].shape[0] == 1
            assert got == float(ref.distances(*calls[-1])[0]), t
    assert len(calls) == 2 * len(ladder)


@pytest.mark.parametrize("name", ["full2", "golden12", "rose2", "theta"])
def test_state_paths_match_edge_search_oracle(name, full2_unit, golden12,
                                              rose2, theta):
    """`sft._words` through the padded successor table gives the words of
    the cumulative-degree walk, and the state paths that carry their own
    probabilities give the paths and nu of the per-step edge search, bit
    for bit: on the width-1 base, on width-2 and width-3 block recodes of
    it and on random kernels, for lengths 1 to 7."""
    import weakstar_reference as ref
    from thermoflow.sft import _words
    from thermoflow.thermo import _state_paths, block_recode
    system = {"full2": full2_unit, "golden12": golden12,
              "rose2": graph_suspension(rose2),
              "theta": graph_suspension(theta)}[name]
    rng = np.random.default_rng(5)
    for w in (1, 2, 3):
        sft_w = block_recode(system.sft, system.roof, w)[0]
        for length in range(1, 8):
            assert np.array_equal(_words(sft_w._edges, length),
                                  ref.words(sft_w._edges, length))
        phi = CylinderPotential(w, {
            word: float(rng.normal(0, 0.3))
            for word in block_recode(system.sft, system.roof, w)[2]})
        for base in (equilibrium_state(system, phi).base,
                     random_markov_measure(sft_w, rng)):
            for length in range(1, 8):
                paths, nu = _state_paths(base, length)
                want_paths, want_nu = ref.state_paths(base, length)
                assert np.array_equal(paths, want_paths)
                assert nu.tobytes() == want_nu.tobytes(), (w, length)


def test_weak_star_keys_fit_int64():
    """One key per row holds the member id and the depth-6 word in base
    B = largest symbol + 1, so K B^6 must stay below 2^63: a one-row table
    of symbol 1447 (1448^6 < 2^63) gives the lexsort oracle's distance,
    and symbol 1448 (1449^6 > 2^63) raises instead of wrapping round."""
    import weakstar_reference as ref
    hist = np.full(CFG.height_bins, 1.0 / CFG.height_bins)
    for top in (1447, 1448):
        a = ldp.EmpiricalMeasure([[top] * 6], [1.0], hist)
        b = ldp.EmpiricalMeasure([[top] * 5 + [0]], [1.0], hist)
        args = (a.words[None], a.weights[None], a.heights[None], b, CFG)
        if top == 1447:
            assert _distances(*args).tobytes() \
                == ref.distances(*args).tobytes()
            assert weak_star_distance(a, b) == 2 * 2.0 ** -6
        else:
            with pytest.raises(ValueError, match=r"K = 1 .* B = 1449 at "
                               r"depth D = 6"):
                _distances(*args)


# --- Monte Carlo deviations -----------------------------------------------------

def test_deviation_frequency_reads_state_words(full2_unit):
    """psi is read on the symbol a state shows, not on its index: a chain
    whose state 0 shows symbol 1 deviates under the indicator of 1 exactly
    as the same chain with plain names does under the indicator of 0."""
    P = [[0.8, 0.2], [0.5, 0.5]]
    named = SuspendedMeasure(MarkovMeasure(P, words=((1,), (0,))),
                             full2_unit.roof)
    plain = SuspendedMeasure(MarkovMeasure(P), full2_unit.roof)
    ind0 = CylinderPotential(1, {(0,): 1.0, (1,): 0.0})
    a = deviation_frequency(full2_unit, named, ind1(), 0.1, 30.0, 2000, 1)
    b = deviation_frequency(full2_unit, plain, ind0, 0.1, 30.0, 2000, 1)
    assert a == b and a.hits > 0


@pytest.mark.parametrize("eps, t", [(0.1, 0.0), (0.1, -5.0),
                                    (0.1, math.inf), (-0.1, 20.0),
                                    (math.nan, 20.0), (math.inf, 20.0)])
def test_deviation_frequency_rejects_bad_eps_and_t(full2_unit, eps, t):
    """t must be finite and positive, eps finite and >= 0: a negative eps
    counted every sample, a NaN none, and t = 0 divided by zero."""
    mu = equilibrium_state(full2_unit, zero_potential())
    with pytest.raises(ValueError, match="must be"):
        deviation_frequency(full2_unit, mu, ind1(), eps, t, 100, 7)


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


def test_deviation_rejects_samples_below_one(full2_unit):
    mu = equilibrium_state(full2_unit, zero_potential())
    for n in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            deviation_frequency(full2_unit, mu, ind1(), 0.1, 30.0, n, 1)


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


@pytest.mark.parametrize("k", [2, 3])
def test_sampler_matches_reference(k):
    """The step-major sampler draws the same words as the sample-major
    reference loop, with and without start weights, on full and sparse
    kernels."""
    from sampler_reference import sample_words
    for seed in range(4):
        rng = np.random.default_rng(seed)
        P = rng.random((k, k)) + 0.05
        if seed % 2:
            P[k - 1, k - 1] = 0.0  # golden-mean shape when k = 2
        mu = MarkovMeasure(P / P.sum(axis=1, keepdims=True))
        for start in (None, rng.random(k) + 0.1):
            got = mu.sample_words(300, 25, np.random.default_rng(seed),
                                  start_weights=start)
            want = sample_words(mu.transition, mu.stationary, 300, 25,
                                np.random.default_rng(seed), start)
            assert np.array_equal(got, want), (seed, start)


def test_deviation_hits_pinned(full2_unit):
    """Criterion 9's Monte Carlo run counts the hits of the reference row
    walk over the same draws: the normalized heights first, then the
    whole path array from the same generator."""
    mu = equilibrium_state(full2_unit, zero_potential())
    n, t, eps = 100_000, 50.0, 0.1
    dev = deviation_frequency(full2_unit, mu, ind1(), eps, t, n, 42)
    rng = np.random.default_rng(42)
    roofs = mu.roof.array
    u = rng.random(n)
    paths = mu.base.sample_words(n, math.ceil(t / mu.roof.min) + 2, rng,
                                 mu.base.stationary * roofs)
    psi_v = np.array([ind1().value(w) for w in mu.base.words])
    integral, _ = row_integrals(paths, psi_v, mu.roof,
                                u * roofs[paths[:, 0]], t)
    mean = entropy_and_mean(mu, ind1())[1]
    tol = 1e-9 * t * max(1.0, float(np.max(np.abs(psi_v))))
    assert dev.hits == np.sum(np.abs(integral - t * mean) >= t * eps - tol)


def test_deviation_memory_does_not_grow_with_t(full2_unit):
    """The paths stream through the walk: no array has a t-sized axis, so
    the traced peak at n = 10^5, t = 50 stays under 25 MB (a whole path
    array alone is 42 MB) and barely moves from t = 50 to t = 400."""
    mu = equilibrium_state(full2_unit, zero_potential())

    def peak(n, t):
        tracemalloc.start()
        try:
            deviation_frequency(full2_unit, mu, ind1(), 0.1, t, n, 42)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(100_000, 50.0) < 25e6
    assert peak(20_000, 400.0) <= 1.5 * peak(20_000, 50.0)


def test_deviation_reports_the_walk(golden12):
    """The diagnostics name the path columns walked, ceil(t / r_min) + 2;
    they do not enter comparisons."""
    mu = equilibrium_state(golden12, zero_potential())
    dev = deviation_frequency(golden12, mu, ind1(), 0.1, 20.0, 500, 3)
    assert dev.diagnostics == {"columns": 22}
    assert dataclasses.replace(dev, diagnostics={}) == dev


def test_beta_quantile_matches_scipy():
    """The Clopper-Pearson quantiles of `deviation_frequency` equal
    scipy.special.betaincinv within 1e-9 in log, on 287 (hits, n) pairs
    with n from 10 to 10^6 (40 log-spaced n; hits = 1, 2, 3, n/100, n/10,
    n/3, n/2, n - 2, n - 1 and n), both ends of each interval."""
    from scipy.special import betaincinv
    pairs = {(h, int(n)) for n in np.round(np.logspace(1, 6, 40))
             for h in (1, 2, 3, n // 100, n // 10, n // 3, n // 2, n - 2,
                       n - 1, n) if 1 <= h <= n}
    assert len(pairs) >= 283
    for hits, n in pairs:
        ends = [(hits, n - hits + 1, 0.025)]
        if hits < n:
            ends.append((hits + 1, n - hits, 0.975))
        for a, b, p in ends:
            got, want = _beta_quantile(a, b, p), betaincinv(a, b, p)
            assert abs(math.log(got) - math.log(want)) < 1e-9, (a, b, p)
