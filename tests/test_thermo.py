"""Thermodynamic formalism: Birkhoff integrals, pressure by three methods,
equilibrium states, variational principle, Gibbs bands, Bowen constants."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from thermoflow import (
    BiWord,
    CylinderPotential,
    MarkovMeasure,
    MetricGraph,
    NonConvergenceError,
    OrbitSegment,
    Roof,
    Sft,
    SuspPoint,
    Suspension,
    SuspendedMeasure,
    birkhoff,
    entropy_and_mean,
    equilibrium_state,
    gibbs_ratio_stats,
    graph_suspension,
    pressure,
    random_markov_measure,
    rate_function,
    zero_potential,
)
from thermoflow import io as tfio
from thermoflow.sft import _close_word, _words
from thermoflow.thermo import (_EIG_MAX_N, _gibbs_data, _perron, _prepare,
                                _stationary_vector)

import birkhoff_reference
import perron_reference
import stats_reference
from conftest import data_path
from cycle_reference import primitive_orbits

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


def phi1(sft, values):
    return CylinderPotential(1, {(i,): v for i, v in enumerate(values)})


# --- birkhoff ---------------------------------------------------------------

def test_birkhoff_constant(full2_unit):
    phi = phi1(full2_unit.sft, [0.7, 0.7])
    p = full2_unit.point(BiWord.periodic((0, 1)), 0.25)
    assert abs(birkhoff(full2_unit, phi, OrbitSegment(p, 5.0))
               - 0.7 * 5.0) < 1e-12


def test_birkhoff_residence_sum(rose2):
    system = graph_suspension(rose2)
    phi = phi1(system.sft, [1.0, 0.0, 2.0, 0.0])  # edges a=0, b=2
    p = system.point(BiWord.periodic((0, 2)), 0.0)
    assert abs(birkhoff(system, phi, OrbitSegment(p, 2.0)) - 3.0) < 1e-12


def test_birkhoff_cocycle(golden12):
    rng = np.random.default_rng(3)
    phi = phi1(golden12.sft, [0.3, -1.1])
    for _ in range(20):
        p = golden12.point(BiWord.periodic((0, 0, 1)),
                           float(rng.random()))
        t = float(rng.uniform(0, 8))
        s = float(rng.uniform(0, 8))
        lhs = birkhoff(golden12, phi, OrbitSegment(p, t + s))
        rhs = birkhoff(golden12, phi, OrbitSegment(p, t)) + \
            birkhoff(golden12, phi, OrbitSegment(golden12.flow(p, t), s))
        assert abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize("model", ["full2_unit", "golden12", "rose2",
                                   "theta"])
def test_birkhoff_matches_reference(model, request):
    """The array walk agrees with the scalar residence loop on random
    periodic points for widths 1-3; on theta also from exact Fraction
    heights over Fraction durations."""
    system = request.getfixturevalue(model)
    if not isinstance(system, Suspension):
        system = graph_suspension(system)
    sft = system.sft
    rng = np.random.default_rng(11)
    for width in (1, 2, 3):
        phi = CylinderPotential(width, {
            tuple(w): float(rng.normal())
            for w in _words(sft._edges, width).tolist()})
        for i in range(20):
            word, n = [int(rng.integers(sft.n_symbols))], rng.integers(1, 9)
            while len(word) < n:
                word.append(int(rng.choice(sft.successors(word[-1]))))
            x = BiWord.periodic(_close_word(sft, word),
                                phase=int(rng.integers(3)))
            r0 = system.roof[x.symbol_at(0)]
            if model == "theta" and i % 2:
                h = Fraction(int(rng.integers(100)), 100) * r0
                t = Fraction(int(rng.integers(2000)), 100)
            else:
                h = float(rng.random()) * float(r0)
                t = float(rng.uniform(0, 20))
            seg = OrbitSegment(SuspPoint(x, h), t)
            want = birkhoff_reference.birkhoff(system, phi, seg)
            got = birkhoff(system, phi, seg)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), \
                (width, i, got, want)


# --- pressure: golden values vs independent oracles --------------------------

def _spectral_oracle_golden12():
    # root of 1 = e^{-s} + e^{-3s}: characteristic equation of the golden
    # mean with roofs (1, 2): loops "0" (time 1) and "01" (time 3)
    return brentq(lambda s: math.exp(-s) + math.exp(-3 * s) - 1.0,
                  0.01, 2.0, xtol=1e-14)


def test_pressure_spectral_goldens(full2_unit, golden12, rose2):
    v, err = pressure(full2_unit, zero_potential(), "spectral")
    assert abs(v - math.log(2)) <= 1e-8

    rose_sys = graph_suspension(rose2)
    v, err = pressure(rose_sys, zero_potential(), "spectral")
    assert abs(v - math.log(3)) <= 1e-8

    golden1 = Suspension(Sft([[1, 1], [1, 0]]), Roof([1.0, 1.0]))
    v, err = pressure(golden1, zero_potential(), "spectral")
    assert abs(v - math.log(GOLDEN_RATIO)) <= 1e-8

    v, err = pressure(golden12, zero_potential(), "spectral")
    assert abs(v - _spectral_oracle_golden12()) <= 1e-8
    assert err <= 1e-8


def test_pressure_methods_agree(full2_unit, golden12, rose2):
    systems = [
        (full2_unit, math.log(2)),
        (golden12, _spectral_oracle_golden12()),
        (graph_suspension(rose2), math.log(3)),
    ]
    for system, truth in systems:
        phi = zero_potential()
        for method in ("separated", "gurevic"):
            v, err = pressure(system, phi, method, max_period=12.0)
            assert abs(v - truth) <= 0.05, (method, v, truth)
            assert abs(v - truth) <= err + 1e-12, \
                f"{method} error bound {err} does not cover |{v} - {truth}|"


def test_pressure_nonzero_potential_consistency(full2_unit):
    phi = phi1(full2_unit.sft, [0.2, -0.3])
    ps, _ = pressure(full2_unit, phi, "spectral")
    # oracle: P = log(e^{0.2} + e^{-0.3}) for r == 1 Bernoulli
    assert abs(ps - math.log(math.exp(0.2) + math.exp(-0.3))) < 1e-8
    for method in ("separated", "gurevic"):
        v, err = pressure(full2_unit, phi, method, max_period=12.0)
        assert abs(v - ps) <= max(err, 0.05)


def test_pressure_rejects_reducible():
    bad = Suspension(Sft([[1, 1], [0, 1]]), Roof([1.0, 1.0]))
    with pytest.raises(Exception):
        pressure(bad, zero_potential(), "spectral")


def test_gurevic_error_covers_spectral(rose2, theta, golden12, full2_unit):
    """The gurevic error bar covers the spectral pressure and stays below
    0.1, for phi = 0 and a seeded phi, on the benchmark models at their
    max_period (the bipartite theta oscillates the most), and on the
    periodic 2-cycle, whose closed orbits have even lattice periods only."""
    rng = np.random.default_rng(17)
    cycle2 = Suspension(Sft([[0, 1], [1, 0]]), Roof([1.0, 1.0]))
    for system, max_period in ((graph_suspension(rose2), 9.0),
                               (graph_suspension(theta), 12.0),
                               (golden12, 12.0), (full2_unit, 12.0),
                               (cycle2, 12.0)):
        n = system.sft.n_symbols
        for phi in (zero_potential(),
                    phi1(system.sft, rng.uniform(-0.2, 0.2, n).tolist())):
            truth = pressure(system, phi, "spectral").value
            v, err = pressure(system, phi, "gurevic", max_period=max_period)
            assert abs(v - truth) <= err + 1e-9, (system, v, err, truth)
            assert err <= 0.1


def test_closed_orbit_diagnostics(theta):
    """gurevic and separated report the roof lattice 1/L and the ticks
    they ran on; gurevic also reports the primitive orbits it summed."""
    system = graph_suspension(theta)  # roofs 1, 3/2, 2: L = 2
    g = pressure(system, zero_potential(), "gurevic", max_period=12.0)
    assert (g.diagnostics["lattice"], g.diagnostics["ticks"]) == (2, 24)
    assert g.diagnostics["n_orbits"] == len(primitive_orbits(system, 12.0))
    s = pressure(system, zero_potential(), "separated", max_period=12.0)
    assert (s.diagnostics["lattice"], s.diagnostics["ticks"]) == (2, 25)


# --- Perron solver on periodic and stiff matrices ----------------------------

def test_pressure_two_cycle():
    # Sft([[0,1],[1,0]]) is periodic; its one closed orbit has period 2 and
    # integral 0.3, so P = 0.3 / 2
    system = Suspension(Sft([[0, 1], [1, 0]]), Roof([1.0, 1.0]))
    res = pressure(system, phi1(system.sft, [0.3, 0.0]), "spectral")
    assert abs(res.value - 0.15) <= 1e-9
    assert 0 < res.diagnostics["perron_solves"] <= 10


def _dense_pressure(system, phi):
    """Root of s -> log spectral radius of M(s), by dense eigenvalues."""
    A = np.array(system.sft.transitions, dtype=float)
    r = np.array(system.roof.values, dtype=float)
    phihat = np.array([phi.value((e,)) for e in range(len(r))]) * r

    def f(s):
        M = A * np.exp(phihat - s * r)[None, :]
        return math.log(max(abs(np.linalg.eigvals(M))))

    return brentq(f, -10.0, 10.0, xtol=1e-14)


def test_theta_nonconstant_potential():
    # the theta graph codes as a period-2 (bipartite) edge shift
    g = tfio.load_graph(tfio.read_json(data_path("theta.json")))
    system = graph_suspension(g)
    rng = np.random.default_rng(2024)
    phi = phi1(system.sft, rng.uniform(-1.0, 1.0, system.sft.n_symbols))
    P, _ = pressure(system, phi, "spectral")
    assert abs(P - _dense_pressure(system, phi)) <= 1e-9
    h, m = entropy_and_mean(equilibrium_state(system, phi), phi)
    assert abs(h + m - P) <= 1e-9


def _edges(M):
    """(n, src, dst, weight): the nonzero entries of a dense matrix in
    row-major order, the input of `_perron`."""
    src, dst = np.nonzero(M)
    return len(M), src, dst, M[src, dst]


def test_perron_stiff_two_by_two():
    # golden (1,2) far out on the pressure curve: |lambda_2| / rho ~ 0.99997
    lam, v, _ = _perron(*_edges(np.array([[1.0, 1.48e9], [1.0, 0.0]])))
    rho = (1 + math.sqrt(1 + 4 * 1.48e9)) / 2
    assert abs(lam - rho) <= 1e-12 * rho
    assert abs(v.sum() - 1.0) <= 1e-12


def test_perron_failure_names_size_iterations_residual():
    M = np.array([[np.nan, 1.0], [1.0, 0.0]])
    with pytest.raises(NonConvergenceError,
                       match=r"2x2 matrix .* 1 iterations .* residual nan"):
        _perron(*_edges(M))


def test_perron_seed_with_a_zero_entry_falls_back():
    """Two nearly decoupled states: eig gives (1, 0) for the Perron root
    1, where the certificate divides by zero, so the solve starts
    uniform, which is exact."""
    lam, v, _ = _perron(*_edges(np.array([[1.0, 1e-200], [1e-200, 1.0]])))
    assert lam == 1.0
    assert np.array_equal(v, [0.5, 0.5])


def _assert_matches_reference(M, lam, v, u):
    """lam and the right and left Perron vectors v, u of the dense M match
    the dense power iteration of `perron_reference` within 1e-12
    relative, entry by entry."""
    lam_ref, v_ref = perron_reference.perron(M)
    _, u_ref = perron_reference.perron(M.T)
    assert abs(lam - lam_ref) <= 1e-12 * lam_ref
    for vec, ref in ((v, v_ref), (u / u.sum(), u_ref)):
        assert np.all(np.abs(vec - ref) <= 1e-12 * ref)


def _kernel_data(M):
    """(lam, v, u) of the dense M from cold `_perron` calls on its
    nonzero entries, the left vector as the right one of M^T."""
    lam, v, _ = _perron(*_edges(M))
    _, u, _ = _perron(*_edges(M.T))
    return lam, v, u


def _perron_corpus(request, cases):
    """(M = A diag(x) dense, lam, v, u), x the weights at the pressure
    and the rest from `_gibbs_data`, for a seeded potential of each
    (model fixture, width)."""
    rng = np.random.default_rng(18)
    for model, width in cases:
        system = request.getfixturevalue(model)
        if isinstance(system, MetricGraph):
            system = graph_suspension(system)
        words = _words(system.sft._edges, width)
        phi = CylinderPotential(width, dict(zip(
            map(tuple, words.tolist()), rng.uniform(-1.0, 1.0, len(words)))))
        sft_w, roof_w, _, phihat = _prepare(system, phi)
        _, x, lam, v, u = _gibbs_data(sft_w.n_symbols, *sft_w._edges, phihat,
                                      roof_w.array)
        yield sft_w.transitions * x[None, :], lam, v, u


@pytest.fixture(scope="session")
def cycle2():
    return Suspension(Sft([[0, 1], [1, 0]]), Roof([1.0, 1.0]))


def test_perron_eig_regime_matches_dense_reference(request):
    """Up to _EIG_MAX_N states (eig seed), in `_gibbs_data` and cold:
    full2, golden (1, 2), theta and the periodic two-cycle with seeded
    potentials of widths 1 and 2, rose2 recoded to widths 2 and 3 (12 and
    36 states), and the stiff 2 x 2 of `test_perron_stiff_two_by_two`."""
    cases = [(m, w) for m in ("full2_unit", "golden12", "theta", "cycle2")
             for w in (1, 2)] + [("rose2", 2), ("rose2", 3)]
    for M, lam, v, u in _perron_corpus(request, cases):
        assert len(M) <= _EIG_MAX_N
        _assert_matches_reference(M, lam, v, u)
        _assert_matches_reference(M, *_kernel_data(M))
    stiff = np.array([[1.0, 1.48e9], [1.0, 0.0]])
    _assert_matches_reference(stiff, *_kernel_data(stiff))


def test_perron_edge_regime_matches_dense_reference(request):
    """Above _EIG_MAX_N states (power steps over the edge list), in
    `_gibbs_data` (right solve warm-started) and cold: rose2 recoded to
    widths 4 and 5 (108 and 324 states) and the periodic theta recoded
    to width 5 (96 states), with seeded potentials."""
    cases = [("rose2", 4), ("rose2", 5), ("theta", 5)]
    for M, lam, v, u in _perron_corpus(request, cases):
        assert len(M) > _EIG_MAX_N
        _assert_matches_reference(M, lam, v, u)
        _assert_matches_reference(M, *_kernel_data(M))


def test_pressure_counts_perron_products(full2_unit, rose2):
    """`perron_iterations` counts the products M v of all the solves: one
    each where the eig seed passes the certificate at once, more on a
    block recode above _EIG_MAX_N states."""
    d = pressure(full2_unit, phi1(full2_unit.sft, [0.3, -0.1])).diagnostics
    assert d["perron_iterations"] == d["perron_solves"] > 0
    system = graph_suspension(rose2)
    words = _words(system.sft._edges, 4)
    phi = CylinderPotential(4, {tuple(w): 0.1 * w[0] for w in words.tolist()})
    d = pressure(system, phi).diagnostics
    assert d["perron_iterations"] > 2 * d["perron_solves"] > 0


# --- spectral root: slope brackets ------------------------------------------

# full2, golden (1, 1) and (1, 2), rose2, theta, and full2 under the roofs
# (1, 1/3), (0.01, 0.02) and the constant 0.01
BRACKET_MODELS = {
    "full2": (Sft([[1, 1], [1, 1]]), [1.0, 1.0]),
    "golden11": (Sft([[1, 1], [1, 0]]), [1.0, 1.0]),
    "golden12": (Sft([[1, 1], [1, 0]]), [1.0, 2.0]),
    "third": (Sft([[1, 1], [1, 1]]), [1.0, 1 / 3]),
    "stiff": (Sft([[1, 1], [1, 1]]), [0.01, 0.02]),
    "tiny": (Sft([[1, 1], [1, 1]]), [0.01, 0.01]),
}


def _bracket_model(name, rose2, theta):
    if name in BRACKET_MODELS:
        sft, roof = BRACKET_MODELS[name]
        return Suspension(sft, Roof(roof))
    return graph_suspension({"rose2": rose2, "theta": theta}[name])


def _seeded_potential(system, width, scale, seed):
    words = _words(system.sft._edges, width).tolist()
    rng = np.random.default_rng(seed)
    return CylinderPotential(width, {tuple(w): scale * rng.standard_normal()
                                     for w in words})


def _bisection_pressure(system, phi, guess):
    """[a, b]: the last bracket of a bisection on the sign of s -> log of
    the largest |eigenvalue| (`np.linalg.eigvals`) of the dense M(s) =
    A diag(e^{phihat - s r}) of the recoding, started 1e-6 around guess,
    where the sign is checked to change."""
    sft_w, roof_w, _, phihat = _prepare(system, phi)
    A, r = sft_w.transitions.astype(float), roof_w.array

    def f(s):
        M = A * np.exp(phihat - s * r)[None, :]
        return math.log(np.abs(np.linalg.eigvals(M)).max())

    a, b = guess - 1e-6, guess + 1e-6
    assert f(a) > 0 > f(b)
    while a < 0.5 * (a + b) < b:
        m = 0.5 * (a + b)
        a, b = (m, b) if f(m) > 0 else (a, m)
    return a, b


@pytest.mark.parametrize("model", ["full2", "golden11", "golden12", "rose2",
                                   "theta", "third", "stiff", "tiny"])
def test_spectral_error_bar_covers_bisection_reference(model, rose2, theta):
    """Widths 1-3, seeded potentials at scales 0, 0.5 and 3, at the default
    tol and at `_gibbs_data`'s 1e-12: [value - error, value + error] meets
    the bisection bracket, widened by 1e-14 / min r for the log error of
    the dense eigenvalues (at most about 4e-15 on such matrices against an
    extended-precision power iteration)."""
    system = _bracket_model(model, rose2, theta)
    slack = 1e-14 / system.roof.min
    for width in (1, 2, 3):
        for k, scale in enumerate((0.0, 0.5, 3.0)):
            phi = _seeded_potential(system, width, scale, [width, k])
            guess = pressure(system, phi).value
            a, b = _bisection_pressure(system, phi, guess)
            for tol in (1e-10, 1e-12):
                val, err = pressure(system, phi, tol=tol)
                assert a - slack <= val + err and val - err <= b + slack, \
                    (width, scale, tol, val, err, a, b)


def _coboundary(system, width, c, seed):
    """phi with phi r = c r + g(x_1) - g(x_0) for a seeded g on symbols,
    as a width-`width` table: cohomologous to the constant c, so its
    pressure is P(0) + c.  Its Perron vector is not uniform."""
    g = np.random.default_rng(seed).standard_normal(system.sft.n_symbols)
    r = system.roof.array
    words = _words(system.sft._edges, width).tolist()
    return CylinderPotential(width, {
        tuple(w): (c * r[w[0]] + g[w[1]] - g[w[0]]) / r[w[0]]
        for w in words})


def test_spectral_error_bar_covers_closed_form(rose2, golden12):
    """Coboundary potentials with exact pressures log 3 + c on rose2 (108
    and 324 block states, power steps over the edges), -log x + c on
    golden (1, 2) (x^3 + x = 1) and log 2 / 0.01 + c under the constant
    roof 0.01: each error bar covers the exact value, up to 4 ulp of the
    value's rounding."""
    x = 0.6823278038280193
    for _ in range(3):
        x -= (x ** 3 + x - 1) / (3 * x * x + 1)
    tiny = Suspension(Sft([[1, 1], [1, 1]]), Roof([0.01, 0.01]))
    cases = [(graph_suspension(rose2), math.log(3), (4, 5)),
             (golden12, -math.log(x), (2, 3)),
             (tiny, math.log(2) / 0.01, (2, 6))]
    eps = np.finfo(float).eps
    for system, p0, widths in cases:
        for width in widths:
            for c, seed in ((0.3, 1), (-0.7, 2), (0.0, 3)):
                phi = _coboundary(system, width, c, seed)
                for tol in (1e-10, 1e-12):
                    val, err = pressure(system, phi, tol=tol)
                    exact = p0 + c
                    assert abs(val - exact) <= err + 4 * eps * abs(exact), \
                        (width, c, tol, val, err, exact)


def test_spectral_root_solves_once_on_constant_roofs(rose2, cycle2):
    """A constant roof makes f(s) = log Perron root linear in s, so one
    solve pins the root: full2, golden, rose2 and the periodic two-cycle
    with seeded width-1 and width-2 potentials, and rose2 recoded to
    widths 5 and 6 (324 and 972 states), at tol 1e-10 and 1e-12."""
    systems = [Suspension(Sft([[1, 1], [1, 1]]), Roof([1.0, 1.0])),
               Suspension(Sft([[1, 1], [1, 0]]), Roof([1.0, 1.0])),
               graph_suspension(rose2), cycle2]
    cases = [(s, w) for s in systems for w in (1, 2)]
    cases += [(graph_suspension(rose2), 5), (graph_suspension(rose2), 6)]
    for system, width in cases:
        phi = _seeded_potential(system, width, 0.5, width)
        for tol in (1e-10, 1e-12):
            d = pressure(system, phi, tol=tol).diagnostics
            assert d["perron_solves"] == 1, (system.sft.n_symbols, width)


def test_spectral_root_solves_with_unequal_roofs(golden12, theta):
    """Golden (1, 2) and theta need fewer than the 8 solves an Illinois
    loop on the sign of f takes, and the roof (0.01, 0.02) at 1e-12 stops
    at the floor 2 delta / min r within 10 solves."""
    for system in (golden12, graph_suspension(theta)):
        for width in (1, 2):
            phi = _seeded_potential(system, width, 0.5, width)
            for tol in (1e-10, 1e-12):
                d = pressure(system, phi, tol=tol).diagnostics
                assert d["perron_solves"] < 8
    stiff = Suspension(Sft([[1, 1], [1, 1]]), Roof([0.01, 0.02]))
    for phi in (zero_potential(), _seeded_potential(stiff, 2, 3.0, 0)):
        d = pressure(stiff, phi, tol=1e-12).diagnostics
        assert d["perron_solves"] <= 10


def test_rate_legendre_golden12_matches_direct(golden12):
    psi = phi1(golden12.sft, [0.0, 1.0])
    leg = rate_function(golden12, None, psi, [0.1], "legendre")[0.1]
    direct = rate_function(golden12, None, psi, [0.1], "direct")[0.1]
    assert math.isfinite(leg)
    assert abs(leg - direct) <= 1e-9


# --- equilibrium states ------------------------------------------------------

def test_equilibrium_full_shift_mme(full2_unit):
    mu = equilibrium_state(full2_unit, zero_potential())
    assert np.allclose(mu.base.transition, 0.5, atol=1e-10)
    assert np.allclose(mu.base.stationary, 0.5, atol=1e-10)


def test_equilibrium_golden_parry():
    system = Suspension(Sft([[1, 1], [1, 0]]), Roof([1.0, 1.0]))
    mu = equilibrium_state(system, zero_potential())
    g = GOLDEN_RATIO
    assert abs(mu.base.transition[0, 0] - 1 / g) < 1e-9
    assert abs(mu.base.transition[0, 1] - 1 / g ** 2) < 1e-9
    assert abs(mu.base.transition[1, 0] - 1.0) < 1e-9


def test_equilibrium_bernoulli_zero_pressure(full2_unit):
    p = 0.3
    phi = phi1(full2_unit.sft, [math.log(p), math.log(1 - p)])
    v, _ = pressure(full2_unit, phi, "spectral")
    assert abs(v) < 1e-9
    mu = equilibrium_state(full2_unit, phi)
    assert np.allclose(mu.base.transition[:, 0], p, atol=1e-9)
    assert np.allclose(mu.base.stationary, [p, 1 - p], atol=1e-9)


def test_entropy_and_mean_examples(full2_unit):
    mu = SuspendedMeasure(MarkovMeasure([[0.5, 0.5], [0.5, 0.5]]),
                          Roof([1.0, 1.0]))
    h, m = entropy_and_mean(mu, zero_potential())
    assert abs(h - math.log(2)) < 1e-12 and m == 0.0

    g = GOLDEN_RATIO
    parry = MarkovMeasure([[1 / g, 1 / g ** 2], [1.0, 0.0]])
    mu = SuspendedMeasure(parry, Roof([1.0, 1.0]))
    h, _ = entropy_and_mean(mu, zero_potential())
    assert abs(h - math.log(g)) < 1e-9

    mu = SuspendedMeasure(MarkovMeasure([[0.5, 0.5], [0.5, 0.5]]),
                          Roof([1.0, 2.0]))
    h, _ = entropy_and_mean(mu, zero_potential())
    assert abs(h - math.log(2) / 1.5) < 1e-12


def test_mean_of_wider_potential_sums_over_continuations(golden12, rose2):
    """A width-3 psi under a width-1 Markov measure: int psi is the sum of
    nu(w) psi(w) r(w_0) over the admissible 3-words w, over the mean
    roof."""
    rng = np.random.default_rng(5)
    for system in (golden12, graph_suspension(rose2)):
        sft, r = system.sft, system.roof.array
        mu = SuspendedMeasure(random_markov_measure(sft, rng), system.roof)
        P, pi = mu.base.transition, mu.base.stationary
        words = [(a, b, c) for a in range(sft.n_symbols)
                 for b in range(sft.n_symbols)
                 for c in range(sft.n_symbols)
                 if sft.allowed(a, b) and sft.allowed(b, c)]
        psi = CylinderPotential(3, {w: float(rng.uniform(-1.0, 1.0))
                                    for w in words})
        want = sum(pi[a] * P[a, b] * P[b, c] * psi.table[(a, b, c)] * r[a]
                   for a, b, c in words) / mu.mean_roof
        assert abs(entropy_and_mean(mu, psi)[1] - want) <= 1e-12


@pytest.mark.parametrize("model", ["full2_unit", "golden12", "rose2",
                                   "theta"])
def test_path_table_matches_state_reference(model, request):
    """entropy_and_mean and MarkovMeasure.entropy, read off the one state
    path table, agree within 1e-14 with the per-state fiber integrals and
    the masked-log kernel entropy: widths 1-3 of psi under equilibrium
    states of widths 1-3 (block-recoded bases) and under random width-1
    measures, seeded."""
    system = request.getfixturevalue(model)
    if not isinstance(system, Suspension):
        system = graph_suspension(system)
    sft = system.sft
    rng = np.random.default_rng(17)

    def potential(width):
        return CylinderPotential(width, {
            tuple(w): float(rng.normal())
            for w in _words(sft._edges, width).tolist()})

    for width in (1, 2, 3):
        measures = [equilibrium_state(system, potential(width)),
                    SuspendedMeasure(random_markov_measure(sft, rng),
                                     system.roof)]
        for mu in measures:
            h = stats_reference.markov_entropy(mu.base) / mu.mean_roof
            assert abs(mu.base.entropy()
                       - stats_reference.markov_entropy(mu.base)) <= 1e-14
            for psi_width in (1, 2, 3):
                psi = potential(psi_width)
                got = entropy_and_mean(mu, psi)
                assert abs(got[0] - h) <= 1e-14
                assert abs(got[1] - stats_reference.flow_mean(mu, psi)) \
                    <= 1e-14, (width, psi_width)


def test_stationary_vector_on_reducible_kernels():
    """Two closed classes make the direct solve singular, and the lstsq
    fallback takes the least-norm stationary vector: (1/2, 1/2) for the
    identity, the lstsq solution of the same system for a 4-state kernel
    of two 2-state classes."""
    np.testing.assert_array_equal(
        _stationary_vector(2, [0, 1], [0, 1], [1.0, 1.0]), [0.5, 0.5])
    P = np.array([[0.5, 0.5, 0.0, 0.0], [0.25, 0.75, 0.0, 0.0],
                  [0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.75, 0.25]])
    A = P.T - np.eye(4)
    A[-1] = 1.0
    b = np.array([0.0, 0.0, 0.0, 1.0])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(A, b)
    want = np.linalg.lstsq(A, b, rcond=None)[0]
    src, dst = np.nonzero(P)
    pi = _stationary_vector(4, src, dst, P[src, dst])
    np.testing.assert_allclose(pi, want / want.sum(), rtol=0, atol=1e-15)
    np.testing.assert_allclose(pi @ P, pi, rtol=0, atol=1e-15)
    assert pi.min() > 0


def test_variational_principle(full2_unit, golden12):
    rng = np.random.default_rng(41)
    for system in (full2_unit, golden12):
        phi = phi1(system.sft, [0.1, -0.4])
        P, _ = pressure(system, phi, "spectral")
        mu_eq = equilibrium_state(system, phi)
        h, m = entropy_and_mean(mu_eq, phi)
        assert abs(h + m - P) < 1e-6
        for _ in range(200):
            nu = random_markov_measure(system.sft, rng)
            mu = SuspendedMeasure(nu, system.roof)
            h, m = entropy_and_mean(mu, phi)
            assert h + m <= P + 1e-6


def test_equilibrium_local_uniqueness(full2_unit):
    """Perturbing the equilibrium kernel strictly decreases h + int phi."""
    phi = phi1(full2_unit.sft, [0.1, -0.4])
    P, _ = pressure(full2_unit, phi, "spectral")
    mu_eq = equilibrium_state(full2_unit, phi)
    rng = np.random.default_rng(43)
    base = mu_eq.base.transition
    for _ in range(50):
        noise = rng.normal(scale=0.05, size=base.shape)
        Ppert = np.abs(base + noise) + 1e-6
        Ppert /= Ppert.sum(axis=1, keepdims=True)
        if np.max(np.abs(Ppert - base)) < 1e-4:
            continue
        mu = SuspendedMeasure(MarkovMeasure(Ppert), full2_unit.roof)
        h, m = entropy_and_mean(mu, phi)
        assert h + m < P - 1e-9


# --- Gibbs ------------------------------------------------------------------

def test_gibbs_band_bounded(full2_unit):
    phi = phi1(full2_unit.sft, [0.1, -0.2])
    mu = equilibrium_state(full2_unit, phi)
    stats = gibbs_ratio_stats(full2_unit, mu, phi, rho=0.05,
                              t_grid=[10.0, 30.0], samples=150, seed=5)
    lo10, hi10 = stats["per_t"][10.0]
    lo30, hi30 = stats["per_t"][30.0]
    assert (hi30 / lo30) <= 1.2 * (hi10 / lo10)


def test_gibbs_negative_control(full2_unit):
    """A non-equilibrium measure escapes the Gibbs band as t grows."""
    nu = MarkovMeasure([[0.9, 0.1], [0.9, 0.1]])
    mu = SuspendedMeasure(nu, full2_unit.roof)
    stats = gibbs_ratio_stats(full2_unit, mu, zero_potential(), rho=0.05,
                              t_grid=[10.0, 20.0], samples=150, seed=5)
    band10 = stats["per_t"][10.0][1] / stats["per_t"][10.0][0]
    band20 = stats["per_t"][20.0][1] / stats["per_t"][20.0][0]
    assert band20 > 1.2 * band10


@pytest.mark.parametrize("model", ["full2_unit", "golden12"])
@pytest.mark.parametrize("values", [(0.0, 0.0), (0.1, -0.2)])
def test_gibbs_ratio_stats_matches_reference(model, values, request):
    """The batched walk gives the per-sample loop's table from the same
    draws, up to summation order."""
    system = request.getfixturevalue(model)
    phi = phi1(system.sft, values)
    mu = equilibrium_state(system, phi)

    def flat(stats):
        return [stats["min_ratio"], stats["max_ratio"],
                *(x for t in (10.0, 30.0) for x in stats["per_t"][t])]

    for seed in (1, 2, 3):
        args = (system, mu, phi, 0.05, [10.0, 30.0], 200, seed)
        want = birkhoff_reference.gibbs_ratio_stats(*args)
        np.testing.assert_allclose(flat(gibbs_ratio_stats(*args)),
                                   flat(want), rtol=1e-12, atol=0)


def test_gibbs_rejects_wide_potential(golden12):
    phi = CylinderPotential(2, {(0, 0): 0.1, (0, 1): -0.2, (1, 0): 0.3})
    mu = equilibrium_state(golden12, zero_potential())
    with pytest.raises(ValueError, match="width-1 potential"):
        gibbs_ratio_stats(golden12, mu, phi, rho=0.05, t_grid=[5.0],
                          samples=10, seed=1)


def test_gibbs_rho_validation(full2_unit):
    mu = equilibrium_state(full2_unit, zero_potential())
    with pytest.raises(ValueError, match="above expansivity scale"):
        gibbs_ratio_stats(full2_unit, mu, zero_potential(), rho=0.5,
                          t_grid=[5.0], samples=10, seed=1)


@pytest.mark.parametrize("rho", [0.0, -0.1, math.nan])
def test_gibbs_rho_must_be_positive(full2_unit, rho):
    mu = equilibrium_state(full2_unit, zero_potential())
    with pytest.raises(ValueError, match="positive and finite"):
        gibbs_ratio_stats(full2_unit, mu, zero_potential(), rho=rho,
                          t_grid=[5.0], samples=10, seed=1)


def test_gibbs_rejects_samples_below_one(full2_unit):
    mu = equilibrium_state(full2_unit, zero_potential())
    for samples in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            gibbs_ratio_stats(full2_unit, mu, zero_potential(), rho=0.05,
                              t_grid=[5.0], samples=samples, seed=1)
