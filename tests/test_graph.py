"""Metric-graph geodesic flow: edge coding, systole, closed geodesics,
universal-cover lifts, the exponentially-weighted geodesic metric, and the
lifting/shadowing/time-change lemmas as executable checks."""

import math
from fractions import Fraction

import numpy as np
import pytest

from thermoflow import (
    BiWord,
    Geodesic,
    GraphModelError,
    MetricGraph,
    OrbitSegment,
    SuspPoint,
    build_edge_sft,
    d_GX,
    graph_suspension,
    lift_distance,
    zero_potential,
)
from thermoflow.graph import _hinge_integral
from thermoflow.thermo import _orbit_sums

import dgx_reference
import lift_reference
from cycle_reference import primitive_orbits


def random_geodesic(g, rng, word_len=8):
    """Geodesic carried by a random periodic non-backtracking edge word."""
    sft, roof = build_edge_sft(g)
    from thermoflow import glue_words
    word = [int(rng.integers(g.n_dir))]
    for _ in range(word_len - 1):
        succ = sft.successors(word[-1])
        word.append(int(succ[rng.integers(len(succ))]))
    gap = glue_words(sft, (word[-1],), (word[0],))
    cyc = tuple(word) + tuple(gap)
    base = BiWord.periodic(cyc, phase=int(rng.integers(len(cyc))))
    h = float(rng.random()) * roof[base.symbol_at(0)]
    susp = graph_suspension(g)
    return Geodesic(g, susp.point(base, h))


THIRDS = MetricGraph(2, [(0, 1, Fraction(1, 3)), (0, 1, 1), (0, 1, 2)])


def agreement_pair(g, rng, R=2):
    """Two geodesics whose edge words agree exactly on coordinates
    [-R, R) and continue with their own one-symbol tails outside."""
    sft, roof = build_edge_sft(g)
    word = [int(rng.integers(g.n_dir))]
    for _ in range(2 * R - 1):
        succ = sft.successors(word[-1])
        word.append(int(succ[rng.integers(len(succ))]))
    susp = graph_suspension(g)
    bases = [BiWord((int(rng.integers(g.n_dir)),), tuple(word),
                    (int(rng.integers(g.n_dir)),), -R) for _ in "ab"]
    h = float(rng.random()) * roof[bases[0].symbol_at(0)]
    return tuple(Geodesic(g, susp.point(base, h)) for base in bases)


def correlated_pair(g, rng, agree_len=24):
    """Two geodesics whose edge words agree on coordinates [0, agree_len)
    but are chosen independently outside, for shadowing hypotheses."""
    sft, roof = build_edge_sft(g)
    word = [int(rng.integers(g.n_dir))]
    for _ in range(agree_len - 1):
        succ = sft.successors(word[-1])
        word.append(int(succ[rng.integers(len(succ))]))

    def extend():
        left = [int(rng.integers(g.n_dir))]
        while not sft.allowed(left[0], word[0]):
            left = [int(rng.integers(g.n_dir))]
        succ = sft.successors(word[-1])
        right = [int(succ[rng.integers(len(succ))])]
        return BiWord((left[0],), tuple(word), (right[0],), 0)

    susp = graph_suspension(g)
    h = float(rng.random()) * roof[word[0]]
    return (Geodesic(g, susp.point(extend(), h)),
            Geodesic(g, susp.point(extend(), h)))


def dgx_corpus(g, seed, n_pairs):
    """Seeded d_GX inputs (g1, g2, tail_horizon) on g: random pairs moved
    by random shift_time offsets, and every fourth pair followed by an
    identical pair, a geodesic against itself shifted in time and an
    agreement-window pair; horizons alternate between 8 and 12."""
    rng = np.random.default_rng(seed)
    pairs = []
    for k in range(n_pairs):
        a, b = (random_geodesic(g, rng).shift_time(float(rng.uniform(-3, 3)))
                for _ in "ab")
        pairs.append((a, b))
        if k % 4 == 0:
            pairs += [(a, a), (b, b.shift_time(float(rng.uniform(-3, 3)))),
                      agreement_pair(g, rng, R=1 + k % 3)]
    return [(a, b, (8.0, 12.0)[k % 2]) for k, (a, b) in enumerate(pairs)]


# --- model construction -----------------------------------------------------

def test_edge_sft_rose2(rose2):
    sft, roof = build_edge_sft(rose2)
    assert sft.n_symbols == 4
    assert all(sum(row) == 3 for row in sft.transitions)
    assert list(roof) == [1.0] * 4


def test_edge_sft_theta(theta):
    sft, _ = build_edge_sft(theta)
    assert sft.n_symbols == 6
    assert all(sum(row) == 2 for row in sft.transitions)


def test_circle_rejected():
    with pytest.raises(GraphModelError,
                       match="fundamental group is Z: excluded case"):
        MetricGraph(2, [(0, 1, 1), (1, 0, 1)])


def test_degree_one_rejected():
    with pytest.raises(GraphModelError):
        MetricGraph(2, [(0, 0, 1), (0, 0, 1), (0, 1, 1)])


def test_disconnected_rejected():
    with pytest.raises(GraphModelError, match="connected"):
        MetricGraph(2, [(0, 0, 1), (0, 0, 1), (1, 1, 1), (1, 1, 1)])


# --- systole / scales -------------------------------------------------------

def test_systole_and_scales(rose2, theta):
    assert rose2.systole() == 1
    assert rose2.eps0 == Fraction(1, 2)
    assert rose2.delta0 == Fraction(1, 8)
    assert theta.systole() == Fraction(5, 2)  # edges 1 + 3/2
    assert theta.eps0 == Fraction(5, 4)


def _random_graphs(seed, count):
    """`count` seeded random MetricGraphs of 1-5 vertices and up to 9
    edges (loops and parallel edges included) with rational lengths; draws
    that MetricGraph rejects are skipped."""
    rng = np.random.default_rng(seed)
    graphs = []
    while len(graphs) < count:
        n = int(rng.integers(1, 6))
        edges = [(int(rng.integers(n)), int(rng.integers(n)),
                  Fraction(int(rng.integers(1, 13)), int(rng.integers(1, 5))))
                 for _ in range(int(rng.integers(2, 10)))]
        try:
            graphs.append(MetricGraph(n, edges))
        except GraphModelError:
            continue
    return graphs


def test_paths_match_dijkstra_reference(rose2, theta):
    """systole, eps0, delta0 and every vertex distance read the (min, +)
    table, and equal the Dijkstra searches of `tests/path_reference.py`
    exactly as Fractions, on rose2, theta, THIRDS and 60 random graphs."""
    import path_reference as ref
    for g in [rose2, theta, THIRDS] + _random_graphs(19, 60):
        systole = ref.systole(g)
        assert type(g.systole()) is Fraction
        assert g.systole() == systole
        assert g.eps0 == systole / 2
        assert g.delta0 == min(systole / 2, min(g.roof.values)) / 4
        vd = g.vertex_distances()
        assert vd.shape == (g.n_vertices, g.n_vertices)
        assert [list(row) for row in vd] == ref.vertex_distances(g)


def test_shortest_paths_match_scipy():
    """The (min, +) kernel on float weights matches scipy's shortest paths
    within 1e-12 on seeded random digraphs, unreachable pairs (inf)
    included."""
    from scipy.sparse.csgraph import shortest_path
    from thermoflow.sft import _shortest_paths
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 12))
        W = np.where(rng.random((n, n)) < rng.uniform(0.05, 0.6),
                     rng.uniform(0.01, 5.0, (n, n)), 0.0)
        src, dst = np.nonzero(W)
        D = _shortest_paths(n, src, dst, W[src, dst])
        expect = shortest_path(W, directed=True)
        assert np.array_equal(np.isinf(D), np.isinf(expect))
        finite = np.isfinite(expect)
        assert np.allclose(D[finite], expect[finite], rtol=0, atol=1e-12)


# --- closed geodesics -------------------------------------------------------

def test_closed_geodesic_counts(rose2, theta):
    """Primitive closed geodesics of length <= t = 1..4 (one per
    orientation), counted by the lattice engine and by the cycle oracle."""
    theta_unit = MetricGraph(2, [(0, 1, 1)] * 3)
    for g, counts in ((rose2, [4, 8, 16, 34]), (theta, [0, 0, 4, 6]),
                      (theta_unit, [0, 6, 6, 12])):
        system = graph_suspension(g)
        engine = [_orbit_sums(system, zero_potential(), t)[1].sum()
                  for t in (1, 2, 3, 4)]
        oracle = [len(primitive_orbits(system, t)) for t in (1, 2, 3, 4)]
        assert engine == oracle == counts


# --- lifts ------------------------------------------------------------------

def test_lift_distance_identity(rose2):
    rng = np.random.default_rng(2)
    g1 = random_geodesic(rose2, rng)
    for t in (-3.0, 0.0, 2.5):
        assert lift_distance(g1, g1, t) == 0


def test_lift_distance_single_edge_difference(rose2):
    susp = graph_suspension(rose2)
    a = BiWord.periodic((0,), phase=0)
    # agree on edges covering [0, 2) and (3, inf); edge 2 (petal b) on [2,3)
    b = BiWord((0,), (0, 0, 2), (0,), 0)
    g1 = Geodesic(rose2, susp.point(a, 0.0))
    g2 = Geodesic(rose2, susp.point(b, 0.0))
    assert lift_distance(g1, g2, 2.5) == 1
    assert lift_distance(g1, g2, 3.5) == 3
    assert lift_distance(g1, g2, 1.5) == 0


def test_lift_distance_divergence_speed_two(rose2):
    susp = graph_suspension(rose2)
    a = BiWord((0,), (), (0,), 0)
    b = BiWord((0,), (0, 0, 0), (2,), 0)  # diverges at coordinate 3
    g1 = Geodesic(rose2, susp.point(a, 0.0))
    g2 = Geodesic(rose2, susp.point(b, 0.0))
    for t, expect in ((2.0, 0), (3.0, 0), (4.0, 2), (5.5, 5)):
        assert lift_distance(g1, g2, t) == expect


def test_lift_distance_insufficient_unwinding(rose2):
    rng = np.random.default_rng(4)
    g1 = random_geodesic(rose2, rng)
    with pytest.raises(ValueError, match="insufficient unwinding"):
        lift_distance(g1, g1, 1000.0, window=8)


def test_lift_distance_matches_exact_run_sums(rose2, theta):
    """The run ends are float sums of the lengths; on binary-fraction
    lengths they equal the exact sums, so lift_distance is bit for bit the
    exact-sum reference."""
    for g in (rose2, theta):
        rng = np.random.default_rng(19)
        for k in range(80):
            if k % 2:
                g1, g2 = agreement_pair(g, rng, R=int(rng.integers(1, 12)))
            else:
                g1, g2 = random_geodesic(g, rng), random_geodesic(g, rng)
            for t in rng.uniform(-20.0, 20.0, 5):
                assert lift_distance(g1, g2, t) \
                    == dgx_reference.lift_distance(g1, g2, t)


@pytest.mark.parametrize("name", ["rose2", "theta", "thirds"])
def test_lift_distance_matches_agreement_run_reference(name, request):
    """lift_distance reads both windows once; it equals the reference that
    reads symbol_at per coordinate bit for bit, or raises where it raises,
    on independent, correlated (criterion 3) and identical pairs at windows
    8 to 200."""
    g = THIRDS if name == "thirds" else request.getfixturevalue(name)
    rng = np.random.default_rng(23)
    pairs = []
    for _ in range(6):
        a, b = random_geodesic(g, rng), random_geodesic(g, rng)
        pairs += [(a, b), correlated_pair(g, rng), (a, a),
                  correlated_pair(g, rng, agree_len=int(rng.integers(2, 9)))]
    for window in (8, 13, 64, 200):
        reach = window * g.roof.min
        for g1, g2 in pairs:
            for t in rng.uniform(-reach, reach, 3):
                try:
                    want = lift_reference.lift_distance(g1, g2, t, window)
                except ValueError as err:
                    with pytest.raises(ValueError, match=str(err)):
                        lift_distance(g1, g2, t, window)
                    continue
                assert lift_distance(g1, g2, t, window) == want


# --- d_GX -------------------------------------------------------------------

@pytest.mark.parametrize("name", ["rose2", "theta", "thirds"])
def test_dgx_matches_reference(name, rose2, theta):
    """The array kernel against the pairwise alignment loop of
    dgx_reference: value and error bound within 1e-12 (relative to
    max(1, |v|)); the summation order differs, so not bit for bit."""
    g = {"rose2": rose2, "theta": theta, "thirds": THIRDS}[name]
    for a, b, T in dgx_corpus(g, 41, 16):
        v, err = d_GX(a, b, tail_horizon=T)
        v_ref, err_ref = dgx_reference.d_GX(a, b, tail_horizon=T)
        assert abs(v - v_ref) <= 1e-12 * max(1.0, abs(v_ref))
        assert abs(err - err_ref) <= 1e-12 * max(1.0, abs(err_ref))


def test_dgx_identity_and_symmetry(rose2, theta):
    """d(a, a) == 0 and d(a, b) == d(b, a) exactly on the binary-fraction
    lengths of rose2 and theta, where every fiber time is exact; on the
    thirds graph the two orders sum different roundings of the lengths, so
    symmetry holds to 1e-14."""
    for g in (rose2, theta, THIRDS):
        for a, b, T in dgx_corpus(g, 43, 60):
            assert d_GX(a, a, tail_horizon=T)[0] == 0.0
            v_ab, _ = d_GX(a, b, tail_horizon=T)
            v_ba, _ = d_GX(b, a, tail_horizon=T)
            if g is THIRDS:
                assert abs(v_ab - v_ba) <= 1e-14 * max(1.0, abs(v_ab))
            else:
                assert v_ab == v_ba


def test_dgx_agreement_window_bound(rose2):
    # lifts agreeing on [-R, R], diverging at unit speed outside:
    # value <= int_{|t|>R} 2(|t|-R) e^{-2|t|} dt = e^{-2R}
    susp = graph_suspension(rose2)
    R = 2
    a = BiWord((0,), (), (0,), 0)
    core = (0,) * (2 * R)
    b = BiWord((2,), core, (2,), -R)
    g1 = Geodesic(rose2, susp.point(a, 0.0))
    g2 = Geodesic(rose2, susp.point(b, 0.0))
    v, err = d_GX(g1, g2)
    assert v <= math.exp(-2 * R) + err + 1e-12


def test_dgx_exact_divergence_value(rose2):
    # agreement exactly on [-2, 2] with unit-speed divergence outside:
    # the two integrals sum to e^{-4}
    susp = graph_suspension(rose2)
    a = BiWord((2,), (0, 0, 0, 0), (2,), -2)
    b = BiWord((3,), (0, 0, 0, 0), (3,), -2)
    g1 = Geodesic(rose2, susp.point(a, 0.0))
    g2 = Geodesic(rose2, susp.point(b, 0.0))
    v, err = d_GX(g1, g2, tail_horizon=12.0)
    assert abs(v - math.exp(-4)) <= err + 1e-9
    assert err < 1e-6


@pytest.mark.parametrize("T", [1.0, 8.0, 12.0])
def test_hinge_integral_matches_piecewise_reference(T):
    """G(c) = int_{-T}^{T} (t - c)_+ e^{-2|t|} dt against the segment-wise
    integral of dgx_reference, for c below, at and inside both ends of
    [-T, T], at 0 and past T; G is exactly 0.0 from c = T on, infinity
    included (a vertex absent from a window), with no float warning."""
    cs = [-2 * T, -T, -T / 3, 0.0, T / 3, T, 1.5 * T]
    with np.errstate(all="raise"):
        got = _hinge_integral(np.array(cs), T)
        past = _hinge_integral(np.array([T, 1.5 * T, 2 * T + 1, np.inf]), T)
    for c, G in zip(cs, got):
        want = dgx_reference._integrate_pwl(
            [c], lambda t, c=c: max(t - c, 0.0), T)
        assert abs(G - want) <= 1e-14 * max(1.0, abs(want))
    assert past.tolist() == [0.0] * 4


@pytest.mark.parametrize("T", [1.0, 8.0, 12.0])
def test_bridge_integral_is_even_and_grows_with_offset(T):
    """The premise of d_GX's per-vertex rule: F(a) = int |t + a| e^{-2|t|}
    dt over [-T, T], which is G(a) + G(-a) and so even, equals
    2 G(|a|) + |a| W0 (W0 = 1 - e^{-2T}) and is nondecreasing in |a|, so
    the least F over a vertex's fibers is at its fiber of least |a|."""
    a = np.linspace(0.0, 2 * T, 257)
    W0 = 1.0 - math.exp(-2 * T)
    F = _hinge_integral(a, T) + _hinge_integral(-a, T)
    assert np.allclose(F, 2 * _hinge_integral(a, T) + a * W0,
                       rtol=1e-14, atol=1e-14)
    assert (np.diff(F) > 0).all()
    for x in (-1.5 * T, -0.3, 0.0, 0.7, T):
        want = dgx_reference._integrate_pwl(
            [-x], lambda t, x=x: abs(t + x), T)
        assert abs(_hinge_integral(np.array([x, -x]), T).sum() - want) \
            <= 1e-14 * max(1.0, want)


@pytest.mark.parametrize("T", [1.0, 20.0])
def test_dgx_matches_reference_at_short_and_long_horizons(T, rose2, theta):
    """At T = 1 most kinks of the alignments fall outside [-T, T]; at
    T = 20 the windows reach far past them.  Value and error bound match
    dgx_reference within 1e-12, d(a, a) == 0.0, and d(a, b) == d(b, a)
    exactly on rose2 and theta (to 1e-14 on the thirds graph)."""
    for g in (rose2, theta, THIRDS):
        for a, b, _ in dgx_corpus(g, 47, 8):
            v, err = d_GX(a, b, tail_horizon=T)
            v_ref, err_ref = dgx_reference.d_GX(a, b, tail_horizon=T)
            assert abs(v - v_ref) <= 1e-12 * max(1.0, abs(v_ref))
            assert abs(err - err_ref) <= 1e-12 * max(1.0, abs(err_ref))
            assert d_GX(a, a, tail_horizon=T)[0] == 0.0
            v_ba, _ = d_GX(b, a, tail_horizon=T)
            if g is THIRDS:
                assert abs(v - v_ba) <= 1e-14 * max(1.0, abs(v))
            else:
                assert v == v_ba


def test_dgx_bridged_only():
    """Two loops joined by a bar of length 2: geodesics that wind around
    different loops share no edge, so the value is the bridge along the
    bar, and it matches dgx_reference with its error bound at every height
    and horizon, in both orders."""
    g = MetricGraph(2, [(0, 0, 1), (1, 1, Fraction(1, 2)), (0, 1, 2)])
    susp = graph_suspension(g)
    for h in (0.0, 0.25, 0.5, 0.75):
        for T in (1.0, 3.0, 8.0):
            a = Geodesic(g, susp.point(BiWord.periodic((0,)), h))
            b = Geodesic(g, susp.point(BiWord.periodic((2,)), h / 2))
            for x, y in ((a, b), (b, a)):
                v, err = d_GX(x, y, tail_horizon=T)
                v_ref, err_ref = dgx_reference.d_GX(x, y, tail_horizon=T)
                assert v > 2 * (1.0 - math.exp(-2 * T))
                assert abs(v - v_ref) <= 1e-12 * max(1.0, v_ref)
                assert abs(err - err_ref) <= 1e-12 * max(1.0, err_ref)


TIE_EPS = 2.0 ** -27


@pytest.mark.parametrize("T, s", [
    (1.0, 1.25), (1.0, 1.5), (2.0, 3.0),  # split before -T
    (1.0, 1.0 - TIE_EPS), (3.0, 3.0 - TIE_EPS),  # split just after -T
])
def test_dgx_geodesics_that_split_in_the_past(T, s):
    """Two geodesics on a theta graph with edges of length 10 share their
    whole past and split at vertex 0 at time -s.  The common run (L = 0,
    hinge -s) and the bridge at vertex 0 (L = 2s, hinges s and s) are the
    two best alignments, and they tie in floats: exactly when s >= T,
    where both are 2 s W0 on [-T, T], and to below one ulp when
    s = T - eps, where the common run is less by about e^{-2T} eps^2.
    The common run wins the tie, so the error bound is its tail
    e^{-2T} (1 + (T + s) + (s - T)_+), and the (-T - c)_+ term of a hinge
    below -T counts; the bridge's bound would be e^{-2T} (1 + 2T) at
    s = T - eps.  Value and bound match dgx_reference, in both orders."""
    g = MetricGraph(2, [(1, 0, 10), (0, 1, 10), (0, 1, 10)])
    susp = graph_suspension(g)
    # the past ... 2 0 2 0; then 2 0 2 ... on one, 4 3 4 ... on the other
    a = Geodesic(g, susp.point(BiWord((2, 0), (2,), (0, 2), 0), s))
    b = Geodesic(g, susp.point(BiWord((2, 0), (4,), (3, 4), 0), s))
    tail = math.exp(-2 * T) * (1.0 + (T + s) + max(s - T, 0.0))
    for x, y in ((a, b), (b, a)):
        v, err = d_GX(x, y, tail_horizon=T)
        v_ref, err_ref = dgx_reference.d_GX(x, y, tail_horizon=T)
        assert abs(v - v_ref) <= 1e-12 * max(1.0, v_ref)
        assert abs(err - err_ref) <= 1e-12 * max(1.0, err_ref)
        assert abs(err - tail) <= 1e-15
        if s >= T:
            assert v == 2 * (s * -math.expm1(-2 * T))


def _position_distance(g, geo1, geo2, t):
    e1, h1 = geo1.position(t)
    e2, h2 = geo2.position(t)
    return float(g.point_distance((e1, h1), (e2, h2)))


def test_shift_time_and_position_exact_on_fractions(theta):
    """shift_time and position read the same exact edge lengths, so with
    Fraction heights and times they agree with ==."""
    rng = np.random.default_rng(17)
    for _ in range(60):
        geo = random_geodesic(theta, rng)
        h = Fraction(int(rng.integers(4)), 4) * theta.roof[geo.edge_at(0)]
        geo = Geodesic(theta, SuspPoint(geo.susp.base, h))
        t = Fraction(int(rng.integers(-60, 60)), 3)
        assert geo.shift_time(t).position(0) == geo.position(t)
        s = Fraction(int(rng.integers(-60, 60)), 4)
        assert geo.shift_time(t).shift_time(s) == geo.shift_time(t + s)


def test_suspension_flow_matches_shift_time_on_thirds():
    """graph_suspension keeps the exact edge lengths, so its flow and
    Geodesic.shift_time put every time on the same edge at the same height,
    also next to an edge of length 1/3, which no float stores."""
    g = THIRDS
    system = graph_suspension(g)
    assert system.roof.values == (Fraction(1, 3),) * 2 + (1, 1, 2, 2)
    third = float(Fraction(1, 3))  # just below 1/3
    p = SuspPoint(BiWord.periodic((0, 3)), 0.0)
    assert system.flow(p, third) == Geodesic(g, p).shift_time(third).susp \
        == SuspPoint(p.base, third)
    rng = np.random.default_rng(29)
    for _ in range(60):
        geo = random_geodesic(g, rng)
        for t in (third, -third, Fraction(int(rng.integers(-60, 60)), 3),
                  float(rng.uniform(-20.0, 20.0))):
            assert system.flow(geo.susp, t) == geo.shift_time(t).susp


def test_tool2_bound_random_pairs(rose2, theta):
    """Comparison lemma with constant K = 1/2 in the proof-consistent
    direction d_GX >= (1/2) d_X, i.e. d_X(gamma1(s), gamma2(t)) <=
    2 (d_GX(g_s gamma1, g_t gamma2) + err), on random pairs per graph."""
    for g in (rose2, theta):
        rng = np.random.default_rng(13)
        for _ in range(60):
            g1 = random_geodesic(g, rng)
            g2 = random_geodesic(g, rng)
            s = float(rng.uniform(-2, 2))
            t = float(rng.uniform(-2, 2))
            g1s, g2t = g1.shift_time(s), g2.shift_time(t)
            dx = _position_distance(g, g1s, g2t, 0.0)
            v, err = d_GX(g1s, g2t)
            assert dx <= 2.0 * (v + err) + 1e-9


def test_shadow_lemma(rose2):
    """T(eps) = -log eps: lift_distance < eps/2 on [a - T, b + T] implies
    d_GX(g_t gamma1, g_t gamma2) < eps on [a, b]."""
    rng = np.random.default_rng(15)
    a, b = 0.0, 2.0
    for eps in (0.1, 0.3):
        T = -math.log(eps)
        violations = 0
        for _ in range(40):
            g1 = random_geodesic(rose2, rng)
            g2 = random_geodesic(rose2, rng)
            ts = np.linspace(a - T, b + T, 17)
            if any(lift_distance(g1, g2, float(t), window=64) >= eps / 2
                   for t in ts):
                continue
            for t in np.linspace(a, b, 9):
                v, err = d_GX(g1.shift_time(float(t)),
                              g2.shift_time(float(t)))
                if v - err >= eps:
                    violations += 1
        assert violations == 0


def test_time_change_prop(rose2):
    """Monotone time changes with d_X(gamma1(rho(t)), gamma2(t)) < eps imply
    un-time-changed distance < 3 eps and |t - rho(t)| < 2 eps."""
    rng = np.random.default_rng(21)
    T2 = 6.0
    for eps in (0.05, 0.1):
        for _ in range(60):
            g1 = random_geodesic(rose2, rng)
            c = float(rng.uniform(-eps, eps)) * 0.9
            g2 = g1.shift_time(c)
            wiggle = (eps - abs(c)) * 0.9
            # rho(t) = t + c + bounded monotone perturbation
            freq = float(rng.uniform(0.2, 0.8))

            def rho(t):
                return t + c + wiggle * math.sin(freq * t)

            # hypothesis: gamma1(rho(t)) vs gamma2(t) = gamma1(t + c)
            for t in np.linspace(0.0, T2, 13):
                assert abs(rho(t) - (t + c)) < eps  # on-orbit distance
                assert abs(t - rho(t)) < 2 * eps
                dx = _position_distance(rose2, g1, g2, float(t))
                assert dx < 3 * eps


def test_expansivity_scale(rose2):
    """Geodesics with different edge words near the origin separate to
    bw-distance >= delta0 within a bounded time window."""
    susp = graph_suspension(rose2)
    rng = np.random.default_rng(25)
    delta0 = float(rose2.delta0)
    W = 10.0
    for _ in range(40):
        g1 = random_geodesic(rose2, rng)
        g2 = random_geodesic(rose2, rng)
        words1 = [g1.edge_at(k) for k in range(-4, 5)]
        words2 = [g2.edge_at(k) for k in range(-4, 5)]
        if words1 == words2:
            continue
        sep = max(
            susp.bw_distance(susp.flow(g1.susp, t), susp.flow(g2.susp, t))
            for t in np.linspace(-W, W, 81)
        )
        assert sep >= delta0


def test_end_to_end_weak_specification(rose2):
    """Gluing through the symbolic layer shadows each input segment in the
    geodesic metric at twice the symbolic scale."""
    susp = graph_suspension(rose2)
    rng = np.random.default_rng(31)
    eps = 0.25
    for _ in range(10):
        segs = [OrbitSegment(random_geodesic(rose2, rng).susp,
                             float(rng.uniform(1, 5))) for _ in range(3)]
        res = susp.glue_segments(segs, eps)
        bound = susp.transition_bound(eps)
        assert all(t <= bound + 1e-9 for t in res.transition_times)
        for j, seg in enumerate(segs):
            y = susp.flow(res.point, res.block_starts[j] - seg.duration)
            geo_y = Geodesic(rose2, y)
            geo_x = Geodesic(rose2, seg.start)
            for t in np.linspace(0.0, seg.duration, 7):
                v, err = d_GX(geo_y.shift_time(float(t)),
                              geo_x.shift_time(float(t)))
                assert v - err < 2 * eps
