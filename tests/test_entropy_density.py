"""Entropy density of ergodic measures: exactly-counted separated generic
sets, glued generic families with counting certificates, the block-chain
ergodic approximation, and stable countable gluing."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chisquare

from box_reference import pair_stat_counts
from chain_reference import build_block_chain

from thermoflow import (
    ApproxTarget,
    BiWord,
    EPS_SEP,
    MarkovMeasure,
    NonConvergenceError,
    OrbitSegment,
    Roof,
    Sft,
    SuspPoint,
    SuspendedMeasure,
    Suspension,
    WeakSpecificationError,
    WeakStarConfig,
    entropy_and_mean,
    ergodic_approximation,
    glue_countable,
    glue_generic_family,
    glue_words,
    graph_suspension,
    measure_statistics,
    mixture_entropy,
    mixture_statistics,
    random_markov_measure,
    separated_generic_set,
    weak_star_distance,
)
from thermoflow.entropy_density import (_box_cells, _box_words,
                                        _build_block_chain)
from thermoflow.sft import _close_word, _glue_blocks, is_admissible_word

CFG = WeakStarConfig()

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2

# the four irreducible 2-symbol SFTs
IRREDUCIBLE_2 = {
    "full2": [[1, 1], [1, 1]],
    "golden": [[1, 1], [1, 0]],
    "no00": [[0, 1], [1, 1]],
    "cycle2": [[0, 1], [1, 0]],
}


def bernoulli(p):
    return MarkovMeasure([[p, 1 - p], [p, 1 - p]])


def standard_mixture(eta):
    """lambda = (1/2) B(0.9) + (1/2) B(0.1): entropy H(0.9) ~ 0.32508."""
    return ApproxTarget(((bernoulli(0.9), 0.5), (bernoulli(0.1), 0.5)), eta)


def _random_segment(system, rng):
    word = [int(rng.integers(system.sft.n_symbols))]
    for _ in range(4):
        succ = system.sft.successors(word[-1])
        word.append(int(succ[rng.integers(len(succ))]))
    gap = glue_words(system.sft, (word[-1],), (word[0],))
    base = BiWord.periodic(tuple(word) + tuple(gap), phase=0)
    h = float(rng.random()) * system.roof[base.symbol_at(0)]
    return OrbitSegment(system.point(base, h), float(rng.uniform(1, 5)))


# --- separated generic sets ---------------------------------------------------

def test_separated_set_bernoulli_certificate(full2_unit):
    g = separated_generic_set(full2_unit, bernoulli(0.5), h=0.6, t=40.0,
                              eta=0.1, seed=0)
    assert g.count == 32583198648  # exact closed-form count, frozen
    assert g.certificate_ok
    assert g.log_count >= g.t * g.h_target  # >= e^{24} members
    # sampled members are generic: empirical statistics near the target
    assert max(g.sampled_D) < 2 * 0.1


def test_separated_set_golden_parry():
    system = Suspension(Sft([[1, 1], [1, 0]]), Roof([1.0, 1.0]))
    g = GOLDEN_RATIO
    parry = MarkovMeasure([[1 / g, 1 / g ** 2], [1.0, 0.0]])
    s = separated_generic_set(system, parry, h=0.4, t=60.0, eta=0.1, seed=0)
    assert s.certificate_ok
    assert s.log_count >= 24.0  # t * h
    assert max(s.sampled_D) < 2 * 0.1


def test_separated_set_count_monotone_in_t(full2_unit):
    a = separated_generic_set(full2_unit, bernoulli(0.5), 0.6, 40.0, 0.1, 0)
    b = separated_generic_set(full2_unit, bernoulli(0.5), 0.6, 60.0, 0.1, 0)
    assert b.count > a.count
    # exponential growth rate stays below topological entropy
    assert b.log_count / b.t <= math.log(2) + 1e-9


@pytest.mark.parametrize("name", sorted(IRREDUCIBLE_2))
def test_box_cells_match_reference_dp(name):
    """The run-structure closed form counts every (#1, #11) class exactly."""
    sft = Sft(IRREDUCIBLE_2[name])
    everything = {"pi1": 0.5, "p11": 0.5, "zeta": 1.0}
    ref = pair_stat_counts(sft, 60)
    for n in range(2, 61):
        got = {}
        for weight, n1, n11, _, _ in _box_cells(sft, n, everything):
            got[(n1, n11)] = got.get((n1, n11), 0) + weight
        assert got == {k: c for k, c in ref[n].items() if c}, n


@pytest.mark.parametrize("name, pi1, p11, zeta", [
    ("full2", 0.5, 0.25, 0.05),
    ("golden", 0.3, 0.0, 0.1),
    ("no00", 0.7, 0.45, 0.1),
    ("cycle2", 0.5, 0.0, 0.1),
])
def test_box_sampler_uniform(name, pi1, p11, zeta):
    """Seeded draws are admissible box words, uniform over the box."""
    sft = Sft(IRREDUCIBLE_2[name])
    n = 12
    box = {"pi1": pi1, "p11": p11, "zeta": zeta}

    def in_box(w):
        n11 = sum(a & b for a, b in zip(w, w[1:]))
        return (abs(sum(w) / n - pi1) <= zeta
                and abs(n11 / (n - 1) - p11) <= zeta)

    words = [w for w in itertools.product((0, 1), repeat=n)
             if is_admissible_word(sft, w) and in_box(w)]
    cells = _box_cells(sft, n, box)
    assert sum(c[0] for c in cells) == len(words) > 0
    index = {w: i for i, w in enumerate(words)}
    hits = np.zeros(len(words))
    for w in _box_words(cells, n, np.random.default_rng(3),
                        20 * len(words))[0]:
        assert w in index  # admissible and in the box
        hits[index[w]] += 1
    assert chisquare(hits).pvalue > 1e-3


def test_separated_set_rejects_reducible_base():
    system = Suspension(Sft([[1, 1], [0, 1]]), Roof([1.0, 1.0]))
    with pytest.raises(WeakSpecificationError, match="irreducible"):
        separated_generic_set(system, bernoulli(0.5), h=-0.5, t=40.0,
                              eta=0.1, seed=0)


def test_separated_set_requires_h_below_entropy(full2_unit):
    with pytest.raises(ValueError, match="strictly below"):
        separated_generic_set(full2_unit, bernoulli(0.5), h=1.0, t=40.0,
                              eta=0.1, seed=0)


def test_separated_set_increase_t_error():
    system = Suspension(Sft([[1, 1], [1, 0]]), Roof([1.0, 2.0]))
    with pytest.raises(ValueError, match="increase t"):
        separated_generic_set(system, MarkovMeasure([[0.6, 0.4], [1, 0]]),
                              h=0.2, t=5.0, eta=0.1, seed=0)


# the four models on which sampled weak* distances are pinned to the scalar
# path: (SFT, roof, Markov kernel, t) and the frozen (count, length,
# log_count) of the separated set at eta = 0.17, seed 1
PINNED = {
    "full2": ([[1, 1], [1, 1]], (1.0, 1.0), [[0.1, 0.9], [0.1, 0.9]], 40.0,
              (85085, 40, 11.351406035805537)),
    "golden11": ([[1, 1], [1, 0]], (1.0, 1.0), [[0.6, 0.4], [1.0, 0.0]],
                 50.0, (11674989360, 50, 23.18071472915192)),
    "golden12": ([[1, 1], [1, 0]], (1.0, 2.0), [[0.6, 0.4], [1.0, 0.0]],
                 60.0, (1746792960, 46, 21.28104734934086)),
    "thirds": ([[1, 1], [1, 1]], (1, Fraction(1, 3)),
               [[0.3, 0.7], [0.45, 0.55]], 30.0,
               (25348044788550, 50, 30.86372271433437)),
}


def _pinned(name):
    A, roof, P, t, frozen = PINNED[name]
    return Suspension(Sft(A), Roof(roof)), MarkovMeasure(P), t, frozen


def _scalar_D(system, word, t, target):
    """D(E_t(x), target) for the periodic point x of the closed word at
    height 0.0, by the dict oracle and its scalar fiber walk."""
    import stats_reference as ref
    x = SuspPoint(BiWord.periodic(_close_word(system.sft, word)), 0.0)
    return ref.weak_star_distance(ref.empirical_measure(system, x, t, CFG),
                                  target, CFG)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_sampled_D_matches_scalar_path(name):
    """Every sampled member's weak* distance equals the one-member scalar
    path within 1e-12; counts, lengths and certificates stay frozen."""
    import stats_reference as ref
    system, mu, t, frozen = _pinned(name)
    eta, seed = 0.17, 1
    h = entropy_and_mean(SuspendedMeasure(mu, system.roof), None)[0] \
        - eta / 2
    g = separated_generic_set(system, mu, h, t, eta, seed)
    assert (g.count, g.length, g.log_count) == frozen
    assert g.certificate_ok == (g.log_count >= t * h)
    cells = _box_cells(system.sft, g.length, g.box)
    sample = _box_words(cells, g.length, np.random.default_rng(seed),
                        len(g.sampled_D))[0]
    target = ref.measure_statistics(SuspendedMeasure(mu, system.roof), CFG)
    assert len(g.sampled_D) == 20
    for d, w in zip(g.sampled_D, sample):
        assert abs(d - _scalar_D(system, w, t, target)) <= 1e-12


@pytest.mark.parametrize("name", sorted(PINNED))
def test_sample_block_D_matches_scalar_path(name):
    """Each sampled glued block's weak* distance to the mixture equals the
    scalar path, from the flowed periodic point of the member, within
    1e-12."""
    import stats_reference as ref
    system, mu, _, _ = _pinned(name)
    A = PINNED[name][0]
    other = MarkovMeasure([[0.5, 0.5], [1.0, 0.0]] if A[1][1] == 0
                          else [[0.7, 0.3], [0.6, 0.4]])
    target = ApproxTarget(((mu, 0.5), (other, 0.5)), 0.1)
    m, seed = 3, 2
    fam = glue_generic_family(system, target, 240.0, m, seed)
    # the members, drawn as the family draws them: 3 m blocks per
    # component, member r gluing blocks r m .. r m + m - 1 of each
    rng = np.random.default_rng(seed)
    blocks = [_box_words(_box_cells(system.sft, g.length, g.box), g.length,
                         rng, 3 * m)[0] for g in fam.gammas]
    lam = ref.mixture_statistics(target, system.roof, CFG)
    want = []
    for r in range(3):
        word, starts = [], []
        for kk in range(m):
            for b in blocks:
                w = b[r * m + kk]
                if word:
                    word.extend(glue_words(system.sft, (word[-1],), (w[0],)))
                starts.append(len(word))
                word.extend(w)
        x = SuspPoint(BiWord.periodic(_close_word(system.sft, word)), 0.0)
        times = [0]
        for s in word:
            times.append(times[-1] + system.roof[s])
        c_time = times[starts[1] + fam.gammas[1].length]
        for kk in range(2):
            e = ref.empirical_measure(
                system, system.flow(x, times[starts[2 * kk]]), c_time, CFG)
            want.append(ref.weak_star_distance(e, lam, CFG))
    assert len(fam.sample_block_D) == len(want) == 6
    for got, d in zip(fam.sample_block_D, want):
        assert abs(got - d) <= 1e-12


# --- mixtures -------------------------------------------------------------------

def test_mixture_statistics_affine(full2_unit):
    target = standard_mixture(0.1)
    ms = mixture_statistics(target, full2_unit.roof, CFG)
    # symbol-1 frequency of (1/2) B(0.9) + (1/2) B(0.1) is 1/2
    assert abs(ms.frequency((1,)) - 0.5) < 1e-12
    # depth-2: (1/2)(0.1 * 0.1) + (1/2)(0.9 * 0.9) for the word 11
    assert abs(ms.frequency((1, 1)) - 0.5 * (0.01 + 0.81)) < 1e-12


def test_mixture_entropy_affine(full2_unit):
    target = standard_mixture(0.1)
    h9 = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
    assert abs(mixture_entropy(target, full2_unit.roof) - h9) < 1e-12


def test_approx_target_validates_weights():
    with pytest.raises(ValueError, match="sum to 1"):
        ApproxTarget(((bernoulli(0.5), 0.4), (bernoulli(0.2), 0.4)), 0.1)
    with pytest.raises(ValueError, match="eta"):
        ApproxTarget(((bernoulli(0.5), 1.0),), 0.0)


# --- glued generic families ------------------------------------------------------

def test_glue_builds_each_components_box_cells_once(full2_unit,
                                                    monkeypatch):
    """`glue_generic_family` samples its blocks from the cells that
    `separated_generic_set` built for each component."""
    from thermoflow import entropy_density
    calls = []

    def counted(*args):
        calls.append(args[1:])
        return _box_cells(*args)
    monkeypatch.setattr(entropy_density, "_box_cells", counted)
    fam = glue_generic_family(full2_unit, standard_mixture(0.1), t=200.0,
                              m=3, seed=0)
    assert len(calls) == len(fam.gammas) == 2
    for g in fam.gammas:
        assert g.cells == _box_cells(full2_unit.sft, g.length, g.box)


def test_glue_generic_family_certificates(full2_unit):
    eta = 0.1
    target = standard_mixture(eta)
    fam = glue_generic_family(full2_unit, target, t=200.0, m=3, seed=0)
    # sampled glued blocks track the mixture within 5 eta
    assert all(d <= 5 * eta for d in fam.sample_block_D)
    # sampled pairs separate by at least eps/2 at the divergence time
    assert fam.eps_half == EPS_SEP / 2.0
    assert all(s >= fam.eps_half for s in fam.sample_separations)
    # counting certificate: log #E_m = m (sum log #Gamma_i - log C)
    expected = fam.m * (sum(g.log_count for g in fam.gammas)
                        - math.log(fam.C))
    assert abs(fam.log_Em - expected) < 1e-9
    assert fam.C == float(fam.k_partition) ** len(target.components)
    # per-(t, m) rate approaches the mixture entropy from below
    rate = fam.log_Em / (fam.t * fam.m)
    h_mu = mixture_entropy(target, full2_unit.roof)
    assert rate > h_mu - eta - 0.05
    assert rate <= h_mu + eta


@pytest.mark.parametrize("model", ["full2_unit", "golden12"])
def test_sample_separations_are_the_flowed_distances(model, request):
    """Each sampled separation, read from windows of the two closed words
    at the first index where the glued words differ, is exactly
    bw_distance of the two periodic points flowed to the floor of that
    fiber, on seeded members drawn as the family draws them."""
    system = request.getfixturevalue(model)
    comps = ((bernoulli(0.9), bernoulli(0.1)) if model == "full2_unit" else
             (MarkovMeasure([[0.5, 0.5], [1.0, 0.0]]),
              MarkovMeasure([[0.8, 0.2], [1.0, 0.0]])))
    target = ApproxTarget(tuple((mu, 0.5) for mu in comps), 0.1)
    m, seed = 3, 4
    fam = glue_generic_family(system, target, 200.0, m, seed)
    rng = np.random.default_rng(seed)
    blocks = [_box_words(_box_cells(system.sft, g.length, g.box), g.length,
                         rng, 3 * m)[0] for g in fam.gammas]
    words = [_glue_blocks(system.sft, [
        b[r * m + kk] for kk in range(m) for b in blocks])[0]
        for r in range(3)]
    want = []
    for wa, wb in itertools.combinations(words, 2):
        j = next(i for i, (x, y) in enumerate(zip(wa, wb)) if x != y)
        pa, pb = (system.flow(SuspPoint(BiWord.periodic(
            _close_word(system.sft, w)), 0.0),
            sum(system.roof[s] for s in w[:j])) for w in (wa, wb))
        want.append(system.bw_distance(pa, pb))
    assert fam.sample_separations == tuple(want)
    assert len(want) == 3 and min(want) >= fam.eps_half


def test_glue_generic_family_regime_violation(full2_unit):
    with pytest.raises(ValueError, match="regime violation"):
        glue_generic_family(full2_unit, standard_mixture(0.1), t=20.0,
                            m=2, seed=0)


def test_glue_generic_family_needs_two_components(full2_unit):
    single = ApproxTarget(((bernoulli(0.5), 1.0),), 0.1)
    with pytest.raises(ValueError, match="at least 2"):
        glue_generic_family(full2_unit, single, t=200.0, m=2, seed=0)


# --- ergodic approximation --------------------------------------------------------

def test_ergodic_approximation_standard_mixture(full2_unit):
    eta = 0.05
    target = standard_mixture(eta)
    rep = ergodic_approximation(full2_unit, target, CFG, seed=0)
    h9 = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))  # ~ 0.32508
    assert rep.D < eta
    assert abs(rep.h_nu - rep.h_mu) < eta
    assert abs(rep.h_mu - h9) < 1e-12
    assert abs(rep.h_nu - h9) < 0.05
    # the approximant is itself ergodic with the reported statistics
    stats = measure_statistics(rep.nu, CFG)
    lam = mixture_statistics(target, full2_unit.roof, CFG)
    assert abs(weak_star_distance(stats, lam, CFG) - rep.D) < 1e-12
    # counting certificate: the glued-family rate clears the lower bound
    cert = rep.count_certificate
    assert cert["log_Em_rate"] > cert["bound"]
    assert cert["bound"] > rep.h_mu - eta - 0.06
    # sampled glued blocks stay within 6 eta of the mixture
    assert rep.block_checks and all(d <= 6 * eta for d in rep.block_checks)
    j = rep.to_json()
    assert set(j) >= {"eta", "D", "h_mu", "h_nu", "count_certificate",
                      "block_checks"}


@pytest.mark.parametrize("L", [12, 100])
@pytest.mark.parametrize("weights", [(0.3, 0.7), (0.2, 0.3, 0.5)])
@pytest.mark.parametrize("model", ["full2_unit", "golden12", "rose2",
                                   "theta"])
def test_block_chain_matches_dict_reference(model, weights, L, request):
    """The block chain placed by index arithmetic is the chain the dict
    builder adds state by state: the same kernel support, state words and
    roofs exactly, and kernel entries (normalized by row sums over the
    edges) and a stationary vector within 1e-15, on seeded random
    components."""
    system = request.getfixturevalue(model)
    if not isinstance(system, Suspension):
        system = graph_suspension(system)
    rng = np.random.default_rng(L + len(weights))
    target = ApproxTarget(tuple((random_markov_measure(system.sft, rng), a)
                                for a in weights), 0.1)
    nu = _build_block_chain(system, target, L)
    chain, emit, roofs = build_block_chain(system, target, L)
    np.testing.assert_array_equal(nu.base.transition > 0,
                                  chain.transition > 0)
    np.testing.assert_allclose(nu.base.transition, chain.transition,
                               rtol=1e-15, atol=0)
    assert nu.base.words == chain.words
    np.testing.assert_array_equal(nu.roof.array, roofs)
    np.testing.assert_allclose(nu.base.stationary, chain.stationary,
                               rtol=0, atol=1e-15)


def test_ergodic_approximation_small_eta_picks_its_own_gluing_time(
        full2_unit):
    """At eta = 0.01 each component's share of the gluing time holds the
    4 / eta = 400 symbols its separated set needs (t = 800, not 793.75,
    which raised "increase t"), and the approximation and its count
    certificate hold."""
    eta = 0.01
    rep = ergodic_approximation(full2_unit, standard_mixture(eta), CFG,
                                seed=0)
    assert rep.D < eta and abs(rep.h_nu - rep.h_mu) < eta
    cert = rep.count_certificate
    assert cert["t"] == 800.0
    assert cert["log_Em_rate"] > cert["bound"]


def test_ergodic_approximation_raises_when_no_doubling_certifies(
        full2_unit, monkeypatch):
    """With every glued family's count forced to 1 (rate 0), the gluing
    time doubles three times from t = 400, and then the failed count
    certificate is a NonConvergenceError."""
    import thermoflow.entropy_density as ed
    glue, ts = ed.glue_generic_family, []

    def no_count(system, target, t, **kw):
        ts.append(t)
        return dataclasses.replace(glue(system, target, t, **kw), log_Em=0.0)

    monkeypatch.setattr(ed, "glue_generic_family", no_count)
    with pytest.raises(NonConvergenceError,
                       match=r"count certificate fails up to t = 3200: "
                             r"log\(#E_m\)/\(tm\) = 0.000000 is not above "
                             r"the bound 0.22"):
        ergodic_approximation(full2_unit, standard_mixture(0.1), CFG, seed=0)
    assert ts == [400.0, 800.0, 1600.0, 3200.0]


def test_ergodic_approximation_single_component(full2_unit):
    mu = bernoulli(0.5)
    target = ApproxTarget(((mu, 1.0),), 0.05)
    rep = ergodic_approximation(full2_unit, target, CFG, seed=0)
    assert rep.nu.base is mu
    assert rep.D == 0.0
    assert abs(rep.h_nu - math.log(2)) < 1e-12
    assert "single ergodic component" in rep.count_certificate["note"]


def test_ergodic_approximation_infeasible_eta(full2_unit):
    target = standard_mixture(0.0005)
    with pytest.raises(ValueError, match="infeasible eta"):
        ergodic_approximation(full2_unit, target, CFG, seed=0)


# --- countable gluing --------------------------------------------------------------

def test_glue_countable_prefix_stable(golden12):
    rng = np.random.default_rng(5)
    segs = [_random_segment(golden12, rng) for _ in range(8)]
    prev = None
    for depth in (3, 4, 5, 6):
        point, end = glue_countable(golden12, iter(segs), 0.3, depth)
        if prev is not None:
            ppoint, pend = prev
            assert end >= pend
            # already-emitted coordinates never change when deepening
            assert all(point.base.symbol_at(k) == ppoint.base.symbol_at(k)
                       for k in range(pend))
            assert abs(point.height - ppoint.height) < 1e-12
        prev = (point, end)


def test_glue_countable_matches_finite_glue(golden12):
    rng = np.random.default_rng(5)
    segs = [_random_segment(golden12, rng) for _ in range(6)]
    res = golden12.glue_segments(segs[:4], 0.3)
    point, end = glue_countable(golden12, iter(segs), 0.3, 4)
    assert point == res.point
    assert end > 0


def test_glue_countable_exhausted_stream(golden12):
    rng = np.random.default_rng(5)
    segs = [_random_segment(golden12, rng) for _ in range(2)]
    with pytest.raises(ValueError, match="exhausted"):
        glue_countable(golden12, iter(segs), 0.3, 5)
