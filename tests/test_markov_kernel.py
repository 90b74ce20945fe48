"""The edge-list Markov kernel against the dense routines it replaced
(`tests/kernel_reference.py`): words and block recodes, state paths,
entropy, seeded sample paths and random measures on a seeded corpus;
validation of kernel entries, the sampler's last successor under
round-off, and the support check of the Monte Carlo callers."""

import math

import numpy as np
import pytest

from thermoflow import (CylinderPotential, MarkovMeasure, Roof, Sft,
                        SuspendedMeasure, Suspension, block_recode,
                        deviation_frequency, equilibrium_state,
                        gibbs_ratio_stats, graph_suspension,
                        random_markov_measure, separated_generic_set,
                        zero_potential)
from thermoflow.entropy_density import ApproxTarget, _build_block_chain
from thermoflow.sft import _words
from thermoflow.thermo import _gibbs_data, _prepare, _state_paths

import kernel_reference as ref

MODELS = ["full2_unit", "golden12", "rose2", "theta"]


def _system(request, model):
    system = request.getfixturevalue(model)
    if not isinstance(system, Suspension):
        system = graph_suspension(system)
    return system


def _random_sfts(rng, count):
    """Seeded SFTs of 1-6 symbols with no stranded symbol."""
    found = []
    while len(found) < count:
        n = int(rng.integers(1, 7))
        A = rng.random((n, n)) < 0.5
        if A.any(axis=0).all() and A.any(axis=1).all():
            found.append(Sft(A.astype(int)))
    return found


@pytest.mark.parametrize("model", MODELS)
def test_words_and_block_recode_match_dense_reference(model, request):
    """`_words` over the edge list lists the rows of the dense gather in
    the same order, widths 1-6, and `block_recode` has the same
    transitions in the same order."""
    sft = _system(request, model).sft
    for w in range(1, 7):
        np.testing.assert_array_equal(_words(sft._edges, w),
                                      ref.words(sft.transitions, w))
        if w > 1:
            sft_w = block_recode(sft, Roof([1.0] * sft.n_symbols), w)[0]
            want = ref.block_edges(sft.transitions, w)
            for got, exp in zip(sft_w._edges, want):
                np.testing.assert_array_equal(got, exp)
            np.testing.assert_array_equal(
                np.argwhere(sft_w.transitions).T, np.stack(want))


def test_words_match_dense_reference_on_random_sfts():
    for sft in _random_sfts(np.random.default_rng(5), 40):
        for w in (1, 2, 3, 4):
            np.testing.assert_array_equal(_words(sft._edges, w),
                                          ref.words(sft.transitions, w))


def _corpus(system, rng):
    """Equilibrium states of seeded potentials of widths 1-4 and seeded
    random measures, with the dense kernel the parent code built for
    each equilibrium state."""
    for width in range(1, 5):
        words = ref.words(system.sft.transitions, width)
        phi = CylinderPotential(width, dict(zip(
            map(tuple, words.tolist()), rng.uniform(-1, 1, len(words)))))
        mu = equilibrium_state(system, phi)
        sft_w, roof_w, _, phihat = _prepare(system, phi)
        _, x, lam, v, _ = _gibbs_data(sft_w.n_symbols, *sft_w._edges,
                                      phihat, roof_w.array)
        dense = ref.equilibrium_kernel(sft_w.transitions, x, lam, v)
        yield mu.base, dense
    for _ in range(2):
        yield random_markov_measure(system.sft, rng), None


@pytest.mark.parametrize("model", MODELS)
def test_measures_match_dense_reference(model, request):
    """On each measure of the corpus: the state paths of depth 6, their
    nu and the entropy are those of the dense routines on the dense view,
    bit for bit, and so are seeded sample paths, with and without start
    weights.  An equilibrium kernel built from its edges is within 1e-15
    of the one built densely and given to the dense constructor, and that
    measure's state paths are those of the dense routine too."""
    system = _system(request, model)
    rng = np.random.default_rng(21)
    for seed, (base, dense) in enumerate(_corpus(system, rng)):
        P, pi = base.transition, base.stationary
        for mu in [base] + ([] if dense is None else
                            [MarkovMeasure(dense, pi, base.words)]):
            paths, nu = _state_paths(mu, 6)
            want_paths, want_nu = ref.state_paths(mu.transition,
                                                  mu.stationary, 6)
            np.testing.assert_array_equal(paths, want_paths)
            np.testing.assert_array_equal(nu, want_nu)
        if dense is not None:
            np.testing.assert_allclose(P, mu.transition, rtol=1e-15, atol=0)
        assert base.entropy() == ref.entropy(P, pi)
        start = pi * np.arange(1, len(pi) + 1)
        for weights in (None, start):
            got = base.sample_words(400, 30, np.random.default_rng(seed),
                                    start_weights=weights)
            want = ref.sample_words(P, pi, 400, 30,
                                    np.random.default_rng(seed), weights)
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("model", MODELS)
def test_random_measure_matches_dense_reference(model, request):
    """The same draws fill the same kernel as the row-by-row loop."""
    sft = _system(request, model).sft
    for seed in range(3):
        got = random_markov_measure(sft, np.random.default_rng(seed))
        want = MarkovMeasure(ref.random_kernel(sft,
                                               np.random.default_rng(seed)))
        np.testing.assert_array_equal(got.transition, want.transition)
        np.testing.assert_array_equal(got.stationary, want.stationary)


def test_block_chain_paths_match_dense_reference(full2_unit):
    """The eta = 0.01 block chain of 1598 states: state paths of depth 6
    and seeded sample paths as the dense routines give them."""
    rng = np.random.default_rng(3)
    target = ApproxTarget(tuple((random_markov_measure(full2_unit.sft, rng),
                                 0.5) for _ in range(2)), 0.01)
    base = _build_block_chain(full2_unit, target, 800).base
    assert base.n_states == 1598
    P, pi = base.transition, base.stationary
    paths, nu = _state_paths(base, 6)
    want_paths, want_nu = ref.state_paths(P, pi, 6)
    np.testing.assert_array_equal(paths, want_paths)
    np.testing.assert_array_equal(nu, want_nu)
    np.testing.assert_array_equal(
        base.sample_words(200, 40, np.random.default_rng(1)),
        ref.sample_words(P, pi, 200, 40, np.random.default_rng(1)))


class _StubRng:
    """Every path starts in `state`; every uniform is 1 - 2^-53, the
    largest value `Generator.random` returns."""

    def __init__(self, state):
        self.state = state

    def choice(self, n, size, p):
        return np.full(size, self.state)

    def random(self, n):
        return np.full(n, 1.0 - 2.0 ** -53)


def test_sampler_last_successor_takes_round_off():
    """Row 5 of this seeded 10-state kernel sums to 0.9999999999999998, so
    u = 1 - 2^-53 lies above every cumulative entry of the row; the dense
    count gave state 10, out of range.  The last successor takes it."""
    P = np.random.default_rng(0).random((10, 10))
    mu = MarkovMeasure(P / P.sum(axis=1, keepdims=True))
    assert np.cumsum(mu.transition[5])[-1] == 0.9999999999999998
    with pytest.raises(IndexError):
        ref.sample_words(mu.transition, mu.stationary, 4, 3, _StubRng(5))
    paths = mu.sample_words(4, 3, _StubRng(5))
    np.testing.assert_array_equal(paths, [[5, 9, 9]] * 4)


@pytest.mark.parametrize("kernel", [[[1.2, -0.2], [-0.2, 1.2]],
                                    [[math.nan, 1.0], [0.5, 0.5]],
                                    [[math.inf, 1.0], [0.5, 0.5]]])
def test_kernel_entries_must_be_finite_and_non_negative(kernel):
    with pytest.raises(ValueError, match="finite and >= 0"):
        MarkovMeasure(kernel)
    src, dst = np.nonzero(np.ones((2, 2)))
    with pytest.raises(ValueError, match="finite and >= 0"):
        MarkovMeasure.from_edges(2, src, dst, np.ravel(kernel))


def test_measure_off_the_sft_is_rejected(golden12):
    """A full-support 2-state measure on golden puts mass on 1 -> 1, which
    the SFT forbids: every Monte Carlo check names the transition."""
    nu = MarkovMeasure([[0.5, 0.5], [0.5, 0.5]])
    mu = SuspendedMeasure(nu, golden12.roof)
    psi = CylinderPotential(1, {(0,): 0.0, (1,): 1.0})
    with pytest.raises(ValueError, match="transition 1 -> 1"):
        deviation_frequency(golden12, mu, psi, 0.1, 20.0, 100, 1)
    with pytest.raises(ValueError, match="transition 1 -> 1"):
        gibbs_ratio_stats(golden12, mu, zero_potential(), 0.05, [10.0],
                          samples=50, seed=1)
    with pytest.raises(ValueError, match="transition 1 -> 1"):
        separated_generic_set(golden12, nu, h=0.2, t=5.0, eta=0.1, seed=0)
