"""The block recoding built by index against the per-state bodies it
replaced (`tests/recode_reference.py`), bit for bit: transitions, edges,
roof values with their types, the roof's float views, the words and the
recoded potential on seven models at widths 1-6, and the pressure and
equilibrium state of seeded potentials of widths 3-6 on the graph
models."""

from fractions import Fraction

import numpy as np
import pytest

from thermoflow import (CylinderPotential, Roof, Sft, Suspension,
                        equilibrium_state, graph_suspension, pressure,
                        zero_potential)
from thermoflow import thermo
from thermoflow.sft import _words

import recode_reference as ref

MODELS = ["full2_unit", "golden11", "golden12", "rose2", "theta", "third"]


@pytest.fixture(scope="module")
def golden11(golden):
    return Suspension(golden, Roof([1.0, 1.0]))


@pytest.fixture(scope="module")
def third():
    """Three symbols with an exact roof value 1/3 beside an int and a
    float."""
    return Suspension(Sft([[0, 1, 1], [1, 1, 0], [1, 0, 1]]),
                      Roof([Fraction(1, 3), 2, 0.75]))


def _system(request, model):
    system = request.getfixturevalue(model)
    if not isinstance(system, Suspension):
        system = graph_suspension(system)
    return system


def _potential(system, width, rng, scale=1.0):
    words = _words(system.sft._edges, width)
    return CylinderPotential(width, dict(zip(
        map(tuple, words.tolist()),
        rng.uniform(-scale, scale, len(words)))))


def _assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("model", MODELS)
def test_recode_matches_reference(model, request):
    system = _system(request, model)
    rng = np.random.default_rng(11)
    for w in range(1, 7):
        phi = _potential(system, w, rng)
        got = thermo._prepare(system, phi)
        want = ref.prepare(system, phi)
        (sft, roof, words, phihat), (sft0, roof0, words0, phihat0) = \
            got, want
        _assert_same_array(sft.transitions, sft0.transitions)
        assert not sft.transitions.flags.writeable
        for a, b in zip(sft._edges, sft0._edges):
            _assert_same_array(a, b)
        assert roof.values == roof0.values
        assert list(map(type, roof.values)) == list(map(type, roof0.values))
        _assert_same_array(roof.array, roof0.array)
        assert not roof.array.flags.writeable
        assert (roof.min, roof.max) == (roof0.min, roof0.max)
        assert roof.floats == roof0.floats
        assert words == words0
        _assert_same_array(phihat, phihat0)


@pytest.mark.parametrize("model", MODELS)
def test_recoding_equals_the_sft_of_its_dense_view(model, request):
    """The recoding built by `Sft.from_edges` equals `Sft` of its own dense
    view: ==, hash and the edge list, and that view is read-only."""
    system = _system(request, model)
    for w in range(1, 7):
        sft = thermo.block_recode(system.sft, system.roof, w)[0]
        dense = Sft(sft.transitions)
        assert sft == dense and hash(sft) == hash(dense)
        for a, b in zip(sft._edges, dense._edges):
            _assert_same_array(a, b)
        assert not sft.transitions.flags.writeable
        with pytest.raises(ValueError):
            sft.transitions[0, 0] = True


def test_wide_recoding_pressure_stays_small(rose2):
    """Spectral pressure of a seeded width-8 potential on rose2 (8748
    states) holds no n x n matrix: its tracemalloc peak stays under 15 MB,
    where one dense bool matrix alone takes 76.5 MB."""
    import tracemalloc
    system = graph_suspension(rose2)
    phi = _potential(system, 8, np.random.default_rng(5), 0.3)
    tracemalloc.start()
    try:
        p = pressure(system, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(p.value)
    assert peak < 15e6


@pytest.mark.parametrize("model", ["rose2", "theta"])
def test_solves_on_the_recoding_match_reference(model, request,
                                                monkeypatch):
    """pressure and equilibrium_state read the recoding only through
    `_prepare`; with the reference in its place they give the same
    numbers."""
    system = _system(request, model)
    rng = np.random.default_rng(3)
    phis = [_potential(system, w, rng, 0.1) for w in range(3, 7)]
    results = []
    for prepare in (thermo._prepare, ref.prepare):
        monkeypatch.setattr(thermo, "_prepare", prepare)
        results.append([(pressure(system, phi), equilibrium_state(system, phi))
                        for phi in phis])
    for (p, mu), (p0, mu0) in zip(*results):
        assert p == p0
        for a in ("src", "dst", "prob", "stationary"):
            _assert_same_array(getattr(mu.base, a), getattr(mu0.base, a))
        assert mu.base.words == mu0.base.words
        assert mu.roof == mu0.roof and mu.mean_roof == mu0.mean_roof


def test_values_looks_up_like_value():
    phi = CylinderPotential(2, {(0, 0): 0.5, (0, 1): -1.0, (1, 0): 2.0})
    words = [(0, 0, 1), (1, 0), (0, 1, 1)]
    _assert_same_array(phi.values(words),
                       np.array([phi.value(u) for u in words]))
    _assert_same_array(phi.values([]), np.array([]))
    _assert_same_array(zero_potential().values([(3,), (1, 2)]),
                       np.zeros(2))
    with pytest.raises(ValueError, match=r"no value for the word \(1, 1\)"):
        phi.values([(0, 0), (1, 1, 0)])


def test_roof_take_matches_a_new_roof():
    roof = Roof([Fraction(1, 3), 2, 0.75, Fraction(5, 2)])
    for idx in ([2, 0, 0, 3], np.array([1, 1]), [3]):
        got, want = roof.take(idx), Roof([roof[i] for i in list(idx)])
        assert got == want
        assert list(map(type, got.values)) == list(map(type, want.values))
        _assert_same_array(got.array, want.array)
        assert (got.min, got.max, got.floats) == \
            (want.min, want.max, want.floats)
    with pytest.raises(ValueError, match="finite and positive"):
        roof.take([])
