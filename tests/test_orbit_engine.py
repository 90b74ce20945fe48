"""The lattice engine for closed-orbit sums against the cycle-enumeration
oracle in `cycle_reference.py`, and the oracle itself against traces."""

from fractions import Fraction

import numpy as np
import pytest

from thermoflow import (
    CylinderPotential,
    MetricGraph,
    Roof,
    Sft,
    Suspension,
    WeakStarConfig,
    build_edge_sft,
    graph_suspension,
    weighted_orbit_measure,
    zero_potential,
)

from cycle_reference import (enumerate_primitive_cycles,
                             reference_weighted_measure)
from test_sft import random_irreducible_sft

CFG = WeakStarConfig()
# the oracle enumerates every cycle, so each ladder stops where it gets slow
LADDER_TOP = {"rose2": 9, "theta": 14, "golden12": 16, "full2": 12,
              "third": 5}


def _system(name, rose2, theta):
    if name == "rose2":
        return graph_suspension(rose2)
    if name == "theta":
        return graph_suspension(theta)
    if name == "golden12":
        return Suspension(Sft([[1, 1], [1, 0]]), Roof([1.0, 2.0]))
    if name == "third":  # exact edge lengths 1/3, 1, 2: lattice 1/3
        return graph_suspension(MetricGraph(
            2, [(0, 1, Fraction(1, 3)), (0, 1, 1), (0, 1, 2)]))
    return Suspension(Sft([[1, 1], [1, 1]]), Roof([1.0, 1.0]))


def _potentials(sft, seed):
    rng = np.random.default_rng(seed)
    n = sft.n_symbols
    words2 = [(a, int(b)) for a in range(n) for b in sft.successors(a)]
    return {
        "zero": zero_potential(),
        "width1": CylinderPotential(1, {(s,): float(rng.uniform(-0.3, 0.3))
                                        for s in range(n)}),
        "width2": CylinderPotential(2, {w: float(rng.uniform(-0.3, 0.3))
                                        for w in words2}),
    }


@pytest.mark.parametrize("name", sorted(LADDER_TOP))
def test_engine_matches_cycle_oracle(name, rose2, theta):
    system = _system(name, rose2, theta)
    for label, phi in _potentials(system.sft, 11).items():
        for t in range(1, LADDER_TOP[name] + 1):
            ref, C_ref, n_ref = reference_weighted_measure(system, phi, t,
                                                           CFG)
            if n_ref == 0:
                with pytest.raises(ValueError, match="no closed orbits"):
                    weighted_orbit_measure(system, phi, t, CFG)
                continue
            emp, C, n = weighted_orbit_measure(system, phi, t, CFG)
            where = (label, t)
            assert n == n_ref, where
            assert abs(C - C_ref) <= 1e-12 * C_ref, where
            for k in range(1, CFG.depth + 1):
                assert set(emp.freqs[k]) == set(ref[k]), (where, k)
                for w, f in ref[k].items():
                    assert abs(emp.freqs[k][w] - f) <= 1e-12, (where, w)
            assert np.allclose(emp.heights, 1.0 / CFG.height_bins)


def test_engine_rejects_irrational_roof_and_long_lattice(golden):
    system = Suspension(golden, Roof([1.0, 2 ** 0.5]))
    with pytest.raises(ValueError, match="rational"):
        weighted_orbit_measure(system, zero_potential(), 5.0, CFG)
    fine = Suspension(golden, Roof([1.0, 1.001]))  # lattice 1/1000
    with pytest.raises(ValueError, match="cap"):
        weighted_orbit_measure(fine, zero_potential(), 5.0, CFG)


# --- the oracle ---------------------------------------------------------------

def test_enumerate_primitive_cycles_examples(rose2):
    full2 = Sft([[1, 1], [1, 1]])
    assert sorted(enumerate_primitive_cycles(full2, 1)) == [(0,), (1,)]
    golden = Sft([[1, 1], [1, 0]])
    assert sorted(enumerate_primitive_cycles(golden, 2)) == [(0,), (0, 1)]
    rose_sft, _ = build_edge_sft(rose2)
    assert len(enumerate_primitive_cycles(rose_sft, 1)) == 4


def test_periodic_count_equals_trace():
    rng = np.random.default_rng(23)
    for _ in range(10):
        sft = random_irreducible_sft(rng, max_symbols=4)
        cycles = enumerate_primitive_cycles(sft, 12)
        for n in range(1, 13):
            trace = int(np.trace(np.linalg.matrix_power(
                np.array(sft.transitions, dtype=np.int64), n)))
            # each primitive cycle of length d | n contributes d fixed
            # points of sigma^n
            count = sum(len(c) for c in cycles if n % len(c) == 0)
            assert count == trace
