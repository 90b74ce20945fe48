"""The input checks of the public API: each bad input raises the named
exception with its message, before any computation."""

import numpy as np
import pytest

from thermoflow import (BiWord, CylinderPotential, EmpiricalMeasure,
                        Geodesic, GraphModelError, MarkovMeasure, MetricGraph,
                        OrbitSegment, Roof, Sft, SuspendedMeasure, Suspension,
                        birkhoff, d_GX, deviation_frequency, empirical_measure,
                        entropy_and_mean, gibbs_ratio_stats, glue_words,
                        graph_suspension, lift_distance, measure_statistics,
                        pressure, rate_function, separated_generic_set,
                        weak_star_distance, zero_potential)
from thermoflow import io as tfio

FULL2 = Suspension(Sft([[1, 1], [1, 1]]), Roof([1.0, 1.0]))
GOLDEN = Sft([[1, 1], [1, 0]])
POINT = FULL2.point(BiWord.periodic((0, 1)), 0.25)
IND1 = CylinderPotential(1, {(0,): 0.0, (1,): 1.0})
ROSE2 = MetricGraph(1, [(0, 0, 1), (0, 0, 1)])
GEODESIC = Geodesic(ROSE2, graph_suspension(ROSE2).point(
    BiWord.periodic((0,)), 0.0))
ROSE3 = MetricGraph(1, [(0, 0, 1), (0, 0, 1), (0, 0, 1)])
OTHER_GEODESIC = Geodesic(ROSE3, graph_suspension(ROSE3).point(
    BiWord.periodic((0,)), 0.0))
HALF = MarkovMeasure([[0.5, 0.5], [0.5, 0.5]])
FLOW_HALF = SuspendedMeasure(HALF, FULL2.roof)
PAIRS = MarkovMeasure(HALF.transition, words=[(0, 0), (0, 1)])
WIDTH2 = CylinderPotential(2, {(a, b): 0.0 for a in (0, 1) for b in (0, 1)})
FULL3 = Suspension(Sft(np.ones((3, 3), dtype=int)), Roof([1.0] * 3))


def _measure(depth, bins):
    return EmpiricalMeasure([[0] * depth], [1.0], [1.0] * bins)


CHECKS = {
    "pressure-method": (
        lambda: pressure(FULL2, zero_potential(), "magic"),
        ValueError, r"unknown pressure method 'magic'"),
    "rate-method": (
        lambda: rate_function(FULL2, None, IND1, [0.1], "magic"),
        ValueError, r"unknown rate method 'magic'"),
    "rate-psi": (
        lambda: rate_function(FULL2, None, {(0,): 0.0}, [0.1]),
        ValueError, r"psi must be fiber-representable \(cylinder potential\)"),
    "rate-psi-word": (
        lambda: rate_function(FULL2, None, CylinderPotential(
            2, {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 1.0}), [0.1]),
        ValueError, r"the width-2 potential table has no value for the word "
                    r"\(1, 1\)"),
    "weak-star-depth": (
        lambda: weak_star_distance(_measure(1, 2), _measure(2, 2)),
        ValueError, r"depth mismatch between empirical measures"),
    "weak-star-bins": (
        lambda: weak_star_distance(_measure(2, 2), _measure(2, 3)),
        ValueError, r"height-bin mismatch"),
    "empirical-sum": (
        lambda: EmpiricalMeasure([[0], [1]], [0.5, 0.25], [1.0]),
        ValueError, r"frequencies sum to 0.75"),
    "empirical-t": (
        lambda: empirical_measure(FULL2, POINT, 0.0),
        ValueError, r"t > 0 required"),
    "markov-square": (
        lambda: MarkovMeasure([[0.5, 0.5]]),
        ValueError, r"kernel must be square"),
    "markov-rows": (
        lambda: MarkovMeasure([[0.5, 0.25], [0.5, 0.5]]),
        ValueError, r"kernel rows must sum to 1"),
    "markov-stationary": (
        lambda: MarkovMeasure([[0.9, 0.1], [0.5, 0.5]], [0.5, 0.5]),
        ValueError, r"stationary vector does not satisfy pi P = pi"),
    "potential-width": (
        lambda: CylinderPotential(0, {}),
        ValueError, r"width >= 1 required"),
    "sft-square": (
        lambda: Sft([[1, 1]]),
        ValueError, r"transition matrix must be square"),
    "sft-boolean": (
        lambda: Sft([[1, 2], [1, 1]]),
        ValueError, r"transition matrix must be boolean \(0/1 entries\)"),
    "sft-square-bool": (
        lambda: Sft(np.ones((2, 3), dtype=bool)),
        ValueError, r"transition matrix must be square"),
    "sft-stranded-bool-successor": (
        lambda: Sft(np.array([[True, True], [False, False]])),
        ValueError, r"stranded symbol: some symbol has no successor"),
    "sft-stranded-bool-predecessor": (
        lambda: Sft(np.array([[True, False], [True, False]])),
        ValueError, r"stranded symbol: some symbol has no predecessor"),
    "sft-empty": (
        lambda: Sft(np.zeros((0, 0))),
        ValueError, r"need at least one symbol"),
    "graph-length": (
        lambda: MetricGraph(1, [(0, 0, 0)]),
        ValueError, r"edge lengths must be positive"),
    "graph-endpoint": (
        lambda: MetricGraph(1, [(0, 1, 1)]),
        ValueError, r"edge endpoint out of range"),
    "graph-edges": (
        lambda: MetricGraph(1, []),
        GraphModelError, r"graph has no edges"),
    "dgx-horizon": (
        lambda: d_GX(GEODESIC, GEODESIC, tail_horizon=0.5),
        ValueError, r"tail_horizon >= 1 required"),
    "roof-value": (
        lambda: Roof([1.0, 0.0]),
        ValueError, r"roof values must be finite and positive"),
    "suspension-roof": (
        lambda: Suspension(Sft([[1, 1], [1, 1]]), Roof([1.0])),
        ValueError, r"roof must assign a value to every symbol"),
    "point-height": (
        lambda: FULL2.point(BiWord.periodic((0, 1)), 1.0),
        ValueError, r"height 1.0 outside \[0, 1.0\)"),
    "bw-horizon": (
        lambda: FULL2.bw_distance(POINT, POINT, horizon=0),
        ValueError, r"horizon >= 1 required"),
    "shadows-delta": (
        lambda: FULL2.shadows(POINT, OrbitSegment(POINT, 1.0), 0.0),
        ValueError, r"delta must be positive"),
    "glue-segments-empty": (
        lambda: FULL2.glue_segments([], 0.1),
        ValueError, r"need at least one segment"),
    "glue-words-empty": (
        lambda: glue_words(GOLDEN, (), (0,)),
        ValueError, r"v and w must be nonempty admissible words"),
    "glue-words-inadmissible": (
        lambda: glue_words(GOLDEN, (1, 1), (0,)),
        ValueError, r"v and w must be admissible"),
    "load-sft-symbols": (
        lambda: tfio.load_sft({"symbols": ["a"],
                               "transitions": [[1, 1], [1, 1]]}),
        ValueError, r"symbols length does not match transitions"),
    "separated-set-alphabet": (
        lambda: separated_generic_set(FULL3, HALF, 0.1, 100.0, 0.1, 0),
        NotImplementedError,
        r"exact box counting implemented for 2-symbol alphabets"),
    "deviation-psi-width": (
        lambda: deviation_frequency(FULL2, FLOW_HALF, WIDTH2, 0.1, 10.0,
                                    10, 0),
        ValueError, r"deviation_frequency supports width-1 psi"),
    "support-width": (
        lambda: separated_generic_set(FULL2, PAIRS, 0.1, 100.0, 0.1, 0),
        ValueError, r"width-1 base measure required"),
    "birkhoff-potential": (
        lambda: birkhoff(FULL2, {(0,): 0.0}, OrbitSegment(POINT, 1.0)),
        TypeError, r"unsupported potential dict"),
    "entropy-mean-potential": (
        lambda: entropy_and_mean(FLOW_HALF, {(0,): 0.0}),
        TypeError, r"entropy_and_mean needs a cylinder potential"),
    "gibbs-potential": (
        lambda: gibbs_ratio_stats(FULL2, FLOW_HALF, {(0,): 0.0}, 0.1, [1.0],
                                  10, 0),
        TypeError, r"cylinder potential required"),
    "gibbs-t-negative": (
        lambda: gibbs_ratio_stats(FULL2, FLOW_HALF, IND1, 0.1, [-1.0], 10, 0),
        ValueError, r"t_grid must be non-empty with every t positive and "
                    r"finite, got \[-1\.0\]"),
    "gibbs-t-nan": (
        lambda: gibbs_ratio_stats(FULL2, FLOW_HALF, IND1, 0.1,
                                  [1.0, float("nan")], 10, 0),
        ValueError, r"t_grid must be non-empty with every t positive and "
                    r"finite, got \[1\.0, nan\]"),
    "gibbs-t-inf": (
        lambda: gibbs_ratio_stats(FULL2, FLOW_HALF, IND1, 0.1,
                                  [float("inf")], 10, 0),
        ValueError, r"t_grid must be non-empty with every t positive and "
                    r"finite, got \[inf\]"),
    "gibbs-t-empty": (
        lambda: gibbs_ratio_stats(FULL2, FLOW_HALF, IND1, 0.1, [], 10, 0),
        ValueError, r"t_grid must be non-empty with every t positive and "
                    r"finite, got \[\]"),
    "segment-duration": (
        lambda: OrbitSegment(POINT, -1.0),
        ValueError, r"duration must be finite and nonnegative"),
    "dgx-graphs": (
        lambda: d_GX(GEODESIC, OTHER_GEODESIC),
        ValueError, r"geodesics over different graphs"),
    "lift-graphs": (
        lambda: lift_distance(GEODESIC, OTHER_GEODESIC, 0.0),
        ValueError, r"geodesics over different graphs"),
    "lift-t": (
        lambda: lift_distance(GEODESIC, GEODESIC, float("nan")),
        ValueError, r"t must be finite, got nan"),
    "lift-window": (
        lambda: lift_distance(GEODESIC, GEODESIC, 0.0, window=2.5),
        ValueError, r"window must be a positive integer, got 2\.5"),
    "shift-time-t": (
        lambda: GEODESIC.shift_time(float("nan")),
        ValueError, r"t must be finite, got nan"),
    "position-t": (
        lambda: GEODESIC.position(float("inf")),
        ValueError, r"t must be finite, got inf"),
    "flow-t": (
        lambda: FULL2.flow(POINT, float("-inf")),
        ValueError, r"t must be finite, got -inf"),
    "shadows-delta-nan": (
        lambda: FULL2.shadows(POINT, OrbitSegment(POINT, 1.0), float("nan")),
        ValueError, r"delta must be finite, got nan"),
    "shadows-delta-inf": (
        lambda: FULL2.shadows(POINT, OrbitSegment(POINT, 1.0), float("inf")),
        ValueError, r"delta must be finite, got inf"),
    "max-orbit-delta-nan": (
        lambda: FULL2.max_orbit_distance(POINT, OrbitSegment(POINT, 1.0),
                                         float("nan")),
        ValueError, r"delta must be finite, got nan"),
    "max-orbit-delta-inf": (
        lambda: FULL2.max_orbit_distance(POINT, OrbitSegment(POINT, 1.0),
                                         float("inf")),
        ValueError, r"delta must be finite, got inf"),
    "max-orbit-delta": (
        lambda: FULL2.max_orbit_distance(POINT, OrbitSegment(POINT, 1.0),
                                         -0.1),
        ValueError, r"delta must be positive"),
    "dgx-horizon-inf": (
        lambda: d_GX(GEODESIC, GEODESIC, tail_horizon=float("inf")),
        ValueError, r"tail_horizon must be finite, got inf"),
    "dgx-horizon-nan": (
        lambda: d_GX(GEODESIC, GEODESIC, tail_horizon=float("nan")),
        ValueError, r"tail_horizon must be finite, got nan"),
    "point-distance-offset": (
        lambda: ROSE2.point_distance((0, 2), (0, 0)),
        ValueError, r"offset outside edge"),
    "markov-repeated-edge": (
        lambda: MarkovMeasure.from_edges(2, [0, 0, 1], [1, 1, 0],
                                         [0.5, 0.5, 1.0]),
        ValueError, r"kernel entry \(0, 1\) is given twice"),
    "cylinder-key-length": (
        lambda: CylinderPotential(1, {(1, 0): 2.0}),
        ValueError, r"the width-1 potential table has the key \(1, 0\) of "
                    r"length 2"),
    "potential-key-length": (
        lambda: tfio.load_potential({"width": 1, "table": {"10": 2.0}}),
        ValueError, r"potential key '10' reads as the word \(1, 0\) of "
                    r"length 2, not the width 1 \(a key without a comma has "
                    r"one symbol per digit\)"),
    "potential-key-not-a-word": (
        lambda: tfio.load_potential({"width": 1, "table": {"10,x": 2.0}}),
        ValueError, r"potential key '10,x' is not a word of symbol indices"),
}


@pytest.mark.parametrize("check", CHECKS)
def test_input_check_raises_its_message(check):
    call, error, message = CHECKS[check]
    with pytest.raises(error, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("obj", [{"type": "cylinder", "width": 1,
                                  "table": {}},
                                 {"type": "zero"}])
def test_load_potential_zero_forms(obj):
    """An empty width-1 table and the "zero" type both load as phi = 0."""
    phi = tfio.load_potential(obj)
    assert phi.width == 1
    assert [phi.value((s,)) for s in range(3)] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("width, key, word", [
    (1, "10,", (10,)), (1, "7", (7,)), (2, "10", (1, 0)), (2, "1,0", (1, 0)),
    (2, "1,0,", (1, 0)), (2, "12,3", (12, 3))])
def test_load_potential_key_forms(width, key, word):
    """A key with a comma lists its symbols, a trailing comma allowed; a
    key without one has a symbol per digit."""
    phi = tfio.load_potential({"width": width, "table": {key: 0.5}})
    assert phi.table == {word: 0.5}


def test_weak_star_distance_reads_a_flow_measure_on_either_side():
    """A `SuspendedMeasure` as the second argument is read through
    `measure_statistics`, as it is as the first."""
    stats = measure_statistics(FLOW_HALF)
    other = empirical_measure(FULL2, POINT, 5.0)
    assert weak_star_distance(other, FLOW_HALF) == \
        weak_star_distance(other, stats) > 0
