"""Geodesic flow on metric graphs as a suspension of a non-backtracking
edge shift: specification, Bowen-Walters geometry, thermodynamic formalism,
large deviations, and entropy density of ergodic measures."""

from .sft import (
    Sft,
    WeakSpecificationError,
    is_irreducible,
    min_gap_bound,
    glue_words,
    BiWord,
    is_admissible_word,
)
from .suspension import (
    Roof,
    SuspPoint,
    OrbitSegment,
    GluingResult,
    ClosedOrbit,
    Suspension,
)
from .graph import (
    GraphModelError,
    MetricGraph,
    Geodesic,
    build_edge_sft,
    graph_suspension,
    lift_distance,
    d_GX,
)
from .thermo import (
    NonConvergenceError,
    CylinderPotential,
    MarkovMeasure,
    SuspendedMeasure,
    PressureResult,
    birkhoff,
    pressure,
    equilibrium_state,
    entropy_and_mean,
    gibbs_ratio_stats,
    block_recode,
    random_markov_measure,
    zero_potential,
)
from .ldp import (
    WeakStarConfig,
    EmpiricalMeasure,
    orbit_measure,
    empirical_measure,
    weighted_orbit_measure,
    measure_statistics,
    chain_statistics,
    weak_star_distance,
    rate_function,
    deviation_frequency,
    DeviationResult,
)
from .entropy_density import (
    ApproxTarget,
    SeparatedSet,
    GluedFamily,
    separated_generic_set,
    glue_generic_family,
    ergodic_approximation,
    glue_countable,
    mixture_statistics,
    mixture_entropy,
    ApproximationReport,
    EPS_SEP,
)
from . import io

__version__ = "0.1.0"

__all__ = [
    "Sft", "WeakSpecificationError", "is_irreducible", "min_gap_bound",
    "glue_words", "BiWord", "is_admissible_word",
    "Roof", "SuspPoint", "OrbitSegment", "GluingResult", "ClosedOrbit",
    "Suspension",
    "GraphModelError", "MetricGraph", "Geodesic", "build_edge_sft",
    "graph_suspension", "lift_distance", "d_GX",
    "NonConvergenceError", "CylinderPotential", "MarkovMeasure",
    "SuspendedMeasure", "PressureResult", "birkhoff", "pressure",
    "equilibrium_state", "entropy_and_mean", "gibbs_ratio_stats",
    "block_recode", "random_markov_measure", "zero_potential",
    "WeakStarConfig", "EmpiricalMeasure", "orbit_measure",
    "empirical_measure", "weighted_orbit_measure", "measure_statistics",
    "chain_statistics", "weak_star_distance", "rate_function",
    "deviation_frequency", "DeviationResult",
    "ApproxTarget", "SeparatedSet", "GluedFamily", "separated_generic_set",
    "glue_generic_family", "ergodic_approximation", "glue_countable",
    "mixture_statistics", "mixture_entropy", "ApproximationReport",
    "EPS_SEP",
    "io",
    "__version__",
]
