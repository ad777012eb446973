"""Executable forms of the paper's bounds and the failure models used to
size protocol parameters (validated against measurements by the benchmark
harness)."""

from repro.analysis.bounds import (
    RoutingFeasibility,
    adaptive_crossover_n,
    bounded_degree_fault_budget,
    classical_fault_budget,
    det_logn_round_prediction,
    det_sqrt_round_prediction,
    fault_amplification,
    kmrs_query_complexity,
    table1_alpha,
)
from repro.analysis.failure_model import (
    AdaptiveRunModel,
    LineModel,
    SketchModel,
    binomial_tail,
    exposure_per_query,
    poisson_tail,
)

__all__ = [
    "RoutingFeasibility",
    "adaptive_crossover_n",
    "bounded_degree_fault_budget",
    "classical_fault_budget",
    "det_logn_round_prediction",
    "det_sqrt_round_prediction",
    "fault_amplification",
    "kmrs_query_complexity",
    "table1_alpha",
    "AdaptiveRunModel",
    "LineModel",
    "SketchModel",
    "binomial_tail",
    "exposure_per_query",
    "poisson_tail",
]
