"""Mobile bounded-faulty-degree Byzantine adversaries (Section 2)."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "base": ("Adversary", "NullAdversary", "RoundOutcome", "RoundView"),
    "batched": ("BatchRoundView", "BatchedAdversary", "BatchedNullAdversary",
                "PerTrialAdversaryBatch", "PerTrialFailure"),
    "budget": ("FaultBudgetViolation", "fault_degrees",
               "greedy_symmetric_selection", "max_faulty_degree",
               "validate_fault_set", "validate_fault_sets"),
    "nonadaptive": ("BatchedNonAdaptiveAdversary", "NonAdaptiveAdversary"),
    "adaptive": ("AdaptiveAdversary", "SlidingWindowAdversary",
                 "TargetedAdaptiveAdversary"),
    "strategies": ("BlockStrategy", "CONTENT_ATTACKS", "NoEdgesStrategy",
                   "RandomRegularStrategy", "RoundRobinMatchingStrategy",
                   "StaticStrategy"),
})
