"""Core protocols: super-message routing, the four AllToAllComm protocols
of Table 1, and the general round-by-round compiler."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "adaptive": ("AdaptiveAllToAll", "AdaptiveParameters"),
    "applications": ("ConsensusReport", "resilient_consensus",
                     "resilient_gossip_sum"),
    "reduction": ("ReductionReport", "covering_subsets", "solve_any_n"),
    "alltoall": ("PROTOCOLS", "make_protocol", "run_protocol", "success_rate"),
    "cc_programs": ("CongestedCliqueProgram", "DEMO_PROGRAMS", "IterativeMax",
                    "MatrixTranspose", "RotationGossip"),
    "compiler": ("CompilationReport", "compile_and_run"),
    "det_logn": ("DetLogAllToAll",),
    "det_sqrt": ("DetSqrtAllToAll",),
    "messages": ("AllToAllInstance", "ProtocolReport", "verify_beliefs"),
    "nonadaptive": ("NonAdaptiveAllToAll",),
    "profiles": ("PAPER", "ProfileError", "ProtocolProfile", "SIMULATION",
                 "paper_alpha_bound"),
    "protocol": ("AllToAllProtocol", "pack_block", "unpack_block"),
    "routing": ("RoutingResult", "SuperMessage", "SuperMessageRouter",
                "broadcast"),
})
