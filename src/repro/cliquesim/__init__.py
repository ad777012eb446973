"""Congested Clique simulator (Section 2's communication model)."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "batched": ("BatchedClique",),
    "network": ("BandwidthViolation", "CongestedClique"),
    "topology": ("balanced_random_partition", "consecutive_segments", "flip",
                 "partition_members", "prefix_class", "sqrt_segments",
                 "suffix_class"),
})
