"""(r, δ)-cover-free families (Section 4.1 + Appendix A)."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "family": ("CoverFreeFamily", "groups_of"),
    "lll": ("LLLConstructionError", "derandomized_cover_free_family"),
    "poisson_binomial": ("poisson_binomial_pmf", "poisson_binomial_tail"),
    "random_construction": ("CoverFreeConstructionError",
                            "build_cover_free_family",
                            "chernoff_failure_bound",
                            "expected_covered_fraction", "paper_set_size",
                            "sample_family"),
})
