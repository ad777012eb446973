"""k-wise independent hashing (Lemma 2.5) and concentration bounds."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "kwise": ("KWiseHash", "KWiseHashFamily", "corollary_2_7_threshold",
              "kwise_tail_bound"),
})
