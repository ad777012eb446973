"""Shared utilities: bit vectors and deterministic randomness."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "bits": ("as_bits", "bits_from_int", "concat_bits", "hamming_distance",
             "int_from_bits", "pad_bits", "random_bits", "split_bits"),
    "rng": ("derive", "derive_seed", "fresh_seed", "make_rng"),
})
