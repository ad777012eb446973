"""Finite-field arithmetic substrates: GF(p) and GF(2^m)."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "gfp": ("PrimeField", "is_prime", "next_prime"),
    "gf2m": ("GF2m",),
})
