"""k-wise independent hash families (Definition 5, Lemma 2.5).

The classical construction: a uniformly random polynomial of degree < k over
a prime field GF(p) with p >= domain size, reduced modulo the range size.
Sampling uses O(k log p) random bits, matching Lemma 2.5.  The mod-range
reduction introduces the usual O(p_range/p) non-uniformity; we pick ``p`` at
least ``2**16`` times the range so the bias is negligible at simulation
scale.

Also provides the tail bounds of Lemma 2.6 / Corollary 2.7 in executable
form (used by tests to check the concentration the partition step of the
adaptive compiler relies on).
"""

from __future__ import annotations

import math

import numpy as np

from repro.fields.gfp import next_prime


class KWiseHash:
    """One sampled function h: [domain) -> [range_size)."""

    def __init__(self, coefficients: np.ndarray, prime: int, range_size: int):
        self.coefficients = np.asarray(coefficients, dtype=np.int64)
        self.prime = prime
        self.range_size = range_size

    def __call__(self, xs) -> np.ndarray:
        # a product of two residues wraps int64 once the prime passes
        # 2**31.5, so from 2**31 on the polynomial runs in Python ints
        dtype = np.int64 if self.prime < 1 << 31 else object
        xs_arr = np.atleast_1d(np.asarray(xs, dtype=dtype)) % self.prime
        acc = np.zeros_like(xs_arr)
        for c in self.coefficients[::-1]:
            acc = (acc * xs_arr + int(c)) % self.prime
        result = (acc % self.range_size).astype(np.int64, copy=False)
        if np.isscalar(xs) or np.asarray(xs).ndim == 0:
            return int(result[0])
        return result


class KWiseHashFamily:
    """Family of k-wise independent functions [domain) -> [range_size)."""

    def __init__(self, k: int, domain_size: int, range_size: int):
        if k < 1 or domain_size < 1 or range_size < 1:
            raise ValueError("k, domain_size and range_size must be positive")
        self.k = k
        self.domain_size = domain_size
        self.range_size = range_size
        self.prime = next_prime(max(domain_size, range_size << 16, 1 << 20))

    def sample(self, rng: np.random.Generator) -> KWiseHash:
        coefficients = rng.integers(0, self.prime, size=self.k, dtype=np.int64)
        return KWiseHash(coefficients, self.prime, self.range_size)

    def random_bits_used(self) -> int:
        """O(k log p) random bits, per Lemma 2.5."""
        return self.k * self.prime.bit_length()


def kwise_tail_bound(k: int, mu: float, delta: float) -> float:
    """The Bellare–Rompel bound of Lemma 2.6:
    Pr(|X - mu| >= delta) <= 8 * ((k*mu + k^2) / delta^2)^(k/2)."""
    if delta <= 0:
        return 1.0
    base = (k * mu + k * k) / (delta * delta)
    return min(1.0, 8.0 * base ** (k / 2))


def corollary_2_7_threshold(m: int, c: float = 1.0) -> int:
    """The k = ceil(c' log m) used by Corollary 2.7 with c' = 100 log(c+1)
    capped to stay practical; returns the independence parameter."""
    c_prime = max(2.0, 100.0 * math.log(c + 1.0))
    return max(4, int(math.ceil(min(c_prime, 8.0) * math.log(max(m, 2)))))
