"""Unit tests for k-wise independent hashing (Lemma 2.5 / 2.6)."""

import numpy as np
import pytest

from repro.hashing.kwise import (
    KWiseHashFamily,
    corollary_2_7_threshold,
    kwise_tail_bound,
)
from repro.utils.rng import make_rng


class TestFamily:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            KWiseHashFamily(0, 10, 10)

    def test_range(self):
        family = KWiseHashFamily(4, 1000, 7)
        h = family.sample(make_rng(3))
        values = h(np.arange(1000))
        assert values.min() >= 0 and values.max() < 7

    def test_deterministic_given_seed(self):
        family = KWiseHashFamily(4, 1000, 16)
        a = family.sample(make_rng(5))(np.arange(100))
        b = family.sample(make_rng(5))(np.arange(100))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        family = KWiseHashFamily(4, 1000, 16)
        a = family.sample(make_rng(5))(np.arange(100))
        b = family.sample(make_rng(6))(np.arange(100))
        assert not np.array_equal(a, b)

    def test_scalar_call(self):
        family = KWiseHashFamily(2, 100, 10)
        h = family.sample(make_rng(1))
        assert isinstance(h(5), int)

    def test_rough_uniformity(self):
        family = KWiseHashFamily(8, 10_000, 4)
        h = family.sample(make_rng(9))
        values = h(np.arange(10_000))
        counts = np.bincount(values, minlength=4)
        assert counts.min() > 2000 and counts.max() < 3000

    def test_random_bits_accounting(self):
        family = KWiseHashFamily(5, 100, 10)
        assert family.random_bits_used() == 5 * family.prime.bit_length()

    def test_polynomial_is_exact_at_a_61_bit_prime(self):
        """The adaptive compiler's sketch universe at n=32, width 50 takes a
        61-bit prime, past which int64 products of residues wrap; the hash
        must still be ((c1 * x + c0) mod p) mod range."""
        family = KWiseHashFamily(2, 1 << 60, 8)
        prime = family.prime
        assert prime == 1152921504606847009
        xs = [0, 1, (1 << 31) + 11, (1 << 59) + 7, (1 << 60) - 1]
        xs += make_rng(8).integers(0, 1 << 60, size=50).tolist()
        for seed in range(4):
            h = family.sample(make_rng(seed))
            c0, c1 = (int(c) for c in h.coefficients)
            expected = [(c1 * x + c0) % prime % 8 for x in xs]
            assert [h(x) for x in xs] == expected
            assert h(np.array(xs, dtype=np.int64)).tolist() == expected


class TestBounds:
    def test_tail_bound_in_unit_interval(self):
        assert 0 <= kwise_tail_bound(4, 100, 50) <= 1

    def test_tail_bound_decreasing_in_delta(self):
        b1 = kwise_tail_bound(4, 100, 50)
        b2 = kwise_tail_bound(4, 100, 200)
        assert b2 <= b1

    def test_tail_bound_degenerate(self):
        assert kwise_tail_bound(4, 100, 0) == 1.0

    def test_corollary_threshold_grows_with_m(self):
        assert corollary_2_7_threshold(2 ** 20) >= corollary_2_7_threshold(16)

    def test_empirical_concentration(self):
        """Balls in bins via a Theta(log m)-wise hash concentrates as the
        lemma promises (the quantitative heart of Lemma 5.6)."""
        m = 2048
        bins = 64
        k = corollary_2_7_threshold(m)
        family = KWiseHashFamily(k, m, bins)
        h = family.sample(make_rng(17))
        counts = np.bincount(h(np.arange(m)), minlength=bins)
        mean = m / bins
        assert counts.max() < 2.5 * mean
        assert counts.min() > mean / 3
