"""Unit tests for (r, δ)-cover-free families (Section 4.1 + Appendix A)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coverfree.family import CoverFreeFamily, groups_of
from repro.coverfree.lll import LLLConstructionError, derandomized_cover_free_family
from repro.coverfree.poisson_binomial import (
    poisson_binomial_pmf,
    poisson_binomial_tail,
)
from repro.coverfree.random_construction import (
    CoverFreeConstructionError,
    build_cover_free_family,
    chernoff_failure_bound,
    expected_covered_fraction,
    paper_set_size,
    sample_family,
)
from repro.perf.reference import cover_free_violations_loop
from repro.utils.rng import make_rng


class TestFamilyStructure:
    def test_groups_of(self):
        assert groups_of(100, 10) == (10, 100)
        assert groups_of(105, 10) == (10, 100)  # leftovers ignored

    def test_groups_too_small_raises(self):
        with pytest.raises(ValueError):
            groups_of(5, 10)

    def test_elements_stay_in_groups(self):
        family = sample_family(100, 20, 10, make_rng(1))
        for i in range(20):
            elements = family.set_elements(i)
            assert np.array_equal(elements // 10, np.arange(10))

    def test_rejects_stray_elements(self):
        with pytest.raises(ValueError):
            CoverFreeFamily(ground_size=20, group_size=5,
                            sets=np.array([[0, 3]]))  # 3 not in group 1

    def test_uncovered_fraction_no_others(self):
        family = sample_family(100, 5, 10, make_rng(2))
        assert family.uncovered_fraction(0, []) == 1.0

    def test_uncovered_fraction_identical(self):
        sets = np.array([[0, 5], [0, 5]])
        family = CoverFreeFamily(ground_size=10, group_size=5, sets=sets)
        assert family.uncovered_fraction(0, [1]) == 0.0


class TestViolationsOracle:
    """The array check of every group size returns the per-position loop's
    list, in its order."""

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_loop(self, seed):
        rng = np.random.default_rng(seed)
        set_size, group_size = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        num_sets = int(rng.integers(1, 12))
        family = sample_family(set_size * group_size, num_sets, set_size, rng)
        # group sizes 0-5, lone positions, empty groups and repeated
        # members included
        constraints = [tuple(rng.integers(0, num_sets,
                                          int(rng.integers(0, 6))).tolist())
                       for _ in range(int(rng.integers(0, 8)))]
        constraints += [(), (int(rng.integers(0, num_sets)),)]
        rng.shuffle(constraints)
        delta = float(rng.uniform(0.01, 0.99))
        assert family.violations(constraints, delta) == \
            cover_free_violations_loop(family, constraints, delta)


class TestRandomConstruction:
    def test_paper_set_size(self):
        # Lemma 4.4: L = floor(delta * n / 4k) with delta = 1/50
        assert paper_set_size(10 ** 6, r=0, delta=1 / 50) == 5000

    def test_verified_construction(self):
        rng = make_rng(3)
        constraints = [(0, 1), (2, 3), (1, 2)]
        family = build_cover_free_family(
            ground_size=256, num_sets=4, set_size=8, delta=0.5,
            rng=rng, constraints=constraints)
        assert family.is_cover_free(constraints, 0.5)

    def test_unverified_when_no_constraints(self):
        family = build_cover_free_family(128, 10, 8, 0.25, make_rng(4))
        assert family.num_sets == 10

    def test_impossible_parameters_raise(self):
        rng = make_rng(5)
        # two sets over tiny groups with delta -> 0 cannot avoid overlap
        constraints = [tuple(range(8))]
        with pytest.raises(CoverFreeConstructionError):
            build_cover_free_family(
                ground_size=16, num_sets=8, set_size=8, delta=0.01,
                rng=rng, constraints=constraints, max_attempts=8)

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            build_cover_free_family(64, 2, 4, 1.5, make_rng(0))

    def test_expected_covered_fraction(self):
        assert expected_covered_fraction(0, 10, 8) == 0.0
        assert 0 < expected_covered_fraction(3, 10, 8) < 1

    def test_chernoff_bound_monotone_in_group_size(self):
        loose = chernoff_failure_bound(2, 32, 8, 0.5)
        tight = chernoff_failure_bound(2, 32, 64, 0.5)
        assert tight <= loose

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_randomized_family_usually_cover_free(self, seed):
        rng = make_rng(seed)
        constraints = [(0, 1, 2)]
        family = build_cover_free_family(
            ground_size=512, num_sets=3, set_size=8, delta=0.5,
            rng=rng, constraints=constraints)
        assert family.is_cover_free(constraints, 0.5)


class TestPoissonBinomial:
    def test_matches_binomial(self):
        from math import comb
        p = 0.3
        pmf = poisson_binomial_pmf([p] * 10)
        for j in range(11):
            expected = comb(10, j) * p**j * (1 - p)**(10 - j)
            assert pmf[j] == pytest.approx(expected, rel=1e-9)

    def test_tail(self):
        probs = [0.5] * 4
        assert poisson_binomial_tail(probs, 4) == 0.0
        assert poisson_binomial_tail(probs, -1) == 1.0
        assert poisson_binomial_tail(probs, 1) == pytest.approx(
            11 / 16, rel=1e-9)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            poisson_binomial_pmf([1.5])

    def test_empty(self):
        pmf = poisson_binomial_pmf([])
        assert pmf.size == 1 and pmf[0] == 1.0


class TestLLLDerandomisation:
    def test_small_instance(self):
        constraints = [(0, 1), (1, 2)]
        family = derandomized_cover_free_family(
            ground_size=256, num_sets=3, set_size=8, delta=0.5,
            constraints=constraints)
        assert family.is_cover_free(constraints, 0.5)

    def test_deterministic(self):
        constraints = [(0, 1)]
        a = derandomized_cover_free_family(128, 2, 4, 0.5, constraints)
        b = derandomized_cover_free_family(128, 2, 4, 0.5, constraints)
        assert np.array_equal(a.sets, b.sets)

    def test_too_tight_raises(self):
        constraints = [tuple(range(6))]
        with pytest.raises(LLLConstructionError):
            derandomized_cover_free_family(
                ground_size=12, num_sets=6, set_size=6, delta=0.05,
                constraints=constraints)

    def test_matches_paper_event_structure(self):
        """Each constraint tuple of size s contributes s bad events."""
        constraints = [(0, 1, 2), (3, 4)]
        family = derandomized_cover_free_family(
            ground_size=512, num_sets=5, set_size=8, delta=0.5,
            constraints=constraints)
        assert not family.violations(constraints, 0.5)
