"""Focused unit tests on the adaptive compiler's internal components —
exercising the pieces without paying for full pipeline runs."""

import numpy as np
import pytest

from repro.coding import reed_muller
from repro.core.adaptive import (
    AdaptiveAllToAll,
    AdaptiveParameters,
    _poisson_tail,
    design_ldc_for_sketch,
)
from repro.core.profiles import ProfileError
from repro.sketch.ksparse import KSparseSketch, SketchSpec


class TestPoissonTail:
    def test_zero_mu(self):
        assert _poisson_tail(0.0, 5) == 0.0

    def test_matches_analysis_module(self):
        from repro.analysis.failure_model import poisson_tail
        for mu, threshold in [(1.4, 4), (3.0, 8), (0.5, 0)]:
            assert _poisson_tail(mu, threshold) == pytest.approx(
                poisson_tail(mu, threshold))


class TestNumPartsLayout:
    @pytest.mark.parametrize("n,alpha,expected", [
        (64, 1 / 32, 2),    # floor(alpha n) = 2, divides 64
        (64, 1 / 8, 8),     # floor = 8
        (64, 0.0, 2),       # degenerate -> minimum 2
        (60, 1 / 8, 6),     # floor = 7, largest divisor <= 7 is 6
    ])
    def test_divisor_rounding(self, n, alpha, expected):
        assert AdaptiveAllToAll._num_parts(n, alpha) == expected

    def test_duality(self):
        """num_parts * part_size = n — the S/P partition duality of
        Section 5.2 (|S_i| = alpha n parts of size 1/alpha and vice
        versa)."""
        for n in (32, 64, 128):
            for alpha in (1 / 32, 1 / 16, 1 / 8):
                parts = AdaptiveAllToAll._num_parts(n, alpha)
                assert n % parts == 0


class TestDesigner:
    def test_margin_grows_with_field(self):
        params = AdaptiveParameters()
        small_t = design_ldc_for_sketch(100, 128, 1 / 64, params)
        big_t = design_ldc_for_sketch(600, 128, 1 / 64, params)
        margin = lambda c: (c.query_count - c.degree - 1) // 2
        assert margin(small_t) >= margin(big_t)

    def test_fault_free_accepts_anything_admissible(self):
        params = AdaptiveParameters()
        ldc = design_ldc_for_sketch(400, 64, 0.0, params)
        assert ldc.k * ((ldc.p - 1).bit_length() - 1) >= 400

    def test_hopeless_alpha_rejected(self, monkeypatch):
        params = AdaptiveParameters()
        cache = {}
        monkeypatch.setattr(reed_muller, "_LDC_CACHE", cache)
        with pytest.raises(ProfileError):
            design_ldc_for_sketch(400, 64, 0.2, params)
        # the capacity walk-down rejects many specs; none may pay for an
        # LDC construction
        assert cache == {}

    def test_capacity_walkdown_prefers_larger(self):
        """At generous n/alpha the compiler should keep the preferred
        capacity rather than shrink it."""
        protocol = AdaptiveAllToAll(
            params=AdaptiveParameters(sketch_capacity=3))
        # exercised indirectly: the spec chosen for a fault-free n=64 run
        from repro.core import AllToAllInstance
        from repro.cliquesim import CongestedClique
        instance = AllToAllInstance.random(32, width=1, seed=0)
        net = CongestedClique(32, bandwidth=32)
        protocol.run(instance, net)
        # sketch_bits reflects the realised capacity; must be consistent
        # with SOME capacity in [min, preferred]
        assert protocol.diagnostics["sketch_bits"] > 0


class TestSketchSubtractionAtScale:
    def test_group_cell_correction(self):
        """A miniature Step IV: one group's sketch corrects exactly its own
        corrupted entries and nothing else."""
        n, width = 64, 1
        spec = SketchSpec(capacity=4, max_id=n * n * 2 - 1,
                          max_abs_count=2 * n)
        rng = np.random.default_rng(3)
        group = list(range(0, n, 4))  # P_j
        v = 9
        truth = {u: int(rng.integers(0, 2)) for u in group}
        received = dict(truth)
        corrupted = [group[1], group[5]]
        for u in corrupted:
            received[u] ^= 1

        sk = KSparseSketch(spec, seed=11)
        for u in group:
            sk.add((u * n + v) * 2 + truth[u], 1)
        for u in group:
            sk.add((u * n + v) * 2 + received[u], -1)
        survivors = sk.recover()
        corrections = {e // 2 // n: e % 2 for e, f in survivors.items()
                       if f == 1}
        assert corrections == {u: truth[u] for u in corrupted}
