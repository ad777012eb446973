"""Unit tests for the bound calculators and failure models."""

import math

import pytest

from repro.analysis.bounds import (
    RoutingFeasibility,
    adaptive_crossover_n,
    bounded_degree_fault_budget,
    classical_fault_budget,
    det_logn_round_prediction,
    det_sqrt_round_prediction,
    fault_amplification,
    kmrs_query_complexity,
    table1_alpha,
)
from repro.analysis.failure_model import (
    AdaptiveRunModel,
    LineModel,
    SketchModel,
    binomial_tail,
    exposure_per_query,
    poisson_tail,
)


class TestFaultBudgets:
    def test_classical_linear(self):
        assert classical_fault_budget(1000) == 1000

    def test_bounded_degree_quadratic(self):
        # alpha n^2 / 2 shape
        assert bounded_degree_fault_budget(1000, 0.1) == 100 * 1000 // 2

    def test_amplification_grows_with_n(self):
        small = fault_amplification(100, 0.1)
        large = fault_amplification(10_000, 0.1)
        assert large > small * 50  # Θ(alpha n) amplification

    def test_amplification_is_alpha_n_over_two(self):
        assert fault_amplification(1000, 0.1) == pytest.approx(50.0)


class TestRoutingFeasibility:
    def test_feasible_case(self):
        feasibility = RoutingFeasibility(n=128, alpha=1 / 64,
                                         codeword_bits=64, overlap=0.0,
                                         code_distance=0.25)
        assert feasibility.adversary_fraction == pytest.approx(4 / 64)
        assert feasibility.feasible

    def test_infeasible_case(self):
        feasibility = RoutingFeasibility(n=128, alpha=1 / 8,
                                         codeword_bits=64, overlap=0.1,
                                         code_distance=0.25)
        assert not feasibility.feasible

    def test_max_alpha_consistency(self):
        feasibility = RoutingFeasibility(n=128, alpha=0.0, codeword_bits=64,
                                         overlap=0.02, code_distance=0.25)
        boundary = feasibility.max_alpha()
        just_under = RoutingFeasibility(n=128, alpha=boundary * 0.9,
                                        codeword_bits=64, overlap=0.02,
                                        code_distance=0.25)
        assert just_under.feasible


class TestTable1Scaling:
    def test_constant_families(self):
        assert table1_alpha("det-logn", 100) == table1_alpha("det-logn", 10_000)

    def test_sqrt_family(self):
        assert table1_alpha("det-sqrt", 400) == pytest.approx(1 / 20)

    def test_adaptive_is_subpolynomial(self):
        """alpha = exp(-sqrt(log n log log n)) shrinks slower than any
        1/n^eps — the paper's n^{2-o(1)} total-fault claim.  At finite n we
        check eps = 1/2 directly and that alpha * n^eps is increasing (the
        o(1) exponent keeps falling)."""
        n = 2 ** 40
        assert table1_alpha("adaptive", n) > n ** (-0.5)
        growth = [table1_alpha("adaptive", 2 ** e) * (2 ** e) ** 0.5
                  for e in (20, 30, 40)]
        assert growth[0] < growth[1] < growth[2]

    def test_adaptive_matches_kmrs(self):
        n = 2 ** 20
        assert table1_alpha("adaptive", n) == \
            pytest.approx(1 / kmrs_query_complexity(n))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            table1_alpha("nope", 100)


class TestRoundPredictions:
    def test_det_logn(self):
        assert det_logn_round_prediction(64) == 12
        assert det_logn_round_prediction(256) == 16

    def test_det_sqrt_constant(self):
        assert det_sqrt_round_prediction() == 4

    def test_crossover_monotone_in_sketch_size(self):
        alpha_of_n = lambda n: table1_alpha("adaptive", n)
        small = adaptive_crossover_n(100, alpha_of_n)
        large = adaptive_crossover_n(10_000, alpha_of_n)
        assert large >= small


class TestFailureModels:
    def test_poisson_tail_basics(self):
        assert poisson_tail(0.0, 3) == 0.0
        assert poisson_tail(1.0, 0) == pytest.approx(1 - math.exp(-1))

    def test_binomial_tail_exact(self):
        # P(Bin(4, 0.5) > 1) = 11/16
        assert binomial_tail(4, 0.5, 1) == pytest.approx(11 / 16)
        assert binomial_tail(4, 0.0, 0) == 0.0
        assert binomial_tail(4, 1.0, 3) == 1.0

    def test_line_model(self):
        line = LineModel(queries=30, margin=8, per_query=0.08)
        assert 0 < line.failure_probability < 0.05

    def test_sketch_model_amplifies_lines(self):
        line = LineModel(queries=30, margin=8, per_query=0.08)
        sketch = SketchModel(lines=98, line=line)
        assert sketch.failure_probability > line.failure_probability
        assert sketch.failure_probability <= 98 * line.failure_probability

    def test_run_model_expectations(self):
        line = LineModel(queries=30, margin=8, per_query=0.08)
        sketch = SketchModel(lines=98, line=line)
        run = AdaptiveRunModel(n=64, num_parts=2, sketch=sketch)
        assert run.expected_failed_sketches == pytest.approx(
            128 * sketch.failure_probability)

    def test_exposure(self):
        assert exposure_per_query(0.03125) == pytest.approx(0.078125)
        assert exposure_per_query(1.0) == 1.0

    def test_model_predicts_measured_regime(self):
        """Calibration check against the measured adaptive run at n=64,
        alpha=1/32: ~10-30 failed sketches of 128."""
        per_query = exposure_per_query(1 / 32)
        line = LineModel(queries=30, margin=8, per_query=per_query)
        sketch = SketchModel(lines=98, line=line)
        run = AdaptiveRunModel(n=64, num_parts=2, sketch=sketch)
        assert 0.5 <= run.expected_failed_sketches <= 80
