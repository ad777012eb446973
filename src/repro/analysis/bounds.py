"""Closed-form calculators for the paper's bounds.

These turn the inequalities of Sections 4–6 into executable predictions the
benchmarks compare against measurements:

* fault-volume comparison (classical Θ(n) vs bounded-degree Θ(αn²));
* routing feasibility: the Lemma 4.5 budget at given (n, α, L, δ_C);
* Table 1's α as a function of n for each protocol family;
* the simulation-vs-asymptotic crossover of the adaptive compiler (where
  the sketch overhead t starts paying for itself).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.adversary.budget import max_faulty_degree


def classical_fault_budget(n: int, c: float = 1.0) -> int:
    """Total corrupted edges per round in the classical model: Θ(n)."""
    return int(c * n)


def bounded_degree_fault_budget(n: int, alpha: float) -> int:
    """Total corrupted edges per round under deg(F) <= alpha*n: up to
    floor(alpha n) * n / 2."""
    return max_faulty_degree(n, alpha) * n // 2


def fault_amplification(n: int, alpha: float, c: float = 1.0) -> float:
    """'Almost linearly more faults': the ratio of the two budgets, Θ(αn)."""
    classical = classical_fault_budget(n, c)
    if classical == 0:
        return float("inf")
    return bounded_degree_fault_budget(n, alpha) / classical


@dataclass(frozen=True)
class RoutingFeasibility:
    """The Lemma 4.5/4.6 decoding budget at concrete parameters."""

    n: int
    alpha: float
    codeword_bits: int
    overlap: float
    code_distance: float

    @property
    def adversary_fraction(self) -> float:
        """Corrupted positions over the two routing rounds."""
        return 2 * max_faulty_degree(self.n, self.alpha) / self.codeword_bits

    @property
    def total_loss(self) -> float:
        return 2 * self.overlap + self.adversary_fraction

    @property
    def feasible(self) -> bool:
        """Hamm(~C, C) < delta_C * |C| / 2 (Lemma 4.6)."""
        return self.total_loss < self.code_distance / 2

    def max_alpha(self) -> float:
        """Largest alpha this configuration decodes (all else fixed)."""
        slack = self.code_distance / 2 - 2 * self.overlap
        if slack <= 0:
            return 0.0
        return slack * self.codeword_bits / (2 * self.n)


def table1_alpha(protocol: str, n: int, c: float = 1.0) -> float:
    """Table 1's fault-fraction scaling per protocol family."""
    if protocol in ("nonadaptive", "det-logn"):
        return c  # Θ(1)
    if protocol == "det-sqrt":
        return c / math.sqrt(n)  # Θ(1/sqrt n)
    if protocol == "adaptive":
        # alpha = exp(-sqrt(log n log log n)) (Theorem 1.3)
        log_n = math.log(max(n, 3))
        return c * math.exp(-math.sqrt(log_n * math.log(log_n)))
    raise ValueError(f"unknown protocol family {protocol!r}")


def kmrs_query_complexity(n: int) -> float:
    """q = exp(sqrt(log n log log n)) of Lemma 2.2 — the quantity that
    determines Theorem 1.3's alpha."""
    log_n = math.log(max(n, 3))
    return math.exp(math.sqrt(log_n * math.log(log_n)))


def adaptive_crossover_n(sketch_bits: int, alpha_of_n, rate: float = 0.5,
                         n_max: int = 2 ** 40) -> int:
    """Smallest n at which the adaptive compiler's concentration step fits
    without extra rounds: the group's sketch string (n * t bits) must fit in
    its 1/alpha leaders holding ~rate*n bits each, i.e.
    ``t <= rate / alpha(n)``.  Below this n the sketch machinery costs more
    bandwidth than resending messages outright — which is why
    simulation-scale round counts carry large constants.
    """
    n = 4
    while n < n_max:
        alpha = alpha_of_n(n)
        if alpha > 0 and sketch_bits <= rate / alpha:
            return n
        n *= 2
    return n_max


def det_logn_round_prediction(n: int, rounds_per_iteration: int = 2) -> int:
    """Theorem 1.4: log2(n) iterations, a constant number of routing rounds
    each."""
    return rounds_per_iteration * (n.bit_length() - 1)


def det_sqrt_round_prediction(rounds_per_step: int = 2) -> int:
    """Theorem 1.5: two routing steps, O(1) rounds each."""
    return 2 * rounds_per_step
