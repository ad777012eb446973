"""Protocol parameter profiles.

The paper's constants (α <= 1/(8·10^4), δ = 1/50, codeword length
L = floor(δ n / 4k)) only produce non-degenerate codewords at n in the
millions.  A :class:`ProtocolProfile` keeps the *formulas and invariants* of
the analysis while making the constants configurable, and
:meth:`ProtocolProfile.check_routing` re-verifies the distance inequality of
Lemma 4.5 — ``(corruption budget over both routing rounds) + (cover-free
overlap) < correctable radius`` — at construction time, so a configuration
that voids the proof-backed guarantee raises :class:`ProfileError` instead
of silently mis-decoding.

Two profiles ship:

* ``PAPER``      — the published constants, for documentation and for the
                   validation arithmetic tests;
* ``SIMULATION`` — the same structure with constants sized for n = 64..1024.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adversary.budget import max_faulty_degree
from repro.coding.interfaces import BinaryCode
from repro.coding.linear import best_effort_linear_code


class ProfileError(Exception):
    """Raised when the profile cannot honour the analysis' inequalities."""


@dataclass(frozen=True)
class ProtocolProfile:
    """Constants shared by the routing layer and the four compilers."""

    name: str
    #: cover-free overlap bound δ (Section 4.2 sets δ = 1/50)
    delta: float
    #: target rate of the routing code (paper: Justesen at τ <= 1/200)
    code_rate: float
    #: routing codewords must correct this many *extra* errors beyond the
    #: adversary's two-round budget (slack for the overlap in cover-free mode)
    safety_errors: int = 0
    #: smallest codeword the concatenated construction supports
    min_concat_bits: int = 24
    #: deterministic seed for public code/cover-free constructions (all
    #: nodes derive identical structures from it — public knowledge)
    construction_seed: int = 2025

    # -- codes ---------------------------------------------------------------
    def routing_code(self, codeword_bits: int) -> BinaryCode:
        """The code used to spread one super-message over a node set."""
        if codeword_bits >= self.min_concat_bits:
            from repro.coding.justesen import make_justesen_code
            return make_justesen_code(codeword_bits, self.code_rate,
                                      seed=self.construction_seed)
        k = max(1, min(6, int(codeword_bits * self.code_rate)))
        return best_effort_linear_code(k, codeword_bits,
                                       seed=self.construction_seed)

    def routing_code_at_rate(self, codeword_bits: int, rate: float) -> BinaryCode:
        if codeword_bits >= self.min_concat_bits:
            from repro.coding.justesen import make_justesen_code
            return make_justesen_code(codeword_bits, rate,
                                      seed=self.construction_seed)
        k = max(1, min(6, int(codeword_bits * rate)))
        return best_effort_linear_code(k, codeword_bits,
                                       seed=self.construction_seed)

    def select_routing_code(self, n: int, alpha: float):
        """Pick (codeword length L, code) so the code corrects the full
        two-round adversarial budget ``2 * floor(alpha * n)`` plus the
        safety slack.

        Prefers short codewords (more blocks per round, fewer batches) and
        the profile's nominal rate; lowers the rate before growing L.
        Raises :class:`ProfileError` when even L = n at the lowest rate is
        insufficient — alpha is simply too large for this n, the simulation
        analogue of the paper's alpha <= 1/(8*10^4) precondition.
        """
        budget = 2 * max_faulty_degree(n, alpha) + self.safety_errors
        lengths = sorted({max(8, n // 16), max(8, n // 8), max(8, n // 4),
                          max(8, n // 2), n})
        rates = (self.code_rate, self.code_rate / 2, self.code_rate / 4)
        for length in lengths:
            if length > n:
                continue
            for rate in rates:
                try:
                    code = self.routing_code_at_rate(length, rate)
                except ValueError:
                    continue
                if code.max_correctable_errors() >= budget and code.k >= 1:
                    return length, code
        raise ProfileError(
            f"profile {self.name!r}: no codeword length <= n={n} corrects "
            f"the 2*floor(alpha*n)+{self.safety_errors}={budget} adversarial "
            f"errors at alpha={alpha}")

    def choose_codeword_length(self, n: int, alpha: float) -> int:
        """Length component of :meth:`select_routing_code`."""
        return self.select_routing_code(n, alpha)[0]

    # -- the Lemma 4.5 inequality ---------------------------------------------
    def check_routing(self, n: int, alpha: float, codeword_bits: int,
                      overlap: float = 0.0) -> None:
        """Verify  2*overlap + 2*floor(alpha n)/L  <  delta_C / 2.

        ``overlap`` is the realised cover-free overlap (0 in blocks mode).
        Mirrors Lemma 4.5(a): (16/δ)αk + 2δ < δ_C/2 with the realised
        quantities substituted for the worst-case terms.
        """
        code = self.routing_code(codeword_bits)
        adversary_fraction = 2 * max_faulty_degree(n, alpha) / codeword_bits
        loss = 2 * overlap + adversary_fraction
        if loss >= code.relative_distance / 2:
            raise ProfileError(
                f"profile {self.name!r}: loss {loss:.4f} (overlap {overlap:.4f}, "
                f"adversary {adversary_fraction:.4f}) >= delta_C/2 = "
                f"{code.relative_distance / 2:.4f} at n={n}, alpha={alpha}, "
                f"L={codeword_bits}")

    # -- paper formulas (kept for the arithmetic fidelity tests) --------------
    def paper_set_size(self, n: int, k: int) -> int:
        """L = floor(delta * n / (4k)) as in Lemma 4.4."""
        return int(self.delta * n / (4 * k))

    def paper_inequality_holds(self, alpha: float, k: int,
                               code_distance: float) -> bool:
        """Lemma 4.5(a): (16/delta) * alpha * k + 2*delta < delta_C / 2."""
        return (16.0 / self.delta) * alpha * k + 2 * self.delta \
            < code_distance / 2


#: the published constants (Theorem 4.1: alpha <= 1/(8*10^4), delta = 1/50,
#: Justesen rate <= 1/200 with distance > 1/10)
PAPER = ProtocolProfile(name="paper", delta=1.0 / 50, code_rate=1.0 / 200)

#: constants sized for simulations at n = 64..1024
SIMULATION = ProtocolProfile(name="simulation", delta=1.0 / 8,
                             code_rate=0.25, safety_errors=1)


def paper_alpha_bound() -> float:
    """The alpha <= 1/(8*10^4) bound of Theorem 4.1."""
    return 1.0 / (8 * 10 ** 4)
