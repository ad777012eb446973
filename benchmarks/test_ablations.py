"""E11 — ablations of the simulator's design choices.

(a) *relay-set construction*: the deterministic disjoint-block schedule
    (zero overlap) vs the paper's randomized cover-free sets (bounded
    overlap) — both deliver, blocks mode with fewer wasted positions;
(b) *error-correcting code*: the concatenated Justesen-like code vs a
    plain repetition code at matched codeword length — the concatenated
    code tolerates concentrated errors that defeat repetition's per-bit
    majority when the adversary focuses flips;
(c) *sketch capacity*: sweep the sparse-recovery capacity against the
    number of corruptions per group — recovery fails exactly when the
    support exceeds the capacity (the Lemma 2.3 boundary);
(d) *mobile vs static* fault sets at identical per-round budgets.
"""

import numpy as np
import pytest

from repro.adversary import (
    AdaptiveAdversary,
    NonAdaptiveAdversary,
    StaticStrategy,
)
from repro.cliquesim import CongestedClique
from repro.coding.justesen import make_justesen_code
from repro.coding.repetition import RepetitionCode
from repro.core import AllToAllInstance, run_protocol
from repro.core.det_sqrt import DetSqrtAllToAll
from repro.core.routing import SuperMessage, SuperMessageRouter
from repro.sketch.ksparse import KSparseSketch, SketchRecoveryError, SketchSpec
from repro.utils.rng import make_rng


def test_blocks_vs_coverfree(benchmark, table_printer):
    n = 128

    def run_mode(mode):
        rng = make_rng(41)
        msgs = [SuperMessage.make(u, 0,
                                  rng.integers(0, 2, 4).astype(np.uint8),
                                  [(u + 1) % n]) for u in range(n)]
        net = CongestedClique(n, bandwidth=8,
                              adversary=NonAdaptiveAdversary(1 / n, seed=42))
        router = SuperMessageRouter(net, mode=mode)
        result = router.route(msgs)
        delivered = sum(
            np.array_equal(result.received((u + 1) % n, u, 0),
                           np.array(m.bits, dtype=np.uint8))
            for u, m in enumerate(msgs))
        return delivered, result.rounds, result.codeword_bits

    def sweep():
        return {mode: run_mode(mode) for mode in ("blocks", "coverfree")}

    outcome = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table_printer(
        "E11a relay-set construction: blocks vs cover-free (n=128)",
        f"{'mode':>10} {'delivered':>10} {'rounds':>7} {'codeword':>9}",
        [f"{mode:>10} {d:>9}/{128} {r:>7} {c:>9}"
         for mode, (d, r, c) in outcome.items()])
    assert outcome["blocks"][0] == 128
    assert outcome["coverfree"][0] >= int(0.95 * 128)


def test_code_ablation_concentrated_errors(benchmark, table_printer):
    """Same length, same budget of flips — concentrated on a contiguous
    window, the adversarial shape two routing rounds produce."""

    def measure():
        length = 64
        concat = make_justesen_code(length, 0.25)
        repetition = RepetitionCode(concat.k, length // concat.k)
        rng = make_rng(43)
        wins = {"concatenated": 0, "repetition": 0}
        trials = 40
        budget = getattr(concat, "base", concat).guaranteed_correctable_bits()
        for _ in range(trials):
            msg = rng.integers(0, 2, concat.k).astype(np.uint8)
            start = int(rng.integers(0, length - budget))
            for label, code in (("concatenated", concat),
                                ("repetition", repetition)):
                word = code.encode(msg)
                word[start:start + budget] ^= 1
                try:
                    ok = np.array_equal(code.decode(word), msg)
                except Exception:
                    ok = False
                wins[label] += ok
        return wins, trials, budget

    wins, trials, budget = benchmark.pedantic(measure, rounds=1, iterations=1)
    table_printer(
        f"E11b code ablation: {budget} contiguous flips on 64-bit codewords",
        f"{'code':>14} {'decoded':>8} / {trials}",
        [f"{label:>14} {count:>8} / {trials}"
         for label, count in wins.items()])
    assert wins["concatenated"] == trials
    assert wins["repetition"] <= wins["concatenated"]


def test_sketch_capacity_boundary(benchmark, table_printer):
    def sweep():
        rows = []
        for capacity in (2, 4, 8):
            spec = SketchSpec(capacity=capacity, max_id=2 ** 16,
                              max_abs_count=64)
            successes = 0
            trials = 30
            rng = make_rng(44)
            for trial in range(trials):
                support = capacity + int(rng.integers(-1, 2))  # around k
                sketch = KSparseSketch(spec, seed=trial)
                truth = {}
                for element in rng.choice(2 ** 16, support, replace=False):
                    truth[int(element)] = 1
                    sketch.add(int(element), 1)
                try:
                    successes += sketch.recover() == truth
                except SketchRecoveryError:
                    pass
            rows.append((capacity, successes, trials, spec.total_bits))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table_printer(
        "E11c sketch capacity vs recovery (support ~ capacity)",
        f"{'capacity':>9} {'recovered':>10} {'t (bits)':>9}",
        [f"{c:>9} {s:>7}/{t} {bits:>9}" for c, s, t, bits in rows])
    # larger capacity -> more headroom -> at least as reliable
    assert rows[-1][1] >= rows[0][1]


def test_mobile_vs_static(benchmark, table_printer):
    """Same per-round budget; the mobile adversary corrupts fresh edges
    every round (Θ(rounds * alpha * n^2) distinct edges in total) and the
    protocols still deliver — the mobility the model is named after."""
    n = 64

    def sweep():
        instance = AllToAllInstance.random(n, width=1, seed=45)
        static = run_protocol(
            DetSqrtAllToAll(), instance,
            NonAdaptiveAdversary(1 / 32, StaticStrategy(), seed=46),
            bandwidth=16, seed=47)
        mobile = run_protocol(
            DetSqrtAllToAll(), instance, AdaptiveAdversary(1 / 32, seed=48),
            bandwidth=16, seed=49)
        return static, mobile

    static, mobile = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table_printer(
        "E11d mobile vs static fault sets (det-sqrt, n=64, alpha=1/32)",
        f"{'adversary':>10} {'accuracy':>9} {'transit corruptions':>20}",
        [f"{'static':>10} {static.accuracy:>9.4%} "
         f"{static.entries_corrupted_in_transit:>20}",
         f"{'mobile':>10} {mobile.accuracy:>9.4%} "
         f"{mobile.entries_corrupted_in_transit:>20}"])
    assert static.perfect and mobile.perfect
