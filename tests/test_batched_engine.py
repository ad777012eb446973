"""Parity and contract tests for the trial-batched clique engine."""

import numpy as np
import pytest

from repro.adversary import (AdaptiveAdversary, BatchedNonAdaptiveAdversary,
                             BatchedNullAdversary, NonAdaptiveAdversary,
                             NullAdversary, PerTrialAdversaryBatch)
from repro.adversary.budget import FaultBudgetViolation, validate_fault_sets
from repro.cliquesim import BatchedClique, CongestedClique
from repro.utils.rng import make_rng

N = 16
TRIALS = 3
WIDTH = 6


def payload_stack(seed: int, width: int = WIDTH) -> np.ndarray:
    rng = make_rng(seed)
    vals = rng.integers(0, 1 << width, size=(TRIALS, N, N), dtype=np.int64)
    vals[rng.random((TRIALS, N, N)) < 0.2] = -1
    return vals


def assert_engine_parity(batched_adv, serial_adv_factory, rounds=3):
    """Drive the same exchanges through a BatchedClique and per-trial
    CongestedCliques; everything observable must match bit for bit."""
    bc = BatchedClique(N, TRIALS, bandwidth=4, adversary=batched_adv)
    nets = [CongestedClique(N, bandwidth=4, adversary=serial_adv_factory(t))
            for t in range(TRIALS)]
    for r in range(rounds):
        vals = payload_stack(100 + r)
        got_b = bc.exchange(vals, width=WIDTH)
        for t in range(TRIALS):
            got_s = nets[t].exchange(vals[t], width=WIDTH)
            assert np.array_equal(got_b[t], got_s)
    for t in range(TRIALS):
        assert bc.rounds_used == nets[t].rounds_used
        assert int(bc.bits_sent[t]) == nets[t].bits_sent
        assert int(bc.entries_corrupted[t]) == nets[t].entries_corrupted


class TestBatchedCliqueParity:
    def test_fault_free(self):
        assert_engine_parity(None, lambda t: NullAdversary())

    def test_nonadaptive_native_masks(self):
        seeds = [500 + 7 * t for t in range(TRIALS)]
        assert_engine_parity(
            BatchedNonAdaptiveAdversary(1 / 16, seeds),
            lambda t: NonAdaptiveAdversary(1 / 16, seed=seeds[t]))

    def test_per_trial_fallback_wrapper(self):
        seeds = [900 + 11 * t for t in range(TRIALS)]
        assert_engine_parity(
            PerTrialAdversaryBatch(
                [AdaptiveAdversary(1 / 16, seed=s) for s in seeds]),
            lambda t: AdaptiveAdversary(1 / 16, seed=seeds[t]))

    def test_exchange_bits_parity(self):
        rng = make_rng(7)
        bits = rng.integers(0, 2, size=(TRIALS, N, N, 10), dtype=np.uint8)
        present = rng.random((TRIALS, N, N)) < 0.9
        bc = BatchedClique(N, TRIALS, bandwidth=4)
        got_b, dropped_b = bc.exchange_bits(bits, present)
        for t in range(TRIALS):
            net = CongestedClique(N, bandwidth=4)
            got_s, dropped_s = net.exchange_bits(bits[t], present[t])
            assert np.array_equal(got_b[t], got_s)
            assert np.array_equal(dropped_b[t], dropped_s)

    def test_per_trial_dropped_masks_are_independent(self):
        seeds = [123 + t for t in range(TRIALS)]
        bc = BatchedClique(N, TRIALS, bandwidth=4,
                           adversary=BatchedNonAdaptiveAdversary(
                               0.25, seeds, content_attack="drop"))
        vals = payload_stack(42)
        present = vals >= 0
        bits = np.unpackbits(
            vals.clip(min=0).astype(np.uint8)[..., None],
            axis=-1, count=WIDTH, bitorder="little")
        _, dropped = bc.exchange_bits(bits, present)
        assert dropped.shape == (TRIALS, N, N)
        # independent per-trial streams: the drop patterns must differ
        assert not all(np.array_equal(dropped[0], dropped[t])
                       for t in range(1, TRIALS))


class TestValidateFaultSets:
    def test_accepts_within_budget(self):
        edges = np.zeros((TRIALS, N, N), dtype=bool)
        edges[:, 0, 1] = edges[:, 1, 0] = True
        validate_fault_sets(edges, N, 1 / 16)

    def test_rejects_over_budget_naming_trial(self):
        edges = np.zeros((TRIALS, N, N), dtype=bool)
        edges[1, 0, 1:4] = edges[1, 1:4, 0] = True  # degree 3 at node 0
        with pytest.raises(FaultBudgetViolation, match="trial 1"):
            validate_fault_sets(edges, N, 1 / 16)

    def test_rejects_asymmetric_and_diagonal(self):
        edges = np.zeros((TRIALS, N, N), dtype=bool)
        edges[0, 2, 3] = True
        with pytest.raises(FaultBudgetViolation, match="symmetric"):
            validate_fault_sets(edges, N, 0.5)
        edges = np.zeros((TRIALS, N, N), dtype=bool)
        edges[2, 5, 5] = True
        with pytest.raises(FaultBudgetViolation, match="self-loops"):
            validate_fault_sets(edges, N, 0.5)


class TestKeepHistory:
    def test_history_off_by_default(self):
        bc = BatchedClique(N, TRIALS, bandwidth=4)
        bc.exchange(payload_stack(1), width=WIDTH)
        assert not bc.keep_history
        assert all(len(h) == 0 for h in bc.histories)
        assert bc.rounds_used > 0  # counters still advance

    def test_history_opt_in(self):
        bc = BatchedClique(N, TRIALS, bandwidth=4, keep_history=True)
        bc.exchange(payload_stack(1), width=WIDTH)
        assert all(len(h) == bc.rounds_used for h in bc.histories)

    def test_history_forced_by_history_reading_adversary(self):
        adv = BatchedNullAdversary()
        adv.reads_history = True
        bc = BatchedClique(N, TRIALS, bandwidth=4, adversary=adv)
        assert bc.keep_history

    def test_serial_keep_history_flag(self):
        lean = CongestedClique(N, bandwidth=4, keep_history=False)
        full = CongestedClique(N, bandwidth=4)
        vals = payload_stack(3)[0]
        assert np.array_equal(lean.exchange(vals, width=WIDTH),
                              full.exchange(vals, width=WIDTH))
        assert len(lean.history) == 0
        assert len(full.history) == full.rounds_used
        assert lean.bits_sent == full.bits_sent


class TestPerTrialBudget:
    """A wrapped serial adversary is held to the budget it declares once
    its own ``begin_protocol`` has run."""

    def test_wrapped_byzantine_nodes_match_native_masks(self):
        from repro.faults.channels import (BatchedByzantineNodeAdversary,
                                           ByzantineNodeAdversary)
        seeds = [41, 42]
        wrapped = BatchedClique(N, 2, bandwidth=4, adversary=(
            PerTrialAdversaryBatch(
                [ByzantineNodeAdversary(0.125, seed=s) for s in seeds])))
        native = BatchedClique(N, 2, bandwidth=4, adversary=(
            BatchedByzantineNodeAdversary(0.125, seeds)))
        for r in range(3):
            vals = payload_stack(300 + r)[:2]
            assert np.array_equal(wrapped.exchange(vals, width=WIDTH),
                                  native.exchange(vals, width=WIDTH))
        assert wrapped.rounds_used == native.rounds_used
        assert np.array_equal(wrapped.bits_sent, native.bits_sent)
        assert np.array_equal(wrapped.entries_corrupted,
                              native.entries_corrupted)
        assert wrapped.entries_corrupted.min() > 0

    def test_wrapped_nemesis_matches_serial_engine(self):
        from repro.adversary.nemesis import FP23MatchingNemesis
        seeds = [7, 8]
        bc = BatchedClique(N, 2, bandwidth=4, adversary=PerTrialAdversaryBatch(
            [FP23MatchingNemesis(seed=s) for s in seeds]))
        nets = [CongestedClique(N, bandwidth=4,
                                adversary=FP23MatchingNemesis(seed=s))
                for s in seeds]
        for r, label in enumerate(["fp23/direct", "fp23/hop2-0",
                                   "fp23/hop2-1"]):
            vals = payload_stack(400 + r, width=4)[:2]
            got = bc.round(vals, 4, label)
            for t, net in enumerate(nets):
                assert np.array_equal(got[t], net.round(vals[t], 4, label))
        for t, net in enumerate(nets):
            assert int(bc.entries_corrupted[t]) == net.entries_corrupted > 0


class TestSerialAdversaryErrors:
    def test_crash_reaches_the_caller_unchanged(self):
        boom = RuntimeError("boom")

        class Crashing(AdaptiveAdversary):
            def select_edges(self, view):
                raise boom

        net = CongestedClique(N, bandwidth=4,
                              adversary=Crashing(1 / 16, seed=1))
        with pytest.raises(RuntimeError) as info:
            net.exchange(payload_stack(5)[0], width=WIDTH)
        assert info.value is boom

    def test_run_single_error_row_reports_the_adversary_exception(self):
        from repro.experiments.runner import STATUS_ERROR, run_single
        from repro.experiments.spec import TrialSpec

        class Crashing(NonAdaptiveAdversary):
            def select_edges(self, view):
                raise RuntimeError("boom")

        trial = TrialSpec("det-sqrt", "nonadaptive", 16, 1 / 16, width=8,
                          bandwidth=16)
        row, report = run_single(
            trial, adversary_factory=lambda t: Crashing(t.alpha, seed=3))
        assert report is None
        assert row["status"] == STATUS_ERROR
        assert row["reason"] == repr(RuntimeError("boom"))
