"""Parity and contract tests for the trial-batched clique engine."""

import numpy as np
import pytest

from repro.adversary import (AdaptiveAdversary, BatchedNonAdaptiveAdversary,
                             BatchedNullAdversary, NonAdaptiveAdversary,
                             NullAdversary, PerTrialAdversaryBatch)
from repro.adversary.budget import FaultBudgetViolation, validate_fault_sets
from repro.cliquesim import BatchedClique, CongestedClique
from repro.obs import tracing
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


class TestFaultFreeExchangeWords:
    """A fault-free ``exchange_words`` books its chunk rounds and cuts the
    payload to ``width`` bits without staging them; it must deliver, count,
    record and trace exactly what the staged chunk rounds do (an engine
    recording full history still stages them)."""

    @staticmethod
    def run(staged, words, present, width, bandwidth, keep_history,
            observed):
        bc = BatchedClique(N, TRIALS, bandwidth=bandwidth,
                           keep_history=keep_history)
        bc.record_full_history = staged
        with tracing.trace() as tracer:
            if not observed:
                tracing.uninstall()
            got = bc.exchange_words(words, present, width, label="x")
        rounds = [[(r.index, r.width, r.bits, r.label, r.corrupted_entries)
                   for r in history] for history in bc.histories]
        # spans time the code paths, which differ by design
        events = [{k: v for k, v in event.items() if k != "t"}
                  for event in tracer.events[1:] if event["kind"] != "span"]
        return (got, bc.rounds_used, bc.bits_sent, bc.entries_corrupted,
                rounds, events, tracer.snapshot()["counters"])

    @pytest.mark.parametrize("width,bandwidth,extra", [
        (60, 8, 0), (6, 4, 0), (1, 1, 0), (64, 62, 0), (64, 7, 1),
        (130, 32, 0), (130, 31, 2), (200, 62, 0),
    ])
    @pytest.mark.parametrize("keep_history,observed", [
        (False, False), (True, False), (False, True), (True, True)])
    def test_matches_staged_chunk_rounds(self, width, bandwidth, extra,
                                         keep_history, observed):
        rng = make_rng(width * 100 + bandwidth)
        count = -(-width // 64) + extra
        words = rng.integers(0, np.iinfo(np.int64).max, size=(
            TRIALS, N, N, count), dtype=np.int64).astype(np.uint64)
        words ^= rng.integers(0, 2, size=words.shape).astype(np.uint64) << 63
        present = rng.random((TRIALS, N, N)) < 0.8
        args = (words, present, width, bandwidth, keep_history, observed)
        fast = self.run(False, *args)
        staged = self.run(True, *args)
        (got_f, dropped_f), *rest_f = fast
        (got_s, dropped_s), *rest_s = staged
        assert np.array_equal(got_f, got_s)
        assert np.array_equal(dropped_f, dropped_s) and not dropped_f.any()
        for a, b in zip(rest_f, rest_s):
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) \
                else a == b


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

    def test_run_single_error_row_reports_the_adversary_exception(
            self, monkeypatch):
        from repro.experiments import vmap
        from repro.experiments.runner import STATUS_ERROR, run_single
        from repro.experiments.spec import TrialSpec

        class Crashing(AdaptiveAdversary):
            def select_edges(self, view):
                raise RuntimeError("boom")

        monkeypatch.setattr(
            vmap, "make_batched_adversary",
            lambda kind, alpha, seeds: PerTrialAdversaryBatch(
                [Crashing(alpha, seed=3) for _ in seeds]))
        trial = TrialSpec("det-sqrt", "nonadaptive", 16, 1 / 16, width=8,
                          bandwidth=16)
        row = run_single(trial)
        assert row["status"] == STATUS_ERROR
        assert row["reason"] == repr(RuntimeError("boom"))
