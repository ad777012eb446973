"""Crash-tolerant campaign execution (`repro.faults.resilience`).

The acceptance contract: a campaign killed mid-run (SIGKILL, no cleanup)
resumes to the exact same row set as an undisturbed run, under both the
serial and vmap backends; chaos-injected timeouts heal through retries
into bit-identical rows; a torn final store line is quarantined and its
trial re-runs; and a per-trial adversary crash inside a batched cell
degrades only that trial, with the reason recorded on its row.
"""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.experiments import TrialStore, free_grid, run_campaign
from repro.experiments.runner import STATUS_ERROR
from repro.faults import (CHAOS_TIMEOUT_ENV, ResiliencePolicy, TrialTimeout,
                          chaos_timeout_fraction, trial_alarm)

#: fields that legitimately differ between executions of the same trial
BOOKKEEPING_FIELDS = ("wall_seconds", "recorded_unix", "attempts", "fallback")


def spec_small(name, replicates=6, n=16):
    return free_grid(name=name, protocols=("nonadaptive",),
                     adversaries=("iid-erase",), ns=(n,), alphas=(0.09,),
                     widths=(8,), replicates=replicates)


def digest(rows):
    clean = []
    for row in sorted(rows, key=lambda r: r["hash"]):
        row = {k: v for k, v in row.items() if k not in BOOKKEEPING_FIELDS}
        clean.append(json.dumps(row, sort_keys=True))
    return "\n".join(clean)


class TestPolicy:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(timeout_seconds=0)
        with pytest.raises(ValueError):
            ResiliencePolicy(retries=-1)
        assert not ResiliencePolicy().active
        assert ResiliencePolicy(retries=1).active
        assert ResiliencePolicy(timeout_seconds=5).active

    def test_trial_alarm_fires(self):
        with pytest.raises(TrialTimeout):
            with trial_alarm(0.05):
                time.sleep(2.0)

    def test_trial_alarm_none_is_noop(self):
        with trial_alarm(None):
            pass

    @pytest.mark.parametrize("raw", ["O.4", "-0.1", "1.5", "nan"])
    def test_malformed_chaos_fraction_raises(self, monkeypatch, raw):
        # a typo must not turn chaos off (or on for every trial) silently
        monkeypatch.setenv(CHAOS_TIMEOUT_ENV, raw)
        with pytest.raises(ValueError, match=CHAOS_TIMEOUT_ENV) as info:
            chaos_timeout_fraction()
        assert repr(raw) in str(info.value)


class TestChaosRetries:
    @pytest.fixture(autouse=True)
    def chaos_env(self, monkeypatch):
        monkeypatch.setenv(CHAOS_TIMEOUT_ENV, "0.4")

    @pytest.mark.parametrize("backend", ["serial", "vmap"])
    def test_retried_rows_bit_identical(self, backend, monkeypatch):
        spec = spec_small(f"chaos-{backend}", replicates=8)
        monkeypatch.delenv(CHAOS_TIMEOUT_ENV)
        baseline = run_campaign(spec, TrialStore(), backend=backend)
        monkeypatch.setenv(CHAOS_TIMEOUT_ENV, "0.4")
        policy = ResiliencePolicy(retries=2, backoff_seconds=0.0)
        chaotic = run_campaign(spec, TrialStore(), backend=backend,
                               policy=policy)
        retried = [r for r in chaotic.rows() if r.get("attempts", 1) > 1]
        assert retried, "chaos at 0.4 must hit some of 8 trials"
        assert chaotic.errors == 0
        assert digest(chaotic.rows()) == digest(baseline.rows())

    def test_no_retries_leaves_error_rows(self):
        spec = spec_small("chaos-noretry", replicates=8)
        result = run_campaign(spec, TrialStore(), backend="serial",
                              policy=ResiliencePolicy(retries=0))
        errors = [r for r in result.rows() if r.get("status") == STATUS_ERROR]
        assert errors
        assert all("chaos-injected" in r["reason"] for r in errors)

    def test_resume_heals_chaos_errors(self, monkeypatch):
        """Error rows from a crashed/chaotic run re-execute on resume and
        converge to the undisturbed digest."""
        spec = spec_small("chaos-resume", replicates=8)
        store = TrialStore()
        run_campaign(spec, store, backend="serial",
                     policy=ResiliencePolicy(retries=0))
        assert any(r.get("status") == STATUS_ERROR for r in store.rows())
        monkeypatch.delenv(CHAOS_TIMEOUT_ENV)
        healed = run_campaign(spec, store, backend="serial", resume=True)
        assert healed.errors == 0
        baseline = run_campaign(spec, TrialStore(), backend="serial")
        assert digest(healed.rows()) == digest(baseline.rows())


class TestTornStore:
    def test_torn_tail_quarantined_and_rerun(self, tmp_path):
        spec = spec_small("torn", replicates=4)
        path = str(tmp_path / "torn.jsonl")
        with TrialStore(path) as store:
            run_campaign(spec, store, backend="serial")
            complete = len(store.rows())
        # tear the final line mid-byte, as a SIGKILL mid-write would
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:-17])
        reloaded = TrialStore(path)
        assert reloaded.torn == 1
        assert len(reloaded.rows()) == complete - 1
        assert os.path.exists(path + ".torn")
        with open(path, "rb") as fh:
            assert fh.read().endswith(b"\n")  # truncated back to a clean tail
        # the torn trial is pending again; resume completes the set exactly
        result = run_campaign(spec, reloaded, resume=True, backend="serial")
        assert result.executed == 1 and result.cached >= 3
        fresh = run_campaign(spec, TrialStore(), backend="serial")
        assert digest([r for r in reloaded.rows() if "trial" in r]) \
            == digest(fresh.rows())

    def test_midfile_garbage_skipped(self, tmp_path):
        path = str(tmp_path / "garbage.jsonl")
        with TrialStore(path) as store:
            store.append({"hash": "a", "status": "ok"})
        with open(path, "ab") as fh:
            fh.write(b"\x80\x81 not json\n")
        with TrialStore(path) as store:
            store.append({"hash": "b", "status": "ok"})
        reloaded = TrialStore(path)
        assert reloaded.torn == 1
        assert set(r["hash"] for r in reloaded.rows()) == {"a", "b"}

    def test_watch_tolerates_torn_tail(self, tmp_path):
        from repro.obs.watch import read_rows
        path = str(tmp_path / "live.jsonl")
        with TrialStore(path) as store:
            store.append({"hash": "a", "status": "ok"})
        with open(path, "ab") as fh:
            fh.write(b'{"hash": "b", "stat')  # in-flight append, no newline
        rows = read_rows(path)
        assert [r["hash"] for r in rows] == ["a"]


@pytest.mark.parametrize("backend", ["serial", "vmap"])
class TestSigkillResume:
    def test_sigkill_then_resume_matches_undisturbed(self, backend,
                                                     tmp_path):
        """SIGKILL a campaign subprocess mid-run; resume must complete the
        store to the exact undisturbed row set — no duplicates, no losses,
        bit-identical payloads."""
        spec = spec_small(f"kill-{backend}", replicates=10)
        path = str(tmp_path / "killed.jsonl")
        child = subprocess.Popen(
            [sys.executable, "-c",
             "import json, sys\n"
             "from repro.experiments import TrialStore, free_grid, "
             "run_campaign\n"
             f"spec = free_grid(name='kill-{backend}', "
             "protocols=('nonadaptive',), adversaries=('iid-erase',), "
             "ns=(16,), alphas=(0.09,), widths=(8,), replicates=10)\n"
             f"run_campaign(spec, TrialStore({path!r}), "
             f"backend={backend!r})\n"],
            env=dict(os.environ,
                     PYTHONPATH=os.path.join(os.path.dirname(__file__),
                                             "..", "src")),
        )
        deadline = time.time() + 60
        while time.time() < deadline:
            if os.path.exists(path) and len(TrialStore(path)) >= 2:
                break
            if child.poll() is not None:
                break
            time.sleep(0.02)
        child.kill()
        child.wait()

        store = TrialStore(path)
        interrupted = len([r for r in store.rows() if "trial" in r])
        result = run_campaign(spec, store, resume=True, backend=backend)
        assert result.executed + result.cached == result.total
        fresh = run_campaign(spec, TrialStore(), backend=backend)
        trial_rows = [r for r in store.rows() if "trial" in r]
        assert digest(trial_rows) == digest(
            [r for r in fresh.rows() if "trial" in r])
        # every trial appears exactly once in the resumed result set
        hashes = [r["hash"] for r in trial_rows]
        assert len(hashes) == len(set(hashes)) == result.total
        assert interrupted <= result.total


class TestPerTrialFallback:
    def test_one_crashing_adversary_degrades_one_trial(self, monkeypatch):
        from repro.adversary import (AdaptiveAdversary,
                                     PerTrialAdversaryBatch)
        from repro.experiments import vmap as vmap_mod
        from repro.experiments.runner import execute_trial

        spec = free_grid(name="flaky", protocols=("nonadaptive",),
                         adversaries=("adaptive",), ns=(16,),
                         alphas=(0.12,), widths=(8,), replicates=6)
        trials = spec.trials()
        boom_seed = trials[2].adversary_seed

        class Flaky(AdaptiveAdversary):
            def __init__(self, alpha, seed):
                super().__init__(alpha, seed=seed)
                self._seed = seed

            def select_edges(self, view):
                if self._seed == boom_seed and view.index == 1:
                    raise RuntimeError("flaky adversary")
                return super().select_edges(view)

        monkeypatch.setattr(
            vmap_mod, "make_batched_adversary",
            lambda kind, alpha, seeds: PerTrialAdversaryBatch(
                [Flaky(alpha, s) for s in seeds]))

        rows = vmap_mod.run_cell_batched(trials)
        assert [r["hash"] for r in rows] == \
            [t.content_hash() for t in trials]
        # the crashing trial runs alone, where its adversary crashes again:
        # an error row naming the adversary's own exception, labelled
        assert rows[2]["status"] == STATUS_ERROR
        assert rows[2]["reason"] == repr(RuntimeError("flaky adversary"))
        assert "flaky adversary" in rows[2]["fallback"]
        assert all("fallback" not in r for i, r in enumerate(rows) if i != 2)
        # the survivors re-batched into the rows cells of one write
        survivors = [t for i, t in enumerate(trials) if i != 2]
        baseline = [execute_trial(t.to_dict()) for t in survivors]
        assert digest(rows[:2] + rows[3:]) == digest(baseline)


class TestStochasticBudgetCampaign:
    def test_channel_trials_report_transit_corruption(self):
        """A corrupt-mode channel campaign shows nonzero in-transit
        corruption (the chaos is real) yet decodes to full accuracy."""
        spec = free_grid(name="budget", protocols=("nonadaptive",),
                         adversaries=("iid-corrupt",), ns=(16,),
                         alphas=(0.09,), widths=(8,), replicates=3)
        result = run_campaign(spec, TrialStore(), backend="serial")
        ok = [r for r in result.rows() if r.get("status") == "ok"]
        assert ok
        assert any(r["entries_corrupted"] > 0 for r in ok)
        assert all(r["accuracy"] == 1.0 for r in ok)
