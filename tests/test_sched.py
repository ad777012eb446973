"""The repro.sched campaign service: leases, shards, workers, merge.

The acceptance contract of the sharded dispatcher: a campaign run as
leased shards across worker processes — even when one worker is SIGKILLed
mid-shard — produces a merged store whose row digests are identical to a
``backend="serial"`` run of the same spec.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.experiments import TrialStore, free_grid, run_campaign
from repro.experiments.runner import STATUS_SKIPPED
from repro.experiments.spec import TrialSpec
from repro.sched import (CampaignRun, LeaseInfo, ShardLayout, acquire,
                         backend_names, get_backend, heartbeat, merge_rows,
                         merge_stores, partition, prefer, read_lease,
                         register_backend, release, row_digest,
                         shard_dir_for, work)


def small_spec(name="sched-small", replicates=2):
    return free_grid(name=name, protocols=("det-sqrt", "det-logn"),
                     adversaries=("adaptive",), ns=(16,),
                     alphas=(0.0, 1 / 16), bandwidths=(16,),
                     replicates=replicates)


def digests(result):
    return sorted(row_digest(r) for r in result.rows())


class TestLease:
    def test_acquire_is_exclusive(self, tmp_path):
        path = str(tmp_path / "a.lease")
        assert acquire(path, "w0", ttl_seconds=30.0)
        assert not acquire(path, "w1", ttl_seconds=30.0)
        info = read_lease(path)
        assert info.owner == "w0" and not info.expired()

    def test_release_frees_the_claim(self, tmp_path):
        path = str(tmp_path / "a.lease")
        assert acquire(path, "w0", ttl_seconds=30.0)
        release(path, "w0")
        assert read_lease(path) is None
        assert acquire(path, "w1", ttl_seconds=30.0)

    def test_release_checks_ownership(self, tmp_path):
        path = str(tmp_path / "a.lease")
        assert acquire(path, "w0", ttl_seconds=30.0)
        release(path, "w1")  # not the owner: must be a no-op
        assert read_lease(path).owner == "w0"

    def test_expired_lease_is_reclaimable(self, tmp_path):
        path = str(tmp_path / "a.lease")
        assert acquire(path, "w0", ttl_seconds=0.05)
        time.sleep(0.1)
        assert read_lease(path).expired()
        assert acquire(path, "w1", ttl_seconds=30.0)
        assert read_lease(path).owner == "w1"

    def test_heartbeat_keeps_a_lease_alive(self, tmp_path):
        path = str(tmp_path / "a.lease")
        assert acquire(path, "w0", ttl_seconds=0.3)
        for _ in range(4):
            time.sleep(0.15)
            assert heartbeat(path, "w0")
        assert not read_lease(path).expired()

    def test_heartbeat_refuses_foreign_lease(self, tmp_path):
        path = str(tmp_path / "a.lease")
        assert acquire(path, "w0", ttl_seconds=30.0)
        assert not heartbeat(path, "w1")

    def test_corrupt_lease_file_is_reclaimable(self, tmp_path):
        path = str(tmp_path / "a.lease")
        with open(path, "w") as fh:
            fh.write("{not json")
        assert read_lease(path) is None
        assert acquire(path, "w0", ttl_seconds=30.0)

    def test_lease_info_roundtrip(self, tmp_path):
        path = str(tmp_path / "a.lease")
        assert acquire(path, "w0", ttl_seconds=30.0)
        info = read_lease(path)
        assert isinstance(info, LeaseInfo)
        assert info.pid == os.getpid()
        assert info.ttl_seconds == 30.0


class TestShards:
    def test_partition_is_deterministic_and_complete(self):
        trials = small_spec().trials()
        a = partition(trials, 3)
        b = partition(list(reversed(trials)), 3)
        assert [s.shard_id for s in a] == [s.shard_id for s in b]
        seen = [h for s in a for h in s.hashes]
        assert sorted(seen) == sorted(t.content_hash() for t in trials)

    def test_every_trial_lands_in_its_shard_of_bucket(self):
        trials = small_spec().trials()
        for shard_count in (1, 2, 5):
            for shard in partition(trials, shard_count):
                for d in shard.trials:
                    t = TrialSpec.from_dict(d)
                    assert t.shard_of(shard_count) == t.shard_of(shard_count)

    def test_layout_roundtrip(self, tmp_path):
        directory = str(tmp_path / "x.jsonl.shards")
        trials = small_spec().trials()
        layout = ShardLayout.create(directory, "sched-small", trials, 4)
        loaded = ShardLayout.load(directory)
        assert loaded.campaign == "sched-small"
        assert [s.shard_id for s in loaded.shards] == \
               [s.shard_id for s in layout.shards]

    def test_recreated_layout_preserves_done_markers(self, tmp_path):
        directory = str(tmp_path / "x.jsonl.shards")
        trials = small_spec().trials()
        layout = ShardLayout.create(directory, "c", trials, 4)
        layout.mark_done(layout.shards[0], "w0")
        again = ShardLayout.create(directory, "c", trials, 4)
        assert again.is_done(again.shards[0])

    def test_states_reports_lease_owner(self, tmp_path):
        directory = str(tmp_path / "x.jsonl.shards")
        layout = ShardLayout.create(directory, "c", small_spec().trials(), 2)
        acquire(layout.lease_path(layout.shards[0]), "w7", ttl_seconds=30.0)
        states = {s["id"]: s for s in layout.states()}
        leased = states[layout.shards[0].shard_id]
        assert leased["state"] == "leased" and leased["owner"] == "w7"
        assert states[layout.shards[1].shard_id]["state"] == "pending"

    def test_row_digest_ignores_volatile_fields(self):
        row = {"hash": "abc", "trial": {"n": 16}, "status": "ok",
               "rounds": 9, "wall_seconds": 1.0, "recorded_unix": 123.0}
        tweaked = dict(row, wall_seconds=9.9, recorded_unix=456.0,
                       attempts=3, fallback="x")
        assert row_digest(row) == row_digest(tweaked)
        assert row_digest(row) != row_digest(dict(row, rounds=10))


class TestMergePrecedence:
    def test_terminal_beats_transient(self):
        ok = {"hash": "h", "trial": {}, "status": "ok", "recorded_unix": 1.0}
        err = {"hash": "h", "trial": {}, "status": "error",
               "recorded_unix": 99.0}
        assert prefer(ok, err) is ok
        assert prefer(err, ok) is ok

    def test_error_beats_skipped(self):
        err = {"hash": "h", "trial": {}, "status": "error"}
        skip = {"hash": "h", "trial": {}, "status": "skipped"}
        assert prefer(skip, err) is err
        assert prefer(err, skip) is err

    def test_equal_rank_freshest_wins_ties_keep_incumbent(self):
        old = {"hash": "h", "trial": {}, "status": "ok", "recorded_unix": 1.0}
        new = {"hash": "h", "trial": {}, "status": "ok", "recorded_unix": 2.0}
        same = dict(old)
        assert prefer(old, new) is new
        assert prefer(new, old) is new
        assert prefer(old, same) is old

    def test_merge_rows_reports_duplicates(self):
        rows_a = [{"hash": "h1", "trial": {}, "status": "skipped"}]
        rows_b = [{"hash": "h1", "trial": {}, "status": "ok"},
                  {"hash": "h2", "trial": {}, "status": "ok"}]
        from repro.sched import MergeReport
        report = MergeReport(target="t")
        merged = merge_rows([rows_a, rows_b], report)
        assert merged["h1"]["status"] == "ok"
        assert report.duplicates == 1 and report.upgraded == 1
        assert len(merged) == 2

    def test_merge_stores_compacts_to_one_row_per_hash(self, tmp_path):
        target = str(tmp_path / "main.jsonl")
        src = str(tmp_path / "shard.jsonl")
        with TrialStore(target) as store:
            store.append({"hash": "h1", "trial": {}, "status": "skipped"})
        with TrialStore(src) as store:
            store.append({"hash": "h1", "trial": {}, "status": "ok"})
            store.append({"hash": "h1", "trial": {}, "status": "ok"})
        report = merge_stores(target, [src])
        assert report.rows == 1
        lines = [json.loads(l) for l in open(target)]
        assert len(lines) == 1 and lines[0]["status"] == "ok"


class TestBackendRegistry:
    def test_all_four_backends_registered(self):
        assert backend_names() == ("serial", "process", "vmap", "sharded")

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("quantum")

    def test_run_campaign_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_campaign(small_spec(), backend="quantum")

    def test_run_campaign_accepts_a_registered_backend(self):
        from repro.sched.backend import _REGISTRY, SerialBackend

        @register_backend
        class InlineBackend(SerialBackend):
            name = "inline"

        spec = free_grid(name="sched-inline", protocols=("det-sqrt",),
                         adversaries=("null",), ns=(16,), alphas=(0.0,),
                         bandwidths=(16,))
        try:
            assert "inline" in backend_names()
            result = run_campaign(spec, store=TrialStore(None),
                                  backend="inline")
        finally:
            _REGISTRY.pop("inline")
        serial = run_campaign(spec, store=TrialStore(None), backend="serial")
        assert result.executed == 1
        assert [r["status"] for r in result.rows()] == ["ok"]
        assert digests(result) == digests(serial)

    def test_sharded_requires_file_store(self):
        with pytest.raises(ValueError, match="file-backed"):
            run_campaign(small_spec(), backend="sharded")


class TestWorkerLoop:
    def test_single_worker_drains_all_shards(self, tmp_path):
        spec = small_spec()
        directory = str(tmp_path / "s.jsonl.shards")
        layout = ShardLayout.create(directory, spec.name, spec.trials(), 3)
        stats = work(directory, owner="solo", lease_ttl=5.0)
        assert layout.all_done()
        assert stats.trials_run == len(spec.trials())
        assert stats.reclaimed == []

    def test_worker_serves_predecessor_rows_from_shard_store(self, tmp_path):
        spec = small_spec()
        directory = str(tmp_path / "s.jsonl.shards")
        layout = ShardLayout.create(directory, spec.name, spec.trials(), 1)
        shard = layout.shards[0]
        # a dead predecessor landed one row before dying
        first = TrialSpec.from_dict(shard.trials[0])
        from repro.experiments.runner import execute_trial
        with TrialStore(layout.store_path(shard)) as store:
            store.append(execute_trial(first.to_dict()))
        stats = work(directory, owner="successor", lease_ttl=5.0)
        assert stats.trials_cached == 1
        assert stats.trials_run == len(spec.trials()) - 1

    def test_vmap_inner_backend_matches_serial_rows(self, tmp_path):
        spec = free_grid(name="sched-vmap", protocols=("det-sqrt",),
                         adversaries=("null",), ns=(16,), alphas=(0.0,),
                         bandwidths=(16,), replicates=4)
        dir_a = str(tmp_path / "a.jsonl.shards")
        dir_b = str(tmp_path / "b.jsonl.shards")
        la = ShardLayout.create(dir_a, spec.name, spec.trials(), 2)
        lb = ShardLayout.create(dir_b, spec.name, spec.trials(), 2)
        work(dir_a, owner="w", inner_backend="serial", lease_ttl=5.0)
        work(dir_b, owner="w", inner_backend="vmap", lease_ttl=5.0)

        def all_digests(layout):
            from repro.experiments.store import iter_store_rows
            return sorted(row_digest(r)
                          for p in layout.shard_store_paths()
                          for r in iter_store_rows(p))
        assert all_digests(la) == all_digests(lb)

    def test_stop_event_winds_worker_down(self, tmp_path):
        spec = small_spec()
        directory = str(tmp_path / "s.jsonl.shards")
        ShardLayout.create(directory, spec.name, spec.trials(), 2)
        stop = threading.Event()
        stop.set()
        stats = work(directory, owner="w", lease_ttl=5.0, stop=stop)
        assert stats.shards_run == 0


def _stall_worker_script(shard_dir):
    """A worker that claims the first free shard, writes one row, then
    stalls WITHOUT heartbeating until killed — the SIGKILL victim."""
    return f"""
import sys, time
sys.path.insert(0, {json.dumps(os.path.join(os.path.dirname(__file__), "..", "src"))})
from repro.experiments.runner import execute_trial
from repro.experiments.store import TrialStore
from repro.sched import ShardLayout, acquire
layout = ShardLayout.load({json.dumps(shard_dir)})
for shard in layout.shards:
    if acquire(layout.lease_path(shard), "victim", ttl_seconds=0.5):
        with TrialStore(layout.store_path(shard)) as store:
            store.append(execute_trial(shard.trials[0]))
        print("CLAIMED", shard.shard_id, flush=True)
        time.sleep(600)  # no heartbeat: the lease expires under us
sys.exit(1)
"""


class TestCrashReclaim:
    def test_sigkilled_workers_shard_is_reclaimed_and_rerun(self, tmp_path):
        spec = small_spec(name="sched-reclaim")
        directory = str(tmp_path / "r.jsonl.shards")
        layout = ShardLayout.create(directory, spec.name, spec.trials(), 3)
        proc = subprocess.Popen(
            [sys.executable, "-c", _stall_worker_script(directory)],
            stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()  # blocks until the victim claimed
        assert line.startswith("CLAIMED")
        victim_shard = line.split()[1]
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        time.sleep(0.6)  # let the victim's ttl=0.5s lease expire

        stats = work(directory, owner="survivor", lease_ttl=0.5,
                     poll_seconds=0.1)
        assert layout.all_done()
        assert victim_shard in stats.reclaimed
        # the row the victim landed before dying is served, not re-run
        assert stats.trials_cached == 1
        assert stats.trials_run == len(spec.trials()) - 1

    def test_reclaimed_campaign_digests_match_serial(self, tmp_path):
        spec = small_spec(name="sched-reclaim-parity")
        store_path = str(tmp_path / "p.jsonl")
        directory = shard_dir_for(store_path)
        ShardLayout.create(directory, spec.name, spec.trials(), 3)
        proc = subprocess.Popen(
            [sys.executable, "-c", _stall_worker_script(directory)],
            stdout=subprocess.PIPE, text=True)
        assert proc.stdout.readline().startswith("CLAIMED")
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        time.sleep(0.6)
        work(directory, owner="survivor", lease_ttl=0.5, poll_seconds=0.1)

        merge_stores(store_path,
                     [p for p in ShardLayout.load(directory)
                      .shard_store_paths()])
        merged = TrialStore(store_path)
        serial = run_campaign(spec, store=TrialStore(None), backend="serial")
        assert sorted(row_digest(r) for r in merged.rows()) == \
            digests(serial)


class TestShardedBackend:
    def test_sharded_matches_serial_digests(self, tmp_path):
        spec = small_spec(name="sched-e2e")
        sharded = run_campaign(spec, store=str(tmp_path / "s.jsonl"),
                               backend="sharded", workers=2, lease_ttl=5.0)
        serial = run_campaign(spec, store=TrialStore(None), backend="serial")
        assert digests(sharded) == digests(serial)
        assert sharded.errors == 0 and sharded.skipped == 0

    def test_sharded_resume_serves_cached_rows(self, tmp_path):
        spec = small_spec(name="sched-resume")
        store_path = str(tmp_path / "s.jsonl")
        run_campaign(spec, store=store_path, backend="sharded", workers=2,
                     lease_ttl=5.0)
        again = run_campaign(spec, store=store_path, backend="sharded",
                             resume=True, workers=2, lease_ttl=5.0)
        assert again.cached == len(spec.trials())
        assert again.executed == 0


class TestBudgetSeconds:
    def test_exhausted_budget_records_explicit_skips(self):
        spec = small_spec(name="sched-budget")
        result = run_campaign(spec, backend="serial", budget_seconds=1e-9)
        assert result.skipped == len(spec.trials())
        assert result.executed == 0
        rows = result.rows()
        assert len(rows) == len(spec.trials())
        assert all(r["status"] == STATUS_SKIPPED for r in rows)
        assert all("time budget" in r["reason"] for r in rows)

    def test_resume_reruns_skipped_rows(self, tmp_path):
        spec = small_spec(name="sched-budget-resume")
        store_path = str(tmp_path / "b.jsonl")
        run_campaign(spec, store=store_path, backend="serial",
                     budget_seconds=1e-9)
        resumed = run_campaign(spec, store=store_path, backend="serial",
                               resume=True)
        assert resumed.skipped == 0
        assert resumed.executed == len(spec.trials())
        assert all(r["status"] != STATUS_SKIPPED for r in resumed.rows())

    def test_generous_budget_skips_nothing(self):
        spec = small_spec(name="sched-budget-ok")
        result = run_campaign(spec, backend="serial", budget_seconds=600.0)
        assert result.skipped == 0
        assert result.executed == len(spec.trials())

    def test_str_mentions_skips_only_when_present(self):
        spec = small_spec(name="sched-str")
        skipping = run_campaign(spec, backend="serial", budget_seconds=1e-9)
        clean = run_campaign(spec, backend="serial")
        assert "skipped" in str(skipping)
        assert "skipped" not in str(clean)

    def test_budget_applies_to_process_backend(self):
        spec = small_spec(name="sched-budget-proc")
        result = run_campaign(spec, backend="process", jobs=2,
                              budget_seconds=1e-9)
        assert result.skipped + result.executed == len(spec.trials())
        assert result.skipped > 0

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError, match="budget_seconds"):
            run_campaign(small_spec(), budget_seconds=0.0)


class TestCampaignRunDeadline:
    def test_out_of_time_and_seconds_left(self):
        run = CampaignRun(spec=small_spec(), store=TrialStore(None),
                          pending=[], record=lambda row: None,
                          deadline=time.monotonic() - 1.0)
        assert run.out_of_time()
        assert run.seconds_left() == 0.0
        run.deadline = None
        assert not run.out_of_time()
        assert run.seconds_left() is None
