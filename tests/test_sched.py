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
import tempfile
import threading
import time

import pytest

from repro.cli import main
from repro.experiments import TrialStore, free_grid, run_campaign
from repro.experiments.runner import STATUS_SKIPPED, execute_trial
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
    def test_all_three_backends_registered(self):
        assert backend_names() == ("serial", "vmap", "sharded")

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

    def test_sharded_shards_an_in_memory_store_in_a_temp_dir(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        spec = small_spec(name="sched-in-memory")
        sharded = run_campaign(spec, jobs=2, lease_ttl=5.0)
        serial = run_campaign(spec, store=TrialStore(None), backend="serial")
        assert digests(sharded) == digests(serial)
        assert os.listdir(tmp_path) == []  # the shard directory is gone


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
        with TrialStore(layout.store_path(shard)) as store:
            store.append(execute_trial(first.to_dict()))
        stats = work(directory, owner="successor", lease_ttl=5.0)
        assert stats.trials_cached == 1
        assert stats.trials_run == len(spec.trials()) - 1

    def test_worker_rows_match_serial_rows(self, tmp_path):
        from repro.experiments.store import iter_store_rows
        spec = free_grid(name="sched-worker", protocols=("det-sqrt",),
                         adversaries=("null", "adaptive"), ns=(16,),
                         alphas=(0.0, 1 / 16), bandwidths=(16,),
                         replicates=4)
        directory = str(tmp_path / "w.jsonl.shards")
        layout = ShardLayout.create(directory, spec.name, spec.trials(), 2)
        work(directory, owner="w", lease_ttl=5.0)
        worker_digests = sorted(row_digest(r)
                                for p in layout.shard_store_paths()
                                for r in iter_store_rows(p))
        serial = run_campaign(spec, store=TrialStore(None), backend="serial")
        assert worker_digests == digests(serial)

    def test_quiet_worker_prints_nothing(self, tmp_path, capsys):
        spec = small_spec()
        directory = str(tmp_path / "q.jsonl.shards")
        layout = ShardLayout.create(directory, spec.name, spec.trials(), 2)
        for shard in layout.shards:
            layout.mark_done(shard, "earlier")
        assert main(["sched", "work", "--shards", directory,
                     "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        main(["sched", "work", "--shards", directory])
        assert "worker" in capsys.readouterr().out

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
                               backend="sharded", jobs=2, lease_ttl=5.0)
        serial = run_campaign(spec, store=TrialStore(None), backend="serial")
        assert digests(sharded) == digests(serial)
        assert sharded.errors == 0 and sharded.skipped == 0

    def test_sharded_resume_serves_cached_rows(self, tmp_path):
        spec = small_spec(name="sched-resume")
        store_path = str(tmp_path / "s.jsonl")
        run_campaign(spec, store=store_path, backend="sharded", jobs=2,
                     lease_ttl=5.0)
        again = run_campaign(spec, store=store_path, backend="sharded",
                             resume=True, jobs=2, lease_ttl=5.0)
        assert again.cached == len(spec.trials())
        assert again.executed == 0

    def test_fresh_rerun_executes_every_trial_again(self, tmp_path):
        spec = small_spec(name="sched-rerun")
        store_path = str(tmp_path / "s.jsonl")
        first = run_campaign(spec, store=store_path, backend="sharded",
                             jobs=2, lease_ttl=5.0)
        latest = max(r["recorded_unix"] for r in first.rows())
        second = run_campaign(spec, store=store_path, backend="sharded",
                              jobs=2, lease_ttl=5.0)
        assert second.executed == len(spec.trials())
        # a row merged from the first dispatch's shards would carry its stamp
        assert all(r["recorded_unix"] > latest for r in second.rows())

    def test_resume_merges_a_shard_finished_before_the_dispatch(
            self, tmp_path):
        spec = small_spec(name="sched-resume-shard")
        store_path = str(tmp_path / "s.jsonl")
        layout = ShardLayout.create(shard_dir_for(store_path), spec.name,
                                    spec.trials(), 3)
        early = layout.shards[0]
        with TrialStore(layout.store_path(early)) as store:
            for trial in early.trials:
                store.append(execute_trial(trial))
        layout.mark_done(early, "earlier")
        early_rows = {r["hash"]: r for r in TrialStore(
            layout.store_path(early)).rows()}

        result = run_campaign(spec, store=store_path, backend="sharded",
                              resume=True, jobs=2, shards=3, lease_ttl=5.0)
        for digest, row in early_rows.items():
            assert result.store.get_by_hash(digest) == row
        with open(layout.store_path(early)) as fh:
            assert len(fh.readlines()) == len(early)  # not run again
        serial = run_campaign(spec, store=TrialStore(None), backend="serial")
        assert digests(result) == digests(serial)

    def test_fleet_starts_no_more_workers_than_shards(self, tmp_path,
                                                      monkeypatch):
        from repro.sched import dispatcher
        spawned = []
        spawn = dispatcher.spawn_worker

        def counting(*args, **kwargs):
            spawned.append(kwargs["owner"])
            return spawn(*args, **kwargs)

        monkeypatch.setattr(dispatcher, "spawn_worker", counting)
        spec = free_grid(name="sched-one", protocols=("det-sqrt",),
                         adversaries=("null",), ns=(16,), alphas=(0.0,),
                         bandwidths=(16,))
        assert len(spec.trials()) == 1
        result = run_campaign(spec, store=str(tmp_path / "s.jsonl"),
                              backend="sharded", jobs=4, lease_ttl=5.0)
        assert spawned == ["w0"]
        serial = run_campaign(spec, store=TrialStore(None), backend="serial")
        assert digests(result) == digests(serial)

    def test_progress_fires_once_per_trial(self, tmp_path):
        spec = small_spec(name="sched-progress")
        store_path = str(tmp_path / "s.jsonl")
        seen = []
        result = run_campaign(spec, store=store_path, jobs=2, lease_ttl=5.0,
                              progress=lambda done, total, row: seen.append(
                                  (done, total, row["hash"])))
        assert len(ShardLayout.load(shard_dir_for(store_path)).shards) >= 2
        trials = spec.trials()
        assert [done for done, _, _ in seen] == \
            list(range(1, len(trials) + 1))
        assert {total for _, total, _ in seen} == {len(trials)}
        assert sorted(h for _, _, h in seen) == \
            sorted(t.content_hash() for t in trials)
        serial = run_campaign(spec, store=TrialStore(None), backend="serial")
        assert digests(result) == digests(serial)


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

    def test_budget_applies_to_local_fleet(self):
        spec = small_spec(name="sched-budget-fleet")
        result = run_campaign(spec, jobs=2, budget_seconds=1e-9)
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
