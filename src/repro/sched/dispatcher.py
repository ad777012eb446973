"""The sharded dispatcher: leased shard dispatch across processes/hosts.

``run_campaign(..., backend="sharded")`` lands here, and so does any
``run_campaign(..., jobs=N)`` with ``N > 1`` and no explicit backend.
The dispatcher

1. partitions the campaign's pending trials into content-addressed shards
   (:mod:`repro.sched.shards`) next to the campaign store — or, for an
   in-memory store, in a private temporary directory removed after the
   merge,
2. spawns ``jobs`` local worker *subprocesses* — each runs the exact CLI
   worker loop (``repro sched work``), which executes its shards through
   the ``vmap`` backend, so a local fleet and a multi-host fleet pointed
   at a shared directory are the same code path,
3. waits for the shards' done-markers (workers reclaim expired leases
   themselves, so a SIGKILLed worker's shard is re-run by a survivor
   without dispatcher intervention), and
4. as each done-marker appears, merges that shard's rows into the main
   campaign store with duplicate-hash precedence, recording each merged
   row through the runner's normal ``record`` sink.

A fresh (non-resume) dispatch first removes the store's shard directory,
so an earlier dispatch's done-markers and rows never stand in for this
run's.  A resume keeps it: the dispatcher itself holds no lease and runs
no trial, so killing it loses nothing (workers keep draining shards; a
later ``repro store merge`` or ``resume`` picks the rows up).  A time
budget terminates workers at the deadline; rows already landed in shard
stores are still merged, and the runner records the rest as ``skipped``.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Sequence

from repro.sched.backend import (Backend, CampaignRun, SHARDS_PER_WORKER,
                                 register_backend)
from repro.sched.lease import DEFAULT_TTL_SECONDS
from repro.sched.merge import merge_rows
from repro.sched.shards import Shard, ShardLayout, shard_dir_for

#: how often the dispatcher polls for done-markers / dead workers
_POLL_SECONDS = 0.2


def _worker_env() -> Dict[str, str]:
    """Subprocess environment with the repro package importable even when
    the project is not pip-installed (tests, bare checkouts)."""
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    existing = env.get("PYTHONPATH")
    if package_root not in (existing or "").split(os.pathsep):
        env["PYTHONPATH"] = (f"{package_root}{os.pathsep}{existing}"
                             if existing else package_root)
    return env


def _worker_command(shard_dir: str, owner: str, lease_ttl: float,
                    policy) -> List[str]:
    cmd = [sys.executable, "-m", "repro", "sched", "work",
           "--shards", shard_dir, "--owner", owner,
           "--ttl", str(lease_ttl), "--quiet"]
    if policy is not None and getattr(policy, "timeout_seconds", None):
        cmd += ["--timeout", str(policy.timeout_seconds)]
    if policy is not None and getattr(policy, "retries", 0):
        cmd += ["--retries", str(policy.retries)]
    return cmd


def spawn_worker(shard_dir: str, owner: str,
                 lease_ttl: float = DEFAULT_TTL_SECONDS,
                 policy=None) -> subprocess.Popen:
    """Start one local worker subprocess on ``shard_dir`` (exposed for
    tests and for scripting ad-hoc fleets)."""
    return subprocess.Popen(
        _worker_command(shard_dir, owner, lease_ttl, policy),
        env=_worker_env())


def _terminate(procs: List[subprocess.Popen], grace_seconds: float = 5.0
               ) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    deadline = time.monotonic() + grace_seconds
    for proc in procs:
        if proc.poll() is None:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def merge_shards_into_run(layout: ShardLayout, run: CampaignRun,
                          shards: Sequence[Shard]) -> None:
    """Record the merged rows of ``shards``' trials through the runner's
    ``record`` sink, skipping trials already recorded.

    A trial's rows live in its own shard's store or in a store an earlier
    layout left behind, never in another shard of this layout, so the
    other shards' stores are not read.  Duplicates fold by
    :func:`~repro.sched.merge.merge_rows` precedence.
    """
    from repro.experiments.store import iter_store_rows
    others = ({layout.store_path(s) for s in layout.shards}
              - {layout.store_path(s) for s in shards})
    merged = merge_rows(iter_store_rows(path)
                        for path in layout.shard_store_paths()
                        if path not in others)
    for shard in shards:
        for digest in shard.hashes:
            row = merged.get(digest)
            if row is not None and digest not in run.recorded:
                run.record(row)


@register_backend
class ShardedBackend(Backend):
    """Leased shard dispatch across ``run.jobs`` local worker subprocesses
    (and any extra workers other hosts point at the shard directory)."""

    name = "sharded"

    def execute(self, run: CampaignRun) -> None:
        if not run.pending:
            return
        if run.store.path is None:
            # an in-memory campaign: its shards live in a private
            # directory that goes once their rows are merged
            with tempfile.TemporaryDirectory(prefix="repro-shards-") as tmp:
                self._dispatch(run, tmp)
            return
        shard_dir = shard_dir_for(run.store.path)
        if not run.resume:
            # a fresh run owes every trial a new row: an earlier
            # dispatch's done-markers and shard rows must not stand in
            shutil.rmtree(shard_dir, ignore_errors=True)
        self._dispatch(run, shard_dir)

    def _dispatch(self, run: CampaignRun, shard_dir: str) -> None:
        num_shards = run.shards or min(len(run.pending),
                                       run.jobs * SHARDS_PER_WORKER)
        lease_ttl = run.lease_ttl or DEFAULT_TTL_SECONDS
        layout = ShardLayout.create(shard_dir, run.spec.name, run.pending,
                                    num_shards)
        # a worker past the shard count would only start up to find
        # nothing to claim
        procs = [spawn_worker(shard_dir, owner=f"w{i}", lease_ttl=lease_ttl,
                              policy=run.policy)
                 for i in range(min(run.jobs, len(layout.shards)))]
        waiting = list(layout.shards)
        try:
            while waiting:
                # record each shard's rows as its done-marker appears, so
                # progress follows the fleet
                done = [s for s in waiting if layout.is_done(s)]
                if done:
                    merge_shards_into_run(layout, run, done)
                    waiting = [s for s in waiting if s not in done]
                    continue
                if run.out_of_time():
                    break
                if all(proc.poll() is not None for proc in procs):
                    # the whole local fleet exited; any shard still not
                    # done belongs to a remote worker or is lost — either
                    # way there is nothing left to wait for locally
                    remote_leases = any(
                        state["state"] == "leased" and not state["expired"]
                        for state in layout.states())
                    if not remote_leases:
                        break
                time.sleep(_POLL_SECONDS)
        finally:
            _terminate(procs)
        # whatever landed in unfinished shards before the deadline or the
        # fleet's exit
        merge_shards_into_run(layout, run, waiting)
