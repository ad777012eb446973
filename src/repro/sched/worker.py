"""The shard worker: claim → run → mark done, until nothing is left.

A worker is pointed at a shard directory (the dispatcher spawns local
ones; ``repro sched work --shards DIR`` runs the identical loop on any
host that can see the directory).  Each iteration it scans the manifest
for a shard that is neither done nor live-leased, claims it through the
lease protocol, executes the shard's *missing* trials (rows already in
the shard store — from a previous incarnation that died mid-shard — are
served from disk, so re-running a reclaimed shard never repeats finished
work), and writes the done-marker.  When every shard it can see is done,
the worker exits; while unfinished shards are merely leased by live
peers, it naps and re-scans — that wait is what turns a SIGKILLed peer's
expired lease into a reclaim instead of a lost shard.  A shard's trials
run through the ``vmap`` backend, which batches each cell and sends a
cell it cannot batch to the serial loop, so the rows equal the
``serial`` backend's.

A background heartbeat thread beats each held lease every ``ttl / 3``
seconds, so a wedged-but-alive worker keeps its claim while a dead one
loses it after one ttl.  Execution composes with
:mod:`repro.faults.resilience` (per-trial timeouts/retries via the same
:class:`~repro.faults.ResiliencePolicy`) rather than re-implementing it.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.experiments.spec import TrialSpec
from repro.experiments.store import TrialStore
from repro.sched import lease as lease_proto
from repro.sched.backend import CampaignRun, VmapBackend
from repro.sched.lease import DEFAULT_TTL_SECONDS
from repro.sched.shards import Shard, ShardLayout


@dataclass
class WorkerStats:
    """What one worker run accomplished (returned by :func:`work`)."""

    owner: str
    shards_run: int = 0
    trials_run: int = 0
    trials_cached: int = 0      # rows a dead predecessor already wrote
    reclaimed: List[str] = field(default_factory=list)  # stolen shard ids

    def __str__(self) -> str:
        tail = (f", reclaimed {len(self.reclaimed)} expired lease(s): "
                f"{', '.join(self.reclaimed)}" if self.reclaimed else "")
        return (f"worker {self.owner!r}: {self.shards_run} shard(s), "
                f"{self.trials_run} trial(s) run, "
                f"{self.trials_cached} served from shard store{tail}")


class _Heartbeat:
    """Daemon thread refreshing one lease every ``ttl / 3`` seconds."""

    def __init__(self, path: str, owner: str, ttl_seconds: float):
        self._path = path
        self._owner = owner
        self._interval = max(0.05, ttl_seconds / 3.0)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            if not lease_proto.heartbeat(self._path, self._owner):
                return  # lease stolen or gone: nothing left to keep alive

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


def _pending_trials(shard: Shard, store: TrialStore) -> List[TrialSpec]:
    """The shard's trials minus rows a previous owner already landed
    (error rows re-run, same as campaign resume semantics)."""
    pending = []
    for trial_dict in shard.trials:
        trial = TrialSpec.from_dict(trial_dict)
        row = store.get(trial)
        if row is None or row.get("status") in ("error", "skipped"):
            pending.append(trial)
    return pending


def work(shard_dir: str,
         owner: Optional[str] = None,
         policy=None,
         lease_ttl: float = DEFAULT_TTL_SECONDS,
         poll_seconds: Optional[float] = None,
         progress: Optional[Callable[[str, Dict], None]] = None,
         stop: Optional[threading.Event] = None) -> WorkerStats:
    """Run the worker loop until every shard in ``shard_dir`` is done.

    ``progress(shard_id, row)`` fires per completed trial row.  ``stop``
    (an Event) makes the loop exit at the next safe point — after a claim
    but before its trials run, or while napping — so an embedding
    process can wind a worker down without killing it.
    """
    owner = owner or f"{os.getpid()}@{os.uname().nodename}"
    nap = poll_seconds if poll_seconds is not None \
        else max(0.1, lease_ttl / 4.0)
    layout = ShardLayout.load(shard_dir)
    stats = WorkerStats(owner=owner)

    while not (stop is not None and stop.is_set()):
        claimed: Optional[Shard] = None
        for shard in layout.shards:
            if layout.is_done(shard):
                continue
            lease_path = layout.lease_path(shard)
            had_expired = (lease_proto.read_lease(lease_path) is not None)
            if lease_proto.acquire(lease_path, owner, lease_ttl):
                if had_expired:
                    stats.reclaimed.append(shard.shard_id)
                claimed = shard
                break
        if claimed is None:
            if layout.all_done():
                break
            time.sleep(nap)  # peers hold live leases; wait for beats to stop
            continue

        lease_path = layout.lease_path(claimed)
        with _Heartbeat(lease_path, owner, lease_ttl):
            with TrialStore(layout.store_path(claimed)) as store:
                pending = _pending_trials(claimed, store)
                stats.trials_cached += len(claimed) - len(pending)
                if stop is not None and stop.is_set():
                    lease_proto.release(lease_path, owner)
                    break

                def record(row: Dict, _sid=claimed.shard_id) -> None:
                    store.append(row)
                    stats.trials_run += 1
                    if progress is not None:
                        progress(_sid, row)

                VmapBackend().execute(CampaignRun(
                    spec=None, store=store, pending=pending, record=record,
                    policy=policy))
        layout.mark_done(claimed, owner)
        lease_proto.release(lease_path, owner)
        stats.shards_run += 1
    return stats
