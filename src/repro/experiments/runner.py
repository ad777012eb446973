"""Parallel, resumable campaign execution.

``run_campaign`` expands an :class:`ExperimentSpec` into trials, skips the
ones the store already holds, and hands the rest to an execution
*backend* (:mod:`repro.sched.backend`): inline serial, cell-batched vmap,
or leased shard dispatch across local worker processes and other hosts
(what ``jobs > 1`` runs).  Every backend writes its rows through the one
trial executor, :func:`~repro.experiments.vmap.run_cell_batched`; serial
runs each trial as a cell of one.  Because every trial's seeds are
derived from its own coordinates (see :mod:`repro.experiments.spec`), the
result set is identical for any backend, any job count and any dispatch
order.

Failure containment: a trial whose configuration violates the analysis'
inequalities (:class:`~repro.core.profiles.ProfileError`) records an
``unsupported`` row; a trial that crashes for any other reason records an
``error`` row carrying the traceback; a trial the time budget cut off
records a ``skipped`` row.  None of them kills the campaign — the store
always reflects every attempted coordinate, and a later ``resume``
re-runs only the transient ones (errors and skips).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro.experiments.spec import ExperimentSpec, TrialSpec
from repro.experiments.store import TrialStore

#: result-row status values
STATUS_OK = "ok"
STATUS_UNSUPPORTED = "unsupported"   # ProfileError: outside the proof regime
STATUS_ERROR = "error"               # crash: bug or bad configuration
STATUS_SKIPPED = "skipped"           # never ran: time budget / dead fleet


def make_adversary(kind: str, alpha: float, seed: int):
    """Resolve an adversary *name* (the declarative form used by specs).

    The natively batched kinds (``nonadaptive`` and the channels) are
    :func:`~repro.experiments.vmap.make_batched_adversary` built for the
    one seed.  For the stochastic channel kinds, ``alpha`` is the per-edge
    fault probability (and the degree budget the masks are trimmed to);
    for ``byzantine-nodes`` it is the *node* fraction — ``floor(alpha *
    n)`` nodes corrupt all of their incident edges.
    """
    from repro.adversary import (AdaptiveAdversary, NullAdversary,
                                 SlidingWindowAdversary,
                                 TargetedAdaptiveAdversary)
    from repro.experiments.vmap import make_batched_adversary
    if kind == "null" or alpha <= 0:
        return NullAdversary()
    if kind == "adaptive":
        return AdaptiveAdversary(alpha, seed=seed)
    if kind == "sliding-window":
        return SlidingWindowAdversary(alpha, seed=seed)
    if kind == "targeted":
        return TargetedAdaptiveAdversary(alpha, victims=(0,), seed=seed)
    return make_batched_adversary(kind, alpha, [seed])


#: declarative adversary catalog (name -> short description)
ADVERSARIES = {
    "null": "no corruption (fault-free clique)",
    "adaptive": "rushing greedy payload-seeking adversary",
    "nonadaptive": "fault schedule fixed before round 0",
    "sliding-window": "mobile window sweeping the id space",
    "targeted": "budget concentrated on victim node 0",
    "iid-corrupt": "stochastic i.i.d. per-edge bit-flip channel",
    "iid-erase": "stochastic i.i.d. per-edge erasure (drop) channel",
    "gilbert-elliott": "two-state bursty channel (stationary rate alpha)",
    "byzantine-nodes": "floor(alpha*n) nodes corrupt all incident edges",
}


def run_single(trial: TrialSpec) -> Dict:
    """Execute one trial as a cell of one
    (:func:`~repro.experiments.vmap.run_cell_batched`); return its row."""
    from repro.experiments.vmap import run_cell_batched
    return run_cell_batched([trial])[0]


def execute_trial(trial_dict: Dict) -> Dict:
    """One trial dict in, its result row out."""
    return run_single(TrialSpec.from_dict(trial_dict))


@dataclass
class CampaignResult:
    """What ``run_campaign`` hands back: the spec, the store, and counters."""

    spec: ExperimentSpec
    store: TrialStore
    executed: int = 0
    cached: int = 0
    errors: int = 0
    unsupported: int = 0
    skipped: int = 0
    trials: List[TrialSpec] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.trials)

    def rows(self) -> List[Dict]:
        return self.store.rows_for(self.trials)

    def __str__(self) -> str:
        skipped = f"{self.skipped} skipped, " if self.skipped else ""
        return (f"campaign {self.spec.name!r}: {self.total} trials "
                f"({self.executed} executed, {self.cached} cached, "
                f"{skipped}{self.unsupported} unsupported, "
                f"{self.errors} errors)")


def run_campaign(spec: ExperimentSpec,
                 store: Union[TrialStore, str, None] = None,
                 jobs: int = 1,
                 resume: bool = False,
                 progress: Optional[Callable[[int, int, Dict], None]] = None,
                 backend: Optional[str] = None,
                 policy=None,
                 budget_seconds: Optional[float] = None,
                 shards: Optional[int] = None,
                 lease_ttl: Optional[float] = None) -> CampaignResult:
    """Execute every trial of ``spec`` not already in ``store``.

    ``resume=False`` re-executes all trials (overwriting their store rows);
    ``resume=True`` serves completed trials from the store and only runs
    the missing ones — plus any whose stored row is an ``error`` or a
    ``skipped``, since both record that a result is still owed, not a
    verdict (``unsupported`` rows are deterministic and stay cached).
    ``progress(done, total, row)`` is called after every trial completion;
    cached trials are reported via the returned counters instead.

    ``backend`` selects how pending trials execute — see
    :mod:`repro.sched.backend` for the registry: ``"serial"`` (inline),
    ``"vmap"`` (cells as single tensor programs, bit-identical rows), or
    ``"sharded"`` (content-addressed shards drained by ``jobs`` local
    worker processes, each running its cells batched; ``shards`` and
    ``lease_ttl`` apply, extra hosts can join via ``repro sched work``,
    and a store without a path shards into a temporary directory), or any
    name added with :func:`repro.sched.register_backend`.  ``None`` means
    sharded when ``jobs > 1``, else serial.

    ``policy`` is an optional :class:`repro.faults.ResiliencePolicy`
    adding per-trial wall-clock timeouts and bounded retries (every
    retry re-runs the identical trial dict, so recovered rows are
    bit-identical to undisturbed ones).  ``None`` keeps the legacy
    fast path.

    ``budget_seconds`` is a per-invocation wall-clock budget: when it
    runs out the backend stops and every unreached trial is recorded as
    an explicit ``skipped`` row (never silently dropped), which a later
    ``resume`` re-runs.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if budget_seconds is not None and budget_seconds <= 0:
        raise ValueError("budget_seconds must be positive (or None)")
    from repro.sched.backend import CampaignRun, get_backend
    if backend is None:
        backend = "sharded" if jobs > 1 else "serial"
    executor = get_backend(backend)  # ValueError for an unknown name
    if not isinstance(store, TrialStore):
        store = TrialStore(store)

    trials = spec.trials()
    result = CampaignResult(spec=spec, store=store, trials=trials)
    # record the campaign header once per distinct spec: a resume (or any
    # re-invocation with an identical spec) must not grow the store file
    # with duplicate header lines
    header_hash = f"campaign:{spec.name}"
    previous = store.get_by_hash(header_hash)
    if previous is None or previous.get("spec") != spec.to_dict():
        store.append({"hash": header_hash, "kind": "campaign",
                      "spec": spec.to_dict()})
    if resume:
        def needs_run(trial: TrialSpec) -> bool:
            row = store.get(trial)
            return row is None or row["status"] in (STATUS_ERROR,
                                                    STATUS_SKIPPED)
        pending = [t for t in trials if needs_run(t)]
        result.cached = len(trials) - len(pending)
    else:
        pending = list(trials)

    done = 0
    total = len(pending)

    def record(row: Dict) -> None:
        nonlocal done
        store.append(row)
        done += 1
        if row["status"] == STATUS_SKIPPED:
            result.skipped += 1
        else:
            result.executed += 1
            if row["status"] == STATUS_ERROR:
                result.errors += 1
            elif row["status"] == STATUS_UNSUPPORTED:
                result.unsupported += 1
        if progress is not None:
            progress(done, total, row)

    def tracking_record(row: Dict) -> None:
        run.recorded.add(row.get("hash"))
        record(row)

    run = CampaignRun(
        spec=spec, store=store, pending=pending, record=tracking_record,
        jobs=jobs, resume=resume, policy=policy,
        deadline=(time.monotonic() + budget_seconds
                  if budget_seconds is not None else None),
        shards=shards, lease_ttl=lease_ttl)
    executor.execute(run)

    # a backend that stopped early (deadline, dead worker fleet) leaves
    # trials without rows; record them as explicit skips so the report
    # and the store reflect every coordinate, and resume re-runs them
    leftover = run.remaining()
    if leftover:
        reason = (f"time budget ({budget_seconds}s) exhausted"
                  if budget_seconds is not None and run.out_of_time()
                  else f"backend {backend!r} stopped before reaching "
                       f"this trial")
        stamp = round(time.time(), 6)
        for trial in leftover:
            record({"hash": trial.content_hash(), "trial": trial.to_dict(),
                    "status": STATUS_SKIPPED, "reason": reason,
                    "wall_seconds": 0.0, "recorded_unix": stamp})
    return result
