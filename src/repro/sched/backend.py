"""Campaign execution backends behind one interface.

Historically :func:`repro.experiments.runner.run_campaign` branched
inline on a backend string.  This module lifts each branch into a
:class:`Backend` object behind a registry, so a new execution substrate
(the sharded dispatcher, a future remote pool) is one registered class,
not another ``if`` arm in the runner:

* ``serial``  — each trial in this process as a cell of one;
* ``vmap``    — whole cells as single lockstep tensor programs;
* ``sharded`` — leased shard dispatch across ``jobs`` local worker
  processes and any workers other hosts join
  (:mod:`repro.sched.dispatcher`); each worker runs its shards through
  the ``vmap`` backend.  This is what ``jobs > 1`` means.

All of them write rows through the one trial executor,
:func:`repro.experiments.vmap.run_cell_batched`, and differ only in how
many trials share a batch.

Every backend receives a :class:`CampaignRun` — the pending trials, the
``record`` sink, the resilience policy, and the optional wall-clock
deadline — and must simply stop executing when :meth:`CampaignRun.out_of_
time` turns true; the runner then records explicit ``skipped`` rows for
whatever was not reached, so a time budget never silently drops work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Type

from repro.experiments.spec import ExperimentSpec, TrialSpec

#: default shards per worker for the sharded backend: enough granularity
#: that reclaiming one dead worker's shard re-runs ~1/(4·workers) of the
#: campaign, small enough that lease traffic stays negligible
SHARDS_PER_WORKER = 4


@dataclass
class CampaignRun:
    """Everything a backend needs to execute one campaign invocation."""

    spec: Optional[ExperimentSpec]          # None inside a shard worker
    store: "TrialStore"                     # noqa: F821 — runtime type
    pending: List[TrialSpec]
    record: Callable[[Dict], None]          # appends row + fires progress
    jobs: int = 1                           # sharded: local worker count
    resume: bool = False                    # sharded: keep earlier shards
    policy: Optional[object] = None         # faults.ResiliencePolicy
    deadline: Optional[float] = None        # time.monotonic() cutoff
    shards: Optional[int] = None            # sharded: shard count
    lease_ttl: Optional[float] = None       # sharded: heartbeat ttl
    recorded: Set[str] = field(default_factory=set)

    def out_of_time(self) -> bool:
        return self.deadline is not None \
            and time.monotonic() >= self.deadline

    def seconds_left(self) -> Optional[float]:
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - time.monotonic())

    def remaining(self) -> List[TrialSpec]:
        """Pending trials no backend has recorded a row for yet."""
        return [t for t in self.pending
                if t.content_hash() not in self.recorded]


class Backend:
    """One way of executing a campaign's pending trials.

    Subclasses implement :meth:`execute`; they must call ``run.record``
    exactly once per trial they complete and return early (without
    raising) when ``run.out_of_time()``.
    """

    #: registry key; subclasses set it and register via @register_backend
    name: str = "?"

    def execute(self, run: CampaignRun) -> None:
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Backend]] = {}


def register_backend(cls: Type[Backend]) -> Type[Backend]:
    """Class decorator adding a backend to the registry."""
    _REGISTRY[cls.name] = cls
    return cls


def _register_sharded() -> None:
    """The sharded backend lives in :mod:`repro.sched.dispatcher`, which
    needs the whole shard/lease/merge machinery; importing it registers
    it.  Only a caller that may need it pays for that import."""
    from repro.sched import dispatcher  # noqa: F401


def backend_names() -> tuple:
    """Registered backend names, stable order (serial first — the
    reference semantics — then the accelerated/distributed ones)."""
    _register_sharded()
    preferred = ("serial", "vmap", "sharded")
    names = [n for n in preferred if n in _REGISTRY]
    names.extend(sorted(set(_REGISTRY) - set(preferred)))
    return tuple(names)


def get_backend(name: str) -> Backend:
    """A fresh instance of the backend registered as ``name``; raises
    ``ValueError`` for a name no backend is registered under."""
    if name not in _REGISTRY:
        _register_sharded()
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown backend {name!r}; known: "
                         f"{backend_names()}") from None
    return cls()


@register_backend
class SerialBackend(Backend):
    """Inline per-trial loop: each trial is a cell of one."""

    name = "serial"

    def execute(self, run: CampaignRun) -> None:
        from repro.experiments.vmap import run_cell_batched
        for trial in run.pending:
            if run.out_of_time():
                return
            run.record(run_cell_batched([trial], policy=run.policy)[0])


@register_backend
class VmapBackend(Backend):
    """Cell-batched tensor-program execution; the deadline is checked
    between cells (a cell is the atomic unit of batched work)."""

    name = "vmap"

    def execute(self, run: CampaignRun) -> None:
        from repro.experiments.vmap import (batch_byte_budget, group_cells,
                                            run_cell_batched)
        batch_byte_budget()  # a malformed override fails before any cell
        for cell_trials in group_cells(run.pending).values():
            if run.out_of_time():
                return
            for row in run_cell_batched(cell_trials, policy=run.policy):
                run.record(row)
