"""The trial executor: every campaign row comes from :func:`run_cell_batched`.

A *cell* is a group of trials sharing ``(protocol, adversary, n, alpha,
width, bandwidth)`` — everything except the replicate axis.  A cell runs
as one lockstep :class:`~repro.cliquesim.batched.BatchedClique` run of its
protocol's ``run_many`` (resolved through
:data:`~repro.core.vmapped.PROTOCOLS`), chunked by
:data:`MAX_BATCH_TRIALS` and the byte budget, and its results split back
into per-trial store rows.  Every backend writes rows through it:
``vmap`` runs whole cells, ``serial`` runs each trial as a cell of one,
and each shard worker runs the cells of its shard.  A trial's seeds
derive from its own coordinates, so its row does not depend on the batch
it ran in.

* A :class:`~repro.core.profiles.ProfileError` is an outcome: every raise
  site reads only cell quantities, so the one run writes every trial's
  ``unsupported`` row.  So is a ``ValueError`` from resolving the protocol
  or adversary name (an unknown name, say): the one run writes every
  trial's ``error`` row.
* A chunk goes down to one trial: a trial over the byte budget is a cell
  of one.
* A *cell of one* turns any exception into its ``error`` row (the
  adversary's own exception for a crashed per-trial adversary), runs
  under a per-trial alarm, and retries with backoff under a
  :class:`~repro.faults.ResiliencePolicy`; a row that took more than one
  attempt says how many.  Chaos-marked trials (``REPRO_CHAOS_TIMEOUT``)
  run as cells of one, so the injected first-attempt timeout and its
  retries happen.
* When a multi-trial batch raises anything else (say
  :class:`~repro.core.routing.CellUnbatchable`, when per-trial routing
  schedules diverge), :func:`_rows_alone` runs its trials as cells of one.
* When one *wrapped per-trial adversary* crashes inside a
  :class:`~repro.adversary.PerTrialAdversaryBatch`
  (:class:`~repro.adversary.PerTrialFailure`), only that trial runs alone,
  its row records the ``fallback`` reason, and the rest re-batch.

With ``REPRO_OBS_METRICS=1`` a tracer is installed around each run, and
every row carries the snapshot of the run that wrote it, whatever its
status.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import OrderedDict
from typing import Dict, List, Sequence

from repro.experiments.spec import TrialSpec

#: upper bound on trials batched into one tensor program; larger cells are
#: chunked so payload stacks stay a bounded multiple of one trial's memory
MAX_BATCH_TRIALS = 64

#: default ceiling on a batch's payload-plane memory; overridable via the
#: REPRO_BATCH_BYTE_BUDGET environment variable (bytes).  256 MiB keeps an
#: n=1024 cell to a handful of trials per chunk instead of the count cap.
DEFAULT_BATCH_BYTE_BUDGET = 256 * 1024 * 1024

#: live plane copies the batched engine holds at an exchange peak
#: (intended stack, delivered stack, corruption workspace, present masks —
#: a deliberately conservative multiplier, sized against measured RSS)
_PLANE_COPIES = 4


def batch_byte_budget() -> int:
    """The in-effect batch memory budget (env override or default).
    A set override must be a positive integer byte count; anything else
    raises ``ValueError`` rather than silently running at the default."""
    raw = os.environ.get("REPRO_BATCH_BYTE_BUDGET")
    if not raw:
        return DEFAULT_BATCH_BYTE_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise ValueError(f"REPRO_BATCH_BYTE_BUDGET must be a positive "
                         f"integer byte count; got {raw!r}")
    return value


def trial_plane_bytes(trial: TrialSpec) -> int:
    """Estimated peak bytes one trial contributes to a batched exchange:
    its ``(n, n, words)`` uint64 payload plane times the engine's live
    copies.  The chunker divides the byte budget by this."""
    from repro.utils.bits import words_per_width
    return trial.n * trial.n * words_per_width(trial.width) * 8 * _PLANE_COPIES


def max_batch_trials(trial: TrialSpec) -> int:
    """Largest batch of ``trial``-shaped trials that fits both the count
    cap and the byte budget, and at least 1: a trial whose planes alone
    exceed the budget runs as a cell of one."""
    return max(1, min(MAX_BATCH_TRIALS,
                      batch_byte_budget() // max(1, trial_plane_bytes(trial))))


def make_batched_adversary(kind: str, alpha: float, seeds: Sequence[int]):
    """Batched analogue of :func:`~repro.experiments.runner.make_adversary`,
    and the one place the natively batched kinds are built.  The rushing
    kinds have no batched implementation: one serial instance per trial
    runs in lockstep."""
    from repro.adversary.batched import (BatchedNullAdversary,
                                         PerTrialAdversaryBatch)
    from repro.experiments.runner import ADVERSARIES, make_adversary
    # a cell loads the adversary modules of its own kind only
    if kind == "null" or alpha <= 0:
        return BatchedNullAdversary()
    if kind in ("adaptive", "sliding-window", "targeted"):
        return PerTrialAdversaryBatch(
            [make_adversary(kind, alpha, seed) for seed in seeds])
    if kind == "nonadaptive":
        from repro.adversary.nonadaptive import BatchedNonAdaptiveAdversary
        return BatchedNonAdaptiveAdversary(alpha, seeds)
    from repro.faults import channels
    if kind == "iid-corrupt":
        return channels.BatchedIIDEdgeChannel(alpha, seeds, mode="corrupt")
    if kind == "iid-erase":
        return channels.BatchedIIDEdgeChannel(alpha, seeds, mode="erase")
    if kind == "gilbert-elliott":
        return channels.BatchedGilbertElliottChannel(alpha, seeds,
                                                     mode="corrupt")
    if kind == "byzantine-nodes":
        return channels.BatchedByzantineNodeAdversary(alpha, seeds,
                                                      mode="corrupt")
    raise ValueError(f"unknown adversary kind {kind!r}; known: "
                     f"{sorted(ADVERSARIES)}")


def group_cells(trials: Sequence[TrialSpec]) -> "OrderedDict":
    """Group trials by :attr:`TrialSpec.cell`, preserving first-seen cell
    order and within-cell trial order (both follow the spec expansion)."""
    cells: "OrderedDict" = OrderedDict()
    for trial in trials:
        cells.setdefault(trial.cell, []).append(trial)
    return cells


def run_cell_batched(trials: Sequence[TrialSpec],
                     policy=None) -> List[Dict]:
    """Execute one cell's trials and return their rows in trial order.
    Chaos-marked trials and chunks of one run as cells of one; the rest
    run in lockstep chunks of at most :func:`max_batch_trials` trials.
    ``policy`` is an optional :class:`~repro.faults.ResiliencePolicy`:
    a chunk gets the summed per-trial timeout, a cell of one its own
    timeout and the retries."""
    from repro.faults.resilience import _chaos_hits, chaos_timeout_fraction

    fraction = chaos_timeout_fraction()
    rows: Dict[str, Dict] = {}
    batch = []
    for trial in trials:
        if len(trials) > 1 and not _chaos_hits(trial.content_hash(),
                                               fraction):
            batch.append(trial)
        else:
            rows[trial.content_hash()] = _run_alone(trial, policy)
    limit = max_batch_trials(trials[0])
    for start in range(0, len(batch), limit):
        for row in _run_chunk(batch[start:start + limit], policy):
            rows[row["hash"]] = row
    return [rows[trial.content_hash()] for trial in trials]


def _run_chunk(trials: Sequence[TrialSpec], policy=None) -> List[Dict]:
    """One lockstep run of a chunk, with its failures contained."""
    from repro.adversary import PerTrialFailure

    if len(trials) == 1:
        return [_run_alone(trials[0], policy)]
    timeout = (policy.timeout_seconds * len(trials)
               if policy is not None and policy.timeout_seconds else None)
    try:
        return _run_lockstep(trials, timeout)
    except PerTrialFailure as failure:
        # only the crashing trial runs alone; the rest re-batch, since each
        # trial's streams derive from its own seeds
        idx = failure.trial_index
        row, = _rows_alone(trials[idx:idx + 1], policy)
        row["fallback"] = f"per-trial batch failure: {failure.cause!r}"
        rest = run_cell_batched(
            list(trials[:idx]) + list(trials[idx + 1:]), policy)
        return rest[:idx] + [row] + rest[idx:]
    except Exception:  # noqa: BLE001 — cells of one contain every failure
        return _rows_alone(trials, policy)


def _rows_alone(trials: Sequence[TrialSpec], policy=None) -> List[Dict]:
    """The fallback of a multi-trial batch that raised: each trial runs as
    a cell of one."""
    return [_run_alone(trial, policy) for trial in trials]


def _run_alone(trial: TrialSpec, policy=None) -> Dict:
    """A cell of one: its own alarm, retries with exponential backoff, and
    the chaos-injected first-attempt timeout.  Every attempt re-runs the
    identical trial, so a retried row equals an undisturbed one; it gains
    an ``attempts`` field only when more than one attempt ran."""
    from repro.experiments.runner import STATUS_ERROR
    from repro.faults.resilience import (NO_POLICY, _chaos_hits,
                                         chaos_timeout_fraction)

    policy = policy or NO_POLICY
    chaos = chaos_timeout_fraction()
    hit = _chaos_hits(trial.content_hash(), chaos)
    attempts = 0
    while True:
        attempts += 1
        row, = _run_lockstep([trial], policy.timeout_seconds,
                             chaos=chaos if attempts == 1 and hit else 0.0)
        if row["status"] != STATUS_ERROR or attempts > policy.retries:
            break
        delay = policy.backoff_seconds * (2 ** (attempts - 1))
        if delay > 0:
            time.sleep(delay)
    if attempts > 1:
        row["attempts"] = attempts
    return row


def _run_lockstep(trials: Sequence[TrialSpec], timeout=None,
                  chaos: float = 0.0) -> List[Dict]:
    """Run ``trials`` as one lockstep batch and build their rows, the
    exact serial row schema.  A ``ProfileError`` writes every trial's
    ``unsupported`` row, and a ``ValueError`` from resolving the protocol
    or adversary name every trial's ``error`` row: both read only cell
    quantities.  A cell of one turns any other exception into its
    ``error`` row; a larger batch raises it.  ``chaos`` > 0 injects a
    timeout before the run."""
    from repro.adversary import PerTrialFailure
    from repro.core.messages import AllToAllInstance
    from repro.core.profiles import ProfileError
    from repro.core.vmapped import make_protocol, run_protocol_many
    from repro.experiments.runner import (STATUS_ERROR, STATUS_OK,
                                          STATUS_UNSUPPORTED)
    from repro.faults.resilience import (CHAOS_TIMEOUT_ENV, TrialTimeout,
                                         trial_alarm)
    from repro.obs import tracing

    head = trials[0]
    start = time.perf_counter()
    with tracing.unit_trace("cell") as tracer:
        resolving = True
        try:
            if chaos > 0.0:
                raise TrialTimeout(f"chaos-injected worker timeout "
                                   f"({CHAOS_TIMEOUT_ENV}={chaos})")
            with trial_alarm(timeout):
                protocol = make_protocol(head.protocol)
                adversary = make_batched_adversary(
                    head.adversary, head.alpha,
                    [t.adversary_seed for t in trials])
                resolving = False
                instances = [AllToAllInstance.random(t.n, width=t.width,
                                                     seed=t.instance_seed)
                             for t in trials]
                reports = run_protocol_many(
                    protocol, instances, adversary,
                    bandwidth=head.bandwidth,
                    seeds=[t.protocol_seed for t in trials])
            outcomes = [{
                "status": STATUS_OK,
                "rounds": report.rounds,
                "bits_sent": report.bits_sent,
                "accuracy": report.accuracy,
                "correct_entries": report.correct_entries,
                "total_entries": report.total_entries,
                "entries_corrupted": report.entries_corrupted_in_transit,
            } for report in reports]
        except ProfileError as exc:
            outcomes = [{"status": STATUS_UNSUPPORTED,
                         "reason": str(exc)}] * len(trials)
        except Exception as exc:  # noqa: BLE001 — containment is the contract
            if len(trials) > 1 and not (resolving
                                        and isinstance(exc, ValueError)):
                raise
            cause = exc.cause if isinstance(exc, PerTrialFailure) else exc
            outcomes = [{"status": STATUS_ERROR, "reason": repr(cause),
                         "traceback": traceback.format_exc()}] * len(trials)
    # amortised wall time: the batch ran once for all of its trials
    wall = round((time.perf_counter() - start) / len(trials), 6)
    stamp = round(time.time(), 6)
    snapshot = ({} if tracer is None
                else {"metrics": dict(tracer.snapshot(), trials=len(trials))})
    return [{"hash": trial.content_hash(), "trial": trial.to_dict(),
             **outcome, "wall_seconds": wall, "recorded_unix": stamp,
             **snapshot}
            for trial, outcome in zip(trials, outcomes)]
