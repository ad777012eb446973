"""The ``vmap`` campaign backend: run whole cells as one tensor program.

``run_campaign(..., backend="vmap")`` groups a campaign's pending trials
into *cells* — trials sharing ``(protocol, adversary, n, alpha, width,
bandwidth)``, i.e. everything except the replicate axis — and executes each
cell as a single :class:`~repro.cliquesim.batched.BatchedClique` run of
its protocol's ``run_many`` (resolved through :mod:`repro.core.vmapped`).
Results are split back into exactly the per-trial store rows the serial
backend writes: same hashes, same derived seeds, bit-identical outcome
fields.  The serial backend runs the same ``run_many`` one trial at a
time, so the two backends differ only in how many trials share a batch.

A singleton cell is a batch of one like every other cell.  Cells fall
back to per-trial serial execution (the plain
:func:`~repro.experiments.runner.execute_trial`) whenever lockstep
batching is impossible or unprofitable:

* the protocol has no batched ``run_many`` (the baselines; nonadaptive,
  det-sqrt, det-logn and the adaptive compiler are all in
  :data:`~repro.core.vmapped.BATCHED_PROTOCOLS`);
* per-trial routing schedules diverge
  (:class:`~repro.core.routing.CellUnbatchable` — e.g.
  nonadaptive's shift-dependent return step at unlucky seeds);
* a single trial's payload planes exceed the byte budget
  (:func:`max_batch_trials` returns 0);
* anything at all goes wrong mid-batch (including ``ProfileError``
  configurations) — serial re-execution then reproduces the exact serial
  ``unsupported``/``error`` rows.

One exception is finer-grained: when a *wrapped per-trial adversary*
crashes inside a :class:`~repro.adversary.PerTrialAdversaryBatch`
(:class:`~repro.adversary.PerTrialFailure`), only the crashing trial
degrades to serial execution — its row records the fallback reason —
and the remaining trials re-batch from scratch (their streams derive
from their own seeds, so dropping a slot changes nothing for them).
A :class:`~repro.faults.ResiliencePolicy` threads through every
fallback path, and chaos-marked trials (``REPRO_CHAOS_TIMEOUT``) are
peeled out of the batch so the injection and its retries actually
happen.

The fallback is the parity guarantee: the batched path only ever records
rows for runs that completed batched, and those are bit-identical to
serial by construction (same seed derivations, same schedules, lockstep
rounds through the batched engine).

Metrics-on runs (``REPRO_OBS_METRICS=1``) stay batched: a tracer is
installed around the cell's one ``run_protocol_many`` call, and every row
of the cell carries that unit's snapshot.
"""

from __future__ import annotations

import os
import time
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
    cap and the byte budget.  0 means a single trial exceeds the budget —
    the caller must fall back to serial per-trial execution."""
    return int(min(MAX_BATCH_TRIALS,
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


def _rows_serial(trials: Sequence[TrialSpec], policy=None) -> List[Dict]:
    from repro.faults.resilience import execute_trial_resilient
    return [execute_trial_resilient(t.to_dict(), policy) for t in trials]


def _rows_per_trial_failure(trials: Sequence[TrialSpec], failure,
                            policy=None) -> List[Dict]:
    """Degrade exactly the failing trial to serial and keep batching the
    rest — the batched analogue of the serial runner's per-trial failure
    containment.  The serial-fallback row records why it fell back."""
    idx = failure.trial_index
    row = _rows_serial(trials[idx:idx + 1], policy)[0]
    row["fallback"] = f"per-trial batch failure: {failure.cause!r}"
    rest = list(trials[:idx]) + list(trials[idx + 1:])
    # fresh batched run over the survivors: per-trial streams are derived
    # from each trial's own seeds, so dropping one slot changes nothing
    # for the others
    rest_rows = run_cell_batched(rest, policy=policy) if rest else []
    return rest_rows[:idx] + [row] + rest_rows[idx:]


def run_cell_batched(trials: Sequence[TrialSpec],
                     policy=None) -> List[Dict]:
    """Execute one cell's trials as one batched run; rows come back in
    trial order with the exact serial row schema.  A crash of one wrapped
    per-trial adversary (:class:`~repro.adversary.batched.PerTrialFailure`)
    downgrades only that trial to serial execution; any other batching
    obstacle downgrades the whole chunk.  With ``REPRO_OBS_METRICS`` on,
    the one ``run_protocol_many`` call is the unit of execution: every row
    carries its snapshot, with ``trials`` the chunk's trial count."""
    from repro.adversary import PerTrialFailure
    from repro.core.messages import AllToAllInstance
    from repro.core.vmapped import (BATCHED_PROTOCOLS, make_batched_protocol,
                                    run_protocol_many)
    from repro.experiments.runner import STATUS_OK
    from repro.faults.resilience import (_chaos_hits, chaos_timeout_fraction,
                                         trial_alarm)
    from repro.obs import tracing

    head = trials[0]
    if head.protocol not in BATCHED_PROTOCOLS:
        return _rows_serial(trials, policy)
    chaos = chaos_timeout_fraction()
    if chaos > 0.0:
        # chaos-marked trials must go through the resilient serial path so
        # the injected timeout (and its retries) actually happen; batching
        # would silently skip the injection
        hit = [t for t in trials if _chaos_hits(t.content_hash(), chaos)]
        if hit:
            hit_hashes = {t.content_hash() for t in hit}
            calm = [t for t in trials if t.content_hash() not in hit_hashes]
            by_hash = {r["hash"]: r for r in (
                run_cell_batched(calm, policy=policy) if calm else [])}
            for t, row in zip(hit, _rows_serial(hit, policy)):
                by_hash[row["hash"]] = row
            return [by_hash[t.content_hash()] for t in trials]
    limit = max_batch_trials(head)
    if limit == 0:
        # one trial's planes already exceed the byte budget: run the cell
        # serially (same rows — serial is the parity reference)
        return _rows_serial(trials, policy)
    if len(trials) > limit:
        return [row
                for start in range(0, len(trials), limit)
                for row in run_cell_batched(
                    trials[start:start + limit], policy=policy)]

    start = time.perf_counter()
    budget = (policy.timeout_seconds * len(trials)
              if policy is not None and policy.timeout_seconds else None)
    try:
        # the whole cell gets the summed per-trial budget; a cell-level
        # timeout falls through the generic handler to resilient serial
        # execution, where each trial is guarded individually
        with trial_alarm(budget):
            protocol = make_batched_protocol(head.protocol)
            adversary = make_batched_adversary(
                head.adversary, head.alpha,
                [t.adversary_seed for t in trials])
            instances = [AllToAllInstance.random(t.n, width=t.width,
                                                 seed=t.instance_seed)
                         for t in trials]
            with tracing.unit_trace("cell") as tracer:
                reports = run_protocol_many(
                    protocol, instances, adversary,
                    bandwidth=head.bandwidth,
                    seeds=[t.protocol_seed for t in trials])
    except PerTrialFailure as failure:
        return _rows_per_trial_failure(trials, failure, policy)
    except Exception:  # noqa: BLE001 — fall back, never guess at parity
        return _rows_serial(trials, policy)
    # amortised wall time: the cell ran once for all of its trials
    wall = round((time.perf_counter() - start) / len(trials), 6)
    stamp = round(time.time(), 6)
    snapshot = ({} if tracer is None
                else {"metrics": dict(tracer.snapshot(), trials=len(trials))})
    rows = []
    for trial, report in zip(trials, reports):
        rows.append({
            "hash": trial.content_hash(),
            "trial": trial.to_dict(),
            "status": STATUS_OK,
            "rounds": report.rounds,
            "bits_sent": report.bits_sent,
            "accuracy": report.accuracy,
            "correct_entries": report.correct_entries,
            "total_entries": report.total_entries,
            "entries_corrupted": report.entries_corrupted_in_transit,
            "wall_seconds": wall,
            "recorded_unix": stamp,
            **snapshot,
        })
    return rows
