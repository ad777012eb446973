"""Declarative, parallel, resumable experiment orchestration.

The engine behind every sweep, benchmark and example:

* :mod:`~repro.experiments.spec` — JSON-serializable campaign descriptions
  (grids of protocol × adversary × n × alpha × width × bandwidth ×
  replicate, with per-trial derived seeds);
* :mod:`~repro.experiments.runner` — backend-selectable execution
  (``serial`` / ``vmap`` / ``sharded``; ``jobs > 1`` runs the local
  sharded fleet) with per-trial failure capture and order-independent
  results;
* :mod:`~repro.experiments.vmap` — the one trial executor,
  :func:`~repro.experiments.vmap.run_cell_batched`: every backend writes
  its rows through it, and each cell runs as one tensor program over a
  :class:`~repro.cliquesim.batched.BatchedClique` (serial runs cells of
  one);
* :mod:`~repro.experiments.store` — a content-addressed JSONL artifact
  store giving transparent caching and resume;
* :mod:`~repro.experiments.aggregate` — replicate statistics and
  full-grid threshold estimation;
* :mod:`~repro.experiments.registry` — the named scenario catalog
  (``table1``, ``figure2-butterfly``, ...);
* :mod:`~repro.experiments.report` — plain-text result rendering.

Quickstart::

    from repro.experiments import build_campaign, run_campaign, aggregate

    result = run_campaign(build_campaign("table1"), jobs=4,
                          store="runs/table1.jsonl")
    for cell in aggregate(result.rows()):
        print(cell.protocol, cell.alpha, cell.accuracy.mean)

Cell-grouping rules (the ``vmap`` backend): two pending trials land in the
same batched cell iff they agree on every :attr:`TrialSpec.cell` field —
``(protocol, adversary, n, alpha, width, bandwidth)`` — i.e. they differ
only in ``replicate`` (and hence in derived seeds).  Grouping happens
*after* resume filtering, so a partially-cached cell batches only its
missing trials.  Cells bigger than
:data:`repro.experiments.vmap.MAX_BATCH_TRIALS`, or than the byte budget
allows, are chunked, down to cells of one.  A ``ProfileError`` writes
every trial's ``unsupported`` row from the one batched run; a batch that
raises anything else runs its trials as cells of one, so store rows are
bit-identical to the serial backend in every case.

Observability row schema: every trial row carries ``wall_seconds``
(trial execution time) and ``recorded_unix`` (wall-clock completion
stamp — what ``repro experiment watch`` derives its throughput/ETA from);
with ``REPRO_OBS_METRICS=1`` each row also embeds a ``metrics`` snapshot
(:meth:`repro.obs.tracing.Tracer.snapshot`: counters and span timers)
scoped to the lockstep run that wrote it (a cell of one for the serial
backend), whatever the row's status, plus ``trials``, the run's trial
count; cells stay batched.  ``repro bench --store`` rows
(``kind == "bench"``) feed ``repro bench trend``.  Structured protocol
traces use a separate JSONL schema — see :mod:`repro.obs.tracing`
(``meta``/``round``/``transport``/``span``/``count`` events, schema
version in the ``meta`` line).
"""

from repro.experiments.aggregate import (
    CellStats,
    Stat,
    StreamAggregator,
    ThresholdEstimate,
    aggregate,
    aggregate_store,
    estimate_thresholds,
)
from repro.experiments.registry import (
    TABLE1_ALPHAS,
    build_campaign,
    campaign_names,
    register,
)
from repro.experiments.report import (
    render_cells,
    render_report,
    render_thresholds,
)
from repro.experiments.runner import (
    ADVERSARIES,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SKIPPED,
    STATUS_UNSUPPORTED,
    CampaignResult,
    execute_trial,
    make_adversary,
    run_campaign,
    run_single,
)
from repro.experiments.vmap import (
    group_cells,
    make_batched_adversary,
    run_cell_batched,
)
from repro.experiments.spec import (
    ExperimentSpec,
    GridSpec,
    TrialSpec,
    free_grid,
)
from repro.experiments.store import TrialStore, iter_store_rows

__all__ = [
    "ADVERSARIES",
    "CampaignResult",
    "CellStats",
    "ExperimentSpec",
    "GridSpec",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_SKIPPED",
    "STATUS_UNSUPPORTED",
    "Stat",
    "StreamAggregator",
    "TABLE1_ALPHAS",
    "ThresholdEstimate",
    "TrialSpec",
    "TrialStore",
    "aggregate",
    "aggregate_store",
    "build_campaign",
    "campaign_names",
    "estimate_thresholds",
    "execute_trial",
    "free_grid",
    "group_cells",
    "iter_store_rows",
    "make_adversary",
    "make_batched_adversary",
    "run_cell_batched",
    "register",
    "render_cells",
    "render_report",
    "render_thresholds",
    "run_campaign",
    "run_single",
]
