"""Observability: low-overhead tracing and campaign observability.

Both are off by default and engineered so the disabled path costs one
module-attribute check on the hot paths:

* :mod:`~repro.obs.tracing` — the one instrumentation API.  Instrumented
  code opens :func:`~repro.obs.tracing.span` intervals and adds
  :func:`~repro.obs.tracing.count` increments (the payload-path kernels:
  ``exchange_words`` / ``round_many``, the batched Reed–Solomon pipeline,
  the GF(2^m) matmul, the routers, the adaptive compiler's sketch
  phases), and while a :class:`~repro.obs.tracing.Tracer` is installed
  the Congested Clique engine emits one event per executed round (label,
  phase, width, bits, corruptions) and one per packed-transport call
  (chunks, dropped entries).  :func:`~repro.obs.tracing.summarize` folds a
  trace into per-phase totals, span timers and counters, and
  :meth:`~repro.obs.tracing.Tracer.snapshot` into a row's ``metrics``
  dict.  Traces export as JSONL (``repro trace record`` / ``repro trace
  show``); with ``REPRO_OBS_METRICS=1`` every campaign row carries the
  snapshot of its unit of execution — its batched cell, or its serial
  trial.
* :mod:`~repro.obs.watch` / :mod:`~repro.obs.trend` — campaign
  observability: ``repro experiment watch`` tails a JSONL trial store for
  live progress (done/pending, trials/s, ETA, failures) and ``repro bench
  trend`` turns ``repro bench --store`` history into speedup-over-time
  reports with regression flags.  :func:`~repro.obs.watch.read_rows` is
  the one tolerant JSONL reader behind all three.

``watch`` and ``trend`` are imported lazily by the CLI (they touch the
experiments subsystem); importing :mod:`repro.obs` itself pulls in only the
stdlib-light ``tracing`` module, so instrumented kernels pay no import
cost.
"""

from repro.obs import tracing

__all__ = ["tracing"]
