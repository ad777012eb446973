"""Structured tracing, the one instrumentation API: spans, counts and
per-round events, folded into snapshots and exportable as JSONL.

A :class:`Tracer` collects a flat event list with monotonic timestamps
relative to its creation:

* ``meta`` — always the first event: schema version, creation wall-clock,
  free-form context (protocol, n, alpha, ...);
* ``round`` — one per executed Congested Clique round, emitted by
  ``BatchedClique`` (the one engine behind the serial ``CongestedClique``
  too) while a tracer is installed: round index, label, phase
  (:func:`phase_of` of the label), width, and the bits actually sent and
  entries corrupted, summed over the batch's trials;
* ``transport`` — one per packed ``exchange_words`` call: label, phase,
  width, chunk count, dropped ("no message") entries;
* ``span`` — a named interval from :func:`span`, with a ``depth`` field
  recording the nesting level at entry;
* ``count`` — an explicit counter increment from :func:`count`.

Instrumented code calls :func:`span` and :func:`count` unconditionally:
with no tracer installed each costs one ``_current is None`` check, and a
span is a shared no-op.  The engine reads the installed tracer through
:func:`active`.

:func:`summarize` is the one fold.  It turns a trace (or a loaded JSONL
file) into per-phase rounds, wall-clock, width, bits, corruption and drop
totals, span totals by name (``timers``) and summed counts
(``counters``).  The round totals reconcile with the engine's
``rounds_used`` / ``bits_sent`` / ``entries_corrupted`` counters.
Wall-clock is attributed by assigning the gap since the previous
round/transport event to the phase of the event that closes it (round
events are emitted when their round is booked, so the gap is the time
spent producing that round).  :meth:`Tracer.snapshot` is that fold as the
JSON-ready ``metrics`` dict a campaign row carries.

``REPRO_OBS_METRICS=1`` (:func:`metrics_enabled`) is the switch for
those rows: the campaign runner opens :func:`unit_trace` around each unit
of execution — a batched cell's ``run_protocol_many`` call, or one serial
trial — and every row of the unit carries the unit's snapshot.

Serialisation is JSON Lines, one event per line, schema version in the
``meta`` line — the format ``repro trace record`` writes and
``repro trace show`` / CI artifacts consume.
"""

from __future__ import annotations

import json
import os
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

SCHEMA_VERSION = 1

#: the environment switch that asks for a ``metrics`` snapshot on every
#: campaign row (campaign worker processes inherit it)
METRICS_ENV = "REPRO_OBS_METRICS"


def metrics_enabled() -> bool:
    """Whether ``REPRO_OBS_METRICS`` asks for per-row metrics snapshots."""
    return os.environ.get(METRICS_ENV, "") not in ("", "0", "false",
                                                   "False")


def phase_of(label: str) -> str:
    """The phase prefix of a round label (text before the first '/' or
    '[', so chunked rounds fold into their logical step)."""
    base = label.split("[", 1)[0]
    return base.split("/", 1)[0] if base else "(unlabelled)"


class _NoopSpan:
    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class _Span:
    """Context manager recording one span event on exit."""

    __slots__ = ("_tracer", "_name", "_fields", "_t0")

    def __init__(self, tracer: "Tracer", name: str, fields: Dict):
        self._tracer = tracer
        self._name = name
        self._fields = fields
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._t0 = self._tracer.now()
        self._tracer._depth += 1
        return self

    def __exit__(self, *exc) -> bool:
        tracer = self._tracer
        tracer._depth -= 1
        row = {"kind": "span", "name": self._name,
               "t0": round(self._t0, 9), "t1": round(tracer.now(), 9),
               "depth": tracer._depth}
        row.update(self._fields)
        tracer.events.append(row)
        return False


class Tracer:
    """Collects trace events; timestamps are seconds since construction."""

    def __init__(self, label: str = "", **meta):
        self._t0 = time.perf_counter()
        self._depth = 0
        head = {"kind": "meta", "schema": SCHEMA_VERSION, "label": label,
                "created_unix": round(time.time(), 6)}
        head.update(meta)
        self.events: List[Dict] = [head]

    def now(self) -> float:
        return time.perf_counter() - self._t0

    # -- emission -------------------------------------------------------------
    def event(self, kind: str, **fields) -> Dict:
        row = {"kind": kind, "t": round(self.now(), 9)}
        row.update(fields)
        self.events.append(row)
        return row

    def round_event(self, index: int, label: str, width: int, bits: int,
                    corrupted: int) -> None:
        """One executed engine round (called from ``_book_round_many``)."""
        self.event("round", index=index, label=label,
                   phase=phase_of(label), width=width, bits=bits,
                   corrupted=corrupted)

    def transport_event(self, label: str, width: int, chunks: int,
                        dropped: int) -> None:
        """One packed ``exchange_words`` transport call."""
        self.event("transport", label=label, phase=phase_of(label),
                   width=width, chunks=chunks, dropped=dropped)

    def span(self, name: str, **fields) -> _Span:
        """Explicit interval; nests (the event records entry depth)."""
        return _Span(self, name, fields)

    def count(self, name: str, value=1) -> None:
        """Add ``value`` to the counter ``name``."""
        self.event("count", name=name, value=value)

    # -- folding and export ---------------------------------------------------
    def snapshot(self) -> Dict:
        """The trace folded by :func:`summarize` into a JSON-ready
        ``{"counters", "timers"}`` dict: round and transport events give
        ``net.rounds``, ``net.bits`` and ``net.dropped_entries``, explicit
        counts the rest of ``counters``, and spans by name ``timers``."""
        summary = summarize(self.events)
        counters = {"net.rounds": summary.rounds, "net.bits": summary.bits,
                    "net.dropped_entries": summary.dropped}
        counters.update(summary.counters)
        return {"counters": counters,
                "timers": {name: {"count": calls, "seconds": round(secs, 9)}
                           for name, (calls, secs)
                           in summary.timers.items()}}

    def write_jsonl(self, path: str) -> None:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.events:
                fh.write(json.dumps(row, sort_keys=True) + "\n")

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"Tracer(events={len(self.events)}, t={self.now():.3f}s)"


# -- installation --------------------------------------------------------------

_current: Optional[Tracer] = None


def active() -> Optional[Tracer]:
    """The installed tracer, or None (the engine's per-round check)."""
    return _current


def install(tracer: Tracer) -> None:
    global _current
    if _current is not None:
        raise RuntimeError("a tracer is already installed")
    _current = tracer


def uninstall() -> None:
    global _current
    _current = None


def trace(label: str = "", **meta):
    """``with tracing.trace("run") as tracer:`` — install a fresh tracer
    for a block.  Blocks nest: an inner block's tracer shadows the outer
    one, which is installed again when the inner block exits."""
    return _TraceContext(label, meta)


def unit_trace(label: str = "", **meta):
    """A :func:`trace` block around one unit of campaign execution when
    ``REPRO_OBS_METRICS`` asks for row snapshots; otherwise a no-op block
    whose ``as`` target is None."""
    return trace(label, **meta) if metrics_enabled() else nullcontext()


class _TraceContext:
    __slots__ = ("_label", "_meta", "_outer", "tracer")

    def __init__(self, label: str, meta: Dict):
        self._label = label
        self._meta = meta
        self._outer: Optional[Tracer] = None
        self.tracer: Optional[Tracer] = None

    def __enter__(self) -> Tracer:
        global _current
        self._outer = _current
        self.tracer = _current = Tracer(self._label, **self._meta)
        return self.tracer

    def __exit__(self, *exc) -> bool:
        global _current
        _current = self._outer
        return False


def span(name: str, **fields):
    """A span on the installed tracer, or the shared no-op when none is —
    what instrumented code calls unconditionally."""
    if _current is None:
        return _NOOP_SPAN
    return _current.span(name, **fields)


def count(name: str, value=1) -> None:
    """Add ``value`` to the counter ``name`` on the installed tracer; a
    no-op when none is."""
    if _current is not None:
        _current.count(name, value)


# -- aggregation ---------------------------------------------------------------

@dataclass
class PhaseTrace:
    """Per-phase totals folded out of a trace."""

    phase: str
    rounds: int = 0
    wall_seconds: float = 0.0
    width: int = 0
    bits: int = 0
    corrupted: int = 0
    dropped: int = 0
    transports: int = 0

    @property
    def mean_width(self) -> float:
        return self.width / self.rounds if self.rounds else 0.0


@dataclass
class TraceSummary:
    """What :func:`summarize` returns: ordered phases plus totals, span
    totals by name and summed counts."""

    phases: "OrderedDict[str, PhaseTrace]"
    wall_seconds: float = 0.0
    meta: Dict = field(default_factory=dict)
    #: span name -> [calls, seconds]
    timers: Dict[str, list] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        return sum(p.rounds for p in self.phases.values())

    @property
    def bits(self) -> int:
        return sum(p.bits for p in self.phases.values())

    @property
    def corrupted(self) -> int:
        return sum(p.corrupted for p in self.phases.values())

    @property
    def dropped(self) -> int:
        return sum(p.dropped for p in self.phases.values())

    def dropped_by_label(self) -> Dict[str, int]:
        """Raw transport labels -> dropped entries (reconciles with the
        protocols' ``dropped_*_entries`` diagnostics)."""
        return dict(self._dropped_by_label)

    _dropped_by_label: Dict[str, int] = field(default_factory=dict)


def summarize(rows: List[Dict]) -> TraceSummary:
    """Fold trace events into ordered per-phase statistics, span totals
    and counts."""
    phases: "OrderedDict[str, PhaseTrace]" = OrderedDict()
    summary = TraceSummary(phases=phases)
    prev_t = 0.0
    for row in rows:
        kind = row.get("kind")
        if kind == "meta":
            summary.meta = row
            continue
        if kind == "span":
            slot = summary.timers.setdefault(row.get("name", ""), [0, 0.0])
            slot[0] += 1
            slot[1] += float(row.get("t1", 0.0)) - float(row.get("t0", 0.0))
            continue
        if kind == "count":
            name = row.get("name", "")
            summary.counters[name] = \
                summary.counters.get(name, 0) + row.get("value", 0)
            continue
        if kind not in ("round", "transport"):
            continue
        t = float(row.get("t", 0.0))
        summary.wall_seconds = max(summary.wall_seconds, t)
        phase = row.get("phase") or "(unlabelled)"
        stats = phases.setdefault(phase, PhaseTrace(phase=phase))
        stats.wall_seconds += max(0.0, t - prev_t)
        prev_t = t
        if kind == "round":
            stats.rounds += 1
            stats.width += int(row.get("width", 0))
            stats.bits += int(row.get("bits", 0))
            stats.corrupted += int(row.get("corrupted", 0))
        else:
            stats.transports += 1
            dropped = int(row.get("dropped", 0))
            stats.dropped += dropped
            label = row.get("label", "")
            summary._dropped_by_label[label] = \
                summary._dropped_by_label.get(label, 0) + dropped
    return summary


def render_summary(summary: TraceSummary) -> str:
    """Human-readable per-phase table, then span totals and counts (the
    ``repro trace show`` and ``repro run --phases`` view)."""
    lines = [f"{'phase':>16} {'rounds':>7} {'wall ms':>10} "
             f"{'mean width':>11} {'bits':>12} {'corrupted':>10} "
             f"{'dropped':>8}"]
    for stats in summary.phases.values():
        lines.append(
            f"{stats.phase:>16} {stats.rounds:>7} "
            f"{stats.wall_seconds * 1e3:>10.2f} {stats.mean_width:>11.1f} "
            f"{stats.bits:>12,} {stats.corrupted:>10} {stats.dropped:>8}")
    lines.append(
        f"{'TOTAL':>16} {summary.rounds:>7} "
        f"{summary.wall_seconds * 1e3:>10.2f} {'':>11} "
        f"{summary.bits:>12,} {summary.corrupted:>10} {summary.dropped:>8}")
    if summary.timers:
        lines.append(f"\n{'span':>28} {'calls':>7} {'total ms':>10}")
        for name, (calls, seconds) in summary.timers.items():
            lines.append(f"{name:>28} {calls:>7} {seconds * 1e3:>10.2f}")
    if summary.counters:
        lines.append(f"\n{'count':>28} {'value':>18}")
        for name, value in summary.counters.items():
            lines.append(f"{name:>28} {value:>18,}")
    return "\n".join(lines)


def load_jsonl(path: str) -> List[Dict]:
    """Load a trace file with the tolerant store reader
    (:func:`repro.obs.watch.read_rows`): a missing file reads as no
    events, and torn or garbled lines are skipped."""
    from repro.obs.watch import read_rows
    return read_rows(path)
