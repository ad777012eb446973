"""Structured tracing: spans and per-round events, exportable as JSONL.

A :class:`Tracer` collects a flat event list with monotonic timestamps
relative to its creation:

* ``meta`` — always the first event: schema version, creation wall-clock,
  free-form context (protocol, n, alpha, ...);
* ``round`` — one per executed Congested Clique round, emitted by
  ``BatchedClique._book_round_many`` (the one engine behind the serial
  ``CongestedClique`` too) while a tracer is installed: round index,
  label, phase (:func:`repro.cliquesim.trace.phase_of` of the label),
  width, bits actually sent, corrupted entries;
* ``transport`` — one per packed ``exchange_words`` call: label, phase,
  width, chunk count, dropped ("no message") entries;
* ``span`` — explicit begin/end intervals from :meth:`Tracer.span`, with a
  ``depth`` field recording the nesting level at entry.

The engine reads the installed tracer through :func:`active` — a single
module-attribute check per round, so an uninstalled tracer costs nothing.
:func:`summarize` folds a trace (or a loaded JSONL file) into per-phase
wall-clock, bits, corruption and drop totals whose grand totals reconcile
with the engine's ``rounds_used`` / ``bits_sent`` / ``entries_corrupted``
counters; wall-clock is attributed by assigning the gap since the previous
round/transport event to the phase of the event that closes it (round
events are emitted when their round is booked, so the gap is the time spent
producing that round).

Serialisation is JSON Lines, one event per line, schema version in the
``meta`` line — the format ``repro trace record`` writes and
``repro trace show`` / CI artifacts consume.
"""

from __future__ import annotations

import json
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

SCHEMA_VERSION = 1

#: cached late import of repro.cliquesim.trace.phase_of (that module imports
#: the network engine, which imports this one — so the import must not run
#: at module load)
_phase_fn = None


def _phase_of(label: str) -> str:
    global _phase_fn
    if _phase_fn is None:
        from repro.cliquesim.trace import phase_of
        _phase_fn = phase_of
    return _phase_fn(label)


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
                   phase=_phase_of(label), width=width, bits=bits,
                   corrupted=corrupted)

    def transport_event(self, label: str, width: int, chunks: int,
                        dropped: int) -> None:
        """One packed ``exchange_words`` transport call."""
        self.event("transport", label=label, phase=_phase_of(label),
                   width=width, chunks=chunks, dropped=dropped)

    def span(self, name: str, **fields) -> _Span:
        """Explicit interval; nests (the event records entry depth)."""
        return _Span(self, name, fields)

    # -- export ---------------------------------------------------------------
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
    """``with tracing.trace("run") as tracer:`` — install for a block."""
    return _TraceContext(label, meta)


class _TraceContext:
    __slots__ = ("_label", "_meta", "tracer")

    def __init__(self, label: str, meta: Dict):
        self._label = label
        self._meta = meta
        self.tracer: Optional[Tracer] = None

    def __enter__(self) -> Tracer:
        self.tracer = Tracer(self._label, **self._meta)
        install(self.tracer)
        return self.tracer

    def __exit__(self, *exc) -> bool:
        uninstall()
        return False


def maybe_span(name: str, **fields):
    """A span on the active tracer, or a shared no-op when none is
    installed — what instrumented protocol code calls unconditionally."""
    if _current is None:
        return _NOOP_SPAN
    return _current.span(name, **fields)


# -- aggregation ---------------------------------------------------------------

@dataclass
class PhaseTrace:
    """Per-phase totals folded out of a trace."""

    phase: str
    rounds: int = 0
    wall_seconds: float = 0.0
    bits: int = 0
    corrupted: int = 0
    dropped: int = 0
    transports: int = 0


@dataclass
class TraceSummary:
    """What :func:`summarize` returns: ordered phases plus totals."""

    phases: "OrderedDict[str, PhaseTrace]"
    wall_seconds: float = 0.0
    meta: Dict = field(default_factory=dict)
    spans: List[Dict] = field(default_factory=list)

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
    """Fold trace events into ordered per-phase statistics."""
    phases: "OrderedDict[str, PhaseTrace]" = OrderedDict()
    summary = TraceSummary(phases=phases)
    prev_t = 0.0
    for row in rows:
        kind = row.get("kind")
        if kind == "meta":
            summary.meta = row
            continue
        if kind == "span":
            summary.spans.append(row)
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
    """Human-readable per-phase table (the ``repro trace show`` view)."""
    lines = [f"{'phase':>16} {'rounds':>7} {'wall ms':>10} {'bits':>12} "
             f"{'corrupted':>10} {'dropped':>8}"]
    for stats in summary.phases.values():
        lines.append(
            f"{stats.phase:>16} {stats.rounds:>7} "
            f"{stats.wall_seconds * 1e3:>10.2f} {stats.bits:>12,} "
            f"{stats.corrupted:>10} {stats.dropped:>8}")
    lines.append(
        f"{'TOTAL':>16} {summary.rounds:>7} "
        f"{summary.wall_seconds * 1e3:>10.2f} {summary.bits:>12,} "
        f"{summary.corrupted:>10} {summary.dropped:>8}")
    return "\n".join(lines)


def load_jsonl(path: str) -> List[Dict]:
    """Load a trace file; torn/garbled lines are skipped, like the
    experiments store does on interrupted writes."""
    rows: List[Dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(row, dict):
                rows.append(row)
    return rows
