"""Perf-trend reports over ``repro bench --store`` history.

``repro bench --store runs/bench.jsonl`` appends one row per benchmark per
run (kind ``bench``, keyed by suite/name/mode/timestamp — see
:func:`repro.perf.bench.store_rows`).  This module turns that history into
a speedup-over-time report: per benchmark series, the first/best/latest
value, an inline sparkline of the trajectory, and a regression flag when
the latest value fell more than ``factor`` below the series' best — the
same factor semantics as the ``repro bench --check`` gate, applied across
*time* instead of against the committed baseline.

Raceable benchmarks trend on their ``speedup`` (machine-portable);
trajectory-only entries (the end-to-end protocol runs) trend on raw
``batched_items_per_sec``, which is only comparable run-to-run on one
machine — the report marks the metric per series.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


@dataclass
class BenchTrend:
    """One benchmark's value series over time (sorted by timestamp)."""

    suite: str
    name: str
    mode: str
    metric: str                       # "speedup" or "<unit>/s"
    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    @property
    def runs(self) -> int:
        return len(self.values)

    @property
    def first(self) -> float:
        return self.values[0]

    @property
    def best(self) -> float:
        return max(self.values)

    @property
    def latest(self) -> float:
        return self.values[-1]

    def regressed(self, factor: float = 2.0) -> bool:
        return self.runs >= 2 and self.latest < self.best / factor

    def first_dip(self, factor: float = 2.0) -> Optional[int]:
        """Index of the earliest run that fell below best-so-far/``factor``
        — the bisection hint: the regression entered the codebase between
        this store row and the previous one.  None when no run dipped."""
        best = None
        for i, value in enumerate(self.values):
            if best is not None and value < best / factor:
                return i
            if best is None or value > best:
                best = value
        return None


def load_bench_rows(path: str) -> List[Dict]:
    """The ``kind == "bench"`` rows of a store, read with the tolerant
    store reader (:func:`repro.obs.watch.read_rows`)."""
    from repro.obs.watch import read_rows
    return [row for row in read_rows(path) if row.get("kind") == "bench"]


def bench_trends(rows: List[Dict]) -> List[BenchTrend]:
    """Group bench rows into per-(suite, name, mode) time series."""
    series: Dict[Tuple[str, str, str], BenchTrend] = {}
    for row in rows:
        entry = row.get("entry") or {}
        if "speedup" in entry:
            metric, value = "speedup", float(entry["speedup"])
        elif "batched_items_per_sec" in entry:
            metric = f"{entry.get('unit', 'items')}/s"
            value = float(entry["batched_items_per_sec"])
        else:
            continue
        key = (str(row.get("suite", "?")), str(row.get("name", "?")),
               str(row.get("mode", "?")))
        trend = series.setdefault(
            key, BenchTrend(suite=key[0], name=key[1], mode=key[2],
                            metric=metric))
        trend.times.append(float(row.get("recorded_unix", 0.0)))
        trend.values.append(value)
    out = []
    for trend in series.values():
        order = sorted(range(trend.runs), key=lambda i: trend.times[i])
        trend.times = [trend.times[i] for i in order]
        trend.values = [trend.values[i] for i in order]
        out.append(trend)
    return sorted(out, key=lambda t: (t.suite, t.name, t.mode))


def sparkline(values: List[float], width: int = 12) -> str:
    """Fixed-width glyph trajectory of a value series."""
    if not values:
        return ""
    if len(values) > width:
        # keep the endpoints, sample the middle
        step = (len(values) - 1) / (width - 1)
        values = [values[round(i * step)] for i in range(width)]
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK_GLYPHS[0] * len(values)
    scale = (len(_SPARK_GLYPHS) - 1) / (hi - lo)
    return "".join(_SPARK_GLYPHS[int((v - lo) * scale)] for v in values)


def _fmt(value: float, metric: str) -> str:
    if metric == "speedup":
        return f"{value:.2f}x"
    return f"{value:,.0f}"


def _fmt_stamp(stamp: float) -> str:
    if not stamp:
        return "unknown time"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(stamp))


def _dip_hint(t: BenchTrend, factor: float) -> Optional[str]:
    """Bisection hint for a regressed series: the first store row whose
    value dipped below the gate, with its timestamp — the regression
    landed between that run and the one before it."""
    dip = t.first_dip(factor)
    if dip is None:
        return None
    prior = _fmt_stamp(t.times[dip - 1]) if dip >= 1 else "the first run"
    return (f"  ^ first dip: run {dip + 1}/{t.runs} at "
            f"{_fmt_stamp(t.times[dip])} "
            f"({_fmt(t.values[dip], t.metric)}, prev best "
            f"{_fmt(max(t.values[:dip]), t.metric)}) — bisect commits "
            f"between {prior} and that run")


def render_trends(trends: List[BenchTrend], factor: float = 2.0) -> str:
    """The ``repro bench trend`` table.  Regressed series get a bisection
    hint line pointing at the first store row below the gate."""
    if not trends:
        return "(no bench rows)"
    header = [f"{'suite':>8} {'benchmark':<24} {'mode':<6} {'runs':>4} "
              f"{'first':>12} {'best':>12} {'latest':>12} "
              f"{'trend':<12} flag"]
    lines = []
    regressions = 0
    for t in trends:
        hint = None
        if t.regressed(factor):
            flag = f"REGRESSED (< best/{factor:g})"
            regressions += 1
            hint = _dip_hint(t, factor)
        elif t.runs >= 2 and t.latest > t.first * 1.05:
            flag = "improved"
        else:
            flag = ""
        lines.append(
            f"{t.suite:>8} {t.name:<24} {t.mode:<6} {t.runs:>4} "
            f"{_fmt(t.first, t.metric):>12} {_fmt(t.best, t.metric):>12} "
            f"{_fmt(t.latest, t.metric):>12} "
            f"{sparkline(t.values):<12} {flag}".rstrip())
        if hint:
            lines.append(hint)
    tail = [f"\n{len(trends)} series; {regressions} regression"
            f"{'' if regressions == 1 else 's'} flagged (factor {factor:g})"]
    return "\n".join(header + lines + tail)
