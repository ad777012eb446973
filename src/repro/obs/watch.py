"""Live campaign observability: tail a JSONL trial store for progress.

``repro experiment watch --store runs/x.jsonl`` renders, every interval:
done/expected trials, per-status counts, measured throughput (trials/s from
the ``recorded_unix`` stamps the runner writes into every row) and the ETA
for the remaining work.  The expected total comes from the ``campaign`` row
the runner prepends to the store (its spec is re-expanded with
:class:`~repro.experiments.spec.ExperimentSpec`), so a watcher needs no
access to the running process — any shell, any host sharing the file.

The watcher is *shard-aware*: when a sharded dispatch is in flight
(``<store>.shards/`` exists — see :mod:`repro.sched`), rows still sitting
in per-shard stores count toward progress before the merge lands them in
the main store, and a third line summarizes the shard/lease states
(done / leased / pending, expired leases flagged).

Everything here is a pure function over the row list except the
:func:`watch` loop itself, so the rendering is unit-testable on synthetic
stores.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional


def read_rows(path: str) -> List[Dict]:
    """All rows of a JSONL store, in file order: the tolerant store reader
    :func:`repro.experiments.store.iter_store_rows`, which traces
    (:func:`repro.obs.tracing.load_jsonl`) and bench history
    (:func:`repro.obs.trend.load_bench_rows`) read through too.  Duplicate
    hashes are kept (the last write wins for totals via the hash-keyed
    pass in :func:`snapshot`), torn or garbled lines are skipped, and a
    missing file reads as no rows.  An unterminated tail is not a row
    yet, so its trial still counts as pending."""
    from repro.experiments.store import iter_store_rows
    return list(iter_store_rows(path))


def read_rows_with_shards(path: str) -> List[Dict]:
    """Main-store rows followed by any per-shard store rows: a sharded
    campaign's progress is visible while it is still distributed, before
    the merge lands the rows in the main store.  Shard rows come last, so
    the hash-keyed pass in :func:`snapshot` lets them supersede a stale
    main-store row (e.g. an earlier run's ``skipped``)."""
    rows = read_rows(path)
    try:
        from repro.sched.merge import discover_shard_sources
        for source in discover_shard_sources(path):
            rows.extend(read_rows(source))
    except Exception:  # noqa: BLE001 — shard dir trouble must not kill watch
        pass
    return rows


def shard_states(path: str) -> Optional[List[Dict]]:
    """Shard/lease states for the store's shard directory, or None when no
    sharded dispatch has touched this store."""
    try:
        from repro.sched.shards import ShardLayout, shard_dir_for
        directory = shard_dir_for(path)
        if not os.path.isdir(directory):
            return None
        return ShardLayout.load(directory).states()
    except Exception:  # noqa: BLE001
        return None


@dataclass
class WatchState:
    """One snapshot of a campaign store."""

    path: str
    campaign: Optional[str] = None
    expected: Optional[int] = None
    done: int = 0
    ok: int = 0
    errors: int = 0
    unsupported: int = 0
    skipped: int = 0
    rate: Optional[float] = None           # trials/s
    eta_seconds: Optional[float] = None
    last_row: Optional[Dict] = None
    shards: Optional[List[Dict]] = None    # sched shard/lease states

    @property
    def pending(self) -> Optional[int]:
        if self.expected is None:
            return None
        return max(0, self.expected - self.done)

    @property
    def finished(self) -> bool:
        return self.expected is not None and self.done >= self.expected


def _spec_size(spec_dict: Optional[Dict]) -> Optional[int]:
    if not spec_dict:
        return None
    try:
        from repro.experiments.spec import ExperimentSpec
        return ExperimentSpec.from_dict(spec_dict).size()
    except Exception:  # noqa: BLE001 — a malformed spec must not kill watch
        return None


def snapshot(rows: List[Dict], path: str = "") -> WatchState:
    """Fold store rows into a :class:`WatchState` (dedup by trial hash —
    a re-run trial counts once, with its latest status)."""
    state = WatchState(path=path)
    trial_rows: Dict[str, Dict] = {}
    for row in rows:
        if row.get("kind") == "campaign":
            spec = row.get("spec") or {}
            state.campaign = spec.get("name", state.campaign)
            state.expected = _spec_size(spec) or state.expected
        elif "trial" in row and "hash" in row:
            trial_rows[row["hash"]] = row
            state.last_row = row
    state.done = len(trial_rows)
    stamps = []
    for row in trial_rows.values():
        status = row.get("status")
        if status == "ok":
            state.ok += 1
        elif status == "error":
            state.errors += 1
        elif status == "unsupported":
            state.unsupported += 1
        elif status == "skipped":
            state.skipped += 1
        stamp = row.get("recorded_unix")
        if isinstance(stamp, (int, float)):
            stamps.append(float(stamp))
    if len(stamps) >= 2:
        span = max(stamps) - min(stamps)
        if span > 0:
            state.rate = (len(stamps) - 1) / span
    if state.rate and state.pending is not None:
        state.eta_seconds = state.pending / state.rate
    return state


def _fmt_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "--:--"
    seconds = int(round(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}:{seconds % 3600 // 60:02d}:{seconds % 60:02d}"
    return f"{seconds // 60}:{seconds % 60:02d}"


def render(state: WatchState) -> str:
    """One progress block (two lines; three when shards are in play)."""
    total = "?" if state.expected is None else str(state.expected)
    name = state.campaign or "(unknown campaign)"
    head = (f"campaign {name!r}: {state.done}/{total} trials")
    if state.expected:
        head += f" ({state.done / state.expected:.1%})"
    head += (f" | ok {state.ok}, unsupported {state.unsupported}, "
             f"errors {state.errors}")
    if state.skipped:
        head += f", skipped {state.skipped}"
    rate = f"{state.rate:.2f} trials/s" if state.rate else "rate --"
    eta = ("done" if state.finished
           else f"eta {_fmt_duration(state.eta_seconds)}")
    tail = f"{rate} | {eta}"
    if state.last_row is not None:
        trial = state.last_row.get("trial", {})
        wall = state.last_row.get("wall_seconds")
        wall_txt = f" [{wall:.2f}s]" if isinstance(wall, (int, float)) else ""
        tail += (f" | last: {trial.get('protocol', '?')} "
                 f"{trial.get('adversary', '?')} n={trial.get('n', '?')} "
                 f"alpha={trial.get('alpha', 0):.5f} "
                 f"r{trial.get('replicate', '?')} "
                 f"-> {state.last_row.get('status', '?')}{wall_txt}")
    block = head + "\n" + tail
    if state.shards:
        done = sum(1 for s in state.shards if s["state"] == "done")
        leased = [s for s in state.shards if s["state"] == "leased"]
        expired = sum(1 for s in leased if s.get("expired"))
        pending = len(state.shards) - done - len(leased)
        shard_line = (f"shards: {done}/{len(state.shards)} done, "
                      f"{len(leased)} leased"
                      + (f" ({expired} EXPIRED)" if expired else "")
                      + f", {pending} pending")
        owners = sorted({s.get("owner") for s in leased if s.get("owner")})
        if owners:
            shard_line += f" | workers: {', '.join(owners)}"
        block += "\n" + shard_line
    return block


def watch(path: str, interval: float = 2.0, once: bool = False,
          stream=None, max_ticks: Optional[int] = None) -> int:
    """Render progress until the campaign completes (or forever for an
    open-ended store).  ``once`` renders a single snapshot and returns —
    the scripting/CI form.  Returns 0; 1 if ``once`` finds no store."""
    stream = sys.stdout if stream is None else stream
    if once and not os.path.exists(path):
        print(f"no store at {path}", file=stream, flush=True)
        return 1
    ticks = 0
    try:
        while True:
            state = snapshot(read_rows_with_shards(path), path)
            state.shards = shard_states(path)
            print(render(state), file=stream, flush=True)
            if once or state.finished:
                return 0
            ticks += 1
            if max_ticks is not None and ticks >= max_ticks:
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0
