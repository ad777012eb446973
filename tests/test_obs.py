"""Unit tests for the observability subsystem (repro.obs)."""

import io
import json

import numpy as np
import pytest

from repro.adversary.adaptive import AdaptiveAdversary
from repro.cliquesim.network import CongestedClique
from repro.core import AllToAllInstance, make_protocol
from repro.obs import tracing
from repro.obs.trend import (
    bench_trends,
    load_bench_rows,
    render_trends,
    sparkline,
)
from repro.obs.watch import read_rows, render, snapshot, watch


class TestMetrics:
    """Counts and span timers fold into ``Tracer.snapshot()``."""

    def test_disabled_is_noop(self):
        tracer = tracing.Tracer()  # built, never installed
        assert tracing.active() is None
        tracing.count("x")
        with tracing.span("z"):
            pass
        assert tracer.events[1:] == []
        assert tracer.snapshot() == {
            "counters": {"net.rounds": 0, "net.bits": 0,
                         "net.dropped_entries": 0},
            "timers": {}}

    def test_disabled_timer_is_shared_noop(self):
        a = tracing.span("a")
        b = tracing.span("b")
        assert a is b

    def test_counters_accumulate(self):
        with tracing.trace() as tracer:
            tracing.count("hits")
            tracing.count("hits", 4)
        assert tracer.snapshot()["counters"]["hits"] == 5

    def test_timer_records_count_and_seconds(self):
        with tracing.trace() as tracer:
            for _ in range(3):
                with tracing.span("loop"):
                    pass
        snap = tracer.snapshot()["timers"]["loop"]
        assert snap["count"] == 3
        assert snap["seconds"] >= 0

    def test_nested_trace_restores_outer_tracer(self):
        with tracing.trace() as outer:
            with tracing.trace() as inner:
                assert tracing.active() is inner
                tracing.count("inner")
            assert tracing.active() is outer
            tracing.count("outer")
        assert tracing.active() is None
        assert inner.snapshot()["counters"]["inner"] == 1
        assert "outer" not in inner.snapshot()["counters"]
        assert "inner" not in outer.snapshot()["counters"]

    def test_unit_trace_follows_the_switch(self, monkeypatch):
        monkeypatch.delenv(tracing.METRICS_ENV, raising=False)
        with tracing.unit_trace("cell") as tracer:
            assert tracer is None and tracing.active() is None
        monkeypatch.setenv(tracing.METRICS_ENV, "1")
        with tracing.unit_trace("cell") as tracer:
            assert tracing.active() is tracer is not None
        assert tracing.active() is None


class TestTracer:
    def test_meta_is_first_event(self):
        tracer = tracing.Tracer("t", n=8)
        head = tracer.events[0]
        assert head["kind"] == "meta"
        assert head["schema"] == tracing.SCHEMA_VERSION
        assert head["n"] == 8

    def test_span_nesting_depth(self):
        tracer = tracing.Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        spans = [e for e in tracer.events if e["kind"] == "span"]
        # inner closes first, at depth 1; outer closes last, at depth 0
        assert [(s["name"], s["depth"]) for s in spans] == \
            [("inner", 1), ("outer", 0)]
        assert all(s["t1"] >= s["t0"] for s in spans)

    def test_install_uninstall(self):
        assert tracing.active() is None
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            assert tracing.active() is tracer
            with pytest.raises(RuntimeError):
                tracing.install(tracing.Tracer())
        finally:
            tracing.uninstall()
        assert tracing.active() is None

    def test_span_noop_without_tracer(self):
        with tracing.span("nothing"):
            pass  # must not raise and must record nowhere

    def test_trace_context_installs_and_uninstalls(self):
        with tracing.trace("block") as tracer:
            assert tracing.active() is tracer
        assert tracing.active() is None

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = tracing.Tracer("rt", n=4)
        tracer.round_event(index=0, label="p/r0", width=2, bits=24,
                           corrupted=1)
        path = str(tmp_path / "trace.jsonl")
        tracer.write_jsonl(path)
        rows = tracing.load_jsonl(path)
        assert rows == tracer.events

    def test_summarize_attribution(self):
        rows = [
            {"kind": "meta", "schema": 1},
            {"kind": "round", "t": 0.5, "label": "a/r0", "phase": "a",
             "width": 1, "bits": 10, "corrupted": 2},
            {"kind": "transport", "t": 0.75, "label": "b/x[bits0]",
             "phase": "b", "width": 4, "chunks": 2, "dropped": 3},
            {"kind": "round", "t": 1.0, "label": "a/r1", "phase": "a",
             "width": 1, "bits": 5, "corrupted": 0},
            {"kind": "span", "name": "s", "t0": 0.0, "t1": 1.0, "depth": 0},
            {"kind": "span", "name": "s", "t0": 0.25, "t1": 0.5, "depth": 1},
            {"kind": "count", "t": 0.5, "name": "c", "value": 3},
            {"kind": "count", "t": 0.6, "name": "c", "value": 4},
        ]
        summary = tracing.summarize(rows)
        assert summary.rounds == 2
        assert summary.bits == 15
        assert summary.corrupted == 2
        assert summary.dropped == 3
        assert summary.dropped_by_label() == {"b/x[bits0]": 3}
        # gaps: a gets 0.5 (to r0) + 0.25 (0.75 -> 1.0); b gets 0.25
        assert summary.phases["a"].wall_seconds == pytest.approx(0.75)
        assert summary.phases["b"].wall_seconds == pytest.approx(0.25)
        assert summary.wall_seconds == pytest.approx(1.0)
        assert summary.phases["a"].mean_width == 1.0
        assert summary.timers == {"s": [2, pytest.approx(1.25)]}
        assert summary.counters == {"c": 7}
        assert "TOTAL" in tracing.render_summary(summary)


class TestTracedRuns:
    def _traced_run(self, protocol_name, n=16, alpha=1 / 16, seed=3,
                    **adversary_kwargs):
        instance = AllToAllInstance.random(n, width=1, seed=seed)
        adversary = AdaptiveAdversary(alpha, seed=seed + 1,
                                      **adversary_kwargs)
        net = CongestedClique(n, bandwidth=32, adversary=adversary)
        with tracing.trace("test", protocol=protocol_name, n=n) as tracer:
            make_protocol(protocol_name).run(instance, net, seed=seed + 2)
        return net, tracing.summarize(tracer.events)

    def test_round_totals_reconcile_with_engine(self):
        net, summary = self._traced_run("det-sqrt")
        assert summary.rounds == net.rounds_used
        assert summary.bits == net.bits_sent
        assert summary.corrupted == net.entries_corrupted

    def test_adaptive_trace_reconciles_and_has_spans(self):
        net, summary = self._traced_run("adaptive")
        assert summary.rounds == net.rounds_used
        assert summary.bits == net.bits_sent
        assert summary.corrupted == net.entries_corrupted
        assert "adaptive.sketch_build" in summary.timers
        assert "adaptive.sketch_subtract" in summary.timers
        assert "routing.route" in summary.timers

    def test_dropped_entries_reconcile_with_diagnostics(self):
        instance = AllToAllInstance.random(16, width=1, seed=7)
        adversary = AdaptiveAdversary(1 / 16, seed=8, content_attack="drop")
        net = CongestedClique(16, bandwidth=32, adversary=adversary)
        protocol = make_protocol("adaptive")
        with tracing.trace("drops") as tracer:
            protocol.run(instance, net, seed=9)
        summary = tracing.summarize(tracer.events)
        by_label = summary.dropped_by_label()
        diag = protocol.diagnostics
        assert by_label.get("adaptive/scatter", 0) == \
            diag["dropped_scatter_entries"]
        assert by_label.get("adaptive/answers", 0) == \
            diag["dropped_answer_entries"]

    def test_metrics_counters_match_engine(self):
        with tracing.trace() as tracer:
            instance = AllToAllInstance.random(16, width=1, seed=11)
            net = CongestedClique(16, bandwidth=32,
                                  adversary=AdaptiveAdversary(1 / 16,
                                                              seed=12))
            make_protocol("det-sqrt").run(instance, net, seed=13)
        counters = tracer.snapshot()["counters"]
        assert counters["net.rounds"] == net.rounds_used
        assert counters["net.bits"] == net.bits_sent


def _write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _campaign_row():
    return {"kind": "campaign", "hash": "campaign:t", "spec": {
        "name": "t", "grids": [{"protocols": ["det-sqrt"],
                                "adversaries": ["adaptive"],
                                "ns": [16], "alphas": [0.0, 0.0625],
                                "widths": [1], "bandwidths": [16]}],
        "replicates": 2, "base_seed": 0, "accuracy_bar": 1.0}}


def _trial_row(i, status="ok", stamp=None):
    return {"hash": f"h{i}", "status": status,
            "trial": {"protocol": "det-sqrt", "adversary": "adaptive",
                      "n": 16, "alpha": 0.0625, "replicate": i},
            "wall_seconds": 0.5,
            "recorded_unix": 100.0 + i if stamp is None else stamp}


class TestWatch:
    def test_snapshot_counts_and_rate(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        rows = [_campaign_row()] + [_trial_row(i) for i in range(3)]
        rows.append(_trial_row(3, status="error"))
        _write_jsonl(path, rows)
        state = snapshot(read_rows(path), path)
        assert state.campaign == "t"
        assert state.expected == 4  # 1 protocol x 2 alphas x 2 replicates
        assert state.done == 4 and state.ok == 3 and state.errors == 1
        assert state.finished
        # 4 stamps spanning 3 seconds -> 1 trial/s
        assert state.rate == pytest.approx(1.0)

    def test_snapshot_dedups_rerun_trials(self):
        rows = [_campaign_row(), _trial_row(0), _trial_row(0)]
        state = snapshot(rows)
        assert state.done == 1

    def test_render_mentions_progress(self):
        rows = [_campaign_row()] + [_trial_row(i) for i in range(2)]
        text = render(snapshot(rows))
        assert "2/4 trials" in text
        assert "ok 2" in text
        assert "det-sqrt" in text

    def test_watch_once(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        _write_jsonl(path, [_campaign_row(), _trial_row(0)])
        out = io.StringIO()
        assert watch(path, once=True, stream=out) == 0
        assert "1/4 trials" in out.getvalue()

    def test_watch_once_missing_store(self, tmp_path):
        out = io.StringIO()
        assert watch(str(tmp_path / "nope.jsonl"), once=True,
                     stream=out) == 1

    def test_torn_lines_skipped(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(_trial_row(0)) + "\n")
            fh.write('{"hash": "torn", "stat')  # interrupted append
        assert len(read_rows(path)) == 1


class TestTornTail:
    """Every JSONL reader of ``repro.obs`` is the store reader: a final
    line torn inside a multibyte character is not a row yet."""

    @pytest.mark.parametrize("reader", [
        read_rows, tracing.load_jsonl, load_bench_rows],
        ids=["read_rows", "load_jsonl", "load_bench_rows"])
    def test_torn_multibyte_tail_is_dropped(self, tmp_path, reader):
        path = str(tmp_path / "torn.jsonl")
        whole, torn = (json.dumps(_bench_row("é", stamp, speedup=2.0),
                                  ensure_ascii=False).encode("utf-8")
                       for stamp in (1.0, 2.0))
        cut = torn.index("é".encode("utf-8")) + 1  # between é's two bytes
        with open(path, "wb") as fh:
            fh.write(whole + b"\n" + torn[:cut])
        assert [row["recorded_unix"] for row in reader(path)] == [1.0]

    def test_missing_file_reads_as_no_rows(self, tmp_path):
        assert tracing.load_jsonl(str(tmp_path / "none.jsonl")) == []


def _bench_row(name, stamp, speedup=None, items=None):
    entry = {}
    if speedup is not None:
        entry["speedup"] = speedup
    if items is not None:
        entry["batched_items_per_sec"] = items
        entry["unit"] = "rows"
    return {"kind": "bench", "suite": "coding", "name": name,
            "mode": "smoke", "recorded_unix": stamp, "entry": entry}


class TestTrend:
    def test_series_sorted_by_time(self):
        rows = [_bench_row("k", 2.0, speedup=4.0),
                _bench_row("k", 1.0, speedup=8.0)]
        trend = bench_trends(rows)[0]
        assert trend.values == [8.0, 4.0]
        assert trend.first == 8.0 and trend.latest == 4.0

    def test_regression_flagging(self):
        rows = [_bench_row("k", 1.0, speedup=10.0),
                _bench_row("k", 2.0, speedup=4.0)]
        trend = bench_trends(rows)[0]
        assert trend.regressed(2.0)       # 4 < 10 / 2
        assert not trend.regressed(3.0)   # 4 >= 10 / 3
        text = render_trends([trend], factor=2.0)
        assert "REGRESSED" in text
        assert "1 regression" in text

    def test_trajectory_metric(self):
        rows = [_bench_row("e2e", 1.0, items=50.0)]
        trend = bench_trends(rows)[0]
        assert trend.metric == "rows/s"

    def test_load_filters_non_bench_rows(self, tmp_path):
        path = str(tmp_path / "bench.jsonl")
        _write_jsonl(path, [_bench_row("k", 1.0, speedup=2.0),
                            _trial_row(0)])
        assert len(load_bench_rows(path)) == 1

    def test_sparkline_shape(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0]) == "▁▁"
        line = sparkline([float(i) for i in range(40)], width=12)
        assert len(line) == 12
        assert line[0] == "▁" and line[-1] == "█"

    def test_render_empty(self):
        assert "no bench rows" in render_trends([])
