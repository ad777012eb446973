"""The perf suite: structure of the BENCH artifacts, parity assertions of
the batched-vs-reference races, and the regression gate."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.perf import (
    SUITE_FILES,
    check_regression,
    load_baseline,
    run_suite,
    write_results,
)
from repro.perf.bench import (
    bench_greedy_selection,
    bench_justesen_encode,
    bench_linear_ml_decode,
    bench_plane_staging,
    bench_rm_line_decode,
    bench_rs_batch_bm,
    bench_route_waves,
    bench_route_waves_free,
    bench_rs_symbol_decode,
    store_rows,
)
from repro.perf import reference
from repro.cliquesim.network import CongestedClique
from repro.utils.rng import make_rng


class TestBenchEntries:
    def test_rs_symbol_decode_entry(self):
        entry = bench_rs_symbol_decode(16, 1)
        assert entry["items"] == 16
        assert entry["unit"] == "words"
        assert entry["speedup"] == pytest.approx(
            entry["reference_seconds"] / entry["batched_seconds"], rel=0.02)

    def test_linear_ml_decode_entry(self):
        entry = bench_linear_ml_decode(64, 1)
        assert entry["batched_items_per_sec"] > 0

    def test_rs_batch_bm_entry(self):
        # the parity asserts inside the benchmark race the batched
        # multi-row BM against the frozen per-row path, including the
        # beyond-radius rows that must flag on both sides
        entry = bench_rs_batch_bm(32, 1)
        assert entry["items"] == 32
        assert entry["speedup"] > 0

    def test_greedy_selection_entry(self):
        # the benchmark asserts list walk == per-edge loop before timing
        entry = bench_greedy_selection(4, 1)
        assert entry["items"] == 4
        assert entry["unit"] == "planes"
        assert entry["speedup"] > 0

    def test_rm_line_decode_entry(self):
        # the benchmark asserts the lockstep decoder == the Berlekamp–Welch
        # loop, with rows on both sides of the line radius, before timing
        entry = bench_rm_line_decode(12, 1)
        assert entry["items"] == 12
        assert entry["unit"] == "rows"
        assert entry["speedup"] > 0

    def test_route_waves_entry(self):
        # the benchmark asserts the row kernel == the per-bit oracle, and
        # that every payload bit arrived, before timing
        entry = bench_route_waves(64, 1)
        assert entry["items"] == 2 * 64 * 32
        assert entry["unit"] == "payload-bits"
        assert entry["speedup"] > 0

    def test_route_waves_free_entry(self):
        # the benchmark asserts the pass-through == the staged kernel, in
        # rows and in the engine's counters, before timing
        entry = bench_route_waves_free(64, 1)
        assert entry["items"] == 2 * 64 * 32
        assert entry["unit"] == "payload-bits"
        assert entry["speedup"] > 0

    def test_justesen_encode_entry(self):
        # the benchmark asserts the table encode == the Reed–Solomon-then-
        # inner composition before timing
        entry = bench_justesen_encode(64, 1)
        assert entry["items"] == 64
        assert entry["unit"] == "words"
        assert entry["speedup"] > 0

    def test_plane_staging_entry(self):
        entry = bench_plane_staging(8, 16, 7, 1)
        assert entry["items"] == 8 * 8 * 16
        assert entry["unit"] == "symbols"

    def test_store_rows_keyed_per_run(self):
        results = {"suite": "coding", "mode": "smoke", "python": "x",
                   "numpy": "y", "benchmarks": {"a": {"speedup": 2.0}}}
        first = store_rows(results, recorded_at=100.0)
        second = store_rows(results, recorded_at=200.0)
        assert first[0]["kind"] == "bench"
        assert first[0]["entry"] == {"speedup": 2.0}
        # distinct timestamps -> distinct hashes: runs append, never clobber
        assert first[0]["hash"] != second[0]["hash"]


class TestNetworkSuite:
    def test_smoke_suite_structure(self, tmp_path):
        results = run_suite("network", smoke=True)
        assert results["suite"] == "network"
        assert results["mode"] == "smoke"
        names = set(results["benchmarks"])
        assert "exchange-bits-n64" in names
        assert "det-sqrt-end-to-end" in names
        assert "route-waves-free-n512" in names
        # smoke runs land in a .smoke.json sidecar and must never clobber
        # the committed full-mode baseline
        path = write_results(results, tmp_path)
        assert path.name == SUITE_FILES["network"].replace(
            ".json", ".smoke.json")
        assert load_baseline("network", tmp_path) is None
        full = dict(results, mode="full")
        full_path = write_results(full, tmp_path)
        assert full_path.name == SUITE_FILES["network"]
        assert load_baseline("network", tmp_path) == json.loads(
            full_path.read_text())

    def test_reference_transport_matches_packed(self):
        rng = make_rng(5)
        n, width = 8, 40
        bits = rng.integers(0, 2, size=(n, n, width), dtype=np.uint8)
        present = np.ones((n, n), dtype=bool)
        staged = reference.exchange_bits_staged(
            CongestedClique(n, bandwidth=7), bits, present)
        packed, dropped = CongestedClique(n, bandwidth=7).exchange_bits(
            bits, present)
        assert np.array_equal(staged, packed)
        assert not dropped.any()


class TestRegressionGate:
    def _fake(self, speedup):
        return {"benchmarks": {"x": {"speedup": speedup}}}

    def test_passes_within_factor(self):
        assert check_regression(self._fake(10.0), self._fake(5.5)) == []

    def test_fails_beyond_factor(self):
        failures = check_regression(self._fake(10.0), self._fake(4.0))
        assert len(failures) == 1 and "x" in failures[0]

    def test_missing_benchmark_fails(self):
        failures = check_regression(self._fake(10.0), {"benchmarks": {}})
        assert failures

    def test_entries_without_speedup_ignored(self):
        baseline = {"benchmarks": {"e2e": {"batched_items_per_sec": 1.0}}}
        assert check_regression(baseline, {"benchmarks": {}}) == []

    def test_smoke_runs_gate_on_smoke_speedup(self):
        # batch speedups grow with batch size: smoke runs must be gated on
        # the smoke-scale floor the full baseline recorded alongside
        baseline = {"benchmarks": {
            "x": {"speedup": 100.0, "smoke_speedup": 10.0}}}
        ok_smoke = {"mode": "smoke", "benchmarks": {"x": {"speedup": 8.0}}}
        assert check_regression(baseline, ok_smoke) == []  # 8 >= 10 / 2
        bad_full = {"mode": "full", "benchmarks": {"x": {"speedup": 8.0}}}
        assert check_regression(baseline, bad_full)  # 8 < 100 / 2

    def test_full_only_entries_skipped_by_smoke_runs(self):
        baseline = {"benchmarks": {
            "exchange-bits-n256": {"speedup": 8.0, "full_only": True}}}
        # a smoke run never measures the scale-sweep entry: not a failure
        assert check_regression(
            baseline, {"mode": "smoke", "benchmarks": {}}) == []
        # a full run missing it still fails
        assert check_regression(
            baseline, {"mode": "full", "benchmarks": {}})


class TestBenchCLI:
    @pytest.fixture
    def steady_network_suite(self, monkeypatch):
        """Stub every network-suite entry with one that reports a fixed 4x
        speedup, so that two runs seconds apart agree exactly and the
        gate's verdict depends on no machine load.  ``TestNetworkSuite``
        runs the real entries, and CI's perf-smoke job is the wall-clock
        gate."""
        from repro.perf import bench

        names = [name for name, _ in bench._suite_plan("network")]

        def plan(suite):
            return [(name, lambda smoke, repeats:
                     bench._entry("stub", 4, "items", 0.004, 0.001))
                    for name in names]

        monkeypatch.setattr(bench, "_suite_plan", plan)

    def test_bench_network_smoke_and_check(self, tmp_path, capsys,
                                           steady_network_suite):
        args = ["bench", "--suite", "network", "--smoke",
                "--out-dir", str(tmp_path), "--quiet"]
        assert main(args) == 0
        smoke_name = SUITE_FILES["network"].replace(".json", ".smoke.json")
        assert (tmp_path / smoke_name).exists()
        assert not (tmp_path / SUITE_FILES["network"]).exists()
        # a requested gate with no baseline to compare against must fail
        assert main(args + ["--check"]) == 1
        # promote the smoke run to a full-mode baseline, then --check
        # compares a fresh smoke run against it
        baseline = json.loads((tmp_path / smoke_name).read_text())
        baseline["mode"] = "full"
        write_results(baseline, tmp_path)
        assert main(args + ["--check"]) == 0
        out = capsys.readouterr().out
        assert "no regression" in out
        # a baseline whose smoke floor is above twice the fresh speedup
        # fails the gate
        entry = baseline["benchmarks"]["route-waves-free-n512"]
        entry["smoke_speedup"] = 2 * entry["speedup"] + 0.5
        write_results(baseline, tmp_path)
        assert main(args + ["--check"]) == 1
        assert "route-waves-free-n512" in capsys.readouterr().out
