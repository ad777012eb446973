"""Additional CLI coverage: table1 and gossip paths, argument handling."""

import pytest

from repro.cli import main


class TestTable1Command:
    def test_runs_all_protocols(self, capsys):
        # small n keeps the adaptive pipeline quick; alpha may be
        # unsupported for some protocols at this n — the command reports it
        status = main(["table1", "--n", "16", "--alpha", "0.0625",
                       "--bandwidth", "16"])
        out = capsys.readouterr().out
        for name in ("nonadaptive", "det-logn", "det-sqrt", "adaptive"):
            assert name in out
        assert status in (0, 1)


class TestExperimentCommands:
    def test_list(self, capsys):
        assert main(["experiment", "list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "smoke" in out and "adaptive" in out

    def test_run_report_resume_cycle(self, tmp_path, capsys):
        store = str(tmp_path / "tiny.jsonl")
        spec_file = tmp_path / "tiny.json"
        from repro.experiments import free_grid
        spec_file.write_text(free_grid(
            name="tiny", protocols=("det-sqrt",), adversaries=("adaptive",),
            ns=(16,), alphas=(0.0, 1 / 16), bandwidths=(16,)).to_json())

        status = main(["experiment", "run", "--spec", str(spec_file),
                       "--store", store, "--quiet"])
        assert status == 0
        out = capsys.readouterr().out
        assert "2 trials (2 executed, 0 cached" in out

        status = main(["experiment", "resume", "--spec", str(spec_file),
                       "--store", store, "--quiet"])
        assert status == 0
        assert "(0 executed, 2 cached" in capsys.readouterr().out

        status = main(["experiment", "report", "--store", store])
        assert status == 0
        assert "max alpha" in capsys.readouterr().out

    def test_dump_spec(self, capsys):
        status = main(["experiment", "run", "--campaign", "smoke",
                       "--dump-spec"])
        assert status == 0
        import json
        spec = json.loads(capsys.readouterr().out)
        assert spec["name"] == "smoke"

    def test_report_missing_store(self, tmp_path, capsys):
        status = main(["experiment", "report",
                       "--store", str(tmp_path / "none.jsonl")])
        assert status == 1


class TestObservabilityCommands:
    def test_run_reports_drops_and_writes_trace(self, tmp_path, capsys):
        trace = str(tmp_path / "run.jsonl")
        status = main(["run", "--protocol", "det-sqrt", "--n", "16",
                       "--alpha", "0.0625", "--bandwidth", "16",
                       "--trace", trace])
        assert status == 0
        out = capsys.readouterr().out
        assert "dropped_in_transit=" in out
        assert "trace ->" in out

        status = main(["trace", "show", trace])
        assert status == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out and "det-sqrt" in out

    def test_trace_record_roundtrip(self, tmp_path, capsys):
        trace = str(tmp_path / "rec.jsonl")
        status = main(["trace", "record", "--protocol", "det-sqrt",
                       "--n", "16", "--alpha", "0.0625",
                       "--bandwidth", "16", "--out", trace])
        assert status == 0
        from repro.obs import tracing
        rows = tracing.load_jsonl(trace)
        assert rows[0]["kind"] == "meta"
        summary = tracing.summarize(rows)
        assert summary.rounds > 0 and summary.bits > 0

    def test_trace_show_missing(self, tmp_path, capsys):
        missing = tmp_path / "none.jsonl"
        missing.write_text("")
        assert main(["trace", "show", str(missing)]) == 1

    def test_trace_show_missing_path(self, tmp_path, capsys):
        missing = str(tmp_path / "never-written.jsonl")
        assert main(["trace", "show", missing]) == 1
        assert f"no trace events in {missing}" in capsys.readouterr().out

    def test_experiment_watch_once(self, tmp_path, capsys):
        store = str(tmp_path / "tiny.jsonl")
        spec_file = tmp_path / "tiny.json"
        from repro.experiments import free_grid
        spec_file.write_text(free_grid(
            name="tiny", protocols=("det-sqrt",), adversaries=("adaptive",),
            ns=(16,), alphas=(0.0,), bandwidths=(16,)).to_json())
        assert main(["experiment", "run", "--spec", str(spec_file),
                     "--store", store, "--quiet"]) == 0
        capsys.readouterr()
        assert main(["experiment", "watch", "--store", store,
                     "--once"]) == 0
        out = capsys.readouterr().out
        assert "campaign 'tiny': 1/1 trials" in out
        assert "done" in out

    def test_bench_trend_from_store(self, tmp_path, capsys):
        import json
        store = tmp_path / "bench.jsonl"
        rows = [
            {"kind": "bench", "suite": "coding", "name": "kernel",
             "mode": "smoke", "recorded_unix": stamp,
             "entry": {"speedup": speedup}}
            for stamp, speedup in ((1.0, 10.0), (2.0, 3.0))
        ]
        store.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        status = main(["bench", "trend", "--store", str(store)])
        assert status == 0
        out = capsys.readouterr().out
        assert "kernel" in out and "REGRESSED" in out

        # --check turns a flagged regression into a failing exit code
        assert main(["bench", "trend", "--store", str(store),
                     "--check"]) == 1

    def test_bench_trend_requires_store(self, capsys):
        assert main(["bench", "trend"]) == 2


class TestSweepBounds:
    def test_zero_alpha_runs_fault_free(self, capsys):
        status = main(["sweep", "--protocol", "det-sqrt", "--n", "16",
                       "--alphas", "0", "--bandwidth", "16"])
        assert status == 0
        assert "100.0000%" in capsys.readouterr().out

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--protocol", "bogus"])
