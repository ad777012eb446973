"""Unit tests for the experiment orchestration subsystem."""

import json

import pytest

from repro.experiments import (ExperimentSpec, GridSpec, TrialSpec,
                               TrialStore, aggregate, build_campaign,
                               campaign_names, estimate_thresholds,
                               free_grid, make_adversary, render_report,
                               run_campaign, run_single)
from repro.experiments.runner import (STATUS_ERROR, STATUS_OK,
                                      STATUS_UNSUPPORTED, execute_trial)


def tiny_spec(**overrides):
    kwargs = dict(name="tiny", protocols=("det-sqrt",),
                  adversaries=("adaptive",), ns=(16,),
                  alphas=(0.0, 1 / 16), bandwidths=(16,), replicates=2)
    kwargs.update(overrides)
    return free_grid(**kwargs)


class TestTrialSpec:
    def test_content_hash_stable_and_distinct(self):
        a = TrialSpec("det-sqrt", "adaptive", 16, 0.0625)
        b = TrialSpec("det-sqrt", "adaptive", 16, 0.0625)
        c = TrialSpec("det-sqrt", "adaptive", 16, 0.0625, replicate=1)
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != c.content_hash()

    def test_round_trips_through_dict(self):
        a = TrialSpec("det-logn", "nonadaptive", 32, 1 / 32, replicate=3,
                      base_seed=7)
        assert TrialSpec.from_dict(a.to_dict()) == a

    def test_seeds_differ_per_role_and_replicate(self):
        a = TrialSpec("det-sqrt", "adaptive", 16, 0.0625)
        b = TrialSpec("det-sqrt", "adaptive", 16, 0.0625, replicate=1)
        assert a.instance_seed != a.adversary_seed != a.protocol_seed
        assert a.instance_seed != b.instance_seed

    def test_validation(self):
        with pytest.raises(ValueError):
            TrialSpec("det-sqrt", "adaptive", 1, 0.0)
        with pytest.raises(ValueError):
            TrialSpec("det-sqrt", "adaptive", 16, 1.5)


class TestExperimentSpec:
    def test_expansion_and_dedup(self):
        grid = GridSpec(protocols=("det-sqrt",), adversaries=("adaptive",),
                        ns=(16,), alphas=(0.0, 0.0625), bandwidths=(16,))
        spec = ExperimentSpec(name="x", grids=(grid, grid), replicates=2)
        trials = spec.trials()
        assert len(trials) == 4  # duplicate grid contributes nothing
        assert len({t.content_hash() for t in trials}) == 4

    def test_json_round_trip(self):
        spec = tiny_spec()
        again = ExperimentSpec.from_json(spec.to_json())
        assert again == spec
        assert [t.content_hash() for t in again.trials()] == \
               [t.content_hash() for t in spec.trials()]

    def test_overrides(self):
        spec = tiny_spec().with_overrides(replicates=5, base_seed=9)
        assert spec.replicates == 5 and spec.base_seed == 9


class TestStore:
    def test_append_reload(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        trial = TrialSpec("det-sqrt", "adaptive", 16, 0.0)
        with TrialStore(path) as store:
            store.append({"hash": trial.content_hash(),
                          "trial": trial.to_dict(), "status": "ok"})
        reloaded = TrialStore(path)
        assert trial in reloaded
        assert reloaded.get(trial)["status"] == "ok"

    def test_last_write_wins_and_torn_line_skipped(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"hash": "h1", "status": "error"}) + "\n")
            fh.write(json.dumps({"hash": "h1", "status": "ok"}) + "\n")
            fh.write('{"hash": "h2", "status"')  # interrupted write
        store = TrialStore(path)
        assert len(store) == 1
        assert store.get_by_hash("h1")["status"] == "ok"

    def test_non_trialspec_keys_raise(self, tmp_path):
        """Regression: a mistyped key type must not silently read as a
        cache miss (re-running / double-recording the trial) — it raises."""
        store = TrialStore()
        store.append({"hash": "h1", "status": "ok"})
        with pytest.raises(TypeError):
            store.get("h1")
        with pytest.raises(TypeError):
            "h1" in store
        with pytest.raises(TypeError):
            store.get({"protocol": "det-sqrt"})
        assert store.get_by_hash("h1")["status"] == "ok"
        assert store.get_by_hash("missing") is None

    def test_memory_store(self):
        store = TrialStore()
        store.append({"hash": "x", "status": "ok"})
        assert len(store) == 1 and store.path is None


class TestRunner:
    def test_trial_statuses(self):
        ok = run_single(TrialSpec("det-sqrt", "adaptive", 16, 1 / 16,
                                  bandwidth=16))
        assert ok["status"] == STATUS_OK and ok["accuracy"] == 1.0
        unsupported = run_single(TrialSpec("det-sqrt", "adaptive", 16,
                                           0.4, bandwidth=16))
        assert unsupported["status"] == STATUS_UNSUPPORTED
        error = execute_trial(TrialSpec("no-such-protocol", "adaptive", 16,
                                        0.0, bandwidth=16).to_dict())
        assert error["status"] == STATUS_ERROR
        assert "no-such-protocol" in error["reason"]

    def test_rows_carry_observability_stamps(self):
        for row in (
            run_single(TrialSpec("det-sqrt", "adaptive", 16, 1 / 16,
                                 bandwidth=16)),
            run_single(TrialSpec("det-sqrt", "adaptive", 16, 0.4,
                                 bandwidth=16)),  # unsupported
        ):
            assert row["wall_seconds"] >= 0
            assert row["recorded_unix"] > 0

    def test_rows_embed_metrics_when_enabled(self, monkeypatch):
        from repro.obs import tracing
        monkeypatch.setenv(tracing.METRICS_ENV, "1")
        row = run_single(TrialSpec("det-sqrt", "adaptive", 16,
                                   1 / 16, bandwidth=16))
        assert row["metrics"]["counters"]["net.rounds"] == row["rounds"]
        assert row["metrics"]["counters"]["net.bits"] == row["bits_sent"]
        assert row["metrics"]["trials"] == 1
        # and without the flag, no snapshot is embedded
        monkeypatch.setenv(tracing.METRICS_ENV, "0")
        row = run_single(TrialSpec("det-sqrt", "adaptive", 16,
                                   1 / 16, bandwidth=16))
        assert "metrics" not in row

    def test_inline_campaign_and_resume(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        spec = tiny_spec()
        first = run_campaign(spec, store=path, jobs=1)
        assert first.executed == spec.size() and first.errors == 0
        again = run_campaign(spec, store=path, jobs=1, resume=True)
        assert again.executed == 0
        assert again.cached == spec.size()
        assert sorted(r["hash"] for r in again.rows()) == \
               sorted(r["hash"] for r in first.rows())

    def test_resume_retries_error_rows_only(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        spec = tiny_spec(replicates=1)
        run_campaign(spec, store=path, jobs=1)
        # fake a transient crash on one trial: resume must re-run exactly it
        store = TrialStore(path)
        victim = spec.trials()[0]
        store.append({"hash": victim.content_hash(),
                      "trial": victim.to_dict(), "status": STATUS_ERROR,
                      "reason": "RuntimeError('flaky')"})
        store.close()
        again = run_campaign(spec, store=path, jobs=1, resume=True)
        assert again.executed == 1 and again.cached == spec.size() - 1
        assert again.store.get(victim)["status"] == STATUS_OK

    def test_campaign_spec_recorded_in_store(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        spec = tiny_spec(replicates=1)
        run_campaign(spec, store=path, jobs=1)
        reloaded = TrialStore(path)
        metas = [r for r in reloaded.rows() if r.get("kind") == "campaign"]
        assert len(metas) == 1
        assert ExperimentSpec.from_dict(metas[0]["spec"]) == spec
        # metadata rows must not leak into aggregation
        assert len(aggregate(reloaded.rows())) == 2

    def test_rerun_without_resume_reexecutes(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        spec = tiny_spec(replicates=1)
        run_campaign(spec, store=path, jobs=1)
        second = run_campaign(spec, store=path, jobs=1)
        assert second.executed == spec.size() and second.cached == 0

    def test_parallel_matches_inline(self):
        spec = tiny_spec(replicates=1)
        inline = run_campaign(spec, jobs=1)
        parallel = run_campaign(spec, jobs=2)
        key = lambda r: (r["hash"], r["status"], r.get("accuracy"),
                         r.get("rounds"), r.get("bits_sent"))
        assert sorted(map(key, inline.rows())) == \
               sorted(map(key, parallel.rows()))

    def test_progress_callback(self):
        seen = []
        spec = tiny_spec(replicates=1)
        run_campaign(spec, jobs=1,
                     progress=lambda done, total, row: seen.append(done))
        assert seen == list(range(1, spec.size() + 1))

    def test_adversary_catalog(self):
        for kind in ("null", "adaptive", "nonadaptive", "sliding-window",
                     "targeted"):
            adversary = make_adversary(kind, 0.25, seed=1)
            assert adversary.alpha in (0.0, 0.25)
        with pytest.raises(ValueError):
            make_adversary("bogus", 0.25, seed=1)


class TestAggregation:
    def test_cells_and_thresholds(self):
        spec = tiny_spec(alphas=(0.0, 1 / 16, 0.4))
        result = run_campaign(spec, jobs=1)
        cells = aggregate(result.rows())
        assert len(cells) == 3
        by_alpha = {c.alpha: c for c in cells}
        assert by_alpha[0.0].ok == 2 and by_alpha[0.0].accuracy.mean == 1.0
        assert by_alpha[0.4].unsupported == 2 and not by_alpha[0.4].supported
        (estimate,) = estimate_thresholds(cells, accuracy_bar=1.0)
        assert estimate.max_alpha == 1 / 16
        assert estimate.first_failure_alpha == 0.4
        assert estimate.best_cell.alpha == 1 / 16

    def test_replicate_statistics(self):
        rows = []
        for replicate, accuracy in enumerate((0.9, 1.0)):
            trial = TrialSpec("p", "a", 16, 0.1, replicate=replicate)
            rows.append({"hash": trial.content_hash(),
                         "trial": trial.to_dict(), "status": "ok",
                         "accuracy": accuracy, "rounds": 4, "bits_sent": 100,
                         "correct_entries": 256, "total_entries": 256})
        (cell,) = aggregate(rows)
        assert cell.accuracy.mean == pytest.approx(0.95)
        assert cell.accuracy.std > 0 and cell.accuracy.ci95 > 0

    def test_render_report_smoke(self):
        spec = tiny_spec(replicates=1)
        result = run_campaign(spec, jobs=1)
        text = render_report(result.rows(), accuracy_bar=1.0)
        assert "det-sqrt" in text and "max alpha" in text
        assert render_report([]) == "(no completed trials)"


class TestRegistry:
    def test_catalog_names(self):
        names = campaign_names()
        for expected in ("table1", "figure1-ldc", "figure2-butterfly",
                         "figure3-grid", "headline-scaling", "smoke"):
            assert expected in names

    def test_catalog_specs_expand(self):
        for name in campaign_names():
            spec = build_campaign(name)
            assert spec.size() > 0
            # every spec survives a JSON round trip (the declarative contract)
            assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_unknown_campaign(self):
        with pytest.raises(ValueError):
            build_campaign("nope")

    def test_overrides_thread_through(self):
        spec = build_campaign("smoke", replicates=1, base_seed=42)
        assert spec.replicates == 1 and spec.base_seed == 42


class TestBatchByteBudget:
    @pytest.mark.parametrize("raw", ["256M", "0", "-5", "1.5e8"])
    def test_malformed_override_raises(self, monkeypatch, raw):
        from repro.experiments.vmap import batch_byte_budget
        monkeypatch.setenv("REPRO_BATCH_BYTE_BUDGET", raw)
        with pytest.raises(ValueError, match="REPRO_BATCH_BYTE_BUDGET") \
                as info:
            batch_byte_budget()
        assert repr(raw) in str(info.value)

    def test_valid_override_and_default(self, monkeypatch):
        from repro.experiments.vmap import (DEFAULT_BATCH_BYTE_BUDGET,
                                            batch_byte_budget)
        monkeypatch.setenv("REPRO_BATCH_BYTE_BUDGET", "1048576")
        assert batch_byte_budget() == 1048576
        monkeypatch.delenv("REPRO_BATCH_BYTE_BUDGET")
        assert batch_byte_budget() == DEFAULT_BATCH_BYTE_BUDGET

    def test_campaign_fails_before_any_cell_runs(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_BYTE_BUDGET", "256M")
        store = TrialStore(None)
        with pytest.raises(ValueError, match="REPRO_BATCH_BYTE_BUDGET"):
            run_campaign(build_campaign("smoke"), store=store,
                         backend="vmap")
        # only the campaign header was written: no trial ran
        assert [r.get("kind") for r in store.rows()] == ["campaign"]
