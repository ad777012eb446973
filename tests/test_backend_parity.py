"""The vmap backend and the local fleet must write serial's store rows.

This is the acceptance contract of the trial-batched execution engine: for
any campaign, ``backend="vmap"`` produces exactly the rows the serial
per-trial loop produces — same hashes, same outcome fields, same
unsupported/error verdicts — differing only in the wall-clock fields.
"""

import json

import pytest

from repro.experiments import (ExperimentSpec, GridSpec, TrialSpec,
                               TrialStore, free_grid, run_campaign)
from repro.experiments.runner import STATUS_OK, STATUS_UNSUPPORTED
from repro.obs import tracing

#: fields that legitimately differ between executions of the same trial
WALL_CLOCK_FIELDS = ("wall_seconds", "recorded_unix")


def digest(result):
    rows = []
    for row in result.rows():
        row = dict(row)
        for field in WALL_CLOCK_FIELDS:
            row.pop(field, None)
        rows.append(row)
    return json.dumps(rows, sort_keys=True)


def run_backends(spec, backends=("serial", "vmap")):
    digests = {}
    for backend in backends:
        result = run_campaign(spec, store=TrialStore(None), backend=backend,
                              jobs=2 if backend == "sharded" else 1)
        digests[backend] = (digest(result), result)
    return digests


class TestBackendParity:
    def test_fault_free_cells_batch_bit_identically(self):
        spec = free_grid(name="parity-ff",
                         protocols=("det-sqrt", "det-logn"),
                         adversaries=("null",), ns=(16,), alphas=(0.0,),
                         widths=(4,), bandwidths=(8,), replicates=3)
        digests = run_backends(spec, backends=("serial", "vmap", "sharded"))
        assert digests["serial"][0] == digests["vmap"][0]
        assert digests["serial"][0] == digests["sharded"][0]
        rows = digests["vmap"][1].rows()
        assert all(r["status"] == STATUS_OK for r in rows)

    def test_adversarial_cells_native_and_fallback_wrapper(self):
        # "nonadaptive" exercises the batched-mask fast path,
        # "adaptive" the generic per-trial fallback wrapper
        spec = free_grid(name="parity-adv", protocols=("det-sqrt",),
                         adversaries=("nonadaptive", "adaptive"), ns=(16,),
                         alphas=(1 / 16,), widths=(4,), bandwidths=(8,),
                         replicates=2)
        digests = run_backends(spec)
        assert digests["serial"][0] == digests["vmap"][0]
        rows = digests["vmap"][1].rows()
        assert all(r["status"] == STATUS_OK for r in rows)
        # the adversary actually bit: at least one trial saw corruption
        assert any(r["entries_corrupted"] > 0 for r in rows)

    def test_unsupported_configurations_match_serial_verdicts(self):
        # alpha far outside the proof regime at n=16: every trial must
        # come back as the exact serial ``unsupported`` row, not crash
        # the batch
        spec = free_grid(name="parity-unsupported", protocols=("det-sqrt",),
                         adversaries=("nonadaptive",), ns=(16,),
                         alphas=(0.2,), widths=(4,), bandwidths=(8,),
                         replicates=2)
        digests = run_backends(spec)
        assert digests["serial"][0] == digests["vmap"][0]
        rows = digests["vmap"][1].rows()
        assert all(r["status"] == STATUS_UNSUPPORTED for r in rows)

    def test_unsupported_cell_writes_its_rows_in_one_run(self, monkeypatch,
                                                        require_batched):
        # every ProfileError raise site reads cell quantities only, so the
        # one batched run writes both trials' unsupported rows, each with
        # that run's metrics snapshot: no trial re-runs alone
        monkeypatch.setenv(tracing.METRICS_ENV, "1")
        spec = free_grid(name="parity-unsupported", protocols=("det-sqrt",),
                         adversaries=("nonadaptive",), ns=(16,),
                         alphas=(0.2,), widths=(4,), bandwidths=(8,),
                         replicates=2)
        rows = run_campaign(spec, store=TrialStore(None),
                            backend="vmap").rows()
        assert [r["status"] for r in rows] == [STATUS_UNSUPPORTED] * 2
        assert rows[0]["reason"] == rows[1]["reason"]
        assert [r["metrics"]["trials"] for r in rows] == [2, 2]

    @pytest.mark.parametrize("protocol,adversary,replicates", [
        ("det-logn", "no-such-adversary", 4),
        ("no-such-protocol", "null", 3)])
    def test_unknown_names_write_their_rows_in_one_run(
            self, protocol, adversary, replicates, require_batched):
        # a protocol or adversary name is a cell quantity, like a
        # ProfileError's inputs: the one batched run writes every trial's
        # error row, equal to what each trial writes as a cell of one
        from repro.experiments.runner import STATUS_ERROR
        from repro.sched import row_digest
        spec = free_grid(name="parity-unknown-name", protocols=(protocol,),
                         adversaries=(adversary,), ns=(16,),
                         alphas=(1 / 16,), widths=(4,), bandwidths=(8,),
                         replicates=replicates)
        results = run_backends(spec)
        serial, vmap = (results[b][1].rows() for b in ("serial", "vmap"))
        assert [r["status"] for r in vmap] == [STATUS_ERROR] * replicates
        assert "unknown" in vmap[0]["reason"]
        assert sorted(map(row_digest, vmap)) == \
            sorted(map(row_digest, serial))

    def test_over_budget_trials_run_as_cells_of_one(self, monkeypatch,
                                                    require_batched):
        # with a one-byte batch budget no two trials fit one batch: each
        # runs as a cell of one on the same executor, not down a fallback
        from repro.core import vmapped
        spec = free_grid(name="parity-over-budget", protocols=("det-logn",),
                         adversaries=("null",), ns=(16,), alphas=(0.0,),
                         widths=(4,), bandwidths=(8,), replicates=3)
        serial = run_backends(spec, backends=("serial",))["serial"][0]
        batch_sizes = []
        original = vmapped.run_protocol_many

        def spy(protocol, instances, *args, **kwargs):
            batch_sizes.append(len(instances))
            return original(protocol, instances, *args, **kwargs)

        monkeypatch.setattr(vmapped, "run_protocol_many", spy)
        monkeypatch.setenv("REPRO_BATCH_BYTE_BUDGET", "1")
        assert run_backends(spec, backends=("vmap",))["vmap"][0] == serial
        assert batch_sizes == [1, 1, 1]

    def test_adaptive_protocol_batches_natively(self, require_batched):
        # the adaptive compiler used to be the one protocol without a
        # batched port; it now batches natively, so no cell may take the
        # serial-fallback path
        spec = free_grid(name="parity-adaptive-proto",
                         protocols=("adaptive",), adversaries=("null",),
                         ns=(16,), alphas=(0.0,), widths=(4,),
                         bandwidths=(8,), replicates=2)
        digests = run_backends(spec)
        assert digests["serial"][0] == digests["vmap"][0]

    def test_nonadaptive_protocol_batches_natively(self, require_batched):
        # the shift-dependent return step rides the grouped router, so
        # every cell batches and matches serial row for row
        spec = free_grid(name="parity-nonadaptive-proto",
                         protocols=("nonadaptive",),
                         adversaries=("null", "nonadaptive", "iid-erase"),
                         ns=(16,), alphas=(1 / 16,), widths=(4,),
                         bandwidths=(8,), replicates=2)
        digests = run_backends(spec)
        assert digests["serial"][0] == digests["vmap"][0]
        rows = digests["vmap"][1].rows()
        assert all(r["status"] == STATUS_OK for r in rows)
        assert any(r["entries_corrupted"] > 0 for r in rows)

    def test_adaptive_adversary_family_batches_natively(self,
                                                        require_batched):
        # headline-scaling's smallest point (n=32, budget 1) under every
        # greedy-selecting adversary: the per-trial wrapper keeps each cell
        # on the batched engine, row for row equal to serial
        spec = free_grid(name="parity-adaptive-family",
                         protocols=("det-logn",),
                         adversaries=("adaptive", "targeted",
                                      "sliding-window"),
                         ns=(32,), alphas=(1 / 32,), replicates=4)
        digests = run_backends(spec)
        assert digests["serial"][0] == digests["vmap"][0]
        rows = digests["vmap"][1].rows()
        assert len(rows) == 12
        assert all(r["status"] == STATUS_OK for r in rows)
        for kind in ("adaptive", "targeted", "sliding-window"):
            assert any(r["entries_corrupted"] > 0 for r in rows
                       if r["trial"]["adversary"] == kind), kind

    def test_n128_cells_batch_bit_identically(self, require_batched):
        # 16 relay blocks: det-logn's long message runs span several
        # batches of the scheduler's bitsets, and nonadaptive's shift
        # broadcast its multi-target runs
        spec = free_grid(name="parity-n128",
                         protocols=("nonadaptive", "det-logn"),
                         adversaries=("null",), ns=(128,), alphas=(0.0,),
                         widths=(4,), bandwidths=(8,), replicates=2)
        digests = run_backends(spec)
        assert digests["serial"][0] == digests["vmap"][0]
        rows = digests["vmap"][1].rows()
        assert len(rows) == 4
        assert all(r["status"] == STATUS_OK for r in rows)

    def test_unknown_backend_rejected(self):
        spec = free_grid(name="parity-bad", ns=(16,), alphas=(0.0,),
                         replicates=1)
        with pytest.raises(ValueError, match="unknown backend"):
            run_campaign(spec, store=TrialStore(None), backend="gpu")


class TestMetricsOnStaysBatched:
    def test_cells_batch_and_snapshots_reconcile(self, monkeypatch,
                                                 require_batched):
        # with the switch on, each cell's one run_protocol_many call is the
        # unit its rows' snapshot covers; det-logn meets the rushing
        # adversary, and the adaptive cell's per-trial flip widths make its
        # query exchange ragged, so its trials' round counts differ
        spec = ExperimentSpec("metrics-on", grids=(
            GridSpec(("det-logn",), ("adaptive",), (32,), (1 / 32,)),
            GridSpec(("adaptive",), ("byzantine-nodes",), (16,), (1 / 16,),
                     widths=(4,), bandwidths=(8,))), replicates=3)
        monkeypatch.delenv(tracing.METRICS_ENV, raising=False)
        plain = run_campaign(spec, store=TrialStore(None),
                             backend="vmap").rows()
        monkeypatch.setenv(tracing.METRICS_ENV, "1")
        observed = run_campaign(spec, store=TrialStore(None),
                                backend="vmap").rows()

        def outcome(row):
            return {k: v for k, v in row.items()
                    if k not in WALL_CLOCK_FIELDS + ("metrics",)}

        assert [outcome(r) for r in observed] == [outcome(r) for r in plain]
        assert all(r["status"] == STATUS_OK for r in observed)
        assert not any("metrics" in r for r in plain)
        units = {}
        for row in observed:
            units.setdefault(TrialSpec.from_dict(row["trial"]).cell,
                             []).append(row)
        assert len(units) == 2
        for rows in units.values():
            snapshot = rows[0]["metrics"]
            assert all(r["metrics"] == snapshot for r in rows)
            assert snapshot["trials"] == len(rows) == 3
            counters = snapshot["counters"]
            assert counters["net.bits"] == sum(r["bits_sent"] for r in rows)
            assert counters["net.rounds"] == max(r["rounds"] for r in rows)
            assert "routing.route" in snapshot["timers"]
        assert len({r["rounds"] for r in observed
                    if r["trial"]["protocol"] == "adaptive"}) > 1


class TestHeaderDedup:
    def test_identical_resume_appends_no_second_header(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        spec = free_grid(name="dedup", protocols=("det-sqrt",),
                         adversaries=("null",), ns=(16,), alphas=(0.0,),
                         widths=(1,), bandwidths=(8,), replicates=2)
        run_campaign(spec, store=path, resume=True)
        run_campaign(spec, store=path, resume=True)

        def count_headers(p):
            with open(p, encoding="utf-8") as fh:
                return sum(1 for line in fh
                           if json.loads(line).get("kind") == "campaign")

        assert count_headers(path) == 1
        # a *different* spec under the same name legitimately re-records
        run_campaign(spec.with_overrides(replicates=3), store=path,
                     resume=True)
        assert count_headers(path) == 2
