"""The batched adaptive port must write bit-identical store rows to serial.

This is the tentpole acceptance contract: ``backend="vmap"`` now runs
adaptive cells natively (lockstep sketch planes, batched LDC calls, ragged
query exchange), so the rows must match the serial per-trial loop exactly —
including under adversarial corruption, where some sketch recoveries stall
and both paths must stall identically — and any mid-batch recovery blow-up
must degrade the cell to per-trial serial execution, never crash the batch.
"""

import json

import pytest

from repro.core.adaptive import AdaptiveAllToAll
from repro.experiments import TrialStore, free_grid, run_campaign
from repro.experiments.runner import STATUS_OK
from repro.sketch import ksparse

WALL_CLOCK_FIELDS = ("wall_seconds", "recorded_unix")


def digest(result):
    rows = []
    for row in result.rows():
        row = dict(row)
        for field in WALL_CLOCK_FIELDS:
            row.pop(field, None)
        rows.append(row)
    return json.dumps(rows, sort_keys=True)


def adaptive_cell(name, adversary="null", alpha=0.0, replicates=3):
    return free_grid(name=name, protocols=("adaptive",),
                     adversaries=(adversary,), ns=(16,), alphas=(alpha,),
                     widths=(4,), bandwidths=(8,), replicates=replicates)


def run_both(spec):
    serial = run_campaign(spec, store=TrialStore(None), backend="serial")
    vmap = run_campaign(spec, store=TrialStore(None), backend="vmap")
    return serial, vmap


@pytest.fixture
def recovery_spy(monkeypatch):
    """Counts sketch recoveries that stalled (SketchRecoveryError outcomes)
    during Step IV, without changing behaviour on either path."""
    stalls = {"count": 0}
    original = ksparse.SketchPlaneStack.recover_many

    def spying(self):
        outcomes = original(self)
        stalls["count"] += sum(
            isinstance(o, ksparse.SketchRecoveryError) for o in outcomes)
        return outcomes

    monkeypatch.setattr(ksparse.SketchPlaneStack, "recover_many", spying)
    return stalls


class TestAdaptiveVmapParity:
    def test_fault_free_cell_is_bit_identical(self, monkeypatch):
        # spy that the cell actually ran as one batch: a silent fallback to
        # cells of one would also produce matching rows, and the serial
        # backend runs cells of one
        ran = {"count": 0}
        original = AdaptiveAllToAll.run_many

        def spying(self, instances, net, seeds):
            if net.trials > 1:
                ran["count"] += 1
            return original(self, instances, net, seeds)

        monkeypatch.setattr(AdaptiveAllToAll, "run_many", spying)
        serial, vmap = run_both(adaptive_cell("adaptive-vmap-ff"))
        assert digest(serial) == digest(vmap)
        rows = vmap.rows()
        assert all(r["status"] == STATUS_OK for r in rows)
        assert not any("fallback" in r for r in rows)
        assert ran["count"] == 1

    @pytest.mark.parametrize("adversary", ["byzantine-nodes", "adaptive"])
    def test_adversarial_cell_is_bit_identical(self, adversary, recovery_spy):
        # "byzantine-nodes" drives the natively batched channel adversary
        # (including per-trial flip widths on the ragged query exchange),
        # "adaptive" the wrapped per-trial fallback adversary
        spec = adaptive_cell(f"adaptive-vmap-{adversary}",
                             adversary=adversary, alpha=1 / 16, replicates=2)
        serial, vmap = run_both(spec)
        assert digest(serial) == digest(vmap)
        rows = vmap.rows()
        assert all(r["status"] == STATUS_OK for r in rows)
        assert not any("fallback" in r for r in rows)
        assert any(r["entries_corrupted"] > 0 for r in rows)
        # the corruption actually stressed Step IV: some sketch recoveries
        # stalled, in lockstep, on both backends — identical rows prove the
        # stalls landed on the same (group, target) sketches
        assert recovery_spy["count"] > 0

    def test_recovery_blowup_falls_back_per_trial(self, monkeypatch):
        # a sketch-recovery failure that *escapes* the lockstep handling
        # must degrade the cell to per-trial serial execution with the
        # exact serial rows — never crash the batch
        original = AdaptiveAllToAll.run_many

        def explode(self, instances, net, seeds):
            if net.trials > 1:
                raise ksparse.SketchRecoveryError("injected mid-batch failure")
            return original(self, instances, net, seeds)

        monkeypatch.setattr(AdaptiveAllToAll, "run_many", explode)
        spec = adaptive_cell("adaptive-vmap-blowup", replicates=2)
        serial, vmap = run_both(spec)
        assert digest(serial) == digest(vmap)
        assert all(r["status"] == STATUS_OK for r in vmap.rows())
