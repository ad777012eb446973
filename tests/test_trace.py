"""Per-phase telemetry: :func:`repro.obs.tracing.summarize` over a traced
run reconciles with the engine's counters."""

import pytest

from repro.adversary import AdaptiveAdversary
from repro.cliquesim.network import CongestedClique
from repro.core import AllToAllInstance
from repro.core.det_sqrt import DetSqrtAllToAll
from repro.obs import tracing
from repro.obs.tracing import phase_of


class TestPhaseOf:
    def test_strips_chunk_suffix(self):
        assert phase_of("adaptive/scatter[bits32]") == "adaptive"

    def test_top_level(self):
        assert phase_of("det-sqrt/step1/wave0/r1") == "det-sqrt"

    def test_unlabelled(self):
        assert phase_of("") == "(unlabelled)"


class TestBreakdown:
    @pytest.fixture(scope="class")
    def traced(self):
        instance = AllToAllInstance.random(16, width=1, seed=1)
        net = CongestedClique(16, bandwidth=16,
                              adversary=AdaptiveAdversary(1 / 16, seed=2))
        with tracing.trace() as tracer:
            DetSqrtAllToAll().run(instance, net)
        return net, tracing.summarize(tracer.events)

    def test_phases_cover_all_rounds(self, traced):
        net, summary = traced
        assert sum(p.rounds for p in summary.phases.values()) == \
            net.rounds_used

    def test_corruption_totals_match(self, traced):
        net, summary = traced
        assert net.entries_corrupted > 0
        assert sum(p.corrupted for p in summary.phases.values()) == \
            net.entries_corrupted

    def test_bit_totals_match(self, traced):
        net, summary = traced
        assert sum(p.bits for p in summary.phases.values()) == net.bits_sent
        n = net.n
        assert all(0 <= outcome.bits <= outcome.width * n * (n - 1)
                   for outcome in net.history)

    def test_format_contains_total(self, traced):
        net, summary = traced
        text = tracing.render_summary(summary)
        assert "TOTAL" in text and "mean width" in text
        assert str(net.rounds_used) in text

    def test_mean_width(self, traced):
        net, summary = traced
        widths = [outcome.width for outcome in net.history]
        assert summary.phases["det-sqrt"].mean_width == \
            pytest.approx(sum(widths) / len(widths))
        for stats in summary.phases.values():
            assert stats.mean_width > 0
