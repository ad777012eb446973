"""Execution telemetry: summarise a network's round history.

Protocols label every round (``routing/wave0/r1``, ``adaptive/scatter`` …),
so the history can be folded into a per-phase breakdown — which rounds a
protocol spends where, and where the adversary landed its corruption.  Used
by ``repro run --phases`` and the examples; handy for anyone profiling a new
protocol on the simulator.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List

from repro.adversary.base import RoundOutcome
from repro.cliquesim.network import CongestedClique


@dataclass
class PhaseStats:
    """Aggregated telemetry for one protocol phase."""

    phase: str
    rounds: int = 0
    corrupted_entries: int = 0
    total_width: int = 0
    total_bits: int = 0

    @property
    def mean_width(self) -> float:
        return self.total_width / self.rounds if self.rounds else 0.0


def phase_of(label: str) -> str:
    """The phase prefix of a round label (text before the first '/' or
    '[', so chunked rounds fold into their logical step)."""
    base = label.split("[", 1)[0]
    return base.split("/", 1)[0] if base else "(unlabelled)"


def phase_breakdown(history: List[RoundOutcome]) -> "OrderedDict[str, PhaseStats]":
    """Fold a round history into ordered per-phase statistics."""
    phases: "OrderedDict[str, PhaseStats]" = OrderedDict()
    for outcome in history:
        phase = phase_of(outcome.label)
        stats = phases.setdefault(phase, PhaseStats(phase=phase))
        stats.rounds += 1
        stats.corrupted_entries += outcome.corrupted_entries
        stats.total_width += outcome.width
        stats.total_bits += outcome.bits
    return phases


def format_breakdown(net: CongestedClique) -> str:
    """Human-readable per-phase table for a finished execution."""
    phases = phase_breakdown(net.history)
    lines = [f"{'phase':>16} {'rounds':>7} {'corrupted':>10} "
             f"{'mean width':>11} {'bits':>12}"]
    for stats in phases.values():
        lines.append(f"{stats.phase:>16} {stats.rounds:>7} "
                     f"{stats.corrupted_entries:>10} "
                     f"{stats.mean_width:>11.1f} {stats.total_bits:>12,}")
    lines.append(f"{'TOTAL':>16} {net.rounds_used:>7} "
                 f"{net.entries_corrupted:>10} {'':>11} "
                 f"{net.bits_sent:>12,}")
    return "\n".join(lines)


def corruption_rate(history: List[RoundOutcome], n: int) -> float:
    """Fraction of delivered (directed) entries the adversary altered."""
    if not history:
        return 0.0
    corrupted = sum(outcome.corrupted_entries for outcome in history)
    capacity = len(history) * n * (n - 1)
    return corrupted / capacity
