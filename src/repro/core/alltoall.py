"""Protocol registry and experiment runner for AllToAllComm.

``run_protocol`` wires together an instance, a network with an adversary,
and a protocol, and returns a :class:`ProtocolReport` — the unit of
measurement every benchmark builds on.  The registry itself,
:data:`PROTOCOLS` and :func:`make_protocol`, lives in
:mod:`repro.core.vmapped` and is re-exported here.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.adversary.base import Adversary, NullAdversary
from repro.cliquesim.network import CongestedClique
from repro.core.messages import AllToAllInstance, ProtocolReport, verify_beliefs
from repro.core.protocol import AllToAllProtocol
from repro.core.vmapped import PROTOCOLS, make_protocol

__all__ = ["PROTOCOLS", "make_protocol", "run_protocol", "success_rate"]


def run_protocol(protocol: AllToAllProtocol,
                 instance: AllToAllInstance,
                 adversary: Optional[Adversary] = None,
                 bandwidth: int = 32,
                 seed: int = 0) -> ProtocolReport:
    """Execute one protocol run and verify the outcome."""
    adversary = adversary if adversary is not None else NullAdversary()
    net = CongestedClique(instance.n, bandwidth=bandwidth, adversary=adversary)
    beliefs = protocol.run(instance, net, seed=seed)
    correct = verify_beliefs(instance, beliefs)
    extra = dict(getattr(protocol, "diagnostics", {}) or {})
    return ProtocolReport(
        protocol=protocol.name,
        n=instance.n,
        alpha=adversary.alpha,
        rounds=net.rounds_used,
        bits_sent=net.bits_sent,
        correct_entries=correct,
        total_entries=instance.n * instance.n,
        entries_corrupted_in_transit=net.entries_corrupted,
        extra=extra,
    )


def success_rate(protocol_factory: Callable[[], AllToAllProtocol],
                 n: int,
                 adversary_factory: Callable[[int], Adversary],
                 trials: int = 5,
                 width: int = 1,
                 bandwidth: int = 32) -> float:
    """Fraction of trials (over instance and adversary seeds) in which every
    node learned every message — the w.h.p. guarantee made empirical."""
    wins = 0
    for trial in range(trials):
        instance = AllToAllInstance.random(n, width=width, seed=1000 + trial)
        report = run_protocol(protocol_factory(), instance,
                              adversary_factory(trial), bandwidth=bandwidth,
                              seed=2000 + trial)
        wins += int(report.perfect)
    return wins / trials
