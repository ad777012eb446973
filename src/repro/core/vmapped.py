"""The protocol registry and trial-batched execution of AllToAllComm.

Each protocol class runs ``trials`` instances at once through its
:meth:`~repro.core.protocol.AllToAllProtocol.run_many` over a
:class:`~repro.cliquesim.batched.BatchedClique`, and a serial ``run`` is
the same body at ``trials=1``.  The bodies share a leading batch axis:

* message *structure* (sources, slots, targets, round sequence) is shared
  across the batch whenever the protocol's structure is data-independent —
  det-sqrt's segment grid and det-logn's butterfly are fixed by ``n``
  alone, so their packing/unpacking batches perfectly and their routing
  is scheduled once;
* per-trial *randomness* is derived from each trial's own seed
  (nonadaptive's shift vectors, the adaptive compiler's R1/R2/R3), so a
  trial's outputs do not depend on the batch it ran in;
* when per-trial randomness changes the routing *structure* itself
  (nonadaptive's return step targets depend on the shifts), message counts
  and bit lengths are still shared, so the body passes per-trial node ids
  and each trial is scheduled on its own; if batch counts diverge the
  planner raises :class:`~repro.core.routing.CellUnbatchable` and the
  trial executor (:func:`repro.experiments.vmap.run_cell_batched`) runs
  the trials as cells of one;
* every routing step passes index arrays to
  :meth:`~repro.core.batched_routing.BatchedRouter.route`, whose plan runs
  through the one wave kernel :func:`~repro.core.routing.route_waves`;
* the adaptive compiler's query-answer exchange, whose width is a
  per-trial random quantity, uses the ragged tail
  (:meth:`~repro.cliquesim.batched.BatchedClique.exchange_words_ragged`),
  after which per-trial round counts come from
  :attr:`~repro.cliquesim.batched.BatchedClique.rounds_by_trial`.

This module holds the one protocol registry, :data:`PROTOCOLS` with
:func:`make_protocol`, and resolves its names lazily, so a campaign cell
imports only its own protocol's stack; :mod:`repro.core.alltoall`
re-exports both.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.adversary.batched import BatchedAdversary
from repro.cliquesim.batched import BatchedClique
# not called here: the end-to-end benchmark's layer profile checks that it
# wraps every module-level alias of the code search, this one included
from repro.coding.linear import best_effort_linear_code  # noqa: F401
from repro.core.messages import AllToAllInstance, ProtocolReport, verify_beliefs
from repro.core.protocol import AllToAllProtocol

#: every AllToAllComm protocol by name, in Table 1 order (``repro table1``
#: prints its rows in this order): (module, class), imported on first use
PROTOCOLS: Dict[str, Tuple[str, str]] = {
    "nonadaptive": ("repro.core.nonadaptive", "NonAdaptiveAllToAll"),
    "adaptive": ("repro.core.adaptive", "AdaptiveAllToAll"),
    "det-logn": ("repro.core.det_logn", "DetLogAllToAll"),
    "det-sqrt": ("repro.core.det_sqrt", "DetSqrtAllToAll"),
}


def make_protocol(name: str) -> AllToAllProtocol:
    """A fresh instance of the protocol registered as ``name``."""
    try:
        module, cls = PROTOCOLS[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; known: {sorted(PROTOCOLS)}") from None
    return getattr(importlib.import_module(module), cls)()


def run_protocol_many(protocol: AllToAllProtocol,
                      instances: Sequence[AllToAllInstance],
                      adversary: Optional[BatchedAdversary] = None,
                      bandwidth: int = 32,
                      seeds: Optional[Sequence[int]] = None,
                      ) -> List[ProtocolReport]:
    """Batched :func:`~repro.core.alltoall.run_protocol`: one
    :class:`BatchedClique` run, one report per trial, equal to that
    trial's serial report."""
    trials = len(instances)
    seeds = list(seeds) if seeds is not None else [0] * trials
    n = instances[0].n
    net = BatchedClique(n, trials, bandwidth=bandwidth, adversary=adversary)
    beliefs = protocol.run_many(instances, net, seeds)
    return [
        ProtocolReport(
            protocol=protocol.name,
            n=n,
            alpha=net.adversary.alpha,
            rounds=int(net.rounds_by_trial[t]),
            bits_sent=int(net.bits_sent[t]),
            correct_entries=verify_beliefs(instances[t], beliefs[t]),
            total_entries=n * n,
            entries_corrupted_in_transit=int(net.entries_corrupted[t]),
        )
        for t in range(trials)]
