"""The one super-message router, trial-batched over a :class:`BatchedClique`.

A campaign cell runs the *same* routing step in every trial, so each wave's
two clique rounds move all trials at once.  :meth:`BatchedRouter.route`
takes the routing as index arrays — sources, slots, sizes, targets — picks
the routing code, plans in its relay-set mode
(:func:`~repro.core.routing.plan_waves` or
:func:`~repro.core.routing.plan_coverfree`) and hands the plan to the one
wave kernel, :func:`~repro.core.routing.route_waves`.  Every protocol's
``run_many`` routes through it, and
:class:`~repro.core.routing.SuperMessageRouter` runs one trial on it.
When the engine delivers as sent (fault-free, no full history) the router
hands the kernel the engine's booking hook, so no wave stages a round: each
round is booked and the rows pass through.  A booked blocks-mode wave runs
no codec either: each chunk's payload piece rides in its codeword's place
and is the decoded row.
Blocks-mode placements are exactly what a one-trial run of each trial
computes; when per-trial schedules take different batch counts the planner
raises :class:`~repro.core.routing.CellUnbatchable` and the trial executor
runs the trials as cells of one.
"""

from __future__ import annotations

import numpy as np

from repro.cliquesim.batched import BatchedClique
from repro.core.profiles import ProtocolProfile, SIMULATION
from repro.core.routing import (BatchedRoutingResult, plan_coverfree,
                                plan_waves, route_waves)
from repro.obs import tracing
from repro.utils.rng import derive


class BatchedRouter:
    """Routes one instance per trial, lockstep over the batch; cover-free
    families come from one construction stream across ``route`` calls.
    On an engine that delivers as sent, every wave is booked, and a
    booked blocks-mode wave runs no encode and no decode."""

    def __init__(self, net: BatchedClique,
                 profile: ProtocolProfile = SIMULATION,
                 mode: str = "blocks"):
        if mode not in ("blocks", "coverfree"):
            raise ValueError(f"unknown routing mode {mode!r}")
        self.net = net
        self.profile = profile
        self.mode = mode
        self._construction_rng = derive(profile.construction_seed,
                                        f"router:{net.n}")

    def route(self, sources, slots, sizes, targets, bits_stack: np.ndarray,
              fanout=None, label: str = "routing") -> BatchedRoutingResult:
        """Route message ``m`` of every trial: ``sizes[m]`` bits, trial
        ``t``'s row ``bits_stack[t, m]`` (zero-padded), from
        ``sources[m]`` to its ``fanout[m]`` targets, the next entries of
        ``targets`` (one each by default).  Node ids are shared ``(M,)`` /
        ``(P,)`` arrays or, in blocks mode, per-trial ``(trials, M)`` /
        ``(trials, P)`` ones; see :func:`~repro.core.routing.plan_waves`."""
        net = self.net
        sizes = np.asarray(sizes, dtype=np.int64)
        with tracing.span("routing.route", label=label,
                          messages=sizes.size * net.trials,
                          trials=net.trials):
            bits_stack = np.ascontiguousarray(bits_stack, dtype=np.uint8)
            if bits_stack.ndim != 3 \
                    or bits_stack.shape[:2] != (net.trials, sizes.size) \
                    or bits_stack.shape[2] < sizes.max(initial=0):
                raise ValueError(
                    f"bits_stack must be (trials={net.trials}, "
                    f"M={sizes.size}, L >= {sizes.max(initial=0)}); got "
                    f"{bits_stack.shape}")
            # both modes check the adversary's budget before any planning
            length, code = self.profile.select_routing_code(
                net.n, net.adversary.alpha)
            if self.mode == "coverfree":
                # cover-freeness needs group size >> k/delta, so relay sets
                # stay small; low-rate codes absorb the overlap
                length = max(8, net.n // 16)
                code = self.profile.routing_code_at_rate(
                    length, min(self.profile.code_rate, 1.0 / 8))
                plan = plan_coverfree(net.trials, net.n, length,
                                      max(1, code.k), self._construction_rng,
                                      sources, slots, sizes, targets, fanout)
            else:
                plan = plan_waves(net.trials, net.n, net.n // length,
                                  max(1, code.k), sources, slots, sizes,
                                  targets, fanout)
            return route_waves(net.round, net.n, net.bandwidth, code, length,
                               plan, bits_stack, label,
                               book=net.book_fault_free
                               if net.delivers_as_sent() else None)


def broadcast_many(router: BatchedRouter, source: int,
                   bits_stack: np.ndarray,
                   label: str = "broadcast") -> np.ndarray:
    """Batched Corollary 4.8: node ``source`` broadcasts trial ``t``'s row
    ``bits_stack[t]`` in trial ``t``; returns the ``(trials, n, bits)``
    tensor of per-node received strings."""
    n = router.net.n
    bits_stack = np.asarray(bits_stack, dtype=np.uint8)
    result = router.route([source], [0], [bits_stack.shape[1]], np.arange(n),
                          bits_stack[:, None, :], fanout=[n], label=label)
    # targets are 0..n-1, so the broadcast's pairs index directly by node id
    return result.pair_bits()
