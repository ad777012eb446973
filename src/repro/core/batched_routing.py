"""Trial-batched super-message routing over a :class:`BatchedClique`.

A campaign cell runs the *same* routing step in every trial, so each wave's
two clique rounds move all trials at once.  :meth:`BatchedRouter.route`
takes the routing as index arrays — sources, slots, sizes, targets — with
shared ``(M,)`` or per-trial ``(trials, M)`` node ids, builds its
:class:`~repro.core.routing.WavePlan` with
:func:`~repro.core.routing.plan_waves` and hands it to the one wave
kernel, :func:`~repro.core.routing.route_waves`.  Every protocol's
``run_many`` routes through it, at one trial on the serial path.
Placements are exactly what a one-trial run of each trial computes; when
per-trial schedules take different batch counts the planner raises
:class:`~repro.core.routing.CellUnbatchable` and the caller falls back to
per-trial serial execution.

Blocks mode only: :class:`~repro.core.routing.SuperMessageRouter` plans
cover-free routings and runs them on the same kernel.
"""

from __future__ import annotations

import numpy as np

from repro.cliquesim.batched import BatchedClique
from repro.core.profiles import ProtocolProfile, SIMULATION
from repro.core.routing import BatchedRoutingResult, plan_waves, route_waves
from repro.obs import metrics, tracing


class BatchedRouter:
    """Routes one instance per trial, lockstep over the batch."""

    def __init__(self, net: BatchedClique,
                 profile: ProtocolProfile = SIMULATION):
        self.net = net
        self.profile = profile

    def route(self, sources, slots, sizes, targets, bits_stack: np.ndarray,
              fanout=None, label: str = "routing") -> BatchedRoutingResult:
        """Route message ``m`` of every trial: ``sizes[m]`` bits, trial
        ``t``'s row ``bits_stack[t, m]`` (zero-padded), from
        ``sources[m]`` to its ``fanout[m]`` targets, the next entries of
        ``targets`` (one each by default).  Node ids are shared ``(M,)`` /
        ``(P,)`` arrays or per-trial ``(trials, M)`` / ``(trials, P)``
        ones; see :func:`~repro.core.routing.plan_waves`."""
        net = self.net
        sizes = np.asarray(sizes, dtype=np.int64)
        with metrics.timed("routing.route"), \
                tracing.maybe_span(f"{label}/route",
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
            length, code = self.profile.select_routing_code(
                net.n, net.adversary.alpha)
            plan = plan_waves(net.trials, net.n, net.n // length,
                              max(1, code.k), sources, slots, sizes, targets,
                              fanout)
            return route_waves(net.round, net.n, net.bandwidth, code, length,
                               plan, bits_stack, label)


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
