"""Deterministic O(log n)-round AllToAllComm for constant alpha.

Theorem 1.4 / Section 6.1 (Figure 2).  A butterfly exchange: in iteration
``i`` (1-based), nodes are paired with the partner whose id differs only in
bit ``i`` (most significant first).  Each node splits its current message
set by target id into a lower and an upper half and the pair exchanges
halves through the resilient router, so that after iteration ``i`` node u
holds exactly ``M(S(u, i+1), P(u, i+1))`` (Lemma 6.2) — sources double,
targets halve — and after ``log n`` iterations it holds ``M(V, {u})``.

Every iteration is a SuperMessagesRouting instance with one super-message
of ``(n/2) * width`` bits per node (Lemma 6.3).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cliquesim.batched import BatchedClique
from repro.core.batched_routing import BatchedRouter
from repro.core.messages import AllToAllInstance
from repro.core.profiles import ProtocolProfile, SIMULATION
from repro.core.protocol import (AllToAllProtocol, common_shape, pack_rows,
                                 unpack_rows)


class DetLogAllToAll(AllToAllProtocol):
    """Theorem 1.4: deterministic, O(log n) iterations, alpha = Θ(1).

    The butterfly pairing is fixed by ``n``, so every iteration is one
    gather, one route and one scatter over a ``(trials, n, |S|, |T|)``
    belief array."""

    name = "det-logn"

    def __init__(self, profile: ProtocolProfile = SIMULATION):
        self.profile = profile
        #: per-iteration invariant records of trial 0 (used by the Figure 2
        #: benchmark); ``trial_records["trace"]`` holds every trial's
        self.trace = []

    def run_many(self, instances: Sequence[AllToAllInstance],
                 net: BatchedClique, seeds: Sequence[int]) -> np.ndarray:
        n, width = common_shape(instances, net, seeds)
        trials = net.trials
        log_n = n.bit_length() - 1
        if 1 << log_n != n:
            raise ValueError(f"n={n} must be a power of two "
                             f"(Lemma 2.8 reduces the general case)")
        router = BatchedRouter(net, self.profile)
        nodes = np.arange(n)
        traces = [[] for _ in range(trials)]
        # beliefs[t, u, s, j]: node u's value for its s-th source and j-th
        # target, both ascending; |S| doubles and |T| halves per iteration
        beliefs = np.stack([inst.messages for inst in instances]) \
            .reshape(trials, n, 1, n)

        for i in range(1, log_n + 1):
            position = log_n - i  # bit i - 1 of the id, most significant first
            partner_of = nodes ^ (1 << position)
            num_sources, num_targets = beliefs.shape[2:]
            half = num_targets // 2
            # [t, u, b, s, j]: the targets' bit at ``position`` is b.  Node u
            # keeps the half whose bit is its own and sends the other one.
            halves = beliefs.reshape(trials, n, num_sources, 2, half) \
                .transpose(0, 1, 3, 2, 4)
            send_bit = 1 - ((nodes >> position) & 1)
            sent = halves[:, nodes, send_bit]
            # the butterfly pairing is fixed by n, so one schedule serves
            # the whole batch; row (t, u) of the stack goes to partner(u)
            packed = pack_rows(sent.reshape(trials * n, -1), width)
            bit_len = packed.shape[1]
            res = router.route(
                nodes, np.zeros(n), np.full(n, bit_len), partner_of,
                packed.reshape(trials, n, bit_len),
                label=f"det-logn/iter{i}")
            received = unpack_rows(
                res.message_bits()[:, partner_of].reshape(trials * n, bit_len),
                num_sources * half, width)
            # u's s-th source and its partner's s-th source differ only at
            # ``position``, so the merged ascending source list interleaves
            # them as 2s + bit: the received half takes the sent half's
            # slots, and the kept half is already in place
            halves[:, nodes, send_bit] = \
                received.reshape(trials, n, num_sources, half)
            beliefs = beliefs.reshape(trials, n, 2 * num_sources, half)
            failures = res.failed.sum(axis=1)
            for t in range(trials):
                traces[t].append({
                    "iteration": i,
                    "sources_per_node": 2 * num_sources,
                    "targets_per_node": half,
                    "rounds_so_far": int(net.rounds_used),
                    "routing_decode_failures": int(failures[t]),
                    "routing_dropped_entries": int(res.dropped[t]),
                })

        self.trial_records = {"trace": traces}
        # beliefs[t, u, s, 0] is u's value of m(s, u)
        return np.ascontiguousarray(beliefs[:, :, :, 0].transpose(0, 2, 1))
