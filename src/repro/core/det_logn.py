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
from repro.core.protocol import AllToAllProtocol, common_shape


class DetLogAllToAll(AllToAllProtocol):
    """Theorem 1.4: deterministic, O(log n) iterations, alpha = Θ(1).

    The butterfly pairing is fixed by ``n``, so every iteration is one
    gather, one route and one scatter over a ``(trials, n, |S|, |T|,
    width)`` array of belief bits."""

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
        # beliefs[t, u, s, j, b]: bit b, least significant first, of node
        # u's value for its s-th source and j-th target, both ascending;
        # |S| doubles and |T| halves per iteration.  A node's half is then
        # its messages' bits in id order, the route's row as it stands
        beliefs = np.empty((trials, n, 1, n, width), dtype=np.uint8)
        for t, inst in enumerate(instances):
            words = np.ascontiguousarray(inst.messages, dtype="<i8")
            beliefs[t, :, 0] = np.unpackbits(
                words.view(np.uint8).reshape(n, n, 8), axis=-1, count=width,
                bitorder="little")

        for i in range(1, log_n + 1):
            position = log_n - i  # bit i - 1 of the id, most significant first
            num_sources, num_targets = beliefs.shape[2:4]
            half = num_targets // 2
            # [t, h, a, l, s, b, j]: node u = (h, a, l) has bit a at
            # ``position``, and the targets of half b have bit b there.
            # Node u keeps half a and sends half 1 - a to its partner
            # (h, 1 - a, l).
            split = (trials, n >> (position + 1), 2, 1 << position,
                     num_sources, 2, half, width)
            by_bit = beliefs.reshape(split)
            sent = np.empty(split[:5] + split[6:], dtype=np.uint8)
            sent[:, :, 0] = by_bit[:, :, 0, :, :, 1]
            sent[:, :, 1] = by_bit[:, :, 1, :, :, 0]
            # the butterfly pairing is fixed by n, so one schedule serves
            # the whole batch; row (t, u) of the stack goes to partner(u)
            sent = sent.reshape(trials, n, -1)
            res = router.route(
                nodes, np.zeros(n), np.full(n, sent.shape[2]),
                nodes ^ (1 << position), sent, label=f"det-logn/iter{i}")
            del sent
            # u's s-th source and its partner's s-th source differ only at
            # ``position``, so the merged ascending source list interleaves
            # them as 2s + bit: the received half takes the sent half's
            # slots, and the kept half is already in place
            got = res.message_bits().reshape(split[:5] + split[6:])
            by_bit[:, :, 0, :, :, 1] = got[:, :, 1]
            by_bit[:, :, 1, :, :, 0] = got[:, :, 0]
            del got
            beliefs = beliefs.reshape(trials, n, 2 * num_sources, half, width)
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
        # beliefs[t, u, s, 0] holds the bits of u's value of m(s, u); the
        # values are rebuilt once, plane by plane from the transposed bits,
        # most significant first
        bits = np.ascontiguousarray(
            beliefs.reshape(trials, n, n, width).transpose(0, 2, 1, 3))
        values = np.zeros((trials, n, n), dtype=np.int64)
        for b in reversed(range(width)):
            values <<= 1
            values |= bits[..., b]
        return values
