"""Deterministic O(1)-round AllToAllComm for alpha = O(1/sqrt(n)).

Theorem 1.5 / Section 6.2 (Figure 3).  Two super-message routing steps over
the sqrt(n) x sqrt(n) segment grid:

1. node ``v`` (in segment S_i) sends ``M°({v}, S_j)`` to ``S_i[j]`` — after
   which segment ``S_i`` collectively holds ``M(S_i, V)``;
2. node ``S_i[j]`` sends ``M°(S_i, {S_j[l]})`` to ``S_j[l]`` — after which
   every node ``v`` holds ``M(V, {v})``.

Each step is one SuperMessagesRouting instance with sqrt(n) super-messages
of sqrt(n) * width bits per node, matching Lemmas 6.5 and 6.6.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.cliquesim.batched import BatchedClique
from repro.cliquesim.topology import sqrt_segments
from repro.core.batched_routing import BatchedRouter
from repro.core.messages import AllToAllInstance
from repro.core.profiles import ProtocolProfile, SIMULATION
from repro.core.protocol import (AllToAllProtocol, common_shape, pack_rows,
                                 unpack_rows)


class DetSqrtAllToAll(AllToAllProtocol):
    """Theorem 1.5: deterministic, O(1) routing steps, alpha = Θ(1/sqrt n).

    The segment grid is fixed by ``n``, so both routing steps share one
    structure across trials and all packing/unpacking collapses to
    whole-batch calls."""

    name = "det-sqrt"

    def __init__(self, profile: ProtocolProfile = SIMULATION):
        self.profile = profile
        #: transport diagnostics of the two routing steps, filled by run()
        self.diagnostics = {}

    def run_many(self, instances: Sequence[AllToAllInstance],
                 net: BatchedClique, seeds: Sequence[int]) -> np.ndarray:
        n, width = common_shape(instances, net, seeds)
        trials = net.trials
        root = math.isqrt(n)
        if root * root != n:
            raise ValueError(f"n={n} must be a perfect square "
                             f"(Lemma 2.8 reduces the general case)")
        segments = np.asarray(sqrt_segments(n))
        router = BatchedRouter(net, self.profile)
        stacked = np.stack([inst.messages for inst in instances])

        # -- Step 1: v in S_i sends M°({v}, S_j) to S_i[j] --------------------
        # segments are consecutive blocks, so M°({v}, S_j) is one reshape
        # away; every (trial, v, j) block packs in a single pack_rows call.
        # Message (v, j) is row v*root+j; the structure is fixed by n alone,
        # so one schedule serves the whole batch.
        vals1 = stacked.reshape(trials, n, root, root)
        packed1 = pack_rows(vals1.reshape(trials * n * root, root), width)
        bit_len = packed1.shape[1]
        v_of, j_of = np.divmod(np.arange(n * root), root)
        res1 = router.route(
            v_of, j_of, np.full(n * root, bit_len),
            segments[v_of // root, j_of],
            packed1.reshape(trials, n * root, bit_len),
            label="det-sqrt/step1")

        # S_i[j] reassembles its belief of M(S_i, S_j): message (v, j) is
        # row v*root+j of the stack, so the (t, i, j, source) gather is a
        # reshape + transpose, then one batched unpack
        out1 = res1.message_bits()
        rows1 = out1.reshape(trials, root, root, root, bit_len)\
            .transpose(0, 1, 3, 2, 4)
        held = unpack_rows(
            rows1.reshape(trials * root * root * root, bit_len),
            root, width).reshape(trials, root, root, root, root)

        # -- Step 2: S_i[j] sends M°(S_i, {S_j[l]}) to S_j[l] ------------------
        vals2 = held.transpose(0, 1, 2, 4, 3).reshape(
            trials * root * root * root, root)
        packed2 = pack_rows(vals2, width)
        # message (i, j, col) is row (i*root+j)*root+col, from S_i[j] to
        # S_j[col]
        i_of, j_of, col_of = np.indices((root, root, root)).reshape(3, -1)
        res2 = router.route(
            segments[i_of, j_of], col_of, np.full(n * root, bit_len),
            segments[j_of, col_of],
            packed2.reshape(trials, n * root, bit_len),
            label="det-sqrt/step2")

        failures = res1.failed.sum(axis=1) + res2.failed.sum(axis=1)
        dropped = res1.dropped + res2.dropped
        self.trial_records = {"diagnostics": [
            {"routing_decode_failures": int(failures[t]),
             "routing_dropped_entries": int(dropped[t])}
            for t in range(trials)]}

        # -- Output: v = S_j[l] holds M(S_i, {v}) for every i ------------------
        # message (i, j, col) is row i*root²+j*root+col; gather to the
        # (t, j, col, i) row order with one transpose
        out2 = res2.message_bits()
        rows3 = out2.reshape(trials, root, root, root, bit_len)\
            .transpose(0, 2, 3, 1, 4)
        values = unpack_rows(
            rows3.reshape(trials * root * root * root, bit_len),
            root, width).reshape(trials, root, root, root, root)
        # values[t, j, col, i, l] is the belief about m[S_i[l], S_j[col]];
        # contiguous segments make the gather a transpose + reshape
        return np.ascontiguousarray(
            values.transpose(0, 3, 4, 1, 2).reshape(trials, n, n))
