"""Randomized O(1)-round AllToAllComm against a non-adaptive adversary.

Theorem 1.2 / Section 5.1.  The trick that beats a *non-adaptive* adversary
with constant fault fraction: every message is encoded with a constant-rate
code, and bit ``i`` of every codeword is relayed through the random shift
``p_i(v) = v + r_i mod n`` — chosen *after* the adversary committed its
fault schedule — so each codeword bit is corrupted independently with
probability <= alpha and the received word decodes w.h.p.

Steps (Algorithm NonAdaptiveAlltoAll):

0. node v_1 draws B shift amounts r_1..r_B and broadcasts them via the
   resilient router (Corollary 4.8);
1. one wide round delivers bit i of C(m_{u,v}) to p_i(v), for all (u, v, i)
   simultaneously (Lemma 5.2: the shifts are permutations, so each edge
   carries exactly one bit per plane);
2. B SuperMessagesRouting instances ship each relay's bit-column to its
   owner (Lemma 5.3);
3. every node reassembles its n received codewords and decodes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cliquesim.batched import BatchedClique
from repro.coding.linear import best_effort_linear_code
from repro.core.batched_routing import BatchedRouter, broadcast_many
from repro.core.messages import AllToAllInstance
from repro.core.profiles import ProtocolProfile, SIMULATION
from repro.core.protocol import (AllToAllProtocol, common_shape, pack_block,
                                 unpack_block)
from repro.utils.bits import pack_bits, unpack_bits
from repro.utils.rng import derive


class NonAdaptiveAllToAll(AllToAllProtocol):
    """Theorem 1.2: randomized, O(1) routing steps, alpha = Θ(1), α-NBD.

    Steps 0/1 batch cleanly across trials (per-trial shift vectors are
    data, not structure).  The step-2 return routing targets *depend* on
    each trial's shifts, so it routes per-trial owners; when the trials'
    batch counts diverge the route raises
    :class:`~repro.core.routing.CellUnbatchable`."""

    name = "nonadaptive"

    def __init__(self, profile: ProtocolProfile = SIMULATION,
                 codeword_bits: int = 32):
        self.profile = profile
        self.codeword_bits = codeword_bits
        #: diagnostics filled by run() — in particular the number of received
        #: words whose decoding *failed* (flagged, not silently zeroed)
        self.diagnostics = {}

    def run_many(self, instances: Sequence[AllToAllInstance],
                 net: BatchedClique, seeds: Sequence[int]) -> np.ndarray:
        n, width = common_shape(instances, net, seeds)
        trials = net.trials
        code = best_effort_linear_code(width, self.codeword_bits,
                                       seed=self.profile.construction_seed)
        B = code.n
        router = BatchedRouter(net, self.profile)
        id_bits = max(1, (n - 1).bit_length())

        # -- Step 0: v_1 broadcasts trial t's B random shifts in trial t ------
        shift_rows = [derive(s, "nonadaptive-shifts").integers(
            0, n, size=B, dtype=np.int64) for s in seeds]
        payload0 = np.stack([pack_block(row, id_bits) for row in shift_rows])
        received = broadcast_many(router, 0, payload0,
                                  label="nonadaptive/shifts")
        # every node decodes the same shift vector from the resilient
        # broadcast; we proceed with node 0's view (all agree w.h.p.)
        shifts = np.stack([unpack_block(received[t, 0], B, id_bits) % n
                           for t in range(trials)])

        # -- Step 1: spread codeword bits through the random shifts ----------
        # bit i of C(m_{u,v}) goes to column p_i(v) = (v + r_i) mod n: gather
        # every plane's shifted column at once and pack the (T, n, n, B) bit
        # tensor straight into the one-word payload planes
        stacked = np.stack([inst.messages for inst in instances])
        msg_bits = unpack_bits(
            stacked.reshape(-1).astype(np.uint64)[:, None], width)
        codewords = code.encode_many(msg_bits).reshape(trials, n, n, B)
        cols = (np.arange(n)[None, :, None] - shifts[:, None, :]) % n
        spread = codewords[
            np.arange(trials)[:, None, None, None],
            np.arange(n)[None, :, None, None],
            cols[:, None, :, :],
            np.arange(B)[None, None, None, :]]
        payload = pack_bits(spread)[..., 0].astype(np.int64)
        delivered = net.exchange(payload, width=B, label="nonadaptive/spread")

        # -- Step 2: B routing instances bring the bit-columns home -----------
        # message m = w * B + i: relay w returns bit-column i, the bits w
        # received from every node, to its owner (w - r_i) mod n; counts and
        # lengths are shared, owners per trial
        dropped_spread = np.count_nonzero(delivered < 0, axis=(1, 2))
        clean = np.where(delivered < 0, 0, delivered)
        bit_planes = unpack_bits(clean.astype(np.uint64)[..., None], B)
        relays = np.repeat(np.arange(n), B)
        slots = np.tile(np.arange(B), n)
        routed = router.route(
            relays, slots, np.full(n * B, n, dtype=np.int64),
            (relays[None, :] - shifts[:, slots]) % n,
            bit_planes.transpose(0, 2, 3, 1).reshape(trials, n * B, n),
            label="nonadaptive/return")

        # -- Step 3: reassemble and decode ------------------------------------
        # owner v's bit-column i came from relay (v + r_i) mod n;
        # words[t, u, v, i] is its bit u
        owner_relay = (np.arange(n)[None, :, None]
                       + shifts[:, None, :]) % n           # (T, v, i)
        got = routed.message_bits()[
            np.arange(trials)[:, None, None],
            owner_relay * B + np.arange(B)[None, None, :]]  # (T, v, i, u)
        words = np.ascontiguousarray(got.transpose(0, 3, 1, 2))
        decoded, failed = code.decode_many_flagged(
            words.reshape(trials * n * n, B))
        decode_failures = np.count_nonzero(
            np.reshape(failed, (trials, -1)), axis=1)
        routing_failures = routed.failed.sum(axis=1)
        self.trial_records = {"diagnostics": [
            {"codeword_bits": B,
             "decode_failures": int(decode_failures[t]),
             "routing_decode_failures": int(routing_failures[t]),
             # adversarial "no message" drops: spread-exchange entries
             # that arrived silenced, and relay bits dropped inside the
             # router
             "dropped_spread_entries": int(dropped_spread[t]),
             "routing_dropped_entries": int(routed.dropped[t])}
            for t in range(trials)]}
        weights = (np.int64(1) << np.arange(width, dtype=np.int64))
        beliefs = (decoded.astype(np.int64) * weights[None, :]).sum(axis=1)
        return beliefs.reshape(trials, n, n)
