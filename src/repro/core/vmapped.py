"""Trial-batched (vmap) ports of the AllToAllComm protocols.

Each port runs ``trials`` instances of one protocol over a
:class:`~repro.cliquesim.batched.BatchedClique`, producing the exact belief
matrices the serial protocol produces trial by trial.  The ports mirror the
serial control flow with a leading batch axis:

* message *structure* (sources, slots, targets, round sequence) is shared
  across the batch whenever the protocol's structure is data-independent —
  det-sqrt's segment grid and det-logn's butterfly are fixed by ``n``
  alone, so their packing/unpacking batches perfectly and their routing
  is scheduled once;
* per-trial *randomness* is derived from each trial's own seed exactly as
  the serial protocol derives it (nonadaptive's shift vectors), so batched
  outputs are bit-identical to serial ones;
* when per-trial randomness changes the routing *structure* itself
  (nonadaptive's return step targets depend on the shifts), message counts
  and bit lengths are still shared, so the port passes per-trial node ids
  and each trial is scheduled on its own; if batch counts diverge the
  planner raises :class:`~repro.core.routing.CellUnbatchable` and the
  caller falls back to per-trial serial execution;
* every routing step passes index arrays to
  :meth:`~repro.core.batched_routing.BatchedRouter.route`, whose plan runs
  through the one wave kernel :func:`~repro.core.routing.route_waves`;
* the adaptive compiler batches natively
  (:class:`BatchedAdaptiveAllToAll`): its message *structure* (counts,
  lengths, slots) is partition-independent even though the node ids
  carrying it are per-trial random, so concentration and gather route
  per-trial node ids over one structure, the sketch algebra runs as one
  :class:`~repro.sketch.ksparse.SketchPlaneStack` across all trials'
  sketches, and the one genuinely divergent transport — the query-answer
  exchange, whose width is a per-trial random quantity — uses the ragged
  tail (:meth:`~repro.cliquesim.batched.BatchedClique.
  exchange_words_ragged`), after which per-trial round counts come from
  :attr:`~repro.cliquesim.batched.BatchedClique.rounds_by_trial`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.adversary.batched import BatchedAdversary
from repro.cliquesim.batched import BatchedClique
from repro.cliquesim.topology import (balanced_random_partition,
                                      consecutive_segments,
                                      partition_members, sqrt_segments)
from repro.coding.linear import best_effort_linear_code
from repro.core.batched_routing import BatchedRouter, broadcast_many
from repro.core.messages import AllToAllInstance, ProtocolReport, verify_beliefs
from repro.core.profiles import ProfileError, ProtocolProfile, SIMULATION
from repro.core.protocol import pack_block, pack_rows, unpack_block, unpack_rows
from repro.core.routing import CellUnbatchable
from repro.utils.bits import pack_bits, pack_symbols, unpack_bits, unpack_symbols
from repro.utils.rng import derive, fresh_seed


def _common_shape(instances: Sequence[AllToAllInstance], net: BatchedClique,
                  seeds: Sequence[int]):
    if not instances:
        raise ValueError("need at least one instance")
    n = instances[0].n
    width = instances[0].width
    if any(inst.n != n or inst.width != width for inst in instances):
        raise ValueError("batched trials must share n and width")
    if len(instances) != net.trials or len(seeds) != net.trials:
        raise ValueError(
            f"expected {net.trials} instances and seeds, got "
            f"{len(instances)} and {len(seeds)}")
    return n, width


class BatchedDetSqrtAllToAll:
    """Batched :class:`~repro.core.det_sqrt.DetSqrtAllToAll`: the segment
    grid is fixed by ``n``, so both routing steps share one structure and
    all packing/unpacking collapses to whole-batch calls."""

    name = "det-sqrt"

    def __init__(self, profile: ProtocolProfile = SIMULATION):
        self.profile = profile

    def run_many(self, instances: Sequence[AllToAllInstance],
                 net: BatchedClique, seeds: Sequence[int]) -> np.ndarray:
        n, width = _common_shape(instances, net, seeds)
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

        # -- Output: v = S_j[l] holds M(S_i, {v}) for every i ------------------
        # message (i, j, col) is row i*root²+j*root+col; gather to the
        # serial (t, j, col, i) row order with one transpose
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


class BatchedDetLogAllToAll:
    """Batched :class:`~repro.core.det_logn.DetLogAllToAll`: the butterfly
    pairing is fixed by ``n``, so every iteration is one gather, one route
    and one scatter over a ``(trials, n, |S|, |T|)`` belief array."""

    name = "det-logn"

    def __init__(self, profile: ProtocolProfile = SIMULATION):
        self.profile = profile

    def run_many(self, instances: Sequence[AllToAllInstance],
                 net: BatchedClique, seeds: Sequence[int]) -> np.ndarray:
        n, width = _common_shape(instances, net, seeds)
        trials = net.trials
        log_n = n.bit_length() - 1
        if 1 << log_n != n:
            raise ValueError(f"n={n} must be a power of two "
                             f"(Lemma 2.8 reduces the general case)")
        router = BatchedRouter(net, self.profile)
        nodes = np.arange(n)
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

        # beliefs[t, u, s, 0] is u's value of m(s, u)
        return np.ascontiguousarray(beliefs[:, :, :, 0].transpose(0, 2, 1))


class BatchedNonAdaptiveAllToAll:
    """Batched :class:`~repro.core.nonadaptive.NonAdaptiveAllToAll`.

    Steps 0/1 batch cleanly (per-trial shift vectors are data, not
    structure).  The step-2 return routing targets *depend* on each trial's
    shifts, so it routes per-trial owners; when the trials' batch counts
    diverge the route raises ``CellUnbatchable`` and the caller falls back
    to serial per-trial execution.
    """

    name = "nonadaptive"

    def __init__(self, profile: ProtocolProfile = SIMULATION,
                 codeword_bits: int = 32):
        self.profile = profile
        self.codeword_bits = codeword_bits

    def run_many(self, instances: Sequence[AllToAllInstance],
                 net: BatchedClique, seeds: Sequence[int]) -> np.ndarray:
        n, width = _common_shape(instances, net, seeds)
        trials = net.trials
        code = best_effort_linear_code(width, self.codeword_bits,
                                       seed=self.profile.construction_seed)
        B = code.n
        router = BatchedRouter(net, self.profile)
        id_bits = max(1, (n - 1).bit_length())

        # -- Step 0: v_1 broadcasts trial t's B random shifts in trial t ------
        # each trial's stream is the exact serial derivation from its seed
        shift_rows = [derive(s, "nonadaptive-shifts").integers(
            0, n, size=B, dtype=np.int64) for s in seeds]
        payload0 = np.stack([pack_block(row, id_bits) for row in shift_rows])
        received = broadcast_many(router, 0, payload0,
                                  label="nonadaptive/shifts")
        shifts = np.stack([unpack_block(received[t, 0], B, id_bits) % n
                           for t in range(trials)])

        # -- Step 1: spread codeword bits through the random shifts ----------
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
        # message m = w * B + i (the serial key order): relay w returns
        # bit-column i, the bits w received from every node, to its owner
        # (w - r_i) mod n; counts and lengths are shared, owners per trial
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
        decoded, _ = code.decode_many_flagged(words.reshape(trials * n * n, B))
        weights = (np.int64(1) << np.arange(width, dtype=np.int64))
        beliefs = (decoded.astype(np.int64) * weights[None, :]).sum(axis=1)
        return beliefs.reshape(trials, n, n)


class BatchedAdaptiveAllToAll:
    """Batched :class:`~repro.core.adaptive.AdaptiveAllToAll` (Theorem 1.3).

    The compiler's *structure* — message counts, bit lengths, slot
    numbering, chunking, sketch geometry, round sequence — depends only on
    ``(n, width, alpha)``, never on a trial's random partition: each node
    is a concentration holder for exactly one ``(group, segment)`` cell,
    leaders and gather groupings are fixed by member *index*, and segment
    contents are deterministic.  Only the node *ids* carrying that
    structure are per-trial random, and
    :meth:`~repro.core.batched_routing.BatchedRouter.route` takes them as
    per-trial node ids.  The sketch algebra runs as single
    :class:`SketchPlaneStack` calls over every (trial, group, target)
    sketch at once, and LDC encode/decode collapse to whole-batch
    ``encode_many`` / ``local_decode_many`` calls (line decoding is
    position-independent, so rows from different trials batch together).

    One transport genuinely diverges: the query-answer exchange, whose
    width is determined by each trial's R3 query plan.  It runs through
    :meth:`~repro.cliquesim.batched.BatchedClique.exchange_words_ragged`,
    so trial round counts (``net.rounds_by_trial``) and bit totals stay
    serial-identical.

    Per-trial randomness (R1/R2/R3) is drawn from each seed's
    ``adaptive-randomness`` stream in the serial draw order, so beliefs,
    rounds, bits and corruption counts are bit-identical to running the
    trials one at a time.
    """

    name = "adaptive"

    def __init__(self, profile: ProtocolProfile = SIMULATION,
                 params: Optional["AdaptiveParameters"] = None):
        from repro.core.adaptive import AdaptiveParameters
        self.profile = profile
        self.params = params or AdaptiveParameters()

    def run_many(self, instances: Sequence[AllToAllInstance],
                 net: BatchedClique, seeds: Sequence[int]) -> np.ndarray:
        # the compiler's LDC/sketch stack loads only when an adaptive cell
        # runs batched
        from repro.core.adaptive import AdaptiveAllToAll, design_ldc_for_sketch
        from repro.sketch.ksparse import (SketchPlaneStack,
                                          SketchRecoveryError, SketchSpec,
                                          planes_supported)
        n, width = _common_shape(instances, net, seeds)
        trials = net.trials
        alpha = net.adversary.alpha
        params = self.params
        router = BatchedRouter(net, self.profile)

        num_parts = AdaptiveAllToAll._num_parts(n, alpha)
        part_size = n // num_parts
        segments = consecutive_segments(n, num_parts)
        seg_size = num_parts              # |S_i|; there are part_size segments
        t_idx = np.arange(trials)

        # ===== Step I: direct exchange + randomness broadcast ================
        stacked = np.stack([inst.messages for inst in instances])
        tilde = net.exchange(stacked, width=width, label="adaptive/exchange")
        tilde = np.where(tilde < 0, 0, tilde)

        # serial draw order per trial: R1, R2 now; R3 only after the scatter
        rngs = [derive(int(s), "adaptive-randomness") for s in seeds]
        r1_sent = [fresh_seed(g) for g in rngs]
        r2_sent = [fresh_seed(g) for g in rngs]
        payload = np.stack([pack_block(np.array([a, b], dtype=np.int64), 63)
                            for a, b in zip(r1_sent, r2_sent)])
        got = broadcast_many(router, 0, payload, label="adaptive/seeds")
        pairs = [unpack_block(got[t, 0], 2, 63) for t in range(trials)]
        r1 = [int(p[0]) for p in pairs]
        r2 = [int(p[1]) for p in pairs]

        # ===== Step II(a): per-trial partitions ==============================
        part_of = np.stack([balanced_random_partition(n, num_parts, s)
                            for s in r1])
        members_mat = np.stack(
            [np.stack(partition_members(part_of[t], num_parts))
             for t in range(trials)]).astype(np.int64)  # (T, J, part_size)

        # ===== Step II(b): route M(P_j, S_i) to P_j[i] =======================
        # message m = v * part_size + i (the serial key-sorted order);
        # structure is shared, targets are per-trial partition members
        M1 = n * part_size
        v_of_m = np.repeat(np.arange(n), part_size)
        i_of_m = np.tile(np.arange(part_size), n)
        packed1 = pack_rows(
            stacked.reshape(trials, n, part_size, seg_size)
            .reshape(trials * M1, seg_size), width)
        L1 = packed1.shape[1]
        targets1 = members_mat[t_idx[:, None], part_of[:, v_of_m],
                               i_of_m[None, :]]
        routed = router.route(
            v_of_m, i_of_m, np.full(M1, L1, dtype=np.int64), targets1,
            packed1.reshape(trials, M1, L1), label="adaptive/concentrate")
        out1 = routed.message_bits()
        # unpacked1[t, v, i, c] = what P_j[i] received of m[v, segments[i][c]]
        unpacked1 = unpack_rows(out1.reshape(trials * M1, L1), seg_size,
                                width).reshape(trials, n, part_size, seg_size)

        # sketch spec + LDC walk-down: identical to serial, shared by trials
        max_id = n * n * (1 << width) - 1
        spec = None
        ldc = None
        last_error = None
        for rows in range(params.sketch_rows, 0, -1):
            for capacity in range(params.sketch_capacity,
                                  params.min_sketch_capacity - 1, -1):
                candidate = SketchSpec(
                    capacity=capacity,
                    max_id=max_id,
                    max_abs_count=2 * part_size + 2,
                    rows=rows,
                    fingerprint_prime=params.fingerprint_prime)
                try:
                    ldc = design_ldc_for_sketch(candidate.total_bits, n,
                                                alpha, params)
                    spec = candidate
                    break
                except ProfileError as exc:
                    last_error = exc
            if spec is not None:
                break
        if spec is None:
            raise last_error
        if not planes_supported(spec):
            raise CellUnbatchable(
                "sketch spec outside the plane fast path; scalar sketches "
                "run per trial")
        t_bits = spec.total_bits
        symbol_bits = (ldc.p - 1).bit_length() - 1
        wire_bits = (ldc.p - 1).bit_length()
        t_symbols = -(-t_bits // symbol_bits)
        t_pad = t_symbols * symbol_bits
        sketches_per_piece = max(1, (ldc.k * symbol_bits) // t_pad)
        num_pieces = -(-n // sketches_per_piece)
        symbols_per_node = -(-ldc.n // n)

        # ===== Step II(c): every (trial, group, target) sketch in one stack ==
        # ids[t, j, i, c, s] hashes source u = P_j[s]'s received value for
        # target v = segments[i][c]; row order (t, j, i, c) with v = i*C + c
        u_idx = members_mat[:, :, None, None, :]              # (T, J, 1, 1, S)
        v_ids = (np.arange(part_size)[:, None] * seg_size
                 + np.arange(seg_size)[None, :])              # (I, C) = v
        vals = unpacked1[t_idx[:, None, None, None, None], u_idx,
                         np.arange(part_size)[None, None, :, None, None],
                         np.arange(seg_size)[None, None, None, :, None]]
        ids_all = ((u_idx * n + v_ids[None, None, :, :, None]) << width) \
            | vals.astype(np.int64)
        per_trial = num_parts * part_size * seg_size          # = J * n
        stack = SketchPlaneStack(
            spec, [s for t in range(trials) for s in [r2[t]] * per_trial])
        stack.add_many_lockstep(ids_all.reshape(trials * per_trial,
                                                part_size), 1)
        block_bits = stack.to_bits_many()
        sketch_pad = np.zeros((trials, num_parts, n, t_pad), dtype=np.uint8)
        sketch_pad[..., :t_bits] = block_bits.reshape(trials, num_parts, n,
                                                      t_bits)

        # ===== Step II(b) continued: ship sketches to piece leaders ==========
        # grouping and slot numbering are fixed by member *index*: the
        # leader of piece ell is P_j[ell mod part_size], members are
        # id-sorted, so sorting by leader id == sorting by leader index
        def piece_of(v: int) -> int:
            return v // sketches_per_piece

        meta = []  # (j, i, l, vs) in the serial gather-dict insertion order
        for j in range(num_parts):
            for i in range(part_size):
                by_l = {}
                for v in segments[i]:
                    by_l.setdefault(piece_of(int(v)) % part_size,
                                    []).append(int(v))
                for slot, l in enumerate(sorted(by_l)):
                    meta.append((j, i, l, tuple(sorted(by_l[l])), slot))
        M2 = len(meta)
        j_of = np.array([m[0] for m in meta])
        i_of = np.array([m[1] for m in meta])
        l_of = np.array([m[2] for m in meta])
        slots2 = np.array([m[4] for m in meta], dtype=np.int64)
        sizes2 = np.array([len(m[3]) * t_pad for m in meta], dtype=np.int64)
        bits2 = np.zeros((trials, M2, int(sizes2.max())), dtype=np.uint8)
        for m, (j, i, l, vs, slot) in enumerate(meta):
            bits2[:, m, :sizes2[m]] = \
                sketch_pad[:, j, list(vs)].reshape(trials, -1)
        gathered = router.route(
            members_mat[:, j_of, i_of], slots2, sizes2,
            members_mat[:, j_of, l_of], bits2, label="adaptive/gather")
        gbits = gathered.message_bits()

        # leaders assemble their pieces (every (j, piece) cell exists)
        piece_data = np.zeros((trials, num_parts, num_pieces, ldc.k),
                              dtype=np.int64)
        for m, (j, i, l, vs, slot) in enumerate(meta):
            for pos, v in enumerate(vs):
                symbols = unpack_rows(
                    gbits[:, m, pos * t_pad:(pos + 1) * t_pad],
                    t_symbols, symbol_bits)
                offset = (v % sketches_per_piece) * t_symbols
                piece_data[:, j, piece_of(v),
                           offset:offset + t_symbols] = symbols

        # ===== Step III: LDC-encode pieces and scatter symbols ===============
        encoded = ldc.encode_many(
            (piece_data % ldc.p).reshape(-1, ldc.k)).reshape(
                trials, num_parts, num_pieces, ldc.n)
        pieces_of_l = {l: [p for p in range(num_pieces)
                           if p % part_size == l]
                       for l in range(part_size)}
        max_pieces = max(len(v) for v in pieces_of_l.values() if v)
        scatter_symbols = max_pieces * symbols_per_node
        scatter_width = scatter_symbols * wire_bits
        padded_symbols = symbols_per_node * n

        scatter_syms = np.zeros((trials, n, n, scatter_symbols),
                                dtype=np.int64)
        scatter_present = np.zeros((trials, n, n), dtype=bool)
        for j in range(num_parts):
            for l in range(part_size):
                pieces = pieces_of_l[l]
                if not pieces:
                    continue
                leaders = members_mat[:, j, l]
                scatter_present[t_idx, leaders, :] = True
                for ki, piece in enumerate(pieces):
                    grid = np.zeros((trials, padded_symbols), dtype=np.int64)
                    grid[:, :ldc.n] = encoded[:, j, piece]
                    scatter_syms[t_idx, leaders, :,
                                 ki * symbols_per_node:
                                 (ki + 1) * symbols_per_node] = \
                        grid.reshape(trials, symbols_per_node,
                                     n).transpose(0, 2, 1)
        # free each plane once the next one exists: these planes, not the
        # routing, set a one-trial cell's peak memory
        scatter_words = pack_symbols(scatter_syms, wire_bits)
        del scatter_syms, encoded
        scattered, _ = net.exchange_words(
            scatter_words, scatter_present, scatter_width,
            label="adaptive/scatter")
        del scatter_words, scatter_present
        scattered_syms = unpack_symbols(scattered, scatter_symbols, wire_bits)
        del scattered
        shards = np.zeros((trials, num_parts, num_pieces, ldc.n),
                          dtype=np.int64)
        for j in range(num_parts):
            for l in range(part_size):
                pieces = pieces_of_l[l]
                if not pieces:
                    continue
                leaders = members_mat[:, j, l]
                for ki, piece in enumerate(pieces):
                    values = scattered_syms[t_idx, leaders, :,
                                            ki * symbols_per_node:
                                            (ki + 1) * symbols_per_node]
                    shards[:, j, piece] = values.transpose(0, 2, 1).reshape(
                        trials, -1)[:, :ldc.n]
        del scattered_syms

        # ===== Step III continued: R3 broadcast + per-trial query plans ======
        r3_sent = [fresh_seed(g) for g in rngs]
        got3 = broadcast_many(
            router, 0,
            np.stack([pack_block(np.array([s], dtype=np.int64), 63)
                      for s in r3_sent]), label="adaptive/r3")
        r3 = [int(unpack_block(got3[t, 0], 1, 63)[0]) for t in range(trials)]

        idx_count = sketches_per_piece * t_symbols
        qpos = [[ldc.decode_indices(idx, r3[t]) for idx in range(idx_count)]
                for t in range(trials)]
        # per (trial, offset_slot): the (t_symbols, q) position matrix, each
        # query's holder, and its slot — the rank of the query among the
        # holder's queries in flat (index, query) order, which is exactly
        # the serial gather-dict's append order
        q = ldc.p - 1
        pos_mats = []
        hold_info = []
        for t in range(trials):
            mats = []
            infos = []
            for offset_slot in range(sketches_per_piece):
                base = offset_slot * t_symbols
                pos_mat = np.stack(qpos[t][base:base + t_symbols])
                h_flat = pos_mat.reshape(-1) % n
                counts = np.bincount(h_flat, minlength=n)
                offsets = np.cumsum(counts) - counts
                order = np.argsort(h_flat, kind="stable")
                rank = np.empty(h_flat.size, dtype=np.int64)
                rank[order] = np.arange(h_flat.size) \
                    - np.repeat(offsets, counts)
                mats.append(pos_mat)
                infos.append((h_flat, counts, rank))
            pos_mats.append(mats)
            hold_info.append(infos)
        max_slots = np.array(
            [max(int(info[1].max()) for info in hold_info[t])
             for t in range(trials)], dtype=np.int64)
        answer_symbols = max_slots * num_parts
        answer_widths = answer_symbols * wire_bits  # the PER-TRIAL widths

        # answers stage at the widest trial's symbol count; the ragged
        # exchange transports only each trial's own answer_widths[t] bits
        all_nodes = np.arange(n)
        answer_syms = np.zeros((trials, n, n, int(answer_symbols.max())),
                               dtype=np.int32)
        answer_present = np.zeros((trials, n, n), dtype=bool)
        for t in range(trials):
            maxs = int(max_slots[t])
            for offset_slot in range(sketches_per_piece):
                nodes = all_nodes[all_nodes % sketches_per_piece
                                  == offset_slot]
                if nodes.size == 0:
                    continue
                h_flat, counts, rank = hold_info[t][offset_slot]
                piece_stack = shards[t][:, nodes // sketches_per_piece]
                # every queried position gathered at once, then scattered
                # into (holder, slot) cells; slot-major then group within a
                # holder, exactly the serial flattening
                giant = piece_stack[
                    :, :, pos_mats[t][offset_slot].reshape(-1)]
                padded = np.zeros((n, nodes.size, maxs, num_parts),
                                  dtype=np.int64)
                padded[h_flat, :, rank] = giant.transpose(2, 1, 0)
                answer_syms[t][:, nodes, :maxs * num_parts] = \
                    padded.reshape(n, nodes.size, -1)
                answer_present[t][:, nodes] = (counts > 0)[:, None]
        del giant, padded, piece_stack, shards
        answer_words = pack_symbols(answer_syms, wire_bits)
        del answer_syms
        answers, _ = net.exchange_words_ragged(
            answer_words, answer_present, answer_widths,
            label="adaptive/answers")
        del answer_words, answer_present

        # ===== Step III end: local LDC decoding of own sketch slots ==========
        # line decoding ignores the queried index and seed (every row is a
        # word over the same evaluation points, decoded in lockstep), so
        # rows from every trial, index and group batch into one call per
        # offset slot
        decoded_sk = np.zeros((trials, num_parts, n, t_pad), dtype=np.uint8)
        sketch_ok = np.ones((trials, num_parts, n), dtype=bool)
        for offset_slot in range(sketches_per_piece):
            nodes = all_nodes[all_nodes % sketches_per_piece == offset_slot]
            if nodes.size == 0:
                continue
            rows_all = np.empty(
                (trials, t_symbols, nodes.size, num_parts, q),
                dtype=np.int64)
            base = offset_slot * t_symbols
            for t in range(trials):
                maxs = int(max_slots[t])
                h_flat, counts, rank = hold_info[t][offset_slot]
                # one unpack of every (holder, node) answer plane, one
                # gather back into (index, query) order; slots past a
                # holder's own count are zero padding and never gathered
                symbols = unpack_symbols(answers[t][:, nodes],
                                         maxs * num_parts, wire_bits)\
                    .reshape(n, nodes.size, maxs, num_parts)
                block = symbols[h_flat, :, rank]
                rows_all[t] = block.reshape(t_symbols, q, nodes.size,
                                            num_parts).transpose(0, 2, 3, 1)
            del symbols, block
            decoded = ldc.local_decode_many(
                base, rows_all.reshape(-1, q), 0).reshape(
                    trials, t_symbols, nodes.size, num_parts)
            bad = decoded < 0
            symbol_arr = ((np.where(bad, 0, decoded)[..., None]
                           >> np.arange(symbol_bits)[None, None, None, :])
                          & 1).astype(np.uint8)
            for si in range(t_symbols):
                bit_offset = si * symbol_bits
                decoded_sk[:, :, nodes,
                           bit_offset:bit_offset + symbol_bits] = \
                    symbol_arr[:, si].transpose(0, 2, 1, 3)
                sketch_ok[:, :, nodes] &= ~bad[:, si].transpose(0, 2, 1)

        # ===== Step IV: sketch subtraction and correction ====================
        beliefs = tilde.copy()
        tt, jj, vv = np.nonzero(sketch_ok)
        if tt.size:
            sub = SketchPlaneStack.from_bits_many(
                spec, [r2[int(t)] for t in tt],
                decoded_sk[tt, jj, vv, :t_bits])
            srcs = members_mat[tt, jj]                       # (R, part_size)
            ids = ((srcs * n + vv[:, None]) << width) \
                | tilde[tt[:, None], srcs, vv[:, None]]
            sub.add_many_lockstep(ids, -1)
            for r, outcome in enumerate(sub.recover_many()):
                if isinstance(outcome, SketchRecoveryError):
                    continue
                t, j, v = int(tt[r]), int(jj[r]), int(vv[r])
                for element, frequency in outcome.items():
                    if frequency != 1:
                        continue
                    payload_val = element % (1 << width)
                    u, v_check = divmod(element >> width, n)
                    if v_check != v or not (0 <= u < n):
                        continue
                    if int(part_of[t, u]) != j:
                        continue
                    beliefs[t, u, v] = payload_val
        return beliefs


#: protocols with a native batched port; anything else runs through the
#: vmap backend's per-trial fallback
BATCHED_PROTOCOLS: Dict[str, Callable[[], object]] = {
    "nonadaptive": BatchedNonAdaptiveAllToAll,
    "det-logn": BatchedDetLogAllToAll,
    "det-sqrt": BatchedDetSqrtAllToAll,
    "adaptive": BatchedAdaptiveAllToAll,
}


def make_batched_protocol(name: str):
    try:
        return BATCHED_PROTOCOLS[name]()
    except KeyError:
        raise ValueError(
            f"no batched port for protocol {name!r}; "
            f"known: {sorted(BATCHED_PROTOCOLS)}") from None


def run_protocol_many(protocol, instances: Sequence[AllToAllInstance],
                      adversary: Optional[BatchedAdversary] = None,
                      bandwidth: int = 32,
                      seeds: Optional[Sequence[int]] = None,
                      ) -> List[ProtocolReport]:
    """Batched :func:`~repro.core.alltoall.run_protocol`: one
    :class:`BatchedClique` run, one serial-identical report per trial."""
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
