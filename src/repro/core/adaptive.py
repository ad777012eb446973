"""Randomized O(1)-round AllToAllComm against an *adaptive* adversary.

Theorem 1.3 / Section 5.2 — the paper's main result, combining every
substrate in this library:

I.   one direct exchange delivers (possibly corrupted) first copies
     ``~m_{u,v}``; node v_1 then broadcasts fresh randomness R1, R2 through
     the resilient router — crucially *after* the adversary corrupted the
     first copies;
II.  *information concentration*: the random partition P (Lemma 5.6, built
     from R1) crosses the deterministic segment partition S; node ``P_j[i]``
     learns the true ``M(P_j, S_i)`` via super-message routing (Lemma 5.7)
     and compresses it into k-sparse recovery sketches ``Sk(P_j, {v})``
     (R2-seeded, fixed t-bit serialisation); the concatenated sketch string
     of each group is split into x-bit pieces held by group leaders
     (Lemma 5.8);
III. each leader encodes its piece with the non-adaptive LDC and scatters
     codeword symbols over the whole network; after v_1 broadcasts R3, every
     node locally decodes exactly its own sketch slot out of every group's
     codeword by querying the (R3-determined, index-only — Figure 1) line
     positions;
IV.  sketch subtraction (Lemma 2.4): v adds every received ``~m_{u,v}`` with
     frequency -1; what survives in the sketch is precisely the set of
     corrupted messages and their corrections (Lemma B.1).

Substitutions at simulation scale: the KMRS LDC is replaced by a
Reed–Muller LDC (README, "Line decoding"), and the query-answer transfer of
Lemma 5.9 is a direct exchange (each queried value crosses one edge, so a
fraction <= ~2α of any node's query answers is corrupted — which is exactly
the corruption model the LDC's line decoding absorbs; the super-message
formulation is asymptotically equivalent but needs the n >> t regime).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.adversary.budget import max_faulty_degree
from repro.cliquesim.batched import BatchedClique
from repro.cliquesim.topology import (
    balanced_random_partition,
    consecutive_segments,
    partition_members,
)
from repro.coding.reed_muller import ReedMullerLDC, cached_reed_muller
from repro.core.batched_routing import BatchedRouter, broadcast_many
from repro.core.messages import AllToAllInstance
from repro.core.profiles import ProfileError, ProtocolProfile, SIMULATION
from repro.core.protocol import (
    AllToAllProtocol,
    common_shape,
    pack_block,
    pack_rows,
    unpack_block,
    unpack_rows,
)
from repro.fields.gfp import is_prime
from repro.obs import tracing
from repro.sketch.ksparse import SketchPlaneStack, SketchSpec, planes_supported
from repro.utils.bits import pack_symbols, unpack_symbols
from repro.utils.rng import derive, fresh_seed


@dataclass
class AdaptiveParameters:
    """Tunable knobs of the adaptive compiler (the paper's t, q, b, x)."""

    #: preferred sparse-recovery capacity; run() walks it down until the
    #: sketch fits an LDC codeword with an acceptable line margin
    sketch_capacity: int = 4
    min_sketch_capacity: int = 2
    sketch_rows: int = 2
    fingerprint_prime: int = (1 << 19) - 1  # Mersenne prime M19
    #: minimum per-line error margin (q - degree - 1) // 2 of the LDC; the
    #: designer maximises the margin, and every line of every sketch must
    #: decode, so generous margins dominate the success probability
    min_line_margin: int = 3
    #: cap on LDC codeword symbols, as a multiple of n
    max_codeword_factor: int = 16


def _poisson_tail(mu: float, threshold: int) -> float:
    """P(Poisson(mu) > threshold)."""
    if mu <= 0:
        return 0.0
    term = math.exp(-mu)
    cdf = term
    for k in range(1, threshold + 1):
        term *= mu / k
        cdf += term
    return max(0.0, 1.0 - cdf)


def design_ldc_for_sketch(t_bits: int, n: int, alpha: float,
                          params: AdaptiveParameters) -> ReedMullerLDC:
    """Pick a Reed–Muller LDC whose message capacity holds one t-bit sketch
    (the paper's requirement that no sketch is cut between pieces),
    minimising the *estimated sketch failure probability*.

    A sketch decodes only if every one of its ``t / log p`` lines decodes,
    and a line of q queries sees roughly ``Poisson(q * c * alpha)`` corrupted
    values (each queried value crosses ~2 transport hops).  For each
    admissible field size we take the smallest degree whose capacity covers
    the sketch (maximising the Berlekamp–Welch margin) and score
    ``lines * P(Poisson > margin)``.
    """
    best: Optional[Tuple[int, int]] = None  # (p, degree)
    best_score = float("inf")
    # each queried value crosses two transport hops (scatter + answer), and
    # a mobile adversary corrupts an alpha fraction of a node's edges in
    # each of them; 2.5 adds slack for chunk-boundary straddling
    exposure = 2.5 * alpha
    # tiny cliques get a relaxed codeword cap: the margins must come from
    # somewhere, and at n <= 64 even a 30n-symbol codeword is cheap
    factor = max(params.max_codeword_factor, 1024 // max(n, 1))
    for p in range(127, 6, -1):
        if not is_prime(p) or p * p > factor * n:
            continue
        bits = (p - 1).bit_length() - 1  # floor(log2 p): symbols packed as bits
        if bits < 1:
            continue
        needed = -(-t_bits // bits)
        degree = next((d for d in range(1, p - 1)
                       if math.comb(2 + d, 2) >= needed), None)
        if degree is None:
            continue
        margin = (p - 1 - degree - 1) // 2
        if margin < params.min_line_margin:
            continue
        mu = (p - 1) * exposure
        score = needed * _poisson_tail(mu, margin)
        if score < best_score:
            best = (p, degree)
            best_score = score
    if best is None:
        raise ProfileError(
            f"no Reed–Muller LDC with capacity >= t={t_bits} bits, margin "
            f">= {params.min_line_margin} and <= {params.max_codeword_factor}"
            f"*n codeword symbols (n={n}); shrink the sketch")
    if best_score > 0.5:
        raise ProfileError(
            f"estimated sketch failure {best_score:.3f} too high at n={n}, "
            f"alpha={alpha} (t={t_bits} bits); shrink the sketch or alpha")
    return cached_reed_muller(best[0], 2, best[1])


def _element_ids(sources: np.ndarray, targets: np.ndarray,
                 values: np.ndarray, n: int, width: int,
                 exact: bool) -> np.ndarray:
    """Sketch element ids ``((u * n + v) << width) | value`` of received
    copies, in the sketch planes' dtype: int64 when ``exact`` (the spec
    passes ``planes_supported``), else Python ints (an object array)."""
    if not exact:
        sources, targets, values = (np.asarray(a).astype(object)
                                    for a in (sources, targets, values))
    return ((sources * n + targets) << width) | values


class AdaptiveAllToAll(AllToAllProtocol):
    """Theorem 1.3: randomized, LDC + sketches, adaptive adversary.

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
    sketch at once — on int64 planes, or on Python-int planes for a spec
    outside :func:`planes_supported` (wide ids) — and LDC
    encode/decode collapse to whole-batch ``encode_many`` /
    ``local_decode_many`` calls (line decoding is position-independent,
    so rows from different trials batch together).

    One transport genuinely diverges: the query-answer exchange, whose
    width is determined by each trial's R3 query plan.  It runs through
    :meth:`~repro.cliquesim.batched.BatchedClique.exchange_words_ragged`,
    so each trial's round count (``net.rounds_by_trial``) and bit total
    are those of running it alone.

    Per-trial randomness (R1/R2/R3) is drawn from each seed's
    ``adaptive-randomness`` stream in protocol order, so beliefs, rounds,
    bits and corruption counts do not depend on the batch a trial ran in.
    """

    name = "adaptive"

    def __init__(self, profile: ProtocolProfile = SIMULATION,
                 params: Optional[AdaptiveParameters] = None):
        self.profile = profile
        self.params = params or AdaptiveParameters()
        #: diagnostics filled by run() (used by E2/E6 benchmarks)
        self.diagnostics = {}

    # -- layout helpers --------------------------------------------------------
    @staticmethod
    def _num_parts(n: int, alpha: float) -> int:
        """The paper's alpha*n group count, rounded to a divisor of n."""
        target = max(2, max_faulty_degree(n, alpha))
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        candidates = [d for d in divisors if 2 <= d <= target]
        return max(candidates) if candidates else 2

    def run_many(self, instances: Sequence[AllToAllInstance],
                 net: BatchedClique, seeds: Sequence[int]) -> np.ndarray:
        n, width = common_shape(instances, net, seeds)
        trials = net.trials
        alpha = net.adversary.alpha
        params = self.params
        router = BatchedRouter(net, self.profile)

        num_parts = self._num_parts(n, alpha)      # the paper's alpha*n
        part_size = n // num_parts                 # the paper's 1/alpha
        segments = consecutive_segments(n, num_parts)  # S_1..S_{part_size}
        seg_size = num_parts              # |S_i|; there are part_size segments
        t_idx = np.arange(trials)

        # ===== Step I: direct exchange + randomness broadcast ================
        stacked = np.stack([inst.messages for inst in instances])
        tilde = net.exchange(stacked, width=width, label="adaptive/exchange")
        tilde = np.where(tilde < 0, 0, tilde)  # dropped -> canonical value

        # draw order per trial: R1, R2 now; R3 only after the scatter
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

        # ===== Step II(b): route M(P_j, S_i) to P_j[i] (Lemma 5.7) ===========
        # message m = v * part_size + i, in (source, slot) key order;
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

        # sketch spec shared by all nodes and trials (fixed t-bit
        # serialisation); the capacity walks down until the sketch fits an
        # LDC codeword with an acceptable line margin
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
        # element ids exceed int64 once width + 2*log2(n) >= 63, and int64
        # planes need more headroom still; outside it the ids are Python ints
        int64_ids = planes_supported(spec)
        t_bits = spec.total_bits
        symbol_bits = (ldc.p - 1).bit_length() - 1   # sketch-bit packing
        wire_bits = (ldc.p - 1).bit_length()         # codeword symbols on the wire
        t_symbols = -(-t_bits // symbol_bits)
        t_pad = t_symbols * symbol_bits
        sketches_per_piece = max(1, (ldc.k * symbol_bits) // t_pad)
        num_pieces = -(-n // sketches_per_piece)   # the paper's b
        symbols_per_node = -(-ldc.n // n)

        # ===== Step II(c): every (trial, group, target) sketch in one stack ==
        # P_j[i] builds Sk(P_j, {v}) for each v in S_i from the *true*
        # messages it received through the resilient routing.
        # ids[t, j, i, c, s] hashes source u = P_j[s]'s received value for
        # target v = segments[i][c]; row order (t, j, i, c) with v = i*C + c
        with tracing.span("adaptive.sketch_build"):
            u_idx = members_mat[:, :, None, None, :]          # (T, J, 1, 1, S)
            v_ids = (np.arange(part_size)[:, None] * seg_size
                     + np.arange(seg_size)[None, :])          # (I, C) = v
            vals = unpacked1[t_idx[:, None, None, None, None], u_idx,
                             np.arange(part_size)[None, None, :, None, None],
                             np.arange(seg_size)[None, None, None, :, None]]
            per_trial = num_parts * part_size * seg_size      # = J * n
            ids_all = _element_ids(
                u_idx, v_ids[None, None, :, :, None], vals, n, width,
                int64_ids).reshape(trials * per_trial, part_size)
            stack = SketchPlaneStack(spec, [s for t in range(trials)
                                            for s in [r2[t]] * per_trial])
            stack.add_many_lockstep(ids_all, 1)
            block_bits = stack.to_bits_many()
            sketch_pad = np.zeros((trials, num_parts, n, t_pad),
                                  dtype=np.uint8)
            sketch_pad[..., :t_bits] = block_bits.reshape(
                trials, num_parts, n, t_bits)

        # ===== Step II(b) continued: ship sketches to piece leaders ==========
        # (Lemma 5.8) piece ell holds the sketches of nodes
        # v in [ell*s_per, (ell+1)*s_per); its leader is P_j[ell mod
        # part_size].  Grouping and slot numbering are fixed by member
        # *index*: members are id-sorted, so sorting by leader id == sorting
        # by leader index
        def piece_of(v: int) -> int:
            return v // sketches_per_piece

        meta = []  # (j, i, l, vs, slot) in holder, then leader order
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

        # symbol grid[leader, r, :] = symbols of each of the leader's pieces
        # at codeword positions s*n + r, packed straight into word planes
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
        scattered, scatter_dropped = net.exchange_words(
            scatter_words, scatter_present, scatter_width,
            label="adaptive/scatter")
        dropped_scatter = scatter_dropped.sum(axis=(1, 2))
        del scatter_words, scatter_present, scatter_dropped
        scattered_syms = unpack_symbols(scattered, scatter_symbols, wire_bits)
        del scattered
        # node r's view of codeword (j, piece) at positions s*n + r
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

        # the query plan is identical for every node with the same piece
        # offset (Figure 1): message-symbol indices offset..offset+t_symbols
        idx_count = sketches_per_piece * t_symbols
        qpos = [[ldc.decode_indices(idx, r3[t]) for idx in range(idx_count)]
                for t in range(trials)]
        # per (trial, offset_slot): the (t_symbols, q) position matrix, each
        # query's holder, and its slot — the rank of the query among the
        # holder's queries in flat (index, query) order
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

        # answers travel as one direct exchange: entry (r, v) packs, for each
        # of v's queried positions held by r and each group j, the shard
        # value of codeword (j, piece_of(v)) at that position — slot-major,
        # then group, wire_bits each.  They stage at the widest trial's
        # symbol count; the ragged exchange transports only each trial's
        # own answer_widths[t] bits
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
                # into (holder, slot) cells
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
        answers, answer_dropped = net.exchange_words_ragged(
            answer_words, answer_present, answer_widths,
            label="adaptive/answers")
        dropped_answers = answer_dropped.sum(axis=(1, 2))
        del answer_words, answer_present, answer_dropped

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

        # ===== Step IV: sketch subtraction and correction (Lemma 2.4) ========
        beliefs = tilde.copy()
        recovered = np.zeros(trials, dtype=np.int64)
        failed_sketches = np.count_nonzero(~sketch_ok, axis=(1, 2))
        with tracing.span("adaptive.sketch_subtract"):
            # every decodable sketch subtracts its group's received copies
            # (exactly one id per group member); only the peel itself stays
            # per-sketch
            tt, jj, vv = np.nonzero(sketch_ok)
            srcs = members_mat[tt, jj]                       # (R, part_size)
            ids = _element_ids(srcs, vv[:, None],
                               tilde[tt[:, None], srcs, vv[:, None]], n,
                               width, int64_ids)
            sub = SketchPlaneStack.from_bits_many(
                spec, [r2[int(t)] for t in tt],
                decoded_sk[tt, jj, vv, :t_bits])
            sub.add_many_lockstep(ids, -1)
            outcomes = sub.recover_many()
            for r, outcome in enumerate(outcomes):
                t, j, v = int(tt[r]), int(jj[r]), int(vv[r])
                if isinstance(outcome, Exception):
                    failed_sketches[t] += 1
                    continue
                for element, frequency in outcome.items():
                    if frequency != 1:
                        continue  # -1 entries are v's own wrong copies
                    payload_val = element % (1 << width)
                    u, v_check = divmod(element >> width, n)
                    if v_check != v or not (0 <= u < n):
                        continue
                    if int(part_of[t, u]) != j:
                        continue
                    beliefs[t, u, v] = payload_val
                    recovered[t] += 1

        self.trial_records = {"diagnostics": [
            {"num_parts": num_parts,
             "part_size": part_size,
             "sketch_bits": t_bits,
             "ldc": repr(ldc),
             "ldc_query_count": ldc.query_count,
             "pieces_per_group": num_pieces,
             "sketches_per_piece": sketches_per_piece,
             "scatter_width": scatter_width,
             "answer_width": int(answer_widths[t]),
             "recovered": int(recovered[t]),
             "failed_sketches": int(failed_sketches[t]),
             # adversarial "no message" drops, per transport step: entries
             # of the direct exchanges whose payloads were silenced, and
             # relay bits silenced inside the routing steps
             "dropped_scatter_entries": int(dropped_scatter[t]),
             "dropped_answer_entries": int(dropped_answers[t]),
             "routing_dropped_entries": int(routed.dropped[t]
                                            + gathered.dropped[t])}
            for t in range(trials)]}
        return beliefs
