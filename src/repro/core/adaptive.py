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

Substitutions at simulation scale (DESIGN.md §2): the KMRS LDC is replaced
by a Reed–Muller LDC, and the query-answer transfer of Lemma 5.9 is a
direct exchange (each queried value crosses one edge, so a fraction <= ~2α
of any node's query answers is corrupted — which is exactly the corruption
model the LDC's line decoding absorbs; the super-message formulation is
asymptotically equivalent but needs the n >> t regime).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.adversary.budget import max_faulty_degree
from repro.cliquesim.network import CongestedClique
from repro.cliquesim.topology import (
    balanced_random_partition,
    consecutive_segments,
    partition_members,
)
from repro.coding.reed_muller import ReedMullerLDC, cached_reed_muller
from repro.core.messages import AllToAllInstance
from repro.core.profiles import ProfileError, ProtocolProfile, SIMULATION
from repro.core.protocol import (
    AllToAllProtocol,
    pack_block,
    unpack_block,
    unpack_rows,
)
from repro.core.routing import SuperMessage, SuperMessageRouter, broadcast
from repro.fields.gfp import is_prime
from repro.obs import metrics, tracing
from repro.sketch.ksparse import (KSparseSketch, SketchPlaneStack,
                                  SketchRecoveryError, SketchSpec,
                                  planes_supported)
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


class AdaptiveAllToAll(AllToAllProtocol):
    """Theorem 1.3: randomized, LDC + sketches, adaptive adversary."""

    name = "adaptive"

    def __init__(self, profile: ProtocolProfile = SIMULATION,
                 params: Optional[AdaptiveParameters] = None,
                 routing_mode: str = "blocks"):
        self.profile = profile
        self.params = params or AdaptiveParameters()
        self.routing_mode = routing_mode
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

    def run(self, instance: AllToAllInstance, net: CongestedClique,
            seed: int = 0) -> np.ndarray:
        n = instance.n
        width = instance.width
        alpha = net.adversary.alpha
        params = self.params
        router = SuperMessageRouter(net, self.profile, mode=self.routing_mode)

        num_parts = self._num_parts(n, alpha)      # the paper's alpha*n
        part_size = n // num_parts                 # the paper's 1/alpha
        segments = consecutive_segments(n, num_parts)  # S_1..S_{part_size}
        assert len(segments) == part_size

        # ===== Step I: direct exchange + randomness broadcast ================
        tilde = net.exchange(instance.messages, width=width,
                             label="adaptive/exchange")
        tilde = np.where(tilde < 0, 0, tilde)  # dropped -> canonical value

        protocol_rng = derive(seed, "adaptive-randomness")
        r1 = fresh_seed(protocol_rng)
        r2 = fresh_seed(protocol_rng)
        seeds_bits = pack_block(np.array([r1, r2], dtype=np.int64), 63)
        got = broadcast(router, 0, seeds_bits, label="adaptive/seeds")
        r1, r2 = (int(x) for x in unpack_block(got[0], 2, 63))

        # ===== Step II(a): partitions ========================================
        part_of = balanced_random_partition(n, num_parts, r1)
        members = partition_members(part_of, num_parts)  # P_j, id-sorted

        # ===== Step II(b): route M(P_j, S_i) to P_j[i] (Lemma 5.7) ===========
        step_msgs = []
        for v in range(n):
            j = int(part_of[v])
            for i in range(part_size):
                bits = pack_block(instance.messages[v, segments[i]], width)
                target = int(members[j][i])
                step_msgs.append(SuperMessage.make(v, i, bits, [target]))
        routed = router.route(step_msgs, label="adaptive/concentrate")

        # sketch spec shared by all nodes (fixed t-bit serialisation); the
        # capacity walks down until the sketch fits an LDC codeword with an
        # acceptable line margin (every node computes the same spec)
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
        t_bits = spec.total_bits
        symbol_bits = (ldc.p - 1).bit_length() - 1   # sketch-bit packing
        wire_bits = (ldc.p - 1).bit_length()         # codeword symbols on the wire
        t_symbols = -(-t_bits // symbol_bits)
        t_pad = t_symbols * symbol_bits
        sketches_per_piece = max(1, (ldc.k * symbol_bits) // t_pad)
        num_pieces = -(-n // sketches_per_piece)   # the paper's b
        symbols_per_node = -(-ldc.n // n)

        # P_j[i] builds Sk(P_j, {v}) for each v in S_i from the *true*
        # messages it received through the resilient routing; each holder's
        # group block unpacks in one batched call, and on the plane fast
        # path every (u, v) element of the block is hashed in one shot
        # (one lockstep sketch stack per block, one column per target v)
        use_planes = planes_supported(spec)
        sketch_bits = {}  # (j, v) -> t_pad bits
        with tracing.maybe_span("adaptive/sketch-build"), \
                metrics.timed("adaptive.sketch_build"):
            for j in range(num_parts):
                group = members[j].astype(np.int64)
                for i in range(part_size):
                    holder = int(members[j][i])
                    stacked = np.stack([routed.outputs[holder][(int(u), i)]
                                        for u in members[j]])
                    # row per source u in P_j, column per target v in S_i
                    values_ji = unpack_rows(stacked, num_parts, width)
                    base = int(segments[i][0])
                    if use_planes:
                        seg = segments[i].astype(np.int64)
                        ids = ((group[:, None] * n + seg[None, :]) << width) \
                            | values_ji.astype(np.int64)
                        stack = SketchPlaneStack(spec, [r2] * seg.size)
                        stack.add_many_lockstep(ids.T, 1)
                        block_bits = stack.to_bits_many()
                        padded = np.zeros((seg.size, t_pad), dtype=np.uint8)
                        padded[:, :t_bits] = block_bits
                        for v_idx in range(seg.size):
                            sketch_bits[(j, int(seg[v_idx]))] = padded[v_idx]
                        continue
                    # scalar parity oracle: element ids exceed int64 once
                    # width + 2*log2(n) >= 63, so this arithmetic must
                    # stay in Python ints (the subtraction path in
                    # Step IV uses the same form)
                    for v in segments[i]:
                        v = int(v)
                        sk = KSparseSketch(spec, r2)
                        column = values_ji[:, v - base]
                        for row, u in enumerate(group):
                            element = ((int(u) * n + v) << width) \
                                | int(column[row])
                            sk.add(element, 1)
                        raw = sk.to_bits()
                        padded = np.zeros(t_pad, dtype=np.uint8)
                        padded[:raw.size] = raw
                        sketch_bits[(j, v)] = padded

        # ===== Step II(b) continued: ship sketches to piece leaders ==========
        # (Lemma 5.8) piece ell holds the sketches of nodes
        # v in [ell*s_per, (ell+1)*s_per); its leader is P_j[ell mod part_size]
        def piece_of(v: int) -> int:
            return v // sketches_per_piece

        def leader_of(j: int, piece: int) -> int:
            return int(members[j][piece % part_size])

        gather = {}
        slot_counter = {}
        for j in range(num_parts):
            for i in range(part_size):
                holder = int(members[j][i])
                by_leader = {}
                for v in segments[i]:
                    v = int(v)
                    by_leader.setdefault(leader_of(j, piece_of(v)), []).append(v)
                for leader, vs in sorted(by_leader.items()):
                    slot = slot_counter.get(holder, 0)
                    slot_counter[holder] = slot + 1
                    bits = np.concatenate([sketch_bits[(j, v)] for v in sorted(vs)])
                    gather.setdefault((holder, slot),
                                      (bits, leader, j, tuple(sorted(vs))))
        gather_msgs = [SuperMessage.make(src, slot, bits, [leader])
                       for (src, slot), (bits, leader, _, _) in gather.items()]
        gathered = router.route(gather_msgs, label="adaptive/gather")

        # leaders assemble their pieces
        piece_data = {}  # (j, piece) -> message symbol array (ldc.k,)
        for (src, slot), (bits, leader, j, vs) in gather.items():
            for position, v in enumerate(vs):
                chunk = gathered.outputs[leader][(src, slot)][
                    position * t_pad:(position + 1) * t_pad]
                piece = piece_of(v)
                offset = (v % sketches_per_piece) * t_symbols
                symbols = unpack_block(chunk, t_symbols, symbol_bits)
                key = (j, piece)
                if key not in piece_data:
                    piece_data[key] = np.zeros(ldc.k, dtype=np.int64)
                piece_data[key][offset:offset + t_symbols] = symbols

        # ===== Step III: LDC-encode pieces and scatter symbols ===============
        piece_keys = sorted(piece_data)
        encoded = ldc.encode_many(
            np.stack([piece_data[key] % ldc.p for key in piece_keys]))
        codewords = {key: encoded[idx] for idx, key in enumerate(piece_keys)}

        pieces_by_leader = {}
        for key in piece_keys:
            pieces_by_leader.setdefault(leader_of(key[0], key[1]), []).append(key)
        max_pieces = max(len(v) for v in pieces_by_leader.values())
        scatter_symbols = max_pieces * symbols_per_node
        scatter_width = scatter_symbols * wire_bits
        padded_symbols = symbols_per_node * n

        # symbol grid[leader, r, :] = symbols of each of the leader's pieces
        # at codeword positions s*n + r, packed straight into word planes —
        # no (n, n, scatter_width) uint8 staging tensor
        scatter_syms = np.zeros((n, n, scatter_symbols), dtype=np.int64)
        scatter_present = np.zeros((n, n), dtype=bool)
        for leader, keys in pieces_by_leader.items():
            scatter_present[leader, :] = True
            for ki, key in enumerate(keys):
                grid = np.zeros(padded_symbols, dtype=np.int64)
                grid[:ldc.n] = codewords[key]
                scatter_syms[leader, :,
                             ki * symbols_per_node:
                             (ki + 1) * symbols_per_node] = \
                    grid.reshape(symbols_per_node, n).T
        scattered, scatter_dropped = net.exchange_words(
            pack_symbols(scatter_syms, wire_bits), scatter_present,
            scatter_width, label="adaptive/scatter")
        scattered_syms = unpack_symbols(scattered, scatter_symbols, wire_bits)

        # node r's view of codeword (j, piece) at positions s*n + r,
        # assembled as one position-indexed array per codeword
        shard_views = {}  # key -> (ldc.n,) symbol values across holders
        for leader, keys in pieces_by_leader.items():
            for ki, key in enumerate(keys):
                values = scattered_syms[leader, :,
                                        ki * symbols_per_node:
                                        (ki + 1) * symbols_per_node]
                shard_views[key] = values.T.reshape(-1)[:ldc.n].copy()

        # ===== Step III continued: R3 broadcast + query answering ============
        r3 = fresh_seed(protocol_rng)
        got3 = broadcast(router, 0, pack_block(np.array([r3]), 63),
                         label="adaptive/r3")
        r3 = int(unpack_block(got3[0], 1, 63)[0])

        # the query plan is identical for every node with the same piece
        # offset (Figure 1): message-symbol indices offset..offset+t_symbols
        query_positions = {}
        for offset_slot in range(sketches_per_piece):
            base = offset_slot * t_symbols
            for idx in range(base, base + t_symbols):
                query_positions[idx] = ldc.decode_indices(idx, r3)

        # v's needed (idx, position) pairs grouped by holder node
        needs_by_offset = {}
        positions_by_offset = {}  # offset_slot -> {holder: position array}
        for offset_slot in range(sketches_per_piece):
            base = offset_slot * t_symbols
            by_holder = {}
            for idx in range(base, base + t_symbols):
                for position in query_positions[idx]:
                    by_holder.setdefault(int(position) % n, []).append(
                        (idx, int(position)))
            needs_by_offset[offset_slot] = by_holder
            positions_by_offset[offset_slot] = {
                holder: np.array([pos for _, pos in pairs], dtype=np.int64)
                for holder, pairs in by_holder.items()}
        max_slots = max(len(pairs)
                        for by_holder in needs_by_offset.values()
                        for pairs in by_holder.values())
        answer_symbols = max_slots * num_parts
        answer_width = answer_symbols * wire_bits

        # every group's codeword of one piece, stacked for one-gather answers
        piece_stacks = {
            piece: np.stack([shard_views.get((j, piece),
                                             np.zeros(ldc.n, dtype=np.int64))
                             for j in range(num_parts)])
            for piece in {piece_of(v) for v in range(n)}}

        # answers travel as one direct exchange: entry (r, v) packs, for each
        # of v's queried positions held by r and each group j, the shard value
        # of codeword (j, piece_of(v)) at that position — slot-major, then
        # group, wire_bits each, staged as symbols and packed once into the
        # transported word planes
        answer_syms = np.zeros((n, n, answer_symbols), dtype=np.int64)
        answer_present = np.zeros((n, n), dtype=bool)
        for v in range(n):
            offset_slot = v % sketches_per_piece
            stack = piece_stacks[piece_of(v)]  # (num_parts, ldc.n)
            for holder, positions in positions_by_offset[offset_slot].items():
                answer_present[holder, v] = True
                symbols = stack[:, positions].T  # (num_slots, num_parts)
                answer_syms[holder, v, :symbols.size] = symbols.reshape(-1)
        answers, answer_dropped = net.exchange_words(
            pack_symbols(answer_syms, wire_bits), answer_present,
            answer_width, label="adaptive/answers")

        # ===== Step III end: local LDC decoding of own sketch slots ==========
        decoded_sketches = {
            (j, v): np.zeros(t_pad, dtype=np.uint8)
            for v in range(n) for j in range(num_parts)}
        sketch_ok = {(j, v): True
                     for v in range(n) for j in range(num_parts)}

        for offset_slot in range(sketches_per_piece):
            nodes = np.array(
                [v for v in range(n) if v % sketches_per_piece == offset_slot])
            if nodes.size == 0:
                continue
            by_holder = needs_by_offset[offset_slot]
            # unpack each relevant holder's answers to these nodes at once:
            # holder -> (len(nodes), num_slots, num_parts) symbol array
            unpacked = {}
            slot_of = {}
            for holder, pairs in by_holder.items():
                num_slots = len(pairs)
                symbols = unpack_symbols(answers[holder][nodes],
                                         num_slots * num_parts, wire_bits)
                unpacked[holder] = symbols.reshape(nodes.size, num_slots,
                                                   num_parts)
                slot_of[holder] = {pair: s for s, pair in enumerate(pairs)}
            base = offset_slot * t_symbols
            for idx in range(base, base + t_symbols):
                positions = query_positions[idx]
                rows = np.zeros((nodes.size, num_parts, positions.size),
                                dtype=np.int64)
                for qi, position in enumerate(positions):
                    holder = int(position) % n
                    s = slot_of[holder][(idx, int(position))]
                    rows[:, :, qi] = unpacked[holder][:, s, :]
                decoded = ldc.local_decode_many(
                    idx, rows.reshape(nodes.size * num_parts, positions.size),
                    r3).reshape(nodes.size, num_parts)
                bit_offset = (idx - base) * symbol_bits
                bad = decoded < 0
                symbol_bits_arr = ((np.where(bad, 0, decoded)[:, :, None]
                                    >> np.arange(symbol_bits)[None, None, :])
                                   & 1).astype(np.uint8)
                for ni, v in enumerate(nodes):
                    v = int(v)
                    for j in range(num_parts):
                        if bad[ni, j]:
                            sketch_ok[(j, v)] = False
                        else:
                            decoded_sketches[(j, v)][
                                bit_offset:bit_offset + symbol_bits] = \
                                symbol_bits_arr[ni, j]

        # ===== Step IV: sketch subtraction and correction (Lemma 2.4) ========
        beliefs = tilde.copy()
        recovered_count = 0
        failed_sketches = 0
        with tracing.maybe_span("adaptive/sketch-subtract"), \
                metrics.timed("adaptive.sketch_subtract"):
            survivors_per_key = []  # ((j, v), {element: frequency}) pairs
            if use_planes:
                # every decodable sketch subtracts its group's received
                # copies in one lockstep stack (each has exactly one id per
                # group member); only the peel itself stays per-sketch
                ok_keys = [(j, v) for v in range(n) for j in range(num_parts)
                           if sketch_ok[(j, v)]]
                failed_sketches += n * num_parts - len(ok_keys)
                if ok_keys:
                    stack = SketchPlaneStack.from_bits_many(
                        spec, [r2] * len(ok_keys),
                        np.stack([decoded_sketches[key][:t_bits]
                                  for key in ok_keys]))
                    members_matrix = np.stack(members).astype(np.int64)
                    sources = members_matrix[
                        np.array([j for j, _ in ok_keys])]
                    targets = np.array([v for _, v in ok_keys],
                                       dtype=np.int64)[:, None]
                    ids = ((sources * n + targets) << width) \
                        | tilde[sources, targets]
                    stack.add_many_lockstep(ids, -1)
                    for key, outcome in zip(ok_keys, stack.recover_many()):
                        if isinstance(outcome, SketchRecoveryError):
                            failed_sketches += 1
                        else:
                            survivors_per_key.append((key, outcome))
            else:
                for v in range(n):
                    for j in range(num_parts):
                        if not sketch_ok[(j, v)]:
                            failed_sketches += 1
                            continue
                        try:
                            sk = KSparseSketch.from_bits(
                                spec, r2, decoded_sketches[(j, v)][:t_bits])
                            for u in members[j]:
                                u = int(u)
                                element = (u * n + v) * (1 << width) \
                                    + int(tilde[u, v])
                                sk.add(element, -1)
                            survivors_per_key.append(((j, v), sk.recover()))
                        except (SketchRecoveryError, ValueError):
                            failed_sketches += 1
            for (j, v), survivors in survivors_per_key:
                for element, frequency in survivors.items():
                    if frequency != 1:
                        continue  # -1 entries are v's own wrong copies
                    payload_val = element % (1 << width)
                    pair = element >> width
                    u, v_check = divmod(pair, n)
                    if v_check != v or not (0 <= u < n):
                        continue
                    if int(part_of[u]) != j:
                        continue
                    beliefs[u, v] = payload_val
                    recovered_count += 1

        self.diagnostics = {
            "num_parts": num_parts,
            "part_size": part_size,
            "sketch_bits": t_bits,
            "ldc": repr(ldc),
            "ldc_query_count": ldc.query_count,
            "pieces_per_group": num_pieces,
            "sketches_per_piece": sketches_per_piece,
            "scatter_width": scatter_width,
            "answer_width": answer_width,
            "recovered": recovered_count,
            "failed_sketches": failed_sketches,
            # adversarial "no message" drops, per transport step: entries of
            # the direct exchanges whose payloads were silenced, and relay
            # bits silenced inside the routing steps
            "dropped_scatter_entries": int(scatter_dropped.sum()),
            "dropped_answer_entries": int(answer_dropped.sum()),
            "routing_dropped_entries": (routed.dropped_entries
                                        + gathered.dropped_entries),
        }
        return beliefs
