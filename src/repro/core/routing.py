"""Resilient super-message routing — Theorem 4.1 / Section 4.2.

The paper's scheme sends each super-message as an ECC codeword spread over a
set of relay nodes: round 1 delivers bit ``ℓ`` of ``C(m_j(u))`` to the
``ℓ``-th relay, round 2 forwards relay bits to every target, and the target
decodes.  Congestion is avoided by making each (sender, relay) and
(relay, target) pair carry at most one bit per round.

Relay-set assignment supports two modes:

* ``"blocks"`` (default) — relay sets are consecutive blocks of ``L`` node
  ids, and a deterministic greedy schedule (a bipartite-edge-colouring
  argument: conflicts are "same source, same block" or "same target, same
  block") assigns each chunk a (batch, block) pair.  Within a batch the
  paper's ``InLoad``/``OutLoad`` are identically 1, so *no* codeword
  position is lost to overlap and the entire distance budget of the code is
  available against the adversary.  This replaces the randomized cover-free
  sets at simulation scale (see DESIGN.md §2): the paper needs cover-free
  families because its ``kn`` relay sets must be fixed obliviously; with the
  instance public (as Theorem 4.1 assumes — "the target set of each of the
  kn super-messages is known to all the nodes") the explicit schedule is
  computable by every node locally and achieves overlap 0.
* ``"coverfree"`` — the paper-faithful mode: relay sets come from an
  (r, δ)-cover-free family w.r.t. the instance's IN/OUT constraint
  collection H (Lemma 4.4), and bits are dropped wherever ``InLoad`` or
  ``OutLoad`` exceeds 1, exactly as in Section 4.2.  Used by the fidelity
  tests and the E11 ablation.

Batches execute in *waves* of ``B`` (the bandwidth): B independent 1-bit
instances ride in the B bit-planes of a single round, which is exactly the
parallel-composition argument of Lemma 2.9 / the proof of Theorem 4.1.

Blocks-mode waves have one implementation, :func:`route_waves`: an array
program over ``(trials, chunks)`` index arrays that runs any number of
lockstep trials.  :meth:`SuperMessageRouter.route` is its ``trials=1``
case; :class:`~repro.core.batched_routing.BatchedRouter` feeds it whole
campaign cells.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cliquesim.network import CongestedClique
from repro.core.profiles import ProfileError, ProtocolProfile, SIMULATION
from repro.coverfree.random_construction import build_cover_free_family
from repro.obs import metrics, tracing
from repro.utils.bits import as_bits
from repro.utils.rng import derive

MessageKey = Tuple[int, int]  # (source, slot)


@dataclass(frozen=True)
class SuperMessage:
    """One super-message: ``slot``-th input of ``source``, sent to
    ``targets`` (Section 4's (u, j) indexing with multi-target support)."""

    source: int
    slot: int
    bits: tuple
    targets: Tuple[int, ...]

    @classmethod
    def make(cls, source: int, slot: int, bits, targets) -> "SuperMessage":
        bit_arr = as_bits(bits)
        return cls(source=source, slot=slot, bits=tuple(int(b) for b in bit_arr),
                   targets=tuple(sorted(set(int(t) for t in targets))))

    @property
    def key(self) -> MessageKey:
        return (self.source, self.slot)


@dataclass
class _Chunk:
    source: int
    slot: int
    index: int
    bits: np.ndarray
    targets: Tuple[int, ...]


@dataclass
class RoutingResult:
    """Per-target outputs plus transport diagnostics."""

    outputs: Dict[int, Dict[MessageKey, np.ndarray]]
    rounds: int
    decode_failures: List[Tuple[int, MessageKey]] = field(default_factory=list)
    batches: int = 0
    codeword_bits: int = 0
    #: codeword bits the adversary silenced outright ("no message" where a
    #: relay bit was expected); decoded as 0 but surfaced here so callers
    #: can see drops separately from content corruption
    dropped_entries: int = 0
    #: round-2 drops threaded into the decoder as declared erasures
    #: (errors-and-erasures decoding doubles the radius for pure drops);
    #: zero when the code is not erasure-aware or nothing was dropped
    erased_entries: int = 0

    def received(self, target: int, source: int, slot: int = 0) -> np.ndarray:
        return self.outputs[target][(source, slot)]


@dataclass
class WavePlan:
    """A scheduled blocks-mode routing over ``trials`` lockstep trials.

    Chunk ``c`` carries bits ``[chunk_start[c], chunk_start[c] +
    chunk_size[c])`` of message ``chunk_msg[c]``; these canonical arrays are
    shared by every trial.  Node ids and placements are per trial: trial
    ``t`` sends message ``m`` from ``sources[t, m]`` and places chunk ``c``
    in ``(batch[t, c], block[t, c])``.  Message ``m`` has ``fanout[m]``
    targets, so its (message, target) *pairs* are a ragged run of
    ``targets[t, :]`` in message order."""

    chunk_msg: np.ndarray      # (C,)
    chunk_start: np.ndarray    # (C,)
    chunk_size: np.ndarray     # (C,)
    sizes: np.ndarray          # (M,) message bit lengths
    fanout: np.ndarray         # (M,) targets per message
    sources: np.ndarray        # (trials, M)
    targets: np.ndarray        # (trials, P), P = fanout.sum()
    batch: np.ndarray          # (trials, C)
    block: np.ndarray          # (trials, C)
    num_batches: int

    @classmethod
    def from_schedule(cls, messages: Sequence[SuperMessage],
                      chunks: List[_Chunk],
                      batches: List[List[Tuple[_Chunk, int]]],
                      capacity: int, trials: int) -> "WavePlan":
        """The plan of one chunking + schedule that every trial shares,
        broadcast over ``trials``; message ``m`` is ``messages[m]``."""
        position = {m.key: j for j, m in enumerate(messages)}
        row_of = {id(c): i for i, c in enumerate(chunks)}
        batch = np.empty(len(chunks), dtype=np.int64)
        block = np.empty(len(chunks), dtype=np.int64)
        for b, placed in enumerate(batches):
            for chunk, blk in placed:
                i = row_of[id(chunk)]
                batch[i], block[i] = b, blk

        def shared(values):
            arr = np.array(values, dtype=np.int64)
            return np.broadcast_to(arr, (trials,) + arr.shape)

        return cls(
            chunk_msg=np.array([position[c.source, c.slot] for c in chunks],
                               dtype=np.int64),
            chunk_start=np.array([c.index * capacity for c in chunks],
                                 dtype=np.int64),
            chunk_size=np.array([c.bits.size for c in chunks],
                                dtype=np.int64),
            sizes=np.array([len(m.bits) for m in messages], dtype=np.int64),
            fanout=np.array([len(m.targets) for m in messages],
                            dtype=np.int64),
            sources=shared([m.source for m in messages]),
            targets=shared([t for m in messages for t in m.targets]),
            batch=shared(batch), block=shared(block),
            num_batches=len(batches))


@dataclass
class BatchedRoutingResult:
    """Decoded chunk rows of a :func:`route_waves` run.

    Row ``e`` is one (chunk, target) delivery and ``decoded[t, e]`` is what
    trial ``t``'s target decoded.  Rows are ordered by chunk, then by
    target; row ``e`` carries bits ``[row_start[e], row_start[e] +
    row_size[e])`` of the (message, target) pair ``row_pair[e]``, and pair
    ``p`` belongs to message ``pair_msg[p]``."""

    decoded: np.ndarray        # (trials, E, capacity) uint8
    failed: np.ndarray         # (trials, E) bool decode-failure flags
    row_pair: np.ndarray       # (E,)
    row_start: np.ndarray      # (E,)
    row_size: np.ndarray       # (E,)
    pair_msg: np.ndarray       # (P,)
    sizes: np.ndarray          # (M,) message bit lengths
    rounds: int
    batches: int
    codeword_bits: int
    dropped: np.ndarray        # (trials,) codeword bits silenced outright
    erased: np.ndarray         # (trials,) drops decoded as erasures

    def pair_bits(self) -> np.ndarray:
        """``(trials, P, Lmax)`` received bits of every (message, target)
        pair, chunks concatenated in index order."""
        out = np.zeros((self.decoded.shape[0], self.pair_msg.size,
                        int(self.sizes.max(initial=0))), dtype=np.uint8)
        # rows sharing (start, size) scatter as one slice write
        for start in np.unique(self.row_start):
            sel = np.flatnonzero(self.row_start == start)
            for size in np.unique(self.row_size[sel]):
                sub = sel[self.row_size[sel] == size]
                out[:, self.row_pair[sub], start:start + int(size)] = \
                    self.decoded[:, sub, :int(size)]
        return out

    def message_bits(self) -> np.ndarray:
        """``(trials, M, Lmax)`` received bits of a single-target routing:
        message ``m``'s row is what its target decoded."""
        if self.pair_msg.size != self.sizes.size:
            raise ValueError("message_bits needs single-target messages")
        return self.pair_bits()


def _stage(keys: np.ndarray, shifted: np.ndarray, trials: int, n: int,
           width: int) -> np.ndarray:
    """``(trials, n, n)`` intended payloads: each row's shifted bits land in
    cell ``keys``, ``-1`` where nothing is sent.  Each (trial, sender,
    receiver) cell gets at most one bit per plane, so summing equals
    OR-ing, and float64 sums stay exact up to 52 planes."""
    size = trials * n * n
    if width <= 52:
        values = np.bincount(keys, weights=shifted.ravel(),
                             minlength=size).astype(np.int64)
    else:
        values = np.zeros(size, dtype=np.int64)
        np.bitwise_or.at(values, keys, shifted.ravel())
    present = np.zeros(size, dtype=bool)
    present[keys] = True
    return np.where(present, values, -1).reshape(trials, n, n)


def _per_trial(trial_of_row: np.ndarray, mask: np.ndarray,
               trials: int) -> np.ndarray:
    """Per-trial count of the set entries of ``mask``'s rows."""
    return np.bincount(trial_of_row, weights=np.count_nonzero(mask, axis=1),
                       minlength=trials).astype(np.int64)


def _ragged(counts: np.ndarray):
    """Index ``i`` repeated ``counts[i]`` times, and each copy's rank
    within its run."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts,
                                                    counts)


def route_waves(send_round, n: int, bandwidth: int, code, length: int,
                plan: WavePlan, bits: np.ndarray,
                label: str) -> BatchedRoutingResult:
    """Run ``plan``'s blocks-mode waves; the one wave implementation.

    ``bits[t, m]`` is trial ``t``'s payload of message ``m``, zero-padded
    to a common length.  ``send_round(intended, width, label)`` moves one
    ``(trials, n, n)`` round and returns the delivered stack.  Each wave
    packs up to ``bandwidth`` batches into bit-planes (Lemma 2.9) and takes
    two rounds — source to relay block, relay block to target — around one
    batched encode and one batched decode of every trial's rows."""
    trials = plan.batch.shape[0]
    capacity = max(1, code.k)
    arange_cap = np.arange(capacity)
    arange_len = np.arange(length)
    last_col = max(0, bits.shape[2] - 1)
    erasure_aware = getattr(code, "supports_erasures", False)
    # ragged fan-out: chunk c expands into fanout rows starting at row_ptr
    chunk_fan = plan.fanout[plan.chunk_msg]
    row_ptr = np.cumsum(chunk_fan) - chunk_fan
    pair_ptr = np.cumsum(plan.fanout) - plan.fanout
    num_rows = int(chunk_fan.sum())
    decoded_all = np.zeros((trials, num_rows, capacity), dtype=np.uint8)
    failed_all = np.zeros((trials, num_rows), dtype=bool)
    dropped = np.zeros(trials, dtype=np.int64)
    erased = np.zeros(trials, dtype=np.int64)
    waves = range(0, plan.num_batches, bandwidth)
    for wave, lo in enumerate(waves):
        width = min(bandwidth, plan.num_batches - lo)
        wl = f"{label}/wave{wave}"
        tr, ch = np.nonzero((plan.batch >= lo) & (plan.batch < lo + width))
        planes = plan.batch[tr, ch] - lo
        msgs = plan.chunk_msg[ch]
        srcs = plan.sources[tr, msgs]
        relay = plan.block[tr, ch][:, None] * length + arange_len

        # one batched encode of every trial's chunks in the wave
        col = np.minimum(plan.chunk_start[ch][:, None] + arange_cap,
                         last_col)
        valid = arange_cap < plan.chunk_size[ch][:, None]
        payload = np.where(valid, bits[tr[:, None], msgs[:, None], col], 0)
        del col, valid
        codewords = code.encode_many(payload).astype(np.int64)
        del payload

        # round 1: source -> relay block
        keys = (((tr * n + srcs) * n)[:, None] + relay).ravel()
        intended = _stage(keys, codewords << planes[:, None], trials, n,
                          width)
        del keys, codewords
        delivered = send_round(intended, width, f"{wl}/r1")
        del intended
        got = delivered[tr[:, None], srcs[:, None], relay]
        del delivered
        lost = got < 0
        if lost.any():
            dropped += _per_trial(tr, lost, trials)
        relayed = np.where(lost, 0, (got >> planes[:, None]) & 1)
        del got, lost

        # fan out one row per (chunk, target)
        rows = row_ptr[ch]
        pairs = pair_ptr[msgs]
        fan = chunk_fan[ch]
        if int(fan.sum()) != fan.size:
            expand, within = _ragged(fan)
            tr, planes, relay, relayed = (tr[expand], planes[expand],
                                          relay[expand], relayed[expand])
            rows = rows[expand] + within
            pairs = pairs[expand] + within
        tgts = plan.targets[tr, pairs]

        # round 2: relay block -> target
        keys = ((tr[:, None] * n + relay) * n + tgts[:, None]).ravel()
        intended = _stage(keys, relayed << planes[:, None], trials, n,
                          width)
        del keys, relayed
        delivered = send_round(intended, width, f"{wl}/r2")
        del intended
        got = delivered[tr[:, None], relay, tgts[:, None]]
        del delivered
        erase = got < 0
        received = np.where(erase, 0, (got >> planes[:, None]) & 1)\
            .astype(np.uint8)
        del got
        # round-2 drops are receiver-known erasures: erasure-aware codes
        # get them for the doubled pure-drop radius (gated so drop-free
        # waves take the plain decode path)
        declared = {}
        if erase.any():
            lost = _per_trial(tr, erase, trials)
            dropped += lost
            if erasure_aware:
                erased += lost
                declared["erasures"] = erase
        decoded, failed = code.decode_many_flagged(received, **declared)
        del received, erase, declared
        decoded_all[tr, rows] = decoded[:, :capacity]
        failed_all[tr, rows] = np.asarray(failed, dtype=bool)

    row_chunk, within = _ragged(chunk_fan)
    return BatchedRoutingResult(
        decoded=decoded_all, failed=failed_all,
        row_pair=pair_ptr[plan.chunk_msg[row_chunk]] + within,
        row_start=plan.chunk_start[row_chunk],
        row_size=plan.chunk_size[row_chunk],
        pair_msg=np.repeat(np.arange(plan.fanout.size), plan.fanout),
        sizes=plan.sizes, rounds=2 * len(waves), batches=plan.num_batches,
        codeword_bits=length, dropped=dropped, erased=erased)


class SuperMessageRouter:
    """Executes SuperMessagesRouting instances on a network."""

    def __init__(self, net: CongestedClique,
                 profile: ProtocolProfile = SIMULATION,
                 mode: str = "blocks",
                 coverfree_k: int = 2):
        if mode not in ("blocks", "coverfree"):
            raise ValueError(f"unknown routing mode {mode!r}")
        self.net = net
        self.profile = profile
        self.mode = mode
        self.coverfree_k = coverfree_k
        #: overlap parameter for the verified family construction; larger
        #: than profile.delta because simulation-scale group sizes are small
        self.coverfree_delta = 0.3
        self._construction_rng = derive(profile.construction_seed,
                                        f"router:{net.n}")

    # -- public entry ----------------------------------------------------------
    def route(self, messages: Sequence[SuperMessage],
              label: str = "routing") -> RoutingResult:
        with metrics.timed("routing.route"), \
                tracing.maybe_span(f"{label}/route", messages=len(messages)):
            return self._route(messages, label)

    def _route(self, messages: Sequence[SuperMessage],
               label: str) -> RoutingResult:
        net = self.net
        n = net.n
        length, code = self.profile.select_routing_code(n, net.adversary.alpha)
        if self.mode == "coverfree":
            return self._route_coverfree(messages, label)
        capacity = max(1, code.k)
        chunks = self._split_into_chunks(messages, capacity)
        batches = self._schedule_blocks(chunks, n // length)
        plan = WavePlan.from_schedule(messages, chunks, batches, capacity, 1)
        bits = np.zeros((1, len(messages), int(plan.sizes.max(initial=1))),
                        dtype=np.uint8)
        for j, msg in enumerate(messages):
            bits[0, j, :len(msg.bits)] = msg.bits
        # the serial network is the kernel's trials=1 case
        result = route_waves(
            lambda intended, width, wl: net.round(intended[0], width=width,
                                                  label=wl)[None],
            n, net.bandwidth, code, length, plan, bits, label)

        received = result.pair_bits()[0]
        pair_target = plan.targets[0]
        outputs: Dict[int, Dict[MessageKey, np.ndarray]] = {}
        for p, j in enumerate(result.pair_msg.tolist()):
            msg = messages[j]
            outputs.setdefault(int(pair_target[p]), {})[msg.key] = \
                received[p, :len(msg.bits)]
        failures = [(int(pair_target[p]), messages[result.pair_msg[p]].key)
                    for p in result.row_pair[result.failed[0]]]
        return RoutingResult(outputs=outputs, rounds=result.rounds,
                             decode_failures=failures,
                             batches=result.batches, codeword_bits=length,
                             dropped_entries=int(result.dropped[0]),
                             erased_entries=int(result.erased[0]))

    def _route_coverfree(self, messages: Sequence[SuperMessage],
                         label: str) -> RoutingResult:
        net = self.net
        # cover-freeness needs group size >> k/delta, so the relay sets
        # stay small relative to n; low-rate codes absorb the overlap
        length = max(8, net.n // 16)
        code = self.profile.routing_code_at_rate(
            length, min(self.profile.code_rate, 1.0 / 8))
        chunks = self._split_into_chunks(messages, max(1, code.k))
        batches = self._schedule_capacity(chunks, self.coverfree_k)
        start_rounds = net.rounds_used
        raw: Dict[int, Dict[MessageKey, Dict[int, np.ndarray]]] = \
            defaultdict(lambda: defaultdict(dict))
        failures: List[Tuple[int, MessageKey]] = []
        stats = {"dropped": 0, "erased": 0}
        bandwidth = net.bandwidth
        for wave_start in range(0, len(batches), bandwidth):
            wave = batches[wave_start:wave_start + bandwidth]
            self._execute_wave_coverfree(
                wave, length, code, raw, failures, stats,
                f"{label}/wave{wave_start // bandwidth}")

        outputs = self._reassemble(messages, raw)
        return RoutingResult(outputs=outputs,
                             rounds=net.rounds_used - start_rounds,
                             decode_failures=failures,
                             batches=len(batches),
                             codeword_bits=length,
                             dropped_entries=stats["dropped"],
                             erased_entries=stats["erased"])

    # -- chunking ---------------------------------------------------------------
    def _split_into_chunks(self, messages: Sequence[SuperMessage],
                           capacity: int) -> List[_Chunk]:
        seen = set()
        chunks: List[_Chunk] = []
        for msg in sorted(messages, key=lambda m: m.key):
            if msg.key in seen:
                raise ValueError(f"duplicate super-message key {msg.key}")
            seen.add(msg.key)
            bits = np.array(msg.bits, dtype=np.uint8)
            if bits.size == 0:
                raise ValueError(f"super-message {msg.key} is empty")
            if not msg.targets:
                raise ValueError(f"super-message {msg.key} has no targets")
            for index, start in enumerate(range(0, bits.size, capacity)):
                chunks.append(_Chunk(source=msg.source, slot=msg.slot,
                                     index=index,
                                     bits=bits[start:start + capacity],
                                     targets=msg.targets))
        return chunks

    # -- scheduling ---------------------------------------------------------------
    @staticmethod
    def _schedule_blocks(chunks: List[_Chunk],
                         num_blocks: int) -> List[List[Tuple[_Chunk, int]]]:
        """Greedy (batch, block) assignment avoiding same-source-same-block
        and same-target-same-block conflicts within a batch.

        Bitmask formulation of :meth:`_schedule_blocks_reference` — one
        int64 mask per (batch, node) replaces the per-block set probes, and
        each chunk's batch scan is a single vectorized search over the open
        suffix.  Placements are identical to the reference greedy: the scan
        order, the lowest-free-block choice and the ``first_open`` advance
        rule (move past the contiguous run of source-full batches at the
        scan head) are preserved exactly.
        """
        if num_blocks < 1:
            raise ProfileError("codeword longer than the network")
        if num_blocks > 62:  # block masks must fit an int64
            return SuperMessageRouter._schedule_blocks_reference(chunks,
                                                                 num_blocks)
        if not chunks:
            return []
        full = (1 << num_blocks) - 1
        nodes = 1 + max(max(c.source for c in chunks),
                        max(t for c in chunks for t in c.targets))
        cap = 64
        src_used = np.zeros((cap, nodes), dtype=np.int64)
        tgt_used = np.zeros((cap, nodes), dtype=np.int64)
        num_batches = 0
        first_open: Dict[int, int] = defaultdict(int)
        placements: List[Tuple[_Chunk, int, int]] = []
        # consecutive chunks of one multi-chunk message share (source,
        # targets); nothing is placed between them, so the previous chunk's
        # scan outcome (its batch and the blocks still free there) stays
        # valid and the run places with pure bit arithmetic
        prev_key = None
        prev_batch = -1
        prev_free = 0
        for chunk in chunks:
            src = chunk.source
            targets = list(chunk.targets)
            key = (src, chunk.targets)
            batch_index = -1
            free_mask = full
            if key == prev_key and prev_free:
                batch_index = prev_batch
                free_mask = prev_free
            else:
                if key == prev_key:
                    scan_from = prev_batch + 1
                else:
                    fo = first_open[src]
                    while fo < num_batches and src_used[fo, src] == full:
                        fo += 1
                    first_open[src] = fo
                    scan_from = fo
                if scan_from < num_batches:
                    conflicts = src_used[scan_from:num_batches, src]
                    if len(targets) == 1:
                        conflicts = conflicts | tgt_used[
                            scan_from:num_batches, targets[0]]
                    else:
                        conflicts = conflicts | np.bitwise_or.reduce(
                            tgt_used[scan_from:num_batches, targets], axis=1)
                    free = ~conflicts & full
                    hits = np.flatnonzero(free)
                    if hits.size:
                        batch_index = scan_from + int(hits[0])
                        free_mask = int(free[hits[0]])
                if batch_index < 0:
                    batch_index = num_batches
                    num_batches += 1
                    if num_batches > cap:
                        cap *= 2
                        src_used = np.vstack(
                            [src_used, np.zeros_like(src_used)])
                        tgt_used = np.vstack(
                            [tgt_used, np.zeros_like(tgt_used)])
            block = (free_mask & -free_mask).bit_length() - 1
            placements.append((chunk, batch_index, block))
            bit = np.int64(1 << block)
            src_used[batch_index, src] |= bit
            for t in targets:
                tgt_used[batch_index, t] |= bit
            prev_key = key
            prev_batch = batch_index
            prev_free = free_mask & ~(1 << block)
        batches: List[List[Tuple[_Chunk, int]]] = \
            [[] for _ in range(num_batches)]
        for chunk, batch_index, block in placements:
            batches[batch_index].append((chunk, block))
        return batches

    @staticmethod
    def _schedule_blocks_reference(chunks: List[_Chunk],
                                   num_blocks: int
                                   ) -> List[List[Tuple[_Chunk, int]]]:
        """Original set-based greedy; the oracle `_schedule_blocks` must
        match placement-for-placement (and the >62-block fallback)."""
        batches: List[List[Tuple[_Chunk, int]]] = []
        source_used: List[Dict[int, set]] = []
        target_used: List[Dict[int, set]] = []
        first_open: Dict[int, int] = defaultdict(int)
        for chunk in chunks:
            batch_index = first_open[chunk.source]
            placed = False
            while not placed:
                if batch_index == len(batches):
                    batches.append([])
                    source_used.append(defaultdict(set))
                    target_used.append(defaultdict(set))
                used_src = source_used[batch_index][chunk.source]
                if len(used_src) < num_blocks:
                    for block in range(num_blocks):
                        if block in used_src:
                            continue
                        if any(block in target_used[batch_index][t]
                               for t in chunk.targets):
                            continue
                        batches[batch_index].append((chunk, block))
                        used_src.add(block)
                        for t in chunk.targets:
                            target_used[batch_index][t].add(block)
                        placed = True
                        break
                if not placed:
                    if len(used_src) >= num_blocks and \
                            batch_index == first_open[chunk.source]:
                        first_open[chunk.source] = batch_index + 1
                    batch_index += 1
        return batches

    @staticmethod
    def _schedule_capacity(chunks: List[_Chunk],
                           k: int) -> List[List[Tuple[_Chunk, int]]]:
        """Cover-free mode: cap per-source and per-target chunks per batch
        at k; the within-batch set index is positional."""
        batches: List[List[Tuple[_Chunk, int]]] = []
        src_count: List[Dict[int, int]] = []
        tgt_count: List[Dict[int, int]] = []
        for chunk in chunks:
            placed = False
            for b, batch in enumerate(batches):
                if src_count[b][chunk.source] >= k:
                    continue
                if any(tgt_count[b][t] >= k for t in chunk.targets):
                    continue
                batch.append((chunk, len(batch)))
                src_count[b][chunk.source] += 1
                for t in chunk.targets:
                    tgt_count[b][t] += 1
                placed = True
                break
            if not placed:
                batches.append([(chunk, 0)])
                src_count.append(defaultdict(int))
                tgt_count.append(defaultdict(int))
                src_count[-1][chunk.source] = 1
                for t in chunk.targets:
                    tgt_count[-1][t] = 1
        return batches

    # -- execution: cover-free mode -------------------------------------------------
    def _execute_wave_coverfree(self, wave, length, code, raw, failures,
                                stats, label):
        net = self.net
        n = net.n
        planes = len(wave)
        all_items = []
        for plane, batch in enumerate(wave):
            if not batch:
                continue
            # build the constraint collection H for this batch: the chunks of
            # each source (INind) and the chunks targeted at each node (OUTind)
            local_index = {}
            for position, (chunk, _) in enumerate(batch):
                local_index[position] = chunk
            by_source = defaultdict(list)
            by_target = defaultdict(list)
            for position, (chunk, _) in enumerate(batch):
                by_source[chunk.source].append(position)
                for t in chunk.targets:
                    by_target[t].append(position)
            constraints = [tuple(v) for v in by_source.values() if len(v) > 1]
            constraints += [tuple(v) for v in by_target.values() if len(v) > 1]
            family = build_cover_free_family(
                ground_size=n, num_sets=len(batch), set_size=length,
                delta=self.coverfree_delta, rng=self._construction_rng,
                constraints=constraints or None)
            # in/out loads w.r.t. the family
            in_load = defaultdict(lambda: defaultdict(int))   # source -> relay
            out_load = defaultdict(lambda: defaultdict(int))  # relay -> target
            for position, (chunk, _) in enumerate(batch):
                relays = family.set_elements(position)
                for w in relays:
                    in_load[chunk.source][int(w)] += 1
                for t in chunk.targets:
                    for w in relays:
                        out_load[int(w)][t] += 1
            all_items.append((plane, batch, family, in_load, out_load))
        if not all_items:
            return

        flat = [(plane, chunk, family.set_elements(position), in_load, out_load)
                for plane, batch, family, in_load, out_load in all_items
                for position, (chunk, _) in enumerate(batch)]
        padded = np.zeros((len(flat), code.k), dtype=np.uint8)
        for row, (_, chunk, _, _, _) in enumerate(flat):
            padded[row, :chunk.bits.size] = chunk.bits
        codewords = code.encode_many(padded).astype(np.int64)

        values = np.zeros((n, n), dtype=np.int64)
        present = np.zeros((n, n), dtype=bool)
        for row, (plane, chunk, relays, in_load, _) in enumerate(flat):
            for pos, w in enumerate(relays):
                if in_load[chunk.source][int(w)] == 1:
                    values[chunk.source, int(w)] |= int(codewords[row, pos]) << plane
                    present[chunk.source, int(w)] = True
        delivered1 = net.round(np.where(present, values, -1), width=planes,
                               label=f"{label}/r1")

        values2 = np.zeros((n, n), dtype=np.int64)
        present2 = np.zeros((n, n), dtype=bool)
        for row, (plane, chunk, relays, in_load, out_load) in enumerate(flat):
            for pos, w in enumerate(relays):
                w = int(w)
                if in_load[chunk.source][w] != 1:
                    continue
                got = delivered1[chunk.source, w]
                if got < 0:
                    stats["dropped"] += 1
                bit1 = 0 if got < 0 else (int(got) >> plane) & 1
                for t in chunk.targets:
                    if out_load[w][t] == 1:
                        values2[w, t] |= bit1 << plane
                        present2[w, t] = True
        delivered2 = net.round(np.where(present2, values2, -1), width=planes,
                               label=f"{label}/r2")

        rows = []
        row_erasures = []
        metas = []
        for row, (plane, chunk, relays, in_load, out_load) in enumerate(flat):
            for t in chunk.targets:
                bits2 = np.zeros(code.n, dtype=np.uint8)
                erased = np.zeros(code.n, dtype=bool)
                for pos, w in enumerate(relays):
                    w = int(w)
                    if in_load[chunk.source][w] == 1 and out_load[w][t] == 1:
                        got2 = delivered2[w, t]
                        if got2 < 0:
                            stats["dropped"] += 1
                            erased[pos] = True
                        bits2[pos] = 0 if got2 < 0 else (int(got2) >> plane) & 1
                rows.append(bits2)
                row_erasures.append(erased)
                metas.append((chunk, t))
        erase_mat = np.stack(row_erasures)
        if erase_mat.any() and getattr(code, "supports_erasures", False):
            stats["erased"] += int(erase_mat.sum())
            decoded, failed = code.decode_many_flagged(np.stack(rows),
                                                       erasures=erase_mat)
        else:
            decoded, failed = code.decode_many_flagged(np.stack(rows))
        for (chunk, t), message_bits, bad in zip(metas, decoded, failed):
            raw[t][(chunk.source, chunk.slot)][chunk.index] = \
                message_bits[:chunk.bits.size]
            if bad:
                failures.append((t, (chunk.source, chunk.slot)))

    # -- reassembly ---------------------------------------------------------------
    @staticmethod
    def _reassemble(messages, raw):
        outputs: Dict[int, Dict[MessageKey, np.ndarray]] = defaultdict(dict)
        for msg in messages:
            for t in msg.targets:
                pieces = raw[t].get(msg.key, {})
                parts = [pieces[i] for i in sorted(pieces)]
                if parts:
                    combined = np.concatenate(parts)[:len(msg.bits)]
                else:
                    combined = np.zeros(len(msg.bits), dtype=np.uint8)
                outputs[t][msg.key] = combined
        return dict(outputs)


def broadcast(router: SuperMessageRouter, source: int, bits,
              label: str = "broadcast") -> Dict[int, np.ndarray]:
    """Corollary 4.8: one node broadcasts an O(n)-bit string to everyone
    via a single-source routing instance targeting all nodes."""
    n = router.net.n
    message = SuperMessage.make(source, 0, bits, targets=range(n))
    result = router.route([message], label=label)
    return {v: result.outputs[v][(source, 0)] for v in range(n)}
