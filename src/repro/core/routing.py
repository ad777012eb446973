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
  sets at simulation scale (see the README's routing section): the paper
  needs cover-free families because its ``kn`` relay sets must be fixed
  obliviously; with the instance public (as Theorem 4.1 assumes — "the
  target set of each of the kn super-messages is known to all the nodes")
  the explicit schedule is computable by every node locally and achieves
  overlap 0.
* ``"coverfree"`` — the paper-faithful mode: relay sets come from an
  (r, δ)-cover-free family w.r.t. the instance's IN/OUT constraint
  collection H (Lemma 4.4), and bits are dropped wherever ``InLoad`` or
  ``OutLoad`` exceeds 1, exactly as in Section 4.2.  The family and the
  loads are public, so the target decodes a dropped position as an
  erasure.  Its plan gives each chunk a relay set, and the same wave
  kernel runs it.  Used by the fidelity tests and the E11 ablation.

Batches execute in *waves* of ``B`` (the bandwidth): B independent 1-bit
instances ride in the B bit-planes of a single round, which is exactly the
parallel-composition argument of Lemma 2.9 / the proof of Theorem 4.1.

There is one router, one planner per mode and one wave kernel.  The
schedule depends only on message structure — sources, slots, sizes and
targets, public by Theorem 4.1's assumption — so :func:`plan_waves` (with
:func:`_grouped_greedy`) and :func:`plan_coverfree` build a
:class:`WavePlan` from those index arrays, and :func:`route_waves` moves
the payload of any number of lockstep trials.
:class:`~repro.core.batched_routing.BatchedRouter` picks the code and the
planner; :class:`SuperMessageRouter` runs a message list there as one
trial.

The wave kernel moves rows, not bits.  In round 1 a chunk's codeword is
one contiguous run of a source's words, relays ``block * L`` to ``block *
L + L - 1``; in round 2 each (chunk, target) copy is the same run of
relays towards one target.  So a round is staged as rows at (trial,
source, block) — or (trial, target, block), then transposed once — and
read back as rows.  Since no two chunks of one batch share a (source,
block) or a (target, block), each plane writes every cell at most once,
and the planes pack into the round's int64 words exactly at any width up
to ``MAX_ROUND_WIDTH``.  When ``L`` does not divide n, the nodes past
``(n // L) * L`` send and receive but relay nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cliquesim.network import CongestedClique, _serial
from repro.core.profiles import ProfileError, ProtocolProfile, SIMULATION
from repro.utils.bits import as_bits

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


def _structure(messages: Sequence[SuperMessage]):
    """The index arrays of a message list: sources, slots, sizes, the
    targets of every message in turn, and each message's target count."""
    return (np.array([m.source for m in messages], dtype=np.int64),
            np.array([m.slot for m in messages], dtype=np.int64),
            np.array([len(m.bits) for m in messages], dtype=np.int64),
            np.array([t for m in messages for t in m.targets],
                     dtype=np.int64),
            np.array([len(m.targets) for m in messages], dtype=np.int64))


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


class CellUnbatchable(Exception):
    """The trials of this cell cannot run in lockstep (e.g. per-trial
    routing schedules diverge); the caller should fall back to per-trial
    serial execution."""


@dataclass
class WavePlan:
    """A scheduled routing over ``trials`` lockstep trials.

    Chunk ``c`` carries bits ``[chunk_start[c], chunk_start[c] +
    chunk_size[c])`` of message ``chunk_msg[c]``; these canonical arrays are
    shared by every trial.  Node ids and placements are per trial: trial
    ``t`` sends message ``m`` from ``sources[t, m]`` and places chunk ``c``
    in ``(batch[t, c], block[t, c])``.  Message ``m`` has ``fanout[m]``
    targets, so its (message, target) *pairs* are a ragged run of
    ``targets[t, :]`` in message order.

    ``relays`` is ``None`` for contiguous blocks: chunk ``c`` relays over
    nodes ``block * L`` to ``block * L + L - 1``.  Otherwise codeword
    position ``j`` of chunk ``c`` relays over node ``relays[t, c, j]``,
    and ``block[t, c]`` is the chunk's row of its batch's family."""

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
    relays: Optional[np.ndarray] = None  # (trials, C, L) relay sets


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
        trials, _, capacity = self.decoded.shape
        size = int(self.sizes.max(initial=0))
        slots = -(-size // capacity)
        pairs = self.pair_msg.size
        # chunks start at multiples of the row width, so row e is piece
        # row_start[e] // capacity of its pair: one scatter places every
        # row, and the bits past a short row's size are cleared after
        at = (np.arange(trials)[:, None] * (pairs * slots)
              + self.row_pair * slots + self.row_start // capacity)
        out = np.zeros((trials * pairs * slots, capacity), dtype=np.uint8)
        out[at.ravel()] = self.decoded.reshape(-1, capacity)
        short = self.row_size < capacity
        if short.any():
            out[at[:, short].ravel()] *= np.arange(capacity) \
                < np.tile(self.row_size[short], trials)[:, None]
        return out.reshape(trials, pairs, slots * capacity)[:, :, :size]

    def message_bits(self) -> np.ndarray:
        """``(trials, M, Lmax)`` received bits of a single-target routing:
        message ``m``'s row is what its target decoded."""
        if self.pair_msg.size != self.sizes.size:
            raise ValueError("message_bits needs single-target messages")
        return self.pair_bits()


def _by_node(words: np.ndarray, target_major: bool):
    """(trial, node, relay) views of a round's little-endian int64 words
    and of their bytes; ``target_major`` makes the node the receiver."""
    trials, n = words.shape[:2]
    word_bytes = words.view(np.uint8).reshape(trials, n, n, 8)
    if target_major:
        return words.transpose(0, 2, 1), word_bytes.transpose(0, 2, 1, 3)
    return words, word_bytes


def _stage(cells: np.ndarray, planes: np.ndarray, rows: np.ndarray,
           trials: int, n: int, width: int,
           target_major: bool = False) -> np.ndarray:
    """One round's ``(trials, n, n)`` intended words, built from rows.

    Row ``r`` holds ``length`` bits for cell ``cells[r] = (trial * n +
    node) * blocks + block``: bit ``j`` rides plane ``planes[r]`` of the
    word from ``node`` to relay ``block * length + j`` — or, with
    ``target_major``, from that relay to ``node``.  No two rows of one
    plane share a cell, so each (cell, plane) slot takes at most one row
    and one assignment writes them all; ``packbits`` then ORs each word's
    planes, exact at every width.  Words that no row reaches, and the
    relays past ``blocks * length``, stay ``-1``."""
    length = rows.shape[1]
    blocks = n // length
    span = blocks * length
    nbytes = -(-width // 8)
    slots = np.zeros((trials * n * blocks, length, 8 * nbytes),
                     dtype=np.uint8)
    slots[cells, :, planes] = rows
    packed = np.packbits(slots.reshape(-1), bitorder="little")
    del slots
    words = np.zeros((trials, n, n), dtype="<i8")
    by_node, word_bytes = _by_node(words, target_major)
    word_bytes[:, :, :span, :nbytes] = packed.reshape(trials, n, span,
                                                      nbytes)
    sent = np.zeros(trials * n * blocks, dtype=bool)
    sent[cells] = True
    by_node[:, :, :span][np.repeat(~sent.reshape(trials, n, blocks),
                                   length, axis=2)] = -1
    by_node[:, :, span:] = -1
    return words.astype(np.int64, copy=False)


def _take(delivered: np.ndarray, cells: np.ndarray, planes: np.ndarray,
          length: int, width: int, target_major: bool = False):
    """The rows :func:`_stage` wrote, read back from a delivered round:
    ``(R, length)`` bits from plane ``planes[r]`` of cell ``cells[r]``'s
    words, 0 where a word was lost, and the ``(R, length)`` lost mask.

    Only the bytes that hold the wave's planes are copied and gathered,
    not whole int64 words: at free-logn-n512's wave shape (2-core Xeon,
    numpy 2.4.6) that takes a third of the time of an int64 row gather
    with a per-row shift, and the workload's peak RSS is 81 MB, not
    94."""
    n = delivered.shape[1]
    span = (n // length) * length
    nbytes = -(-width // 8)
    by_node, word_bytes = _by_node(
        np.ascontiguousarray(delivered, dtype="<i8"), target_major)
    lost = (by_node[:, :, :span] < 0).reshape(-1, length)[cells]
    word_bytes = word_bytes[:, :, :span, :nbytes].reshape(-1, length, nbytes)
    bits = word_bytes[cells, :, planes >> 3] \
        >> (planes & 7).astype(np.uint8)[:, None]
    bits &= 1
    bits[lost] = 0
    return bits, lost


def _sent_entries(cells: np.ndarray, trials: int, n: int,
                  length: int) -> np.ndarray:
    """Per-trial count of the off-diagonal words :func:`_stage` would fill
    from rows at ``cells``: ``length`` per distinct (trial, node, block)
    cell, less one for each cell whose node lies in its own block."""
    blocks = n // length
    span = blocks * length
    occupied = np.zeros((trials, n, blocks), dtype=bool)
    occupied.reshape(-1)[cells] = True
    own = np.arange(span)
    return (length * np.add.reduce(occupied.reshape(trials, -1), axis=1)
            - np.add.reduce(occupied[:, own, own // length], axis=1))


def _send_rows(send_round, book, cells: np.ndarray, planes: np.ndarray,
               rows: np.ndarray, length: int, trials: int, n: int,
               width: int, label: str, target_major: bool = False):
    """Move ``rows`` through one round at :func:`_stage`'s cells and
    planes, each cell ``length`` relays wide, and return what arrived with
    the lost mask (:func:`_take`).  With ``book`` — an engine that
    delivers as sent — the round is booked from its sent-entry counts, and
    the rows come back as they are, none lost; they need not be
    ``length`` bits wide then.  Otherwise the rows are staged and sent
    through ``send_round``."""
    if book is not None:
        book((width,), (label,), _sent_entries(cells, trials, n, length))
        return rows, np.zeros(rows.shape, dtype=bool)
    delivered = send_round(_stage(cells, planes, rows, trials, n, width,
                                  target_major), width, label)
    return _take(delivered, cells, planes, rows.shape[1], width,
                 target_major)


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


def _grouped_greedy(srcs: np.ndarray, tgts: np.ndarray, counts: np.ndarray,
                    num_blocks: int, fanout: np.ndarray):
    """The blocks-mode scheduler: a greedy (batch, block) placement in
    which no two chunks of a batch share a (source, block) or a (target,
    block) pair.

    Message ``m`` is a run of ``counts[m]`` chunks from ``srcs[m]`` to its
    ``fanout[m]`` targets, the next ``fanout[m]`` entries of ``tgts``.
    Each node keeps one Python int per role, source and target, whose bit
    ``batch * num_blocks + block`` marks that block of that batch taken.
    A run takes the lowest ``counts[m]`` clear bits of the OR of its
    source's and its targets' ints.  That is placement-for-placement what
    the chunk-at-a-time greedy (``repro.perf.reference``) does: each chunk
    takes the lowest (batch, block) free for its source and every target,
    and a run's chunks share those conflicts.  Returns per-chunk batch and
    block arrays in message order, and the batch count."""
    srcs_l = srcs.tolist()
    tgts_l = tgts.tolist()
    nodes = max(srcs_l + tgts_l, default=-1) + 1
    src_used = [0] * nodes
    tgt_used = [0] * nodes
    masks = []
    ptr = 0
    for src, count, fan in zip(srcs_l, counts.tolist(), fanout.tolist()):
        targets = tgts_l[ptr:ptr + fan]
        ptr += fan
        used = src_used[src]
        for t in targets:
            used |= tgt_used[t]
        # take the clear gaps of ``used`` from the bottom until ``count``
        # bits are taken: ``low`` is the lowest clear bit, and its gap
        # runs up to the lowest set bit of ``above``, or without end
        taken = used
        while count:
            low = ~taken & (taken + 1)
            above = taken & -low
            gap = (above & -above).bit_length() - low.bit_length() \
                if above else count
            take = min(gap, count)
            taken |= low * ((1 << take) - 1)
            count -= take
        mask = taken ^ used
        src_used[src] |= mask
        for t in targets:
            tgt_used[t] |= mask
        masks.append(mask)
    # each run's mask is read over its own span, from its lowest bit up:
    # its set bits, ascending, are its chunks' placements in order
    lows = [max((mask & -mask).bit_length() - 1, 0) for mask in masks]
    spans = [mask >> low for mask, low in zip(masks, lows)]
    nbytes = [(span.bit_length() + 7) // 8 for span in spans]
    bits = np.unpackbits(np.frombuffer(b"".join(
        span.to_bytes(size, "little") for span, size in zip(spans, nbytes)),
        dtype=np.uint8), bitorder="little")
    first = 8 * (np.cumsum(nbytes, dtype=np.int64) - nbytes) \
        - np.array(lows, dtype=np.int64)
    batch, block = np.divmod(np.flatnonzero(bits) - np.repeat(first, counts),
                             num_blocks)
    return batch, block, int(batch.max()) + 1 if batch.size else 0


def _key_order(n: int, sources: np.ndarray, slots: np.ndarray,
               sizes: np.ndarray, targets: np.ndarray,
               fanout: np.ndarray) -> np.ndarray:
    """One trial's messages in (source, slot) key order, the order the
    greedy places them in.  Rejects what no routing can carry: empty
    messages, messages without targets, node ids outside ``[0, n)``,
    repeated targets and duplicate keys."""
    def key(m):
        return int(sources[m]), int(slots[m])

    for bad, what in ((sizes < 1, "is empty"),
                      (fanout < 1, "has no targets")):
        if bad.any():
            raise ValueError(f"super-message {key(np.argmax(bad))} {what}")
    outside = (sources < 0) | (sources >= n)
    if outside.any():
        m = int(np.argmax(outside))
        raise ValueError(f"super-message {key(m)} has source {sources[m]} "
                         f"outside [0, {n})")
    pair_msg = np.repeat(np.arange(sizes.size), fanout)
    outside = (targets < 0) | (targets >= n)
    if outside.any():
        p = int(np.argmax(outside))
        raise ValueError(f"super-message {key(pair_msg[p])} has target "
                         f"{targets[p]} outside [0, {n})")
    if targets.size > sizes.size:
        codes = np.sort(pair_msg * n + targets)
        twice = np.flatnonzero(codes[1:] == codes[:-1])
        if twice.size:
            m, t = divmod(int(codes[twice[0]]), n)
            raise ValueError(f"super-message {key(m)} lists target {t} "
                             f"twice")
    order = np.lexsort((slots, sources))
    same = (sources[order[1:]] == sources[order[:-1]]) \
        & (slots[order[1:]] == slots[order[:-1]])
    if same.any():
        raise ValueError("duplicate super-message key "
                         f"{key(order[np.argmax(same)])}")
    return order


def _unplaced(trials: int, capacity: int, sources, slots, sizes, targets,
              fanout):
    """:func:`plan_waves`' and :func:`plan_coverfree`'s message
    arguments, normalised and checked: a :class:`WavePlan` without its
    placements, which holds the node ids broadcast over the trials, the
    ``(M,)`` slots, and whether the node ids are shared."""
    sizes = np.asarray(sizes, dtype=np.int64)
    num_messages = sizes.size
    slots = np.asarray(slots, dtype=np.int64)
    fanout = np.ones(num_messages, dtype=np.int64) if fanout is None \
        else np.asarray(fanout, dtype=np.int64)
    num_pairs = int(fanout.sum())
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if slots.shape != (num_messages,) or fanout.shape != (num_messages,) \
            or sources.shape not in ((num_messages,), (trials, num_messages)) \
            or targets.shape not in ((num_pairs,), (trials, num_pairs)):
        raise ValueError(
            f"{num_messages} messages over {trials} trials need (M,) slots "
            f"and fanout, (M,) or (trials, M) sources and (P,) or (trials, "
            f"P) targets; got {slots.shape}, {fanout.shape}, "
            f"{sources.shape} and {targets.shape}")
    chunk_msg, within = _ragged(-(-sizes // capacity))
    chunk_start = within * capacity
    plan = WavePlan(chunk_msg=chunk_msg, chunk_start=chunk_start,
                    chunk_size=np.minimum(capacity,
                                          sizes[chunk_msg] - chunk_start),
                    sizes=sizes, fanout=fanout,
                    sources=np.broadcast_to(sources, (trials, num_messages)),
                    targets=np.broadcast_to(targets, (trials, num_pairs)),
                    batch=None, block=None, num_batches=0)
    return plan, slots, sources.ndim == 1 and targets.ndim == 1


def plan_waves(trials: int, n: int, num_blocks: int, capacity: int,
               sources, slots, sizes, targets,
               fanout=None) -> WavePlan:
    """Schedule a blocks-mode routing of ``trials`` lockstep trials.

    Message ``m`` sends ``sizes[m]`` bits, cut into ``capacity``-bit
    chunks, from node ``sources[m]`` (slot ``slots[m]``) to its
    ``fanout[m]`` targets, the next ``fanout[m]`` entries of ``targets``
    (one each by default).  Theorem 4.1 makes this structure public, so
    the schedule depends on nothing else.  Shared ``(M,)`` sources and
    ``(P,)`` targets are scheduled once and broadcast; per-trial ``(trials,
    M)`` / ``(trials, P)`` ones are scheduled trial by trial, in each
    trial's (source, slot) key order.  Raises :class:`CellUnbatchable`
    when per-trial batch counts differ, since the trials then take
    different round counts, and :class:`ProfileError` without a relay
    block."""
    if num_blocks < 1:
        raise ProfileError(f"{num_blocks} relay blocks of n={n} nodes; the "
                           f"scheduler needs at least 1")
    plan, slots, shared = _unplaced(trials, capacity, sources, slots, sizes,
                                    targets, fanout)
    sizes, fanout, chunks = plan.sizes, plan.fanout, plan.chunk_msg.size
    n_chunks = -(-sizes // capacity)
    first_chunk = np.cumsum(n_chunks) - n_chunks
    pair_ptr = np.cumsum(fanout) - fanout
    scheduled = 1 if shared else trials
    batch = np.empty((scheduled, chunks), dtype=np.int64)
    block = np.empty((scheduled, chunks), dtype=np.int64)
    counts = set()
    for t in range(scheduled):
        # greedy in key order, scattered back into message order
        src, tgt = plan.sources[t], plan.targets[t]
        order = _key_order(n, src, slots, sizes, tgt, fanout)
        owner, rank = _ragged(fanout[order])
        batch_o, block_o, num_batches = _grouped_greedy(
            src[order], tgt[pair_ptr[order][owner] + rank], n_chunks[order],
            num_blocks, fanout[order])
        owner, rank = _ragged(n_chunks[order])
        canon = first_chunk[order][owner] + rank
        batch[t, canon] = batch_o
        block[t, canon] = block_o
        counts.add(num_batches)
    if len(counts) > 1:
        raise CellUnbatchable(f"per-trial schedules diverge: batch "
                              f"counts {sorted(counts)}")
    plan.batch = np.broadcast_to(batch, (trials, chunks))
    plan.block = np.broadcast_to(block, (trials, chunks))
    plan.num_batches = num_batches
    return plan


def _relay_hop(send_round, book, cells: np.ndarray, planes: np.ndarray,
               bits: np.ndarray, sent, trials: int, n: int, width: int,
               label: str, target_major: bool = False):
    """One round of relay-set positions.  Bit ``bits[r, j]`` moves as a
    one-bit row to cell ``cells[r, j] = (trial * n + node) * n + relay``
    on plane ``planes[r]`` — :func:`_stage`'s cell at ``length=1`` — if
    ``sent`` holds there (``True``: everywhere) and no other position
    takes that (cell, plane) slot; :func:`_send_rows` moves them, booked
    or staged.  Returns the bits read back, 0 where none moved or the
    word was lost, the lost mask and the moved mask."""
    keys = cells * width + planes[:, None]
    # in sorted order a slot's first key is followed by its own copy
    # exactly when another position shares the slot
    ordered = np.append(np.sort(keys, axis=None), -1)
    go = sent & (ordered[np.searchsorted(ordered[:-1], keys) + 1] != keys)
    cells, planes = cells[go], np.broadcast_to(planes[:, None], go.shape)[go]
    got, lost = _send_rows(send_round, book, cells, planes,
                           bits[go][:, None], 1, trials, n, width, label,
                           target_major)
    received = np.zeros(go.shape, dtype=np.uint8)
    lost_at = np.zeros(go.shape, dtype=bool)
    received[go], lost_at[go] = got[:, 0], lost[:, 0]
    return received, lost_at, go


def route_waves(send_round, n: int, bandwidth: int, code, length: int,
                plan: WavePlan, bits: np.ndarray, label: str,
                book=None) -> BatchedRoutingResult:
    """Run ``plan``'s waves; the one wave implementation, for contiguous
    blocks and for relay sets alike.

    ``bits[t, m]`` is trial ``t``'s payload of message ``m``, zero-padded
    to a common length.  ``send_round(intended, width, label)`` moves one
    ``(trials, n, n)`` round and returns the delivered stack.  Each wave
    packs up to ``bandwidth`` batches into bit-planes (Lemma 2.9) and takes
    two rounds — source to relays, relays to target — around one batched
    encode and one batched decode of every trial's rows.

    ``book`` is the engine's
    :meth:`~repro.cliquesim.batched.BatchedClique.book_fault_free`, passed
    only when the engine delivers as sent (fault-free, no full history).
    Each round is then booked from its sent-entry counts, ``length`` words
    per occupied relay block, and the rows pass through unchanged: nothing
    is staged, sent or read back.  A booked blocks-mode wave runs no codec
    either: every codeword would decode to its chunk's payload piece, so
    the piece rides in its place and is taken as the decoded row, never
    flagged.  With the default ``None`` every round is staged through
    ``send_round``.

    With contiguous blocks a codeword moves as one row: round 1 writes it
    at (trial, source, block) of a source-major view of the round, round 2
    writes each (chunk, target) copy at (trial, target, block) of a
    target-major view, and both rounds read whole rows back
    (:func:`_send_rows`).  Nodes past ``(n // length) * length`` relay
    nothing.

    With ``plan.relays`` each codeword position moves as its own one-bit
    row at (trial, node, relay), and Section 4.2's loads decide which
    positions move: one goes out in round 1 only if no other chunk of its
    batch uses its (source, relay) pair (InLoad 1), and is forwarded in
    round 2 only if it went out and no other (chunk, target) row of its
    batch uses its (relay, target) pair (OutLoad 1, counted over every
    position).  The families and the loads are public, so a position not
    forwarded reaches an erasure-aware code as a declared erasure.  In
    both modes ``dropped`` and ``erased`` count network drops only, and a
    booked relay-set wave keeps its codec for the positions its loads hold
    back."""
    trials = plan.batch.shape[0]
    blocks = n // length
    relays = plan.relays
    # a booked blocks-mode wave moves payload pieces and decodes nothing
    coded = book is None or relays is not None
    capacity = max(1, code.k)
    arange_cap = np.arange(capacity)
    # every message's payload as rows of capacity-bit pieces: piece p of
    # trial t's message m is row (t * M + m) * per_message + p
    num_messages = bits.shape[1]
    per_message = -(-bits.shape[2] // capacity)
    pieces = bits
    if bits.shape[2] != per_message * capacity:
        pieces = np.zeros((trials, num_messages, per_message * capacity),
                          dtype=np.uint8)
        pieces[:, :, :bits.shape[2]] = bits
    pieces = pieces.reshape(-1, capacity)
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
        # each chunk's relay block, or its (R, L) relay ids
        relay = plan.block[tr, ch] if relays is None else relays[tr, ch]

        # every trial's payload pieces in the wave, each zero past its
        # chunk's size, and one batched encode
        words = pieces[(tr * num_messages + msgs) * per_message
                       + plan.chunk_start[ch] // capacity]
        short = np.flatnonzero(plan.chunk_size[ch] < capacity)
        if short.size:
            words[short] *= arange_cap < plan.chunk_size[ch[short]][:, None]
        if coded:
            words = np.asarray(code.encode_many(words), dtype=np.uint8)

        if relays is None:
            # round 1: source -> relay block, a row per (trial, source,
            # block)
            cells = (tr * n + plan.sources[tr, msgs]) * blocks + relay
            relayed, lost = _send_rows(send_round, book, cells, planes,
                                       words, length, trials, n, width,
                                       f"{wl}/r1")
        else:
            # round 1: source -> relays, a bit per (trial, source, relay)
            # where InLoad is 1
            cells = (tr * n + plan.sources[tr, msgs])[:, None] * n + relay
            relayed, lost, sent = _relay_hop(send_round, book, cells, planes,
                                             words, True, trials, n, width,
                                             f"{wl}/r1")
        del words
        if lost.any():
            dropped += _per_trial(tr, lost, trials)
        del lost

        # fan out one row per (chunk, target)
        rows = row_ptr[ch]
        pairs = pair_ptr[msgs]
        fan = chunk_fan[ch]
        if int(fan.sum()) != fan.size:
            expand, within = _ragged(fan)
            tr, planes, relay, relayed = (tr[expand], planes[expand],
                                          relay[expand], relayed[expand])
            if relays is not None:
                sent = sent[expand]
            rows = rows[expand] + within
            pairs = pairs[expand] + within
        tgts = plan.targets[tr, pairs]

        if relays is None:
            # round 2: relay block -> target, a row per (trial, target,
            # block)
            cells = (tr * n + tgts) * blocks + relay
            received, erase = _send_rows(send_round, book, cells, planes,
                                         relayed, length, trials, n, width,
                                         f"{wl}/r2", target_major=True)
            erasures = erase
        else:
            # round 2: relay -> target, a bit per (trial, target, relay)
            # where the position went out and OutLoad is 1
            cells = (tr * n + tgts)[:, None] * n + relay
            received, erase, forward = _relay_hop(
                send_round, book, cells, planes, relayed, sent, trials, n,
                width, f"{wl}/r2", target_major=True)
            erasures = erase | ~forward
        del relayed
        if erase.any():
            lost = _per_trial(tr, erase, trials)
            dropped += lost
            if erasure_aware:
                erased += lost
        if coded:
            # round-2 drops, and relay-set positions not forwarded, are
            # receiver-known erasures: erasure-aware codes get them for the
            # doubled pure-drop radius (gated so waves with none take the
            # plain decode path)
            declared = {"erasures": erasures} \
                if erasure_aware and erasures.any() else {}
            received, failed = code.decode_many_flagged(received, **declared)
            del declared
            failed_all[tr, rows] = np.asarray(failed, dtype=bool)
        del erase, erasures
        decoded_all.reshape(-1, capacity)[tr * num_rows + rows] = \
            received[:, :capacity]
        del received

    row_chunk, within = _ragged(chunk_fan)
    return BatchedRoutingResult(
        decoded=decoded_all, failed=failed_all,
        row_pair=pair_ptr[plan.chunk_msg[row_chunk]] + within,
        row_start=plan.chunk_start[row_chunk],
        row_size=plan.chunk_size[row_chunk],
        pair_msg=np.repeat(np.arange(plan.fanout.size), plan.fanout),
        sizes=plan.sizes, rounds=2 * len(waves), batches=plan.num_batches,
        codeword_bits=length, dropped=dropped, erased=erased)


#: chunks of one source, or towards one target, that a cover-free batch
#: takes; Lemma 4.4's constraint sets are then pairs
COVERFREE_K = 2
#: overlap bound of the verified family construction; larger than
#: ``profile.delta`` because simulation-scale group sizes are small
COVERFREE_DELTA = 0.3


def _capacity_batches(chunks: Sequence[Tuple[int, Sequence[int]]], k: int):
    """Cover-free mode's scheduler: chunk by chunk, each given as its
    source and its target list, join the first batch in which the source
    and each target hold fewer than ``k`` chunks, at the next position.
    Returns every batch as its chunk list and its source -> positions and
    target -> positions groups."""
    batches = []
    for c, (source, tgts) in enumerate(chunks):
        b = next((b for b, (_, by_source, by_target) in enumerate(batches)
                  if len(by_source.get(source, ())) < k
                  and all(len(by_target.get(t, ())) < k for t in tgts)),
                 len(batches))
        if b == len(batches):
            batches.append(([], {}, {}))
        members, by_source, by_target = batches[b]
        by_source.setdefault(source, []).append(len(members))
        for t in tgts:
            by_target.setdefault(t, []).append(len(members))
        members.append(c)
    return batches


def plan_coverfree(trials: int, n: int, length: int, capacity: int,
                   rng: np.random.Generator, sources, slots, sizes, targets,
                   fanout=None) -> WavePlan:
    """Schedule a cover-free routing of :func:`plan_waves`' messages over
    ``trials`` lockstep trials.  Chunks, in (source, slot) key order, fill
    batches as :func:`_capacity_batches` places them.  Each batch, in
    batch order, draws from ``rng`` one (r, δ)-cover-free family of
    ``length``-node sets w.r.t. its constraint collection H (Lemma 4.4):
    the positions sharing a source (INind), then those sharing a target
    (OUTind).  A chunk's relays are its family row.  A family serves every
    trial, so node ids must be shared ``(M,)`` / ``(P,)`` arrays."""
    from repro.coverfree.random_construction import \
        build_cover_free_family
    plan, slots, shared = _unplaced(trials, capacity, sources, slots, sizes,
                                    targets, fanout)
    if not shared:
        raise ValueError("cover-free routing draws one family per batch for "
                         "all trials; it takes shared (M,) sources and (P,) "
                         "targets only")
    sources, targets, fanout = plan.sources[0], plan.targets[0], plan.fanout
    order = _key_order(n, sources, slots, plan.sizes, targets, fanout)
    chunks = plan.chunk_msg.size
    keyed = np.argsort(np.argsort(order)[plan.chunk_msg], kind="stable")
    pairs = targets.tolist()
    by_message = [(source, pairs[end - fan:end]) for source, fan, end in zip(
        sources.tolist(), fanout.tolist(), np.cumsum(fanout).tolist())]
    batches = _capacity_batches(
        [by_message[m] for m in plan.chunk_msg[keyed].tolist()], COVERFREE_K)
    batch = np.empty(chunks, dtype=np.int64)
    row = np.empty(chunks, dtype=np.int64)
    relays = np.empty((chunks, length), dtype=np.int64)
    for b, (members, by_source, by_target) in enumerate(batches):
        constraints = [tuple(group) for group in (*by_source.values(),
                                                  *by_target.values())
                       if len(group) > 1]
        family = build_cover_free_family(
            ground_size=n, num_sets=len(members), set_size=length,
            delta=COVERFREE_DELTA, rng=rng, constraints=constraints or None)
        placed = keyed[members]
        batch[placed] = b
        row[placed] = np.arange(placed.size)
        relays[placed] = family.sets
    plan.batch, plan.block, plan.relays = (
        np.broadcast_to(a, (trials,) + a.shape) for a in (batch, row, relays))
    plan.num_batches = len(batches)
    return plan


class SuperMessageRouter:
    """Executes SuperMessagesRouting instances on a network: one trial of
    a :class:`~repro.core.batched_routing.BatchedRouter` on its engine."""

    def __init__(self, net: CongestedClique,
                 profile: ProtocolProfile = SIMULATION,
                 mode: str = "blocks"):
        # batched_routing imports this module at its top
        from repro.core.batched_routing import BatchedRouter
        self.net = net
        self.profile = profile
        self.mode = mode
        self._router = BatchedRouter(net.engine, profile, mode)

    def route(self, messages: Sequence[SuperMessage],
              label: str = "routing") -> RoutingResult:
        sources, slots, sizes, targets, fanout = _structure(messages)
        bits = np.zeros((1, len(messages), int(sizes.max(initial=1))),
                        dtype=np.uint8)
        for j, msg in enumerate(messages):
            bits[0, j, :len(msg.bits)] = msg.bits
        # a serial adversary's exception surfaces as itself
        result = _serial(self._router.route, sources, slots, sizes, targets,
                         bits, fanout, label)
        received = result.pair_bits()[0]
        outputs: Dict[int, Dict[MessageKey, np.ndarray]] = {}
        for p, j in enumerate(result.pair_msg.tolist()):
            msg = messages[j]
            outputs.setdefault(int(targets[p]), {})[msg.key] = \
                received[p, :len(msg.bits)]
        failures = [(int(targets[p]), messages[result.pair_msg[p]].key)
                    for p in result.row_pair[result.failed[0]]]
        return RoutingResult(outputs=outputs, rounds=result.rounds,
                             decode_failures=failures,
                             batches=result.batches,
                             codeword_bits=result.codeword_bits,
                             dropped_entries=int(result.dropped[0]),
                             erased_entries=int(result.erased[0]))


def broadcast(router: SuperMessageRouter, source: int, bits,
              label: str = "broadcast") -> Dict[int, np.ndarray]:
    """Corollary 4.8: one node broadcasts an O(n)-bit string to everyone
    via a single-source routing instance targeting all nodes."""
    n = router.net.n
    message = SuperMessage.make(source, 0, bits, targets=range(n))
    result = router.route([message], label=label)
    return {v: result.outputs[v][(source, 0)] for v in range(n)}
