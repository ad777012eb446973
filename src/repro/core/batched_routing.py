"""Trial-batched super-message routing over a :class:`BatchedClique`.

A campaign cell runs the *same* routing step in every trial, so each wave's
two clique rounds move all trials at once.  :class:`BatchedRouter` has two
front ends that schedule, then hand a :class:`~repro.core.routing.WavePlan`
to the one wave kernel, :func:`~repro.core.routing.route_waves`:

* :meth:`BatchedRouter.route_shared` — every trial sends the same message
  structure: the serial router's ``_split_into_chunks`` /
  ``_schedule_blocks`` run once and the schedule is broadcast to every
  trial, so placements are exactly what a serial run computes;
* :meth:`BatchedRouter.route_grouped` — shared message counts, lengths and
  slots, but per-trial source and target node ids: each trial is scheduled
  at message-run granularity by :func:`_grouped_greedy`
  (placement-for-placement equal to ``_schedule_blocks``).  Trials run in
  lockstep only when every trial's schedule has the same batch count;
  otherwise :class:`CellUnbatchable` is raised and the caller falls back to
  per-trial serial execution.

Blocks mode only: cover-free routing stays on the serial path.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence

import numpy as np

from repro.cliquesim.batched import BatchedClique
from repro.core.profiles import ProfileError, ProtocolProfile, SIMULATION
from repro.core.routing import (
    BatchedRoutingResult,
    SuperMessage,
    SuperMessageRouter,
    WavePlan,
    route_waves,
)
from repro.obs import metrics, tracing


class CellUnbatchable(Exception):
    """The trials of this cell cannot run in lockstep (e.g. per-trial
    routing schedules diverge); the caller should fall back to per-trial
    serial execution."""


def _grouped_greedy(srcs: np.ndarray, tgts: np.ndarray, counts: np.ndarray,
                    num_blocks: int):
    """Message-run formulation of the serial scheduler's greedy: place each
    message's chunk run by taking the lowest free blocks of each feasible
    batch, which is placement-for-placement what
    :meth:`SuperMessageRouter._schedule_blocks` does chunk by chunk
    (consecutive chunks of one message share (source, target), so the
    reference's run-cache takes exactly the lowest remaining free bits).
    Single-target messages only.  Returns per-chunk (batch, block) arrays
    in the given message order plus the batch count."""
    full = (1 << num_blocks) - 1
    nodes = int(max(srcs.max(), tgts.max())) + 1 if srcs.size else 1
    # per-node occupancy columns as plain Python int lists, grown lazily
    # (an index past a column's length reads as 0) — scalar probes and
    # updates on them are several times cheaper than numpy item access
    src_cols: List[List[int]] = [[] for _ in range(nodes)]
    tgt_cols: List[List[int]] = [[] for _ in range(nodes)]
    num_batches = 0
    first_open: Dict[int, int] = defaultdict(int)
    run_batch: List[int] = []
    run_mask: List[int] = []
    run_take: List[int] = []
    prev_key = None
    prev_batch = -1
    prev_free = 0
    srcs_l = srcs.tolist()
    tgts_l = tgts.tolist()
    counts_l = counts.tolist()
    for m in range(len(srcs_l)):
        src = srcs_l[m]
        tgt = tgts_l[m]
        remaining = counts_l[m]
        key = (src, tgt)
        scol = src_cols[src]
        tcol = tgt_cols[tgt]
        # a run only ever conflicts with its *own* placements, so the open
        # suffix seen at run start stays valid for the whole run: the
        # reference greedy's later scans (always from prev_batch + 1) see
        # exactly these masks
        if key == prev_key:
            scan_from = prev_batch + 1
            if prev_free:
                take = min(remaining, prev_free.bit_count())
                mask = 0
                rest = prev_free
                for _ in range(take):
                    bit = rest & -rest
                    mask |= bit
                    rest &= ~bit
                run_batch.append(prev_batch)
                run_mask.append(mask)
                run_take.append(take)
                scol[prev_batch] |= mask
                tcol[prev_batch] |= mask
                prev_free = rest
                remaining -= take
        else:
            fo = first_open[src]
            ls = len(scol)
            while fo < num_batches and fo < ls and scol[fo] == full:
                fo += 1
            first_open[src] = fo
            scan_from = fo
        if remaining and scan_from < num_batches \
                and remaining <= 4 * num_blocks:
            # short run: a scalar scan with early exit (the first open
            # batch is almost always within a step or two).  If the scan
            # runs dry every batch past scan_from is closed for this key,
            # so falling through to the append path is correct.
            ls = len(scol)
            lt = len(tcol)
            for batch_index in range(scan_from, num_batches):
                used = (scol[batch_index] if batch_index < ls else 0) \
                    | (tcol[batch_index] if batch_index < lt else 0)
                free = ~used & full
                if not free:
                    continue
                pc = free.bit_count()
                if remaining < pc:
                    take = remaining
                    mask = 0
                    rest = free
                    for _ in range(take):
                        bit = rest & -rest
                        mask |= bit
                        rest &= ~bit
                else:
                    take = pc
                    mask = free
                    rest = 0
                run_batch.append(batch_index)
                run_mask.append(mask)
                run_take.append(take)
                if batch_index >= ls:
                    scol.extend([0] * (batch_index + 1 - ls))
                    ls = batch_index + 1
                if batch_index >= lt:
                    tcol.extend([0] * (batch_index + 1 - lt))
                    lt = batch_index + 1
                scol[batch_index] |= mask
                tcol[batch_index] |= mask
                prev_batch = batch_index
                prev_free = rest
                remaining -= take
                if not remaining:
                    break
        elif remaining and scan_from < num_batches:
            ls = len(scol)
            lt = len(tcol)
            open_masks = np.array(
                [~((scol[b] if b < ls else 0)
                   | (tcol[b] if b < lt else 0)) & full
                 for b in range(scan_from, num_batches)], dtype=np.int64)
            nz = np.flatnonzero(open_masks)
            if nz.size:
                free_m = open_masks[nz]
                pc = np.bitwise_count(free_m).astype(np.int64)
                cum = np.cumsum(pc)
                k = int(np.searchsorted(cum, remaining))
                if k >= nz.size:
                    # every open batch is fully consumed
                    use_b = (scan_from + nz).tolist()
                    use_m = free_m.tolist()
                    use_t = pc.tolist()
                    remaining -= int(cum[-1])
                    prev_free = 0
                else:
                    # batches before k are fully consumed; batch k takes
                    # its lowest remaining bits
                    use_b = (scan_from + nz[:k + 1]).tolist()
                    use_m = free_m[:k + 1].tolist()
                    use_t = pc[:k + 1].tolist()
                    last_take = remaining - (int(cum[k - 1]) if k else 0)
                    mask = 0
                    rest = int(free_m[k])
                    for _ in range(last_take):
                        bit = rest & -rest
                        mask |= bit
                        rest &= ~bit
                    use_m[k] = mask
                    use_t[k] = last_take
                    prev_free = rest
                    remaining = 0
                prev_batch = use_b[-1]
                run_batch.extend(use_b)
                run_mask.extend(use_m)
                run_take.extend(use_t)
                top = use_b[-1] + 1
                if top > ls:
                    scol.extend([0] * (top - ls))
                if top > lt:
                    tcol.extend([0] * (top - lt))
                for b, mk in zip(use_b, use_m):
                    scol[b] |= mk
                    tcol[b] |= mk
        if remaining:
            # nothing open at or past the scan head: the reference greedy
            # appends one batch per iteration, each taking the lowest
            # remaining bits — place the whole tail at once
            n_full, leftover = divmod(remaining, num_blocks)
            if n_full:
                run_batch.extend(range(num_batches, num_batches + n_full))
                run_mask.extend([full] * n_full)
                run_take.extend([num_blocks] * n_full)
                scol.extend([0] * (num_batches - len(scol)))
                scol.extend([full] * n_full)
                tcol.extend([0] * (num_batches - len(tcol)))
                tcol.extend([full] * n_full)
                num_batches += n_full
                prev_batch = num_batches - 1
                prev_free = 0
            if leftover:
                mask = (1 << leftover) - 1
                run_batch.append(num_batches)
                run_mask.append(mask)
                run_take.append(leftover)
                scol.extend([0] * (num_batches - len(scol)))
                scol.append(mask)
                tcol.extend([0] * (num_batches - len(tcol)))
                tcol.append(mask)
                prev_batch = num_batches
                prev_free = full & ~mask
                num_batches += 1
        prev_key = key
    takes = np.array(run_take, dtype=np.int64)
    batch_out = np.repeat(np.array(run_batch, dtype=np.int64), takes)
    bit_rows = (np.array(run_mask, dtype=np.int64)[:, None]
                >> np.arange(num_blocks)[None, :]) & 1
    block_out = np.nonzero(bit_rows)[1]  # row-major: ascending per run
    return batch_out, block_out, num_batches


class BatchedRouter:
    """Routes one instance per trial, lockstep over the batch."""

    def __init__(self, net: BatchedClique,
                 profile: ProtocolProfile = SIMULATION):
        self.net = net
        self.profile = profile

    def route_shared(self, messages: Sequence[SuperMessage],
                     bits_stack: np.ndarray,
                     label: str = "routing") -> BatchedRoutingResult:
        """Shared-structure routing: every trial sends the *same* message
        structure (keys, lengths, targets — ``messages`` is the prototype)
        with per-trial payloads ``bits_stack[t, j]`` for message ``j``.

        Chunking and scheduling run **once** — the schedule depends only on
        structure, so it equals the schedule a serial run computes in every
        trial — and the waves run as one array program over the batch.
        Multi-target messages (broadcasts) are supported."""
        net = self.net
        with metrics.timed("routing.route"), \
                tracing.maybe_span(f"{label}/route",
                                   messages=len(messages) * net.trials,
                                   trials=net.trials):
            bits_stack = np.ascontiguousarray(bits_stack, dtype=np.uint8)
            if bits_stack.ndim != 3 or bits_stack.shape[:2] != (
                    net.trials, len(messages)):
                raise ValueError(
                    f"bits_stack must be (trials={net.trials}, "
                    f"messages={len(messages)}, L); got {bits_stack.shape}")
            if any(len(m.bits) != bits_stack.shape[2] for m in messages):
                raise ValueError("shared routing needs equal-length messages "
                                 "matching bits_stack's last axis")
            length, code = self.profile.select_routing_code(
                net.n, net.adversary.alpha)
            capacity = max(1, code.k)
            chunks = SuperMessageRouter._split_into_chunks(None, messages,
                                                           capacity)
            batches = SuperMessageRouter._schedule_blocks(chunks,
                                                          net.n // length)
            plan = WavePlan.from_schedule(messages, chunks, batches,
                                          capacity, net.trials)
            return route_waves(net.round, net.n, net.bandwidth, code, length,
                               plan, bits_stack, label)

    def route_grouped(self, sources: np.ndarray, slots: np.ndarray,
                      sizes: np.ndarray, targets: np.ndarray,
                      bits_stack: np.ndarray,
                      label: str = "routing") -> BatchedRoutingResult:
        """Grouped routing for *structure-shared* routings with per-trial
        node ids: every trial sends the same number of messages with the
        same bit lengths and slots, but message ``m``'s source and (single)
        target node are per-trial values ``sources[t, m]`` /
        ``targets[t, m]`` (e.g. the adaptive compiler's partition-dependent
        concentration and gather steps, nonadaptive's shift-dependent
        return step).

        Chunk structure (counts, offsets, sizes) is computed once; each
        trial's greedy schedule runs at message-run granularity
        (:func:`_grouped_greedy`), placement-for-placement identical to the
        serial scheduler on that trial's key-sorted message list.  Raises
        :class:`CellUnbatchable` when per-trial batch counts diverge."""
        with metrics.timed("routing.route"), \
                tracing.maybe_span(f"{label}/route",
                                   messages=int(np.asarray(sizes).size)
                                   * self.net.trials,
                                   trials=self.net.trials):
            return self._route_grouped(sources, slots, sizes, targets,
                                       bits_stack, label)

    def _route_grouped(self, sources, slots, sizes, targets, bits_stack,
                       label) -> BatchedRoutingResult:
        net = self.net
        n, trials = net.n, net.trials
        sources = np.asarray(sources, dtype=np.int64)
        slots = np.asarray(slots, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        bits_stack = np.ascontiguousarray(bits_stack, dtype=np.uint8)
        num_messages = sizes.size
        if sources.shape != (trials, num_messages) \
                or targets.shape != (trials, num_messages) \
                or slots.shape != (num_messages,):
            raise ValueError("sources/targets must be (trials, M), "
                             "slots (M,)")
        if bits_stack.ndim != 3 or bits_stack.shape[:2] != (trials,
                                                            num_messages):
            raise ValueError(
                f"bits_stack must be (trials={trials}, M={num_messages}, "
                f"Lmax); got {bits_stack.shape}")
        if num_messages == 0 or sizes.min() < 1:
            raise ValueError("grouped routing needs non-empty messages")
        length, code = self.profile.select_routing_code(
            n, net.adversary.alpha)
        capacity = max(1, code.k)
        num_blocks = n // length
        if num_blocks < 1:
            raise ProfileError("codeword longer than the network")
        if num_blocks > 62:
            raise CellUnbatchable(
                "grouped scheduler handles at most 62 relay blocks")

        # canonical chunk arrays, shared by every trial
        n_chunks = -(-sizes // capacity)
        total_chunks = int(n_chunks.sum())
        chunk_msg = np.repeat(np.arange(num_messages), n_chunks)
        c_start = np.cumsum(n_chunks) - n_chunks
        within = np.arange(total_chunks) - np.repeat(c_start, n_chunks)
        chunk_start = within * capacity
        chunk_size = np.minimum(capacity, sizes[chunk_msg] - chunk_start)

        # per-trial schedules at message-run granularity, scattered into
        # the canonical chunk numbering through each trial's key order
        chunk_batch = np.empty((trials, total_chunks), dtype=np.int64)
        chunk_block = np.empty((trials, total_chunks), dtype=np.int64)
        batch_counts = set()
        num_batches = 0
        for t in range(trials):
            order = np.lexsort((slots, sources[t]))
            so = sources[t][order]
            sl = slots[order]
            if np.any((so[1:] == so[:-1]) & (sl[1:] == sl[:-1])):
                raise ValueError("duplicate super-message key in trial "
                                 f"{t}")
            batch_o, block_o, num_batches = _grouped_greedy(
                so, targets[t][order], n_chunks[order], num_blocks)
            counts_o = n_chunks[order]
            canon = np.repeat(c_start[order], counts_o) \
                + (np.arange(total_chunks)
                   - np.repeat(np.cumsum(counts_o) - counts_o, counts_o))
            chunk_batch[t, canon] = batch_o
            chunk_block[t, canon] = block_o
            batch_counts.add(num_batches)
        if len(batch_counts) > 1:
            raise CellUnbatchable(
                f"per-trial schedules diverge: batch counts "
                f"{sorted(batch_counts)}")

        plan = WavePlan(chunk_msg=chunk_msg, chunk_start=chunk_start,
                        chunk_size=chunk_size, sizes=sizes,
                        fanout=np.ones(num_messages, dtype=np.int64),
                        sources=sources, targets=targets, batch=chunk_batch,
                        block=chunk_block, num_batches=num_batches)
        return route_waves(net.round, n, net.bandwidth, code, length, plan,
                           bits_stack, label)


def broadcast_many(router: BatchedRouter, source: int,
                   bits_stack: np.ndarray,
                   label: str = "broadcast") -> np.ndarray:
    """Batched Corollary 4.8: node ``source`` broadcasts trial ``t``'s row
    ``bits_stack[t]`` in trial ``t``; returns the ``(trials, n, bits)``
    tensor of per-node received strings."""
    n = router.net.n
    bits_stack = np.asarray(bits_stack, dtype=np.uint8)
    message = SuperMessage.make(source, 0, bits_stack[0], targets=range(n))
    result = router.route_shared([message], bits_stack[:, None, :],
                                 label=label)
    # targets are 0..n-1, so target-sorted pairs index directly by node id
    return result.pair_bits()
