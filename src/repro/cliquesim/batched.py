"""The Congested Clique engine (Section 2's communication model), run as a
stack of ``trials`` protocol instances in lockstep.

``n`` fully-connected nodes communicate in synchronous rounds; in each round
every ordered pair may carry up to ``B`` bits.  A round's payloads are a
``(trials, n, n)`` int64 stack where entry ``(t, u, v)`` is the value ``u``
sends to ``v`` in trial ``t`` and ``-1`` means "no message".  The engine:

* enforces the per-round width limit;
* hands the round to the attached adversary
  (:class:`~repro.adversary.batched.BatchedAdversary`), whose fault sets
  are validated against the faulty-degree budget — the adversary cannot
  cheat: deliveries are clamped so only entries across a trial's own
  faulty edges may differ from that trial's intended payloads;
* counts rounds and bits, which is what the Table 1 benchmarks measure.

KT1 is implicit: node ids are ``0..n-1`` and every protocol may use them.
The diagonal (a node "sending to itself") is free bookkeeping, never
corrupted and never counted as communication.

A campaign cell (same protocol, n, width, bandwidth, adversary kind and
alpha) runs all of its trials as one stack, so per-round bookkeeping,
payload validation and chunk staging each run once over the whole stack,
and the adversary acts on ``(trials, n, n)`` masks with independent
per-trial RNG streams.  Every trial sees the same round sequence (index,
width, label), which is exactly the situation in a campaign cell — the
protocols are data-independent in their round *structure*.  Counters
(``bits_sent``, ``entries_corrupted``, per-trial ``dropped`` masks) are
``(trials,)`` vectors; ``rounds_used`` is a scalar shared by the batch.
Running a batched cell is bit-identical to running each of its trials
alone at ``trials=1``, which is how the serial
:class:`~repro.cliquesim.network.CongestedClique` runs every round.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.adversary.base import RoundOutcome
from repro.adversary.batched import (
    BatchedAdversary,
    BatchedNullAdversary,
    BatchRoundView,
)
from repro.adversary.budget import validate_fault_sets
from repro.obs import metrics, tracing
from repro.utils.bits import WORD_BITS, pack_bits, unpack_bits, words_per_width

#: per-round payloads live in int64 matrices with -1 as "no message", so a
#: single round can carry at most 62 bits per edge without sign trouble
MAX_ROUND_WIDTH = 62


class BandwidthViolation(Exception):
    """A protocol tried to send more bits per edge than the model allows."""


class BatchedClique:
    """``trials`` bandwidth-B Congested Cliques driven in lockstep."""

    #: keep every round's intended, delivered and fault-edge matrices in
    #: the history (the serial view's ``record_full_history``)
    record_full_history = False

    def __init__(self, n: int, trials: int, bandwidth: int = 1,
                 adversary: Optional[BatchedAdversary] = None,
                 keep_history: bool = False):
        if n < 2:
            raise ValueError("need at least two nodes")
        if trials < 1:
            raise ValueError("need at least one trial")
        if not 1 <= bandwidth <= MAX_ROUND_WIDTH:
            raise ValueError(
                f"bandwidth must be in [1, {MAX_ROUND_WIDTH}] bits")
        self.n = n
        self.trials = trials
        self.bandwidth = bandwidth
        self.adversary = (adversary if adversary is not None
                          else BatchedNullAdversary())
        self.adversary.begin_protocol(n, trials)
        #: history defaults OFF here (campaign cells only need counters);
        #: an adversary that reads view.history forces it on
        self.keep_history = keep_history or self.adversary.reads_history
        self.histories: List[List[RoundOutcome]] = [[] for _ in range(trials)]
        self.rounds_used = 0
        self.bits_sent = np.zeros(trials, dtype=np.int64)
        self.entries_corrupted = np.zeros(trials, dtype=np.int64)
        #: extra per-trial rounds booked by :meth:`exchange_words_ragged`
        #: (zero for purely lockstep protocols)
        self.rounds_ragged = np.zeros(trials, dtype=np.int64)
        self._ragged_done = False

    @property
    def rounds_by_trial(self) -> np.ndarray:
        """Per-trial round counts: the shared lockstep prefix plus any
        trial-specific ragged-tail rounds."""
        return self.rounds_used + self.rounds_ragged

    # -- core round ----------------------------------------------------------
    def _check_width(self, width: int) -> None:
        if width > self.bandwidth:
            raise BandwidthViolation(
                f"round width {width} exceeds bandwidth {self.bandwidth}")
        if width < 1:
            raise ValueError("round width must be at least 1 bit")

    def _check_payload(self, intended: np.ndarray, width: int) -> None:
        if intended.shape[-3:] != (self.trials, self.n, self.n):
            raise ValueError(
                f"payload stack must end in ({self.trials}, {self.n}, "
                f"{self.n}), got {intended.shape}")
        high = np.int64(1) << width
        if intended.min() < -1 or intended.max() >= high:
            raise BandwidthViolation(
                f"payload values must be -1 or fit in {width} bits")

    def _fast_booking(self) -> bool:
        """True when per-round accounting can collapse to plain counter
        arithmetic (no history, tracer, or metrics consumers); the counter
        values stay bit-identical either way."""
        return (not self.keep_history and tracing.active() is None
                and not metrics.enabled())

    def _off_diagonal(self, mask: np.ndarray) -> np.ndarray:
        """Off-diagonal True entries of every ``(n, n)`` matrix of a bool
        stack, as plain ``add.reduce`` calls over the flattened matrices and
        their strided diagonals: one ``count_nonzero(..., axis=...)`` call
        costs more than all of a one-trial round's counting."""
        flat = mask.reshape(*mask.shape[:-2], self.n * self.n)
        return (np.add.reduce(flat, axis=-1)
                - np.add.reduce(flat[..., ::self.n + 1], axis=-1))

    def _corrupted(self, intended: np.ndarray,
                   delivered: np.ndarray) -> np.ndarray:
        """Per-trial count of delivered entries that differ from intended
        (the diagonal never does)."""
        return np.add.reduce((delivered != intended).reshape(self.trials, -1),
                             axis=1)

    def _book_round_many(self, intended: np.ndarray, delivered: np.ndarray,
                         edges: Optional[np.ndarray], width: int,
                         label: str, sent_entries: np.ndarray) -> None:
        """Per-round accounting for the whole batch: one reduction over the
        ``(trials, n, n)`` stack per counter instead of one pass per trial.
        ``edges`` is None on the fault-free clique; ``sent_entries`` is the
        per-trial :meth:`_off_diagonal` count of ``intended >= 0``, which
        ``round_many`` takes for a whole stack of rounds at once."""
        if edges is None:
            corrupted = np.zeros(self.trials, dtype=np.int64)
        else:
            corrupted = self._corrupted(intended, delivered)
        bits = width * sent_entries
        if self.keep_history:
            full = self.record_full_history
            if full and edges is None:
                edges = np.zeros(intended.shape, dtype=bool)
            for t in range(self.trials):
                self.histories[t].append(RoundOutcome(
                    index=self.rounds_used, width=width,
                    intended=intended[t] if full else None,
                    delivered=delivered[t] if full else None,
                    fault_edges=edges[t] if full else None,
                    corrupted_entries=int(corrupted[t]), bits=int(bits[t]),
                    label=label))
        self.rounds_used += 1
        self.bits_sent += bits
        self.entries_corrupted += corrupted
        if metrics.enabled():
            metrics.count("net.rounds")
            metrics.count("net.bits", int(bits.sum()))
        tracer = tracing.active()
        if tracer is not None:
            tracer.round_event(index=self.rounds_used - 1, label=label,
                               width=width, bits=int(bits.sum()),
                               corrupted=int(corrupted.sum()))

    def round(self, intended: np.ndarray, width: Optional[int] = None,
              label: str = "") -> np.ndarray:
        """Execute one synchronous round in every trial; returns the
        ``(trials, n, n)`` delivered stack."""
        if self._ragged_done:
            raise RuntimeError(
                "a ragged exchange must be the final transport: per-trial "
                "round indices have already diverged")
        width = self.bandwidth if width is None else width
        self._check_width(width)
        intended = np.asarray(intended, dtype=np.int64)
        self._check_payload(intended, width)
        sent_entries = self._off_diagonal(intended >= 0)
        if self.fault_free():
            self._book_round_many(intended, intended, None, width, label,
                                  sent_entries)
            return intended.copy()

        view = BatchRoundView(index=self.rounds_used, width=width,
                              intended=intended.copy(),
                              histories=self.histories, label=label)
        delivered, edges = self._adversary_step(view, intended)
        self._book_round_many(intended, delivered, edges, width, label,
                              sent_entries)
        return delivered

    def _adversary_step(self, view: BatchRoundView, intended: np.ndarray,
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """The adversary's move in one round: select every trial's fault
        set, validate it against the degree budget, corrupt, clip to each
        trial's round width (``view.widths`` on a ragged round) and clamp.
        Trials outside ``view.active`` get no faulty edges.  Returns
        ``(delivered, edges)``."""
        edges = np.asarray(self.adversary.select_edges_many(view), dtype=bool)
        if view.active is not None:
            edges[~view.active] = False
        # Byzantine-node models validate at degree budget
        # ``validation_alpha`` while codes size from ``alpha``
        validate_fault_sets(edges, self.n,
                            getattr(self.adversary, "validation_alpha",
                                    self.adversary.alpha))
        proposed = np.asarray(self.adversary.corrupt_many(view, edges),
                              dtype=np.int64)
        if proposed.shape != intended.shape:
            raise ValueError("adversary returned a malformed delivery stack")
        if view.widths is None:
            high = narrowest = np.int64(1) << view.width
        else:
            high = (np.int64(1) << view.widths)[:, None, None]
            narrowest = high.min()
        # a value under the narrowest trial's bound needs no clip
        if proposed.min() < -1 or proposed.max() >= narrowest:
            proposed = np.clip(proposed, -1, high - 1)
        # clamp: only entries across a trial's own faulty edges may change,
        # and never a diagonal one (one strided slice, a view of the
        # C-ordered stack)
        delivered = np.ascontiguousarray(np.where(edges, proposed, intended))
        diagonal = np.s_[:, ::self.n + 1]
        delivered.reshape(self.trials, -1)[diagonal] = \
            intended.reshape(self.trials, -1)[diagonal]
        return delivered, edges

    def round_many(self, intended_stack: np.ndarray,
                   widths: Sequence[int],
                   labels: Sequence[str]) -> np.ndarray:
        """Execute consecutive rounds from a ``(rounds, trials, n, n)``
        payload stack; fault-free batches validate once and skip the
        adversary machinery entirely."""
        intended_stack = np.asarray(intended_stack, dtype=np.int64)
        count = len(widths)
        if intended_stack.shape != (count, self.trials, self.n, self.n):
            raise ValueError(
                f"expected payload stack ({count}, {self.trials}, "
                f"{self.n}, {self.n}), got {intended_stack.shape}")
        if len(labels) != count:
            raise ValueError("one label per round required")
        if count == 0:
            return intended_stack.copy()
        with metrics.timed("net.round_many"):
            if not self.fault_free():
                return np.stack([
                    self.round(intended_stack[i], widths[i], labels[i])
                    for i in range(count)])
            max_width = max(widths)
            self._check_width(max_width)
            for i, width in enumerate(widths):
                self._check_width(width)
                if width < max_width:
                    self._check_payload(intended_stack[i], width)
            self._check_payload(intended_stack, max_width)
            sent_entries = self._off_diagonal(intended_stack >= 0)
            if self._fast_booking():
                self.rounds_used += count
                self.bits_sent += (np.asarray(widths, dtype=np.int64)[:, None]
                                   * sent_entries).sum(axis=0)
            else:
                for i, width in enumerate(widths):
                    self._book_round_many(intended_stack[i],
                                          intended_stack[i], None, width,
                                          labels[i], sent_entries[i])
            return intended_stack.copy()

    # -- helpers -------------------------------------------------------------
    def exchange(self, intended: np.ndarray, width: int,
                 label: str = "") -> np.ndarray:
        """Batched chunked exchange: ``(trials, n, n)`` payloads of
        ``width`` bits, split into ``ceil(width / B)`` rounds when width
        exceeds the bandwidth; dropped entries come back as -1."""
        intended = np.asarray(intended, dtype=np.int64)
        if width <= self.bandwidth:
            return self.round(intended, width, label)
        present = intended >= 0
        plane = np.where(present, intended, 0).astype(np.uint64)[..., None]
        spans = self._chunk_spans(width, self.bandwidth)
        delivered, dropped = self.exchange_words(
            plane, present, width,
            labels=[f"{label}[chunk{part}]" for part in range(len(spans))])
        out = delivered[..., 0].astype(np.int64)
        return np.where(dropped | ~present, -1, out)

    @staticmethod
    def _chunk_spans(width: int, bandwidth: int):
        return [(start, min(bandwidth, width - start))
                for start in range(0, width, bandwidth)]

    def exchange_words(self, words: np.ndarray, present: np.ndarray,
                       width: int, label: str = "",
                       labels: Optional[Sequence[str]] = None,
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Trial-batched packed-word transport: ``words[t, u, v, :]`` are
        the payload words u sends v in trial t, ``present[t, u, v]`` gates
        sending.  One vectorized chunk gather stages every round of every
        trial; returns ``(delivered, dropped)`` where ``dropped`` is the
        per-trial ``(trials, n, n)`` mask of silenced sent payloads."""
        words = np.asarray(words, dtype=np.uint64)
        present = np.asarray(present, dtype=bool)
        n_words = words_per_width(width)
        if words.ndim != 4 or words.shape[:3] != (self.trials, self.n, self.n) \
                or words.shape[3] < n_words:
            raise ValueError(
                f"expected shape ({self.trials}, {self.n}, {self.n}, "
                f">={n_words})")
        if width == 0:
            return np.zeros_like(words), np.zeros(
                (self.trials, self.n, self.n), dtype=bool)
        spans = self._chunk_spans(width, self.bandwidth)
        if labels is None:
            labels = [f"{label}[bits{start}]" for start, _ in spans]
        elif len(labels) != len(spans):
            raise ValueError(f"expected {len(spans)} labels")
        starts = np.array([s for s, _ in spans], dtype=np.int64)
        takes = np.array([t for _, t in spans], dtype=np.int64)
        word_of = starts // WORD_BITS
        offset = (starts % WORD_BITS).astype(np.uint64)
        masks = ((np.uint64(1) << takes.astype(np.uint64)) - np.uint64(1))
        # one gather + shift over the whole stack: chunk p of every edge of
        # every trial at once
        value = words[..., word_of] >> offset
        straddle = (starts % WORD_BITS) + takes > WORD_BITS
        if straddle.any():
            carry = words[..., word_of[straddle] + 1] << (
                np.uint64(WORD_BITS) - offset[straddle])
            value[..., straddle] |= carry
        chunks = np.ascontiguousarray(
            (value & masks).astype(np.int64).transpose(3, 0, 1, 2))
        chunks[:, ~present] = -1
        with metrics.timed("net.exchange_words"):
            got = self.round_many(chunks, [int(t) for t in takes],
                                  list(labels))
        dropped = present & (got < 0).any(axis=0)
        tracer = tracing.active()
        if tracer is not None or metrics.enabled():
            n_dropped = int(np.count_nonzero(dropped))
            metrics.count("net.dropped_entries", n_dropped)
            if tracer is not None:
                tracer.transport_event(
                    label=label or (labels[0] if labels else ""),
                    width=width, chunks=len(spans), dropped=n_dropped)
        got = np.where(got < 0, 0, got).astype(np.uint64)
        out = np.zeros_like(words)
        for part, (start, take) in enumerate(spans):
            word, off = divmod(start, WORD_BITS)
            out[..., word] |= got[part] << np.uint64(off)
            if off + take > WORD_BITS:
                out[..., word + 1] |= got[part] >> np.uint64(
                    WORD_BITS - off)
        return out, dropped

    def exchange_words_ragged(self, words: np.ndarray, present: np.ndarray,
                              widths: np.ndarray, label: str = "",
                              ) -> Tuple[np.ndarray, np.ndarray]:
        """Packed-word transport with a *per-trial* width: trial ``t``
        moves ``widths[t]`` bits per present entry over
        ``ceil(widths[t] / B)`` rounds — exactly the chunk rounds a serial
        run of that trial would execute.  Trials whose width is exhausted
        stop participating (their adversary instances are not consulted,
        their counters stop), so per-trial round counts diverge; the extra
        rounds land in :attr:`rounds_ragged` and no lockstep round may
        follow.  Used by the adaptive compiler's query-answer exchange,
        whose width is a per-trial random quantity."""
        words = np.asarray(words, dtype=np.uint64)
        present = np.asarray(present, dtype=bool)
        widths = np.asarray(widths, dtype=np.int64)
        if widths.shape != (self.trials,):
            raise ValueError(f"expected ({self.trials},) per-trial widths")
        if widths.min() < 1:
            raise ValueError("ragged widths must be at least 1 bit")
        max_width = int(widths.max())
        if int(widths.min()) == max_width:
            return self.exchange_words(words, present, max_width,
                                       label=label)
        n_words = words_per_width(max_width)
        if words.ndim != 4 or words.shape[:3] != (self.trials, self.n,
                                                  self.n) \
                or words.shape[3] < n_words:
            raise ValueError(
                f"expected shape ({self.trials}, {self.n}, {self.n}, "
                f">={n_words})")
        sent_entries = self._off_diagonal(present)
        dropped = np.zeros((self.trials, self.n, self.n), dtype=bool)
        out = np.zeros_like(words)
        spans = self._chunk_spans(max_width, self.bandwidth)
        for part, (start, _) in enumerate(spans):
            active = widths > start
            takes = np.where(active,
                             np.minimum(self.bandwidth, widths - start), 0)
            word, off = divmod(start, WORD_BITS)
            value = words[..., word] >> np.uint64(off)
            if off and off + self.bandwidth > WORD_BITS \
                    and word + 1 < words.shape[3]:
                value = value | (words[..., word + 1]
                                 << np.uint64(WORD_BITS - off))
            masks = ((np.uint64(1) << takes.astype(np.uint64))
                     - np.uint64(1))[:, None, None]
            chunk = (value & masks).astype(np.int64)
            mask_send = present & active[:, None, None]
            intended = np.where(mask_send, chunk, np.int64(-1))
            label_p = f"{label}[bits{start}]"
            if self.fault_free():
                delivered = intended
                corrupted = np.zeros(self.trials, dtype=np.int64)
            else:
                view = BatchRoundView(
                    index=self.rounds_used + part, width=int(takes.max()),
                    intended=intended.copy(), histories=self.histories,
                    label=label_p, widths=takes.copy(),
                    active=active.copy())
                delivered, _ = self._adversary_step(view, intended)
                corrupted = self._corrupted(intended, delivered)
            bits = takes * np.where(active, sent_entries, 0)
            if self.keep_history:
                for t in range(self.trials):
                    if active[t]:
                        self.histories[t].append(RoundOutcome(
                            index=int(self.rounds_used
                                      + self.rounds_ragged[t]),
                            width=int(takes[t]), intended=None,
                            delivered=None, fault_edges=None,
                            corrupted_entries=int(corrupted[t]),
                            bits=int(bits[t]), label=label_p))
            if not self._fast_booking():
                metrics.count("net.rounds")
                metrics.count("net.bits", int(bits.sum()))
                tracer = tracing.active()
                if tracer is not None:
                    tracer.round_event(index=self.rounds_used + part,
                                       label=label_p,
                                       width=int(takes.max()),
                                       bits=int(bits.sum()),
                                       corrupted=int(corrupted.sum()))
            self.rounds_ragged += active
            self.bits_sent += bits
            self.entries_corrupted += corrupted
            dropped |= mask_send & (delivered < 0)
            got = np.where(delivered < 0, 0, delivered).astype(np.uint64)
            out[..., word] |= got << np.uint64(off)
            if off and off + self.bandwidth > WORD_BITS \
                    and word + 1 < out.shape[3]:
                out[..., word + 1] |= got >> np.uint64(WORD_BITS - off)
        self._ragged_done = True
        return out, dropped

    def exchange_bits(self, bits: np.ndarray, present: np.ndarray,
                      label: str = "") -> Tuple[np.ndarray, np.ndarray]:
        """Trial-batched arbitrary-width bit transport: packs the
        ``(trials, n, n, width)`` tensor into word planes once, moves the
        planes, unpacks once."""
        bits = np.asarray(bits, dtype=np.uint8)
        present = np.asarray(present, dtype=bool)
        if bits.ndim != 4 or bits.shape[:3] != (self.trials, self.n, self.n):
            raise ValueError(
                f"expected shape ({self.trials}, {self.n}, {self.n}, width)")
        width = bits.shape[3]
        delivered, dropped = self.exchange_words(pack_bits(bits), present,
                                                 width, label=label)
        if width == 0:
            return np.zeros_like(bits), dropped
        return unpack_bits(delivered, width), dropped

    def fault_free(self) -> bool:
        return isinstance(self.adversary, BatchedNullAdversary)

    def __repr__(self) -> str:
        return (f"BatchedClique(n={self.n}, trials={self.trials}, "
                f"B={self.bandwidth}, rounds={self.rounds_used}, "
                f"adversary={type(self.adversary).__name__})")
