"""The serial Congested Clique: one protocol instance, run on the engine as
a batch of one.

:class:`CongestedClique` is a shape adapter over a ``trials=1``
:class:`~repro.cliquesim.batched.BatchedClique`, the one implementation of
Section 2's round (width checks, the adversary's move, budget validation,
clamping, round and bit counting; its module describes the model).
Payloads here are ``(n, n)`` int64 matrices — entry ``(u, v)`` is the value
``u`` sends to ``v``, ``-1`` means "no message" — and every method adds the
batch axis, calls the engine method of the same name and strips the axis
again.

A :class:`~repro.adversary.batched.BatchedAdversary` — the non-adaptive
adversary and the stochastic channels, built for one seed — goes to the
engine as it is.  A :class:`~repro.adversary.base.NullAdversary` becomes
the engine's fault-free
:class:`~repro.adversary.batched.BatchedNullAdversary`.  Any other
:class:`~repro.adversary.base.Adversary` (the rushing adaptive family, the
FP23 nemesis, a user adversary) rides in a one-slot
:class:`~repro.adversary.batched.PerTrialAdversaryBatch`, so it sees
exactly the serial :class:`~repro.adversary.base.RoundView` of its trial,
and an exception it raises reaches the caller unchanged.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.adversary.base import Adversary, NullAdversary, RoundOutcome
from repro.adversary.batched import (
    BatchedAdversary,
    BatchedNullAdversary,
    PerTrialAdversaryBatch,
    PerTrialFailure,
)
from repro.cliquesim.batched import (
    MAX_ROUND_WIDTH,
    BandwidthViolation,
    BatchedClique,
)

__all__ = ["MAX_ROUND_WIDTH", "BandwidthViolation", "CongestedClique"]


def _serial(method, *args):
    """Call an engine method; a crash of the serial adversary surfaces as
    the adversary's own exception, not the per-trial wrapper's."""
    try:
        return method(*args)
    except PerTrialFailure as failure:
        cause = failure.cause
    raise cause


class CongestedClique:
    """A bandwidth-B Congested Clique with an attached mobile adversary."""

    def __init__(self, n: int, bandwidth: int = 1,
                 adversary: Union[Adversary, BatchedAdversary, None] = None,
                 record_full_history: bool = False,
                 keep_history: bool = True):
        self.adversary = adversary if adversary is not None else NullAdversary()
        fault_free = isinstance(self.adversary, NullAdversary)
        if fault_free:
            engine_adversary = BatchedNullAdversary()
        elif isinstance(self.adversary, BatchedAdversary):
            engine_adversary = self.adversary
        else:
            engine_adversary = PerTrialAdversaryBatch([self.adversary])
        # keep_history=False keeps only the scalar counters — one
        # RoundOutcome per round is real memory over a long campaign.  An
        # adversary that reads view.history forces it back on (it would
        # otherwise see an empty record), as does record_full_history.
        self.engine = BatchedClique(
            n, 1, bandwidth=bandwidth, adversary=engine_adversary,
            keep_history=keep_history or record_full_history)
        if fault_free:
            self.adversary.begin_protocol(n)
        self.engine.record_full_history = record_full_history
        self.n = n
        self.bandwidth = bandwidth

    @property
    def history(self) -> List[RoundOutcome]:
        return self.engine.histories[0]

    @property
    def rounds_used(self) -> int:
        return self.engine.rounds_used

    @property
    def bits_sent(self) -> int:
        return int(self.engine.bits_sent[0])

    @property
    def entries_corrupted(self) -> int:
        return int(self.engine.entries_corrupted[0])

    # -- rounds --------------------------------------------------------------
    def round(self, intended: np.ndarray, width: Optional[int] = None,
              label: str = "") -> np.ndarray:
        """Execute one synchronous round and return the delivered matrix."""
        intended = np.asarray(intended, dtype=np.int64)
        return _serial(self.engine.round, intended[None], width, label)[0]

    def round_many(self, intended_stack: np.ndarray,
                   widths: Sequence[int],
                   labels: Sequence[str]) -> np.ndarray:
        """Execute ``len(widths)`` consecutive rounds from a pre-staged
        ``(rounds, n, n)`` payload stack and return the delivered stack —
        the same as one :meth:`round` per entry, with the fault-free
        clique's whole stack validated and booked at once."""
        intended_stack = np.asarray(intended_stack, dtype=np.int64)
        return _serial(self.engine.round_many, intended_stack[:, None],
                       widths, labels)[:, 0]

    # -- transports ----------------------------------------------------------
    def exchange(self, intended: np.ndarray, width: int,
                 label: str = "") -> np.ndarray:
        """Send ``width``-bit payloads, split into ``ceil(width / B)``
        rounds when width exceeds the bandwidth.  An entry comes back
        ``-1`` if any of its chunks arrived as "no message" (the adversary
        may cause that only across faulty edges)."""
        intended = np.asarray(intended, dtype=np.int64)
        return _serial(self.engine.exchange, intended[None], width, label)[0]

    def exchange_words(self, words: np.ndarray, present: np.ndarray,
                       width: int, label: str = "",
                       labels: Optional[Sequence[str]] = None,
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Send ``width``-bit payloads held as packed 64-bit word planes:
        ``words[u, v, :]`` are the payload words u sends v (little-endian,
        :func:`repro.utils.bits.pack_bits` layout) and ``present[u, v]``
        gates sending.

        Returns ``(delivered, dropped)``: the delivered word tensor with
        dropped chunks zero-filled, and an ``(n, n)`` mask that is True
        exactly where a sent payload had at least one chunk arrive as "no
        message" — without it a dropped payload would be indistinguishable
        from a legitimate all-zero one.  ``labels`` overrides the per-chunk
        round labels (one per chunk)."""
        delivered, dropped = _serial(
            self.engine.exchange_words, np.asarray(words)[None],
            np.asarray(present)[None], width, label, labels)
        return delivered[0], dropped[0]

    def exchange_bits(self, bits: np.ndarray, present: np.ndarray,
                      label: str = "") -> Tuple[np.ndarray, np.ndarray]:
        """Send an arbitrary-width bit tensor: ``bits[u, v, :]`` are the
        payload bits u sends v (``present[u, v]`` gates sending).  Returns
        ``(delivered_bits, dropped)`` with :meth:`exchange_words`' drop
        mask; callers that already hold packed words should use that."""
        delivered, dropped = _serial(
            self.engine.exchange_bits, np.asarray(bits)[None],
            np.asarray(present)[None], label)
        return delivered[0], dropped[0]

    def fault_free(self) -> bool:
        return isinstance(self.adversary, NullAdversary)

    def __repr__(self) -> str:
        return (f"CongestedClique(n={self.n}, B={self.bandwidth}, "
                f"rounds={self.rounds_used}, "
                f"adversary={type(self.adversary).__name__})")
