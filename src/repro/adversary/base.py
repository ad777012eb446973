"""Adversary interfaces for the mobile α-BD model (Section 2).

The engine calls the adversary once per round with a :class:`RoundView`:

1. :meth:`Adversary.select_edges` returns the round's fault set ``F_i``
   (symmetric boolean matrix).  The engine validates the faulty-degree
   budget — an adversary cannot cheat.
2. :meth:`Adversary.corrupt` returns replacement payloads for the faulty
   edges (both directions — controlling an edge means controlling both
   directed channels across it).

Adaptivity is an *information* distinction, enforced structurally:

* the non-adaptive adversary
  (:class:`~repro.adversary.nonadaptive.BatchedNonAdaptiveAdversary`)
  chooses its fault sets through an edge strategy that receives only the
  round index and the adversary's private schedule stream (the F_i
  schedule is fixed "at the beginning of the simulation");
* content corruption may use full history and the intended messages of the
  current round in *both* models (footnote 3 of the paper);
* an adaptive (rushing) adversary's ``select_edges`` receives the full
  :class:`RoundView`, including the messages the nodes intend to send this
  round and all history (Section 2's rushing adaptive adversary).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.adversary.budget import max_faulty_degree
from repro.utils.rng import derive


@dataclass
class RoundView:
    """What the adversary may look at when acting in round ``index``."""

    index: int
    width: int                       # bits per message this round
    intended: np.ndarray             # (n, n) payloads the nodes want to send
    history: List["RoundOutcome"]    # all previous rounds
    #: the protocol's public round label; an adaptive adversary knowing the
    #: protocol knows which logical step each round implements, so exposing
    #: it only makes the model honest (it is deducible from the round index)
    label: str = ""


@dataclass
class RoundOutcome:
    """Engine record of one executed round."""

    index: int
    width: int
    intended: np.ndarray
    delivered: np.ndarray
    fault_edges: Optional[np.ndarray] = None
    corrupted_entries: int = 0
    #: bits actually sent this round (width x off-diagonal non-"-1" entries)
    bits: int = 0
    label: str = ""
    extra: dict = field(default_factory=dict)


class Adversary(abc.ABC):
    """A mobile Byzantine edge adversary with faulty-degree budget alpha*n."""

    #: set True by subclasses whose ``select_edges``/``corrupt`` read
    #: ``view.history``.  Engines running with ``keep_history=False`` (the
    #: memory-lean mode used by long batched campaigns) force history
    #: recording back on when this flag is set, so a history-reading
    #: adversary always sees the full round record.  None of the shipped
    #: adversaries read history (footnote 3's content adaptivity is served
    #: through ``view.intended``), so the default is False.
    reads_history: bool = False

    def __init__(self, alpha: float, seed: int = 0):
        if not 0 <= alpha <= 1:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = alpha
        self.seed = seed
        self.n: Optional[int] = None
        self._rng = derive(seed, "adversary")

    def begin_protocol(self, n: int) -> None:
        """Called by the engine before round 0."""
        self.n = n
        self._rng = derive(self.seed, f"adversary:{n}")

    @property
    def budget(self) -> int:
        if self.n is None:
            raise RuntimeError("begin_protocol was never called")
        return max_faulty_degree(self.n, self.alpha)

    @abc.abstractmethod
    def select_edges(self, view: RoundView) -> np.ndarray:
        """Return the symmetric fault set F_i for this round."""

    def corrupt(self, view: RoundView, edges: np.ndarray) -> np.ndarray:
        """Return the delivered payload matrix.

        Default content attack: replace every message crossing a faulty edge
        (in both directions) with an independent uniformly random value of
        the round's width — including fabricating messages on edges that
        carried none.  Subclasses override for smarter content attacks.
        """
        delivered = view.intended.copy()
        mask = np.asarray(edges, dtype=bool)
        count = int(mask.sum())
        if count:
            high = 1 << view.width
            noise = self._rng.integers(0, high, size=count, dtype=np.int64)
            delivered[mask] = noise
        return delivered


class NullAdversary(Adversary):
    """No corruption at all — the fault-free Congested Clique."""

    def __init__(self):
        super().__init__(alpha=0.0)

    def select_edges(self, view: RoundView) -> np.ndarray:
        return np.zeros((self.n, self.n), dtype=bool)

    def corrupt(self, view: RoundView, edges: np.ndarray) -> np.ndarray:
        return view.intended.copy()
