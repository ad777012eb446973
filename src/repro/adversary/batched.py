"""Trial-batched adversary interfaces for the vmap execution engine.

A :class:`~repro.cliquesim.batched.BatchedClique` runs ``trials``
independent protocol instances in lockstep, so its adversary must commit a
fault set and replacement payloads for *every* trial each round.  The
contract mirrors the serial :class:`~repro.adversary.base.Adversary` with a
leading batch axis:

1. :meth:`BatchedAdversary.select_edges_many` returns a ``(trials, n, n)``
   boolean stack of symmetric fault sets — validated against the
   faulty-degree budget in one vectorized pass
   (:func:`~repro.adversary.budget.validate_fault_sets`);
2. :meth:`BatchedAdversary.corrupt_many` returns the ``(trials, n, n)``
   delivered payload stack; the engine clamps it so only entries across a
   trial's own faulty edges may differ from that trial's intended payloads.

Each oblivious adversary has one implementation, a
:class:`SeededBatchedAdversary`: every stream of trial ``t`` derives from
``seeds[t]``, so a batch over seeds ``[s1, ..., sk]`` runs exactly as ``k``
one-seed instances, and a serial run uses a one-seed instance (the
non-adaptive adversary of :mod:`repro.adversary.nonadaptive` and the
channels of :mod:`repro.faults.channels`).  :class:`PerTrialAdversaryBatch`
drives one serial :class:`~repro.adversary.base.Adversary` per trial
instead; it carries the adversaries that have no batched implementation —
the rushing adaptive family, which reads each round's intended payloads,
the FP23 nemesis and user adversaries — and the serial
:class:`~repro.cliquesim.network.CongestedClique` runs such an adversary as
a one-slot batch of this kind.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.adversary.base import Adversary, RoundOutcome, RoundView
from repro.adversary.budget import max_faulty_degree


class PerTrialFailure(Exception):
    """One wrapped per-trial adversary crashed inside a batched cell.

    Carries which trial failed so the vmap engine can degrade *that*
    trial to serial execution and keep batching the rest, instead of
    abandoning the whole cell.
    """

    def __init__(self, trial_index: int, cause: BaseException):
        super().__init__(
            f"per-trial adversary failed in batch slot {trial_index}: "
            f"{cause!r}")
        self.trial_index = trial_index
        self.cause = cause


@dataclass
class BatchRoundView:
    """What a batched adversary may look at in round ``index`` — the
    batched analogue of :class:`~repro.adversary.base.RoundView`."""

    index: int
    width: int
    intended: np.ndarray                   # (trials, n, n) payload stack
    #: per-trial histories; empty lists when the engine runs with
    #: ``keep_history=False`` (only possible when no adversary reads them)
    histories: Sequence[List[RoundOutcome]] = field(default_factory=list)
    label: str = ""
    #: per-trial round widths for a *ragged* exchange (``None`` means the
    #: exchange is lockstep and every trial sees :attr:`width`)
    widths: Optional[np.ndarray] = None
    #: per-trial participation mask for a ragged exchange (``None`` means
    #: every trial is still running this round)
    active: Optional[np.ndarray] = None

    @property
    def trials(self) -> int:
        return self.intended.shape[0]

    def trial_width(self, t: int) -> int:
        return int(self.widths[t]) if self.widths is not None else self.width

    def trial_active(self, t: int) -> bool:
        return bool(self.active[t]) if self.active is not None else True

    def trial_view(self, t: int) -> RoundView:
        """Serial view of trial ``t`` — what a wrapped per-trial adversary
        would have seen in a run of that trial alone."""
        history = self.histories[t] if len(self.histories) else []
        return RoundView(index=self.index, width=self.trial_width(t),
                         intended=self.intended[t], history=history,
                         label=self.label)


class BatchedAdversary(abc.ABC):
    """A mobile α-BD adversary acting on a stack of clique instances."""

    #: see :attr:`repro.adversary.base.Adversary.reads_history`
    reads_history: bool = False

    def __init__(self, alpha: float):
        if not 0 <= alpha <= 1:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = alpha
        self.n: Optional[int] = None
        self.trials: Optional[int] = None

    def begin_protocol(self, n: int, trials: int) -> None:
        """Called by the batched engine before round 0."""
        self.n = n
        self.trials = trials

    @property
    def budget(self) -> int:
        if self.n is None:
            raise RuntimeError("begin_protocol was never called")
        return max_faulty_degree(self.n, self.alpha)

    @abc.abstractmethod
    def select_edges_many(self, view: BatchRoundView) -> np.ndarray:
        """Return the ``(trials, n, n)`` stack of symmetric fault sets."""

    @abc.abstractmethod
    def corrupt_many(self, view: BatchRoundView,
                     edges: np.ndarray) -> np.ndarray:
        """Return the ``(trials, n, n)`` delivered payload stack."""


class BatchedNullAdversary(BatchedAdversary):
    """No corruption in any trial — the fault-free batched clique."""

    def __init__(self):
        super().__init__(alpha=0.0)

    def select_edges_many(self, view: BatchRoundView) -> np.ndarray:
        return np.zeros((view.trials, self.n, self.n), dtype=bool)

    def corrupt_many(self, view: BatchRoundView,
                     edges: np.ndarray) -> np.ndarray:
        return view.intended.copy()


class PerTrialAdversaryBatch(BatchedAdversary):
    """Drive one serial adversary instance per trial.

    An :class:`~repro.adversary.base.Adversary` without a batched
    implementation works under the batched engine through this wrapper,
    unbatched: each round, each trial's instance is consulted with that
    trial's serial :class:`RoundView` in trial order, so its private RNG
    advances exactly as it would have in a serial run of that trial alone.

    The engine holds the batch to the ``alpha`` the wrapped adversaries
    share after their own ``begin_protocol`` (some adversaries only fix it
    there).
    """

    def __init__(self, adversaries: Sequence[Adversary]):
        if not adversaries:
            raise ValueError("need at least one per-trial adversary")
        self.adversaries = list(adversaries)
        super().__init__(alpha=self._shared_alpha())
        self.reads_history = any(a.reads_history for a in self.adversaries)

    def _shared_alpha(self) -> float:
        values = {a.alpha for a in self.adversaries}
        if len(values) != 1:
            raise ValueError(
                f"per-trial adversaries must share one alpha, got {values}")
        return values.pop()

    def begin_protocol(self, n: int, trials: int) -> None:
        if trials != len(self.adversaries):
            raise ValueError(
                f"{len(self.adversaries)} adversaries cannot cover "
                f"{trials} trials")
        super().begin_protocol(n, trials)
        for adversary in self.adversaries:
            adversary.begin_protocol(n)
        self.alpha = self._shared_alpha()

    def select_edges_many(self, view: BatchRoundView) -> np.ndarray:
        masks = np.zeros(view.intended.shape, dtype=bool)
        for t, adv in enumerate(self.adversaries):
            # a trial whose serial run already finished sees no further
            # rounds: its adversary draws nothing
            if view.trial_active(t):
                try:
                    masks[t] = adv.select_edges(view.trial_view(t))
                except Exception as exc:  # noqa: BLE001 — isolate the trial
                    raise PerTrialFailure(t, exc) from exc
        return masks

    def corrupt_many(self, view: BatchRoundView,
                     edges: np.ndarray) -> np.ndarray:
        delivered = view.intended.copy()
        for t, adv in enumerate(self.adversaries):
            if view.trial_active(t):
                try:
                    delivered[t] = adv.corrupt(view.trial_view(t), edges[t])
                except Exception as exc:  # noqa: BLE001 — isolate the trial
                    raise PerTrialFailure(t, exc) from exc
        return delivered


class SeededBatchedAdversary(BatchedAdversary):
    """A batched adversary with one seed per trial.

    Subclasses derive every stream of trial ``t`` from ``seeds[t]`` alone,
    so a trial's faults do not depend on the batch it runs in.  The two
    deterministic content attacks live here: ``flip`` inverts every bit
    of a faulty entry at its trial's own width (fabricating all-ones on a
    silent edge), and ``drop`` erases it.
    """

    #: the content attacks :meth:`corrupt_many` knows
    content_attacks = ("flip", "drop")

    def __init__(self, alpha: float, seeds: Sequence[int],
                 content_attack: str = "flip"):
        super().__init__(alpha)
        if content_attack not in self.content_attacks:
            raise ValueError(f"unknown content attack {content_attack!r}")
        self.seeds = [int(s) for s in seeds]
        self.content_attack = content_attack

    def begin_protocol(self, n: int, trials: int) -> None:
        if trials != len(self.seeds):
            raise ValueError(
                f"{len(self.seeds)} seeds cannot cover {trials} trials")
        super().begin_protocol(n, trials)

    def corrupt_many(self, view: BatchRoundView,
                     edges: np.ndarray) -> np.ndarray:
        intended = view.intended
        mask = np.asarray(edges, dtype=bool)
        if self.content_attack == "drop":
            return np.where(mask, np.int64(-1), intended)
        # flip at each trial's *own* width: flipping a ragged round at the
        # batch-wide maximum would let the engine's clip land a flipped
        # all-ones payload back on ``intended``, diverging from a serial
        # run of that trial
        if view.widths is not None:
            widths = np.asarray(view.widths, dtype=np.int64)
            all_ones = ((np.int64(1) << widths) - 1)[:, None, None]
        else:
            all_ones = np.int64((1 << view.width) - 1)
        flipped = np.where(intended >= 0, intended ^ all_ones, all_ones)
        return np.where(mask, flipped, intended)
