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

Per-trial randomness stays independent inside the batch: every trial's
streams are derived from its own seed exactly as a serial adversary
derives them, which is what makes a batched cell bit-identical to running
its trials one at a time.  :class:`PerTrialAdversaryBatch` is the generic
fallback — it wraps one serial adversary instance per trial, so every
existing adversary works unbatched under the batched engine (the serial
:class:`~repro.cliquesim.network.CongestedClique` runs its adversary as a
one-slot batch of this kind); :class:`BatchedNonAdaptiveAdversary` is the
natively batched α-NBD adversary whose masks are assembled with tensor
ops.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.adversary.base import Adversary, RoundOutcome, RoundView
from repro.adversary.budget import max_faulty_degree
from repro.adversary.strategies import _tournament_matching
from repro.utils.rng import derive


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
    """Generic fallback: drive one serial adversary instance per trial.

    Every existing :class:`~repro.adversary.base.Adversary` subclass works
    under the batched engine through this wrapper, unbatched: each round,
    each trial's instance is consulted with that trial's serial
    :class:`RoundView` in trial order, so its private RNG advances exactly
    as it would have in a serial run of that trial alone.

    The budget the engine holds the batch to is read from the wrapped
    adversaries after their own ``begin_protocol``: ``alpha`` (which some
    adversaries only fix there) and ``validation_alpha`` (the degree budget
    a Byzantine-node model declares), each shared by every trial.
    """

    def __init__(self, adversaries: Sequence[Adversary]):
        if not adversaries:
            raise ValueError("need at least one per-trial adversary")
        self.adversaries = list(adversaries)
        super().__init__(alpha=self._shared("alpha"))
        self.reads_history = any(a.reads_history for a in self.adversaries)

    def _shared(self, name: str) -> float:
        values = {getattr(a, name, a.alpha) for a in self.adversaries}
        if len(values) != 1:
            raise ValueError(
                f"per-trial adversaries must share one {name}, got {values}")
        return values.pop()

    def begin_protocol(self, n: int, trials: int) -> None:
        if trials != len(self.adversaries):
            raise ValueError(
                f"{len(self.adversaries)} adversaries cannot cover "
                f"{trials} trials")
        super().begin_protocol(n, trials)
        for adversary in self.adversaries:
            adversary.begin_protocol(n)
        self.alpha = self._shared("alpha")
        self.validation_alpha = self._shared("validation_alpha")

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


class BatchedNonAdaptiveAdversary(BatchedAdversary):
    """Natively batched α-NBD adversary (the batched-mask fast path).

    Bit-identical to ``trials`` independent
    :class:`~repro.adversary.nonadaptive.NonAdaptiveAdversary` instances
    with the default :class:`RandomRegularStrategy` edge schedule: each
    trial's schedule/content streams are derived from its own seed exactly
    as the serial constructor derives them, and only the per-trial
    *permutation draws* (inherently independent streams) run in a Python
    loop — mask assembly gathers the precomputed tournament matchings for
    all trials at once, and the flip/drop content attacks are single
    ``np.where`` passes over the ``(trials, n, n)`` stack.
    """

    def __init__(self, alpha: float, seeds: Sequence[int],
                 content_attack: str = "flip"):
        super().__init__(alpha)
        if content_attack not in ("flip", "drop", "random"):
            raise ValueError(f"unknown content attack {content_attack!r}")
        self.seeds = [int(s) for s in seeds]
        self.content_attack = content_attack
        self._schedule_rngs: List[np.random.Generator] = []
        self._rngs: List[np.random.Generator] = []
        self._matchings: Optional[np.ndarray] = None

    def begin_protocol(self, n: int, trials: int) -> None:
        if trials != len(self.seeds):
            raise ValueError(
                f"{len(self.seeds)} seeds cannot cover {trials} trials")
        super().begin_protocol(n, trials)
        # the exact per-trial derivations of the serial adversary
        self._rngs = [derive(s, f"adversary:{n}") for s in self.seeds]
        self._schedule_rngs = [derive(s, f"nbd-schedule:{n}")
                               for s in self.seeds]
        m = n if n % 2 == 0 else n + 1
        self._matchings = np.stack([_tournament_matching(n, r)
                                    for r in range(m - 1)])

    def select_edges_many(self, view: BatchRoundView) -> np.ndarray:
        budget = self.budget
        if budget < 1:
            return np.zeros((self.trials, self.n, self.n), dtype=bool)
        # independent per-trial permutation draws, one gather for the masks;
        # trials a serial run would already have finished draw nothing
        masks = np.zeros((self.trials, self.n, self.n), dtype=bool)
        for t, rng in enumerate(self._schedule_rngs):
            if not view.trial_active(t):
                continue
            choice = rng.permutation(self._matchings.shape[0])[:budget]
            masks[t] = self._matchings[choice].any(axis=0)
        return masks

    def corrupt_many(self, view: BatchRoundView,
                     edges: np.ndarray) -> np.ndarray:
        intended = view.intended
        mask = np.asarray(edges, dtype=bool)
        if self.content_attack == "drop":
            return np.where(mask, np.int64(-1), intended)
        if self.content_attack == "flip":
            if view.widths is not None:
                all_ones = ((np.int64(1) << view.widths.astype(np.int64))
                            - 1)[:, None, None]
            else:
                all_ones = np.int64((1 << view.width) - 1)
            flipped = np.where(intended >= 0, intended ^ all_ones, all_ones)
            return np.where(mask, flipped, intended)
        # "random" draws from each trial's private stream in serial order
        delivered = intended.copy()
        for t, rng in enumerate(self._rngs):
            count = int(mask[t].sum())
            if count:
                high = 1 << view.trial_width(t)
                delivered[t][mask[t]] = rng.integers(0, high, size=count,
                                                     dtype=np.int64)
        return delivered
