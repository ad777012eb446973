"""Stochastic channel adversaries and the Byzantine-node fault model.

The paper's adversary is a *worst-case* edge budget; this module adds the
random counterparts motivated by the fading-channel literature (ROADMAP
item 3), so campaigns can compare worst-case vs. random faults at the same
nominal fault rate:

* :class:`IIDEdgeChannel` — every undirected edge fails independently with
  probability ``alpha`` each round (``mode="corrupt"`` flips payload bits,
  ``mode="erase"`` drops the message outright, surfacing in the transport's
  dropped mask and hence in erasure-aware decoding);
* :class:`GilbertElliottChannel` — the classic two-state bursty channel:
  each edge is in a ``good``/``bad`` Markov state; bad edges fail every
  round until they recover.  The stationary bad fraction is ``alpha``, so
  its *unconditional* fault rate matches the i.i.d. channel at the same
  ``alpha`` while faults arrive in bursts of mean length ``burst``;
* :class:`ByzantineNodeAdversary` — ``f = floor(node_fraction * n)`` nodes
  chosen once per protocol are Byzantine: every edge incident to a chosen
  node is faulty every round.  This deliberately breaks the α-BD degree
  budget (a Byzantine node has faulty degree ``n - 1``), which is exactly
  the scenario's point; the engine validates it against
  :attr:`validation_alpha` = 1 while routing codes are sized from
  ``alpha = node_fraction`` (``f`` effective errors per round — the same
  budget arithmetic as ``floor(alpha * n)`` worst-case edge faults).

Every stochastic mask is clamped to the α-BD degree budget by
:func:`degree_capped_mask` — a vectorised, deterministic trim that keeps
the highest-priority edges of any node that oversampled its budget — and
then self-checked with the existing budget machinery
(:func:`~repro.adversary.budget.validate_fault_set`).  The batched
``(trials, n, n)`` variants draw each trial's randomness from that trial's
own derived stream in serial order, so a batched cell is bit-identical to
running its trials one at a time (the vmap backend's store-row contract).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.adversary.base import Adversary, RoundView
from repro.adversary.batched import BatchedAdversary, BatchRoundView
from repro.adversary.budget import (
    fault_degrees,
    max_faulty_degree,
    validate_fault_set,
)
from repro.adversary.strategies import CONTENT_ATTACKS
from repro.utils.rng import derive

#: content attacks available to stochastic channels.  Deterministic given
#: the mask (no extra RNG draws), so serial and batched runs stay
#: bit-identical without threading content streams through the batch.
_CHANNEL_MODES = ("corrupt", "erase")


def degree_capped_mask(sample: np.ndarray, priority: np.ndarray,
                       budget: int) -> np.ndarray:
    """Trim a symmetric candidate mask to the per-node degree budget.

    ``sample`` is a (..., n, n) symmetric boolean stack of candidate faulty
    edges, ``priority`` a matching symmetric float stack.  An edge survives
    iff it is sampled and ranks inside the top ``budget`` candidates of
    *both* endpoints (by priority), which guarantees every node's degree
    is <= ``budget`` while keeping the trim deterministic and vectorised
    over any leading axes.
    """
    if budget <= 0:
        return np.zeros_like(sample, dtype=bool)
    scores = np.where(sample, priority, -np.inf)
    order = np.argsort(-scores, axis=-1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order,
                      np.broadcast_to(np.arange(sample.shape[-1]),
                                      sample.shape).copy(), axis=-1)
    within = ranks < budget
    return sample & within & np.swapaxes(within, -1, -2)


def _symmetric_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    """One uniform draw per *undirected* edge, mirrored to both triangles
    (diagonal zero).  A single (n, n) draw keeps the stream layout simple;
    only the upper triangle is consumed."""
    draw = rng.random((n, n))
    upper = np.triu(draw, k=1)
    return upper + upper.T


class StochasticEdgeChannel(Adversary):
    """Common machinery of the random per-edge channels.

    The fault schedule is oblivious (a function of private channel
    randomness only, like the non-adaptive adversary), drawn from
    ``derive(seed, f"channel:{n}")`` so reruns of the same trial reproduce
    the same fault history bit for bit.
    """

    def __init__(self, alpha: float, mode: str = "corrupt", seed: int = 0):
        super().__init__(alpha, seed)
        if mode not in _CHANNEL_MODES:
            raise ValueError(
                f"unknown channel mode {mode!r}, expected one of "
                f"{_CHANNEL_MODES}")
        self.mode = mode
        self._attack = CONTENT_ATTACKS["drop" if mode == "erase" else "flip"]
        self._channel_rng: Optional[np.random.Generator] = None

    def begin_protocol(self, n: int) -> None:
        super().begin_protocol(n)
        self._channel_rng = derive(self.seed, f"channel:{n}")

    def _next_mask(self) -> np.ndarray:
        raise NotImplementedError

    def select_edges(self, view: RoundView) -> np.ndarray:
        # deliberately ignores the view: the channel is protocol-oblivious
        mask = self._next_mask()
        # self-check against the budget machinery the engine will apply
        validate_fault_set(mask, self.n, self.alpha)
        return mask

    def corrupt(self, view: RoundView, edges: np.ndarray) -> np.ndarray:
        return self._attack(view.intended, np.asarray(edges, dtype=bool),
                            view.width, self._rng)


class IIDEdgeChannel(StochasticEdgeChannel):
    """i.i.d. per-edge channel: every undirected edge fails independently
    with probability ``alpha`` each round, trimmed to the degree budget
    ``floor(alpha * n)`` (binomial tails occasionally oversample a node)."""

    def _next_mask(self) -> np.ndarray:
        rng = self._channel_rng
        n = self.n
        # draw order is fixed: Bernoulli draw first, then priorities (the
        # batched variant replays the same per-trial order)
        draw = _symmetric_uniform(rng, n)
        priority = _symmetric_uniform(rng, n)
        # the > 0 guard excludes the zero-filled diagonal from sampling
        sample = (draw < self.alpha) & (draw > 0)
        return degree_capped_mask(sample, priority, self.budget)


class GilbertElliottChannel(StochasticEdgeChannel):
    """Two-state bursty channel (Gilbert–Elliott).

    Each undirected edge carries a ``good``/``bad`` Markov state; a bad
    edge is faulty every round until it transitions back.  Recovery
    probability is ``1 / burst`` (mean burst length ``burst`` rounds) and
    the good->bad probability is set so the stationary bad fraction equals
    ``alpha`` — the unconditional fault rate of :class:`IIDEdgeChannel` at
    the same ``alpha``, making the two channels directly comparable.
    States are initialised from the stationary distribution.
    """

    def __init__(self, alpha: float, mode: str = "corrupt",
                 burst: float = 4.0, seed: int = 0):
        super().__init__(alpha, mode=mode, seed=seed)
        if burst < 1.0:
            raise ValueError(f"mean burst length must be >= 1, got {burst}")
        if alpha >= 0.95:
            raise ValueError(
                f"stationary bad fraction alpha={alpha} too close to 1 "
                f"for a meaningful burst process")
        self.burst = float(burst)
        #: bad -> good recovery probability
        self.p_recover = 1.0 / self.burst
        #: good -> bad probability pinning the stationary bad fraction
        #: pi_bad = p_fail / (p_fail + p_recover) to alpha
        self.p_fail = (alpha * self.p_recover / (1.0 - alpha)) \
            if alpha > 0 else 0.0
        self._bad: Optional[np.ndarray] = None

    def begin_protocol(self, n: int) -> None:
        super().begin_protocol(n)
        init = _symmetric_uniform(self._channel_rng, n)
        self._bad = (init < self.alpha) & (init > 0)

    def _next_mask(self) -> np.ndarray:
        rng = self._channel_rng
        transition = _symmetric_uniform(rng, self.n)
        priority = _symmetric_uniform(rng, self.n)
        stay_bad = self._bad & (transition >= self.p_recover)
        # the > 0 guard keeps the zero-filled diagonal permanently good
        turn_bad = ~self._bad & (transition < self.p_fail) & (transition > 0)
        self._bad = stay_bad | turn_bad
        return degree_capped_mask(self._bad, priority, self.budget)


class ByzantineNodeAdversary(Adversary):
    """``f = floor(node_fraction * n)`` Byzantine nodes, chosen once per
    protocol; every edge incident to a chosen node is faulty every round.

    Reports ``alpha = node_fraction`` (what routing codes should size their
    error budget from: up to ``f`` corrupted relays per codeword, the same
    arithmetic as ``floor(alpha * n)`` worst-case edge faults) while the
    engine's per-round degree validation runs against
    :attr:`validation_alpha` = 1 — a Byzantine node's faulty degree is
    ``n - 1``, deliberately outside the α-BD regime.
    """

    def __init__(self, node_fraction: float, mode: str = "corrupt",
                 seed: int = 0):
        super().__init__(node_fraction, seed)
        if mode not in _CHANNEL_MODES:
            raise ValueError(
                f"unknown channel mode {mode!r}, expected one of "
                f"{_CHANNEL_MODES}")
        self.node_fraction = node_fraction
        self.mode = mode
        self._attack = CONTENT_ATTACKS["drop" if mode == "erase" else "flip"]
        self.faulty_nodes: Optional[np.ndarray] = None
        self._mask: Optional[np.ndarray] = None

    #: the engine validates fault sets against this budget fraction
    validation_alpha = 1.0

    def begin_protocol(self, n: int) -> None:
        super().begin_protocol(n)
        f = max_faulty_degree(n, self.node_fraction)
        rng = derive(self.seed, f"byz-nodes:{n}")
        self.faulty_nodes = np.sort(rng.permutation(n)[:f])
        incident = np.zeros(n, dtype=bool)
        incident[self.faulty_nodes] = True
        mask = incident[:, None] | incident[None, :]
        np.fill_diagonal(mask, False)
        self._mask = mask
        # structural self-check with the shared budget machinery: symmetric,
        # no self-loops, degrees within the declared validation budget
        validate_fault_set(mask, n, self.validation_alpha)
        if f and int(fault_degrees(mask).max()) != n - 1:
            raise AssertionError("byzantine node lost incident edges")

    def select_edges(self, view: RoundView) -> np.ndarray:
        return self._mask.copy()

    def corrupt(self, view: RoundView, edges: np.ndarray) -> np.ndarray:
        return self._attack(view.intended, np.asarray(edges, dtype=bool),
                            view.width, self._rng)


# -- natively batched variants (vmap backend fast path) -----------------------

class _BatchedChannelBase(BatchedAdversary):
    """Shared plumbing of the batched stochastic channels: per-trial RNG
    streams derived exactly as the serial channel derives them, and the
    deterministic flip/drop content attacks applied across the whole
    ``(trials, n, n)`` stack at once."""

    def __init__(self, alpha: float, seeds: Sequence[int],
                 mode: str = "corrupt"):
        super().__init__(alpha)
        if mode not in _CHANNEL_MODES:
            raise ValueError(
                f"unknown channel mode {mode!r}, expected one of "
                f"{_CHANNEL_MODES}")
        self.seeds = [int(s) for s in seeds]
        self.mode = mode
        self._channel_rngs: List[np.random.Generator] = []

    def begin_protocol(self, n: int, trials: int) -> None:
        if trials != len(self.seeds):
            raise ValueError(
                f"{len(self.seeds)} seeds cannot cover {trials} trials")
        super().begin_protocol(n, trials)
        self._channel_rngs = [derive(s, f"channel:{n}") for s in self.seeds]

    def corrupt_many(self, view: BatchRoundView,
                     edges: np.ndarray) -> np.ndarray:
        intended = view.intended
        mask = np.asarray(edges, dtype=bool)
        if self.mode == "erase":
            return np.where(mask, np.int64(-1), intended)
        flipped = _flip_per_trial(view, intended)
        return np.where(mask, flipped, intended)


def _flip_per_trial(view: BatchRoundView, intended: np.ndarray) -> np.ndarray:
    """All-ones flip at each trial's *own* width.  Ragged exchanges carry a
    per-trial width in ``view.widths``; flipping at the batch-wide maximum
    instead would let the engine's clip land a flipped all-ones payload back
    on ``intended``, diverging from a serial run of that trial."""
    if view.widths is not None:
        widths = np.asarray(view.widths, dtype=np.int64)
        all_ones = ((np.int64(1) << widths) - 1)[:, None, None]
    else:
        all_ones = np.int64((1 << view.width) - 1)
    return np.where(intended >= 0, intended ^ all_ones, all_ones)


class BatchedIIDEdgeChannel(_BatchedChannelBase):
    """Natively batched :class:`IIDEdgeChannel` — per-trial draws in serial
    order, one vectorised degree-cap over the whole stack."""

    def select_edges_many(self, view: BatchRoundView) -> np.ndarray:
        n = self.n
        draws = np.stack([_symmetric_uniform(rng, n)
                          for rng in self._channel_rngs])
        priorities = np.stack([_symmetric_uniform(rng, n)
                               for rng in self._channel_rngs])
        sample = (draws < self.alpha) & (draws > 0)
        return degree_capped_mask(sample, priorities, self.budget)


class BatchedGilbertElliottChannel(_BatchedChannelBase):
    """Natively batched :class:`GilbertElliottChannel`."""

    def __init__(self, alpha: float, seeds: Sequence[int],
                 mode: str = "corrupt", burst: float = 4.0):
        super().__init__(alpha, seeds, mode=mode)
        template = GilbertElliottChannel(alpha, mode=mode, burst=burst)
        self.burst = template.burst
        self.p_recover = template.p_recover
        self.p_fail = template.p_fail
        self._bad: Optional[np.ndarray] = None

    def begin_protocol(self, n: int, trials: int) -> None:
        super().begin_protocol(n, trials)
        init = np.stack([_symmetric_uniform(rng, n)
                         for rng in self._channel_rngs])
        self._bad = (init < self.alpha) & (init > 0)

    def select_edges_many(self, view: BatchRoundView) -> np.ndarray:
        n = self.n
        transitions = np.stack([_symmetric_uniform(rng, n)
                                for rng in self._channel_rngs])
        priorities = np.stack([_symmetric_uniform(rng, n)
                               for rng in self._channel_rngs])
        stay_bad = self._bad & (transitions >= self.p_recover)
        turn_bad = ~self._bad & (transitions < self.p_fail) \
            & (transitions > 0)
        self._bad = stay_bad | turn_bad
        return degree_capped_mask(self._bad, priorities, self.budget)


class BatchedByzantineNodeAdversary(BatchedAdversary):
    """Natively batched :class:`ByzantineNodeAdversary`: the per-trial node
    choices are drawn once at ``begin_protocol`` from each trial's own
    derived stream; every round returns the same precomputed mask stack."""

    validation_alpha = 1.0

    def __init__(self, node_fraction: float, seeds: Sequence[int],
                 mode: str = "corrupt"):
        super().__init__(node_fraction)
        if mode not in _CHANNEL_MODES:
            raise ValueError(
                f"unknown channel mode {mode!r}, expected one of "
                f"{_CHANNEL_MODES}")
        self.node_fraction = node_fraction
        self.seeds = [int(s) for s in seeds]
        self.mode = mode
        self._masks: Optional[np.ndarray] = None

    def begin_protocol(self, n: int, trials: int) -> None:
        if trials != len(self.seeds):
            raise ValueError(
                f"{len(self.seeds)} seeds cannot cover {trials} trials")
        super().begin_protocol(n, trials)
        f = max_faulty_degree(n, self.node_fraction)
        masks = np.zeros((trials, n, n), dtype=bool)
        for t, seed in enumerate(self.seeds):
            rng = derive(seed, f"byz-nodes:{n}")
            chosen = rng.permutation(n)[:f]
            incident = np.zeros(n, dtype=bool)
            incident[chosen] = True
            masks[t] = incident[:, None] | incident[None, :]
        masks[:, np.arange(n), np.arange(n)] = False
        self._masks = masks

    def select_edges_many(self, view: BatchRoundView) -> np.ndarray:
        return self._masks.copy()

    def corrupt_many(self, view: BatchRoundView,
                     edges: np.ndarray) -> np.ndarray:
        intended = view.intended
        mask = np.asarray(edges, dtype=bool)
        if self.mode == "erase":
            return np.where(mask, np.int64(-1), intended)
        flipped = _flip_per_trial(view, intended)
        return np.where(mask, flipped, intended)
