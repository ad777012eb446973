"""Stochastic channel adversaries and the Byzantine-node fault model.

The paper's adversary is a *worst-case* edge budget; this module adds the
random counterparts motivated by the fading-channel literature (ROADMAP
item 3), so campaigns can compare worst-case vs. random faults at the same
nominal fault rate:

* :class:`BatchedIIDEdgeChannel` — every undirected edge fails
  independently with probability ``alpha`` each round (``mode="corrupt"``
  flips payload bits, ``mode="erase"`` drops the message outright,
  surfacing in the transport's dropped mask and hence in erasure-aware
  decoding);
* :class:`BatchedGilbertElliottChannel` — the classic two-state bursty
  channel: each edge is in a ``good``/``bad`` Markov state; bad edges fail
  every round until they recover.  The stationary bad fraction is
  ``alpha``, so its *unconditional* fault rate matches the i.i.d. channel
  at the same ``alpha`` while faults arrive in bursts of mean length
  ``burst``;
* :class:`BatchedByzantineNodeAdversary` — ``f = floor(node_fraction * n)``
  nodes chosen once per protocol are Byzantine: every edge incident to a
  chosen node is faulty every round.  This deliberately breaks the α-BD
  degree budget (a Byzantine node has faulty degree ``n - 1``), which is
  exactly the scenario's point; the engine validates it against
  :attr:`~BatchedByzantineNodeAdversary.validation_alpha` = 1 while
  routing codes are sized from ``alpha = node_fraction`` (``f`` effective
  errors per round — the same budget arithmetic as ``floor(alpha * n)``
  worst-case edge faults).

Each is one :class:`~repro.adversary.batched.SeededBatchedAdversary` over
``(trials, n, n)`` masks: trial ``t`` draws from its own stream derived
from ``seeds[t]``, so a batched cell is bit-identical to running its
trials one at a time.  The serial names :class:`IIDEdgeChannel`,
:class:`GilbertElliottChannel` and :class:`ByzantineNodeAdversary` are
one-seed instances of them.  Every stochastic mask is clamped to the α-BD
degree budget by :func:`degree_capped_mask` — a vectorised, deterministic
trim that keeps the highest-priority edges of any node that oversampled
its budget — and the engine's
:func:`~repro.adversary.budget.validate_fault_sets` checks every mask.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.adversary.batched import BatchRoundView, SeededBatchedAdversary
from repro.adversary.budget import max_faulty_degree
from repro.utils.rng import derive

#: channel modes and the content attack each applies: deterministic given
#: the mask, so the channels draw nothing for content
_CHANNEL_MODES = {"corrupt": "flip", "erase": "drop"}


def _content_attack(mode: str) -> str:
    if mode not in _CHANNEL_MODES:
        raise ValueError(
            f"unknown channel mode {mode!r}, expected one of "
            f"{tuple(_CHANNEL_MODES)}")
    return _CHANNEL_MODES[mode]


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


class _BatchedChannel(SeededBatchedAdversary):
    """Shared plumbing of the stochastic channels: one channel stream per
    trial, ``derive(seeds[t], f"channel:{n}")``, so reruns of a trial
    reproduce its fault history bit for bit.  The fault schedule is
    oblivious: a function of the channel randomness only."""

    def __init__(self, alpha: float, seeds: Sequence[int],
                 mode: str = "corrupt"):
        super().__init__(alpha, seeds, _content_attack(mode))
        self.mode = mode
        self._channel_rngs: List[np.random.Generator] = []

    def begin_protocol(self, n: int, trials: int) -> None:
        super().begin_protocol(n, trials)
        self._channel_rngs = [derive(s, f"channel:{n}") for s in self.seeds]

    def _uniform_stack(self) -> np.ndarray:
        """One :func:`_symmetric_uniform` draw from every trial's stream."""
        return np.stack([_symmetric_uniform(rng, self.n)
                         for rng in self._channel_rngs])


class BatchedIIDEdgeChannel(_BatchedChannel):
    """i.i.d. per-edge channel: every undirected edge fails independently
    with probability ``alpha`` each round, trimmed to the degree budget
    ``floor(alpha * n)`` (binomial tails occasionally oversample a node).
    Each trial draws its Bernoulli stack first, then its priorities."""

    def select_edges_many(self, view: BatchRoundView) -> np.ndarray:
        draws = self._uniform_stack()
        priorities = self._uniform_stack()
        # the > 0 guard excludes the zero-filled diagonal from sampling
        sample = (draws < self.alpha) & (draws > 0)
        return degree_capped_mask(sample, priorities, self.budget)


class BatchedGilbertElliottChannel(_BatchedChannel):
    """Two-state bursty channel (Gilbert–Elliott).

    Each undirected edge carries a ``good``/``bad`` Markov state; a bad
    edge is faulty every round until it transitions back.  Recovery
    probability is ``1 / burst`` (mean burst length ``burst`` rounds) and
    the good->bad probability is set so the stationary bad fraction equals
    ``alpha`` — the unconditional fault rate of
    :class:`BatchedIIDEdgeChannel` at the same ``alpha``, making the two
    channels directly comparable.  States are initialised from the
    stationary distribution.
    """

    def __init__(self, alpha: float, seeds: Sequence[int],
                 mode: str = "corrupt", burst: float = 4.0):
        super().__init__(alpha, seeds, mode=mode)
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

    def begin_protocol(self, n: int, trials: int) -> None:
        super().begin_protocol(n, trials)
        init = self._uniform_stack()
        self._bad = (init < self.alpha) & (init > 0)

    def select_edges_many(self, view: BatchRoundView) -> np.ndarray:
        transitions = self._uniform_stack()
        priorities = self._uniform_stack()
        stay_bad = self._bad & (transitions >= self.p_recover)
        # the > 0 guard keeps the zero-filled diagonal permanently good
        turn_bad = ~self._bad & (transitions < self.p_fail) \
            & (transitions > 0)
        self._bad = stay_bad | turn_bad
        return degree_capped_mask(self._bad, priorities, self.budget)


class BatchedByzantineNodeAdversary(SeededBatchedAdversary):
    """``f = floor(node_fraction * n)`` Byzantine nodes per trial, drawn
    once at ``begin_protocol`` from ``derive(seeds[t], f"byz-nodes:{n}")``;
    every edge incident to a chosen node is faulty every round.

    Reports ``alpha = node_fraction`` (what routing codes should size their
    error budget from: up to ``f`` corrupted relays per codeword, the same
    arithmetic as ``floor(alpha * n)`` worst-case edge faults) while the
    engine's per-round degree validation runs against
    :attr:`validation_alpha` = 1 — a Byzantine node's faulty degree is
    ``n - 1``, deliberately outside the α-BD regime.
    """

    #: the engine validates fault sets against this budget fraction
    validation_alpha = 1.0

    def __init__(self, node_fraction: float, seeds: Sequence[int],
                 mode: str = "corrupt"):
        super().__init__(node_fraction, seeds, _content_attack(mode))
        self.mode = mode
        self._masks: Optional[np.ndarray] = None

    def begin_protocol(self, n: int, trials: int) -> None:
        super().begin_protocol(n, trials)
        f = max_faulty_degree(n, self.alpha)
        incident = np.zeros((trials, n), dtype=bool)
        for t, seed in enumerate(self.seeds):
            chosen = derive(seed, f"byz-nodes:{n}").permutation(n)[:f]
            incident[t, chosen] = True
        masks = incident[:, :, None] | incident[:, None, :]
        masks[:, np.arange(n), np.arange(n)] = False
        self._masks = masks

    def select_edges_many(self, view: BatchRoundView) -> np.ndarray:
        return self._masks.copy()


# -- the serial names: one-seed instances ------------------------------------

class IIDEdgeChannel(BatchedIIDEdgeChannel):
    """One-seed :class:`BatchedIIDEdgeChannel`."""

    def __init__(self, alpha: float, mode: str = "corrupt", seed: int = 0):
        super().__init__(alpha, [seed], mode=mode)


class GilbertElliottChannel(BatchedGilbertElliottChannel):
    """One-seed :class:`BatchedGilbertElliottChannel`."""

    def __init__(self, alpha: float, mode: str = "corrupt",
                 burst: float = 4.0, seed: int = 0):
        super().__init__(alpha, [seed], mode=mode, burst=burst)


class ByzantineNodeAdversary(BatchedByzantineNodeAdversary):
    """One-seed :class:`BatchedByzantineNodeAdversary`."""

    def __init__(self, node_fraction: float, mode: str = "corrupt",
                 seed: int = 0):
        super().__init__(node_fraction, [seed], mode=mode)
