"""The non-adaptive α-NBD adversary (Section 2).

The fault-set schedule ``F_1, F_2, ...`` is fixed before the protocol starts.
The edge strategy enforces it: it is called with ``(n, budget,
round_index, rng)`` only, where ``rng`` is the adversary's private schedule
stream (by definition independent of the protocol's coins), so it never
sees a payload.  Message *content* on the scheduled faulty edges may still
depend on the currently intended messages (footnote 3 of the paper) — that
is handled by the content attack.

:class:`BatchedNonAdaptiveAdversary` is the one implementation; the serial
:class:`NonAdaptiveAdversary` is its one-seed instance.
"""

from __future__ import annotations

import copy
from typing import List, Sequence

import numpy as np

from repro.adversary.batched import BatchRoundView, SeededBatchedAdversary
from repro.adversary.strategies import RandomRegularStrategy
from repro.utils.rng import derive


class BatchedNonAdaptiveAdversary(SeededBatchedAdversary):
    """α-NBD over a batch of trials: oblivious edge schedule, adaptive
    message content.

    Trial ``t`` schedules its faults with its own deep copy of
    ``edge_strategy`` (default :class:`RandomRegularStrategy`), so a
    stateful strategy such as
    :class:`~repro.adversary.strategies.StaticStrategy` keeps one graph per
    trial, and draws from ``derive(seeds[t], f"nbd-schedule:{n}")``.  The
    ``random`` content attack draws from ``derive(seeds[t],
    f"adversary:{n}")``; ``flip`` and ``drop`` draw nothing.
    """

    content_attacks = ("flip", "drop", "random")

    def __init__(self, alpha: float, seeds: Sequence[int],
                 content_attack: str = "flip", edge_strategy=None):
        super().__init__(alpha, seeds, content_attack)
        strategy = edge_strategy or RandomRegularStrategy()
        self._strategies = [copy.deepcopy(strategy) for _ in self.seeds]
        self._schedule_rngs: List[np.random.Generator] = []
        self._rngs: List[np.random.Generator] = []

    def begin_protocol(self, n: int, trials: int) -> None:
        super().begin_protocol(n, trials)
        self._schedule_rngs = [derive(s, f"nbd-schedule:{n}")
                               for s in self.seeds]
        self._rngs = [derive(s, f"adversary:{n}") for s in self.seeds]

    def select_edges_many(self, view: BatchRoundView) -> np.ndarray:
        # the strategies see the round index alone; a trial a serial run
        # would already have finished draws nothing
        n, budget = self.n, self.budget
        masks = np.zeros((self.trials, n, n), dtype=bool)
        for t, (strategy, rng) in enumerate(zip(self._strategies,
                                                self._schedule_rngs)):
            if view.trial_active(t):
                masks[t] = strategy(n, budget, view.index, rng)
        return masks

    def corrupt_many(self, view: BatchRoundView,
                     edges: np.ndarray) -> np.ndarray:
        if self.content_attack != "random":
            return super().corrupt_many(view, edges)
        # uniform values at each trial's width, from its private stream
        mask = np.asarray(edges, dtype=bool)
        delivered = view.intended.copy()
        for t, rng in enumerate(self._rngs):
            count = int(mask[t].sum())
            if count:
                high = 1 << view.trial_width(t)
                delivered[t][mask[t]] = rng.integers(0, high, size=count,
                                                     dtype=np.int64)
        return delivered


class NonAdaptiveAdversary(BatchedNonAdaptiveAdversary):
    """α-NBD for one serial run: a one-seed
    :class:`BatchedNonAdaptiveAdversary`."""

    def __init__(self, alpha: float, edge_strategy=None,
                 content_attack: str = "flip", seed: int = 0):
        super().__init__(alpha, [seed], content_attack, edge_strategy)
