"""Edge-selection and content-corruption strategies.

Edge strategies produce a symmetric fault set within the degree budget.
The non-adaptive adversary
(:class:`~repro.adversary.nonadaptive.BatchedNonAdaptiveAdversary`) calls
one with the round index and its private schedule stream only, so a
strategy cannot see what the protocol sends; the rushing
:class:`~repro.adversary.adaptive.AdaptiveAdversary` sees the full view.

The gallery covers the fault patterns the paper discusses:

* ``RoundRobinMatchingStrategy`` — a single perfect matching per round
  (α = 1/n): the pattern that breaks the Fischer–Parter 2023 spanning-tree
  approach (Section 3) yet is trivial for the bounded-degree protocols.
* ``RandomRegularStrategy`` — budget-regular random fault graphs, saturating
  the full Θ(α n²) edges-per-round allowance.
* ``BlockStrategy`` — corrupt complete bipartite blocks between node
  intervals (bursty, spatially-correlated faults).
* ``StaticStrategy`` — the classical *non-mobile* adversary (same F every
  round), for ablations comparing mobile vs. static corruption.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def tournament_matchings(n: int, indices) -> np.ndarray:
    """Union of the circle-method matchings numbered ``indices``.

    The method fixes label ``k`` (``n - 1`` for even ``n``, ``n`` for odd
    ``n``) and rotates the others: in matching ``r`` a label ``x`` outside
    ``{r, k}`` pairs with ``(2r - x) mod k``, and ``r`` pairs with ``k``.
    For even ``n`` this enumerates ``n - 1`` pairwise edge-disjoint
    perfect matchings; for odd ``n`` label ``k`` is no node, so node ``r``
    sits out of matching ``r``.  Indices are taken mod ``k``.
    """
    k = n - 1 if n % 2 == 0 else n
    labels = np.arange(k)
    rounds = np.asarray(indices, dtype=np.int64).reshape(-1, 1) % k
    partner = (2 * rounds - labels) % k
    partner[partner == labels] = k
    # one spare row and column hold the non-node label k of odd n
    mask = np.zeros((k + 1, k + 1), dtype=bool)
    mask[labels, partner] = mask[partner, labels] = True
    return mask[:n, :n]


class RoundRobinMatchingStrategy:
    """One perfect matching per round, rotating through the tournament
    schedule so the fault set is genuinely mobile."""

    def __call__(self, n: int, budget: int, round_index: int,
                 rng: np.random.Generator) -> np.ndarray:
        if budget < 1:
            return np.zeros((n, n), dtype=bool)
        return tournament_matchings(n, [round_index])


class RandomRegularStrategy:
    """Union of ``budget`` edge-disjoint matchings chosen at random — an
    (approximately) budget-regular fault graph with Θ(budget * n) edges."""

    def __call__(self, n: int, budget: int, round_index: int,
                 rng: np.random.Generator) -> np.ndarray:
        if budget < 1:
            return np.zeros((n, n), dtype=bool)
        k = n - 1 if n % 2 == 0 else n
        return tournament_matchings(n, rng.permutation(k)[:budget])


class BlockStrategy:
    """Corrupt all edges between two rotating intervals of ``budget`` nodes
    (complete-bipartite bursts; every member has degree <= budget)."""

    def __call__(self, n: int, budget: int, round_index: int,
                 rng: np.random.Generator) -> np.ndarray:
        mask = np.zeros((n, n), dtype=bool)
        if budget < 1:
            return mask
        size = min(budget, n // 2)
        start = (round_index * size) % n
        first = (np.arange(start, start + size) % n)
        second = (np.arange(start + size, start + 2 * size) % n)
        mask[np.ix_(first, second)] = True
        mask[np.ix_(second, first)] = True
        np.fill_diagonal(mask, False)
        return mask


class StaticStrategy:
    """A *non-mobile* fault set: the same random budget-regular graph every
    round (the classical static model, for ablation E11)."""

    def __init__(self):
        self._cached: Optional[np.ndarray] = None

    def __call__(self, n: int, budget: int, round_index: int,
                 rng: np.random.Generator) -> np.ndarray:
        if self._cached is None or self._cached.shape[0] != n:
            self._cached = RandomRegularStrategy()(n, budget, 0, rng)
        return self._cached


class NoEdgesStrategy:
    """Select nothing (content strategies then have no effect)."""

    def __call__(self, n: int, budget: int, round_index: int,
                 rng: np.random.Generator) -> np.ndarray:
        return np.zeros((n, n), dtype=bool)


# -- content corruption ------------------------------------------------------

def corrupt_random(intended: np.ndarray, mask: np.ndarray, width: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Replace faulty entries with uniform random values (also fabricates
    messages on silent faulty edges)."""
    delivered = intended.copy()
    count = int(mask.sum())
    if count:
        delivered[mask] = rng.integers(0, 1 << width, size=count,
                                       dtype=np.int64)
    return delivered


def corrupt_flip(intended: np.ndarray, mask: np.ndarray, width: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Flip every bit of every faulty message — guarantees maximal Hamming
    damage on messages that were actually sent; fabricates all-ones on
    silent faulty edges."""
    delivered = intended.copy()
    all_ones = (1 << width) - 1
    flipped = np.where(intended >= 0, intended ^ all_ones, all_ones)
    delivered[mask] = flipped[mask]
    return delivered


def corrupt_drop(intended: np.ndarray, mask: np.ndarray, width: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Erase faulty messages entirely (crash-style omission faults)."""
    delivered = intended.copy()
    delivered[mask] = -1
    return delivered


CONTENT_ATTACKS = {
    "random": corrupt_random,
    "flip": corrupt_flip,
    "drop": corrupt_drop,
}
