"""(r, δ)-cover-free families w.r.t. a constraint collection H.

Definitions 6–7 of the paper.  A family is stored as an ``(m, L)`` integer
array: set ``i`` contains exactly one element per *group* (the paper's
partition S_1..S_L of the ground set), namely ``sets[i, j]`` in group ``j``.
Because every set has exactly one element per group, two sets can only
collide inside a group, which makes the covering check a column-wise
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np


@dataclass
class CoverFreeFamily:
    """A family of m sets over ground set [N], one element per group."""

    ground_size: int          # N
    group_size: int           # elements per group
    sets: np.ndarray          # shape (m, L); sets[i, j] in group j

    def __post_init__(self) -> None:
        self.sets = np.asarray(self.sets, dtype=np.int64)
        if self.sets.ndim != 2:
            raise ValueError("sets array must be 2-dimensional")
        m, L = self.sets.shape
        if L * self.group_size > self.ground_size:
            raise ValueError(
                f"{L} groups of size {self.group_size} exceed ground set "
                f"{self.ground_size}")
        lo = np.arange(L, dtype=np.int64) * self.group_size
        hi = lo + self.group_size
        if np.any(self.sets < lo[None, :]) or np.any(self.sets >= hi[None, :]):
            raise ValueError("set elements stray outside their groups")

    @property
    def num_sets(self) -> int:
        return self.sets.shape[0]

    @property
    def set_size(self) -> int:
        """L — every set has exactly one element per group."""
        return self.sets.shape[1]

    def set_elements(self, index: int) -> np.ndarray:
        return self.sets[index].copy()

    def uncovered_fraction(self, target: int, others: Sequence[int]) -> float:
        """|A_target \\ union(A_others)| / |A_target|."""
        if not len(others):
            return 1.0
        target_row = self.sets[target]
        other_rows = self.sets[list(others)]
        covered = np.any(other_rows == target_row[None, :], axis=0)
        return 1.0 - covered.mean()

    def violations(self, constraints: Iterable[Sequence[int]],
                   delta: float) -> list:
        """All (target, tuple) pairs violating the (r, δ)-cover-free property
        w.r.t. the constraint collection H (Definition 7), in constraint
        order, then position order.

        The groups of one size ``g`` are checked together: a ``(groups, g,
        g, L)`` equality of their sets, with the diagonal masked, marks
        where another position covers each position's element; a lone
        position is never covered."""
        groups = [tuple(group) for group in constraints]
        by_size: Dict[int, List[int]] = {}
        for index, group in enumerate(groups):
            by_size.setdefault(len(group), []).append(index)
        bad = []
        for size, indices in by_size.items():
            ids = np.array([groups[i] for i in indices], dtype=np.int64)
            rows = self.sets[ids.reshape(len(indices), size)]
            same = rows[:, :, None, :] == rows[:, None, :, :]
            same[:, np.arange(size), np.arange(size)] = False
            uncovered = 1.0 - same.any(axis=2).mean(axis=2)
            which, position = np.nonzero(uncovered < 1.0 - delta)
            bad += zip(np.array(indices)[which].tolist(), position.tolist())
        return [(groups[i][p], groups[i]) for i, p in sorted(bad)]

    def is_cover_free(self, constraints: Iterable[Sequence[int]],
                      delta: float) -> bool:
        return not self.violations(constraints, delta)


def groups_of(ground_size: int, set_size: int) -> Tuple[int, int]:
    """Partition [N] into ``set_size`` consecutive groups; returns
    (group_size, used_elements).  Mirrors the construction in Lemma 4.3
    (leftover elements are ignored)."""
    if set_size <= 0:
        raise ValueError("set size must be positive")
    group_size = ground_size // set_size
    if group_size == 0:
        raise ValueError(
            f"ground set of {ground_size} cannot host sets of size {set_size}")
    return group_size, group_size * set_size
