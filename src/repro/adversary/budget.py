"""Faulty-degree accounting (the α-BD constraint of Section 2).

For a round's fault set ``F_i`` (a symmetric boolean adjacency matrix over
the clique), ``deg(F_i)`` is the largest number of faulty edges incident to
any node.  An α-BD adversary must keep ``deg(F_i) <= floor(alpha * n)`` in
every round — *that* is the whole point of the model: the constraint is on
the degree, not the cardinality, so up to ``alpha * n^2 / 2`` edges may be
corrupted per round.
"""

from __future__ import annotations

import math

import numpy as np


class FaultBudgetViolation(Exception):
    """The adversary tried to exceed its per-node fault budget."""


def max_faulty_degree(n: int, alpha: float) -> int:
    """The per-node budget floor(alpha * n).

    A product within 1e-9 of an integer counts as that integer, so a
    fraction that float arithmetic rounds just below a whole number
    (``0.29 * 100 == 28.999999999999996``) keeps its intended budget.
    Every other ``floor(alpha * n)`` in the package goes through here, so
    the adversary's budget and the budget a code is sized for agree.
    """
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return math.floor(alpha * n + 1e-9)


def fault_degrees(edges: np.ndarray) -> np.ndarray:
    """Per-node number of incident faulty edges."""
    edges = np.asarray(edges, dtype=bool)
    return edges.sum(axis=1)


def validate_fault_set(edges: np.ndarray, n: int, alpha: float) -> None:
    """Check symmetry, empty diagonal, and the degree budget; raises
    :class:`FaultBudgetViolation` on any violation."""
    edges = np.asarray(edges, dtype=bool)
    if edges.shape != (n, n):
        raise FaultBudgetViolation(
            f"fault set has shape {edges.shape}, expected ({n}, {n})")
    if np.any(np.diag(edges)):
        raise FaultBudgetViolation("self-loops cannot be faulty edges")
    if not np.array_equal(edges, edges.T):
        raise FaultBudgetViolation("fault set must be symmetric (undirected)")
    budget = max_faulty_degree(n, alpha)
    degrees = fault_degrees(edges)
    worst = int(degrees.max()) if degrees.size else 0
    if worst > budget:
        raise FaultBudgetViolation(
            f"deg(F) = {worst} exceeds budget floor(alpha*n) = {budget}")


def validate_fault_sets(edges: np.ndarray, n: int, alpha: float) -> None:
    """Batched :func:`validate_fault_set`: check a ``(trials, n, n)`` stack
    of fault sets with one vectorized pass over the batch axis instead of a
    per-trial Python loop.  Raises :class:`FaultBudgetViolation` naming the
    first offending trial.

    Each check runs over the whole stack first; the offending trial is
    looked up only once a check fails, so a valid one-trial stack costs no
    more than :func:`validate_fault_set`."""
    edges = np.asarray(edges, dtype=bool)
    if edges.ndim != 3 or edges.shape[1:] != (n, n):
        raise FaultBudgetViolation(
            f"fault-set stack has shape {edges.shape}, "
            f"expected (trials, {n}, {n})")
    diag = edges.reshape(len(edges), n * n)[:, ::n + 1]
    if diag.any():
        trial = int(np.flatnonzero(diag.any(axis=1))[0])
        raise FaultBudgetViolation(
            f"trial {trial}: self-loops cannot be faulty edges")
    asym = edges != edges.transpose(0, 2, 1)
    if asym.any():
        raise FaultBudgetViolation(
            f"trial {int(np.flatnonzero(asym.any(axis=(1, 2)))[0])}: fault "
            f"set must be symmetric (undirected)")
    budget = max_faulty_degree(n, alpha)
    degrees = np.add.reduce(edges, axis=2)
    if degrees.size and degrees.max() > budget:
        worst = degrees.max(axis=1)
        trial = int(np.flatnonzero(worst > budget)[0])
        raise FaultBudgetViolation(
            f"trial {trial}: deg(F) = {int(worst[trial])} exceeds budget "
            f"floor(alpha*n) = {budget}")


#: the upper-triangle edge list (rows, columns) of the last clique size
#: walked.  One size only, since a campaign cell walks one n; at n=1024 the
#: two arrays hold 8 MB.  Rebuilding it per call costs about a fifth of
#: the call at n=64.
_UPPER_EDGES: dict = {}


def _upper_edges(n: int):
    edges = _UPPER_EDGES.get(n)
    if edges is None:
        _UPPER_EDGES.clear()
        edges = _UPPER_EDGES[n] = np.triu_indices(n, k=1)
        for array in edges:
            array.flags.writeable = False  # shared by every caller
    return edges


def _take_edges(us, vs, left, rows, cols, open_nodes: int) -> int:
    """Take, in order, each edge {us[i], vs[i]} whose endpoints both have
    budget ``left``, and return how many nodes still have some.  Stops once
    fewer than two do: no later edge could be taken."""
    for u, v in zip(us, vs):
        if left[u] and left[v]:
            rows.append(u)
            cols.append(v)
            left[u] -= 1
            left[v] -= 1
            open_nodes -= (not left[u]) + (not left[v])
            if open_nodes < 2:
                break
    return open_nodes


def greedy_symmetric_selection(priorities: np.ndarray, budget: int,
                               rng: np.random.Generator) -> np.ndarray:
    """Build a maximal fault set under the degree budget, preferring
    high-priority edges.

    ``priorities[u, v]`` scores the *undirected* edge {u, v} of an (n, n)
    matrix (the upper triangle is read); random tie-breaking.  Returns a
    symmetric boolean matrix with all degrees <= budget.  This is the
    work-horse of the adaptive strategies: score edges by how much damage
    corrupting them does, then greedily saturate the budget.

    The walk over the sorted edges runs on Python ints and stops once
    fewer than two nodes have budget left.  It walks the first 2n edges of
    the order, then drops, in one array pass, every later edge with an
    endpoint already at budget: degrees only grow, so the walk would
    reject such an edge whenever it reached it.  The survivors are walked
    in order.  The upper-triangle edge list is memoized for the last n.

    The mask and the state left in ``rng`` must equal those of the frozen
    per-edge loop,
    :func:`repro.perf.reference.greedy_symmetric_selection_loop`: every
    adaptive campaign's rows depend on both, so the draw and the
    ``argsort`` call (which orders tied scores) stay exactly as they are.
    """
    n = priorities.shape[0]
    mask = np.zeros((n, n), dtype=bool)
    if budget <= 0:
        return mask
    iu, iv = _upper_edges(n)
    scores = priorities[iu, iv].astype(np.float64)
    scores += rng.random(scores.size) * 1e-9  # tie-break
    order = np.argsort(-scores)
    head, tail = order[:2 * n], order[2 * n:]
    left = [budget] * n
    rows, cols = [], []
    open_nodes = _take_edges(iu.take(head).tolist(), iv.take(head).tolist(),
                             left, rows, cols, n)
    if open_nodes >= 2 and tail.size:
        has_budget = np.array(left, dtype=bool)
        tail = tail[(has_budget.take(iu) & has_budget.take(iv)).take(tail)]
        _take_edges(iu.take(tail).tolist(), iv.take(tail).tolist(),
                    left, rows, cols, open_nodes)
    rows, cols = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
    mask[rows, cols] = True
    mask[cols, rows] = True
    return mask
