"""Pareto dominance, fast non-dominated sorting, and crowding distance.

Everything here minimizes. The sort uses the O(n_objectives * n^2)
domination-count scheme and returns a rank array: ``rank[i]`` is the front
number of row ``i``, so front 0 (the non-dominated set) is ``rank == 0``.
Selection needs only :func:`crowded_order`: the first ``k`` indices it
returns are NSGA-II's environmental selection of ``k`` rows (whole fronts
while they fit, then the overflowing front by descending crowding).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError


def dominates(a, b) -> bool:
    """True iff objective vector ``a`` Pareto-dominates ``b``: no worse in
    every objective and strictly better in at least one."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise InvalidInputError(f"objective vectors differ in length: {a.shape} vs {b.shape}")
    return bool(np.all(a <= b) and np.any(a < b))


def domination_matrix(points: np.ndarray) -> np.ndarray:
    """Boolean matrix D with D[i, j] true iff point i dominates point j."""
    F = np.asarray(points, dtype=float)
    le = np.all(F[:, None, :] <= F[None, :, :], axis=2)
    lt = np.any(F[:, None, :] < F[None, :, :], axis=2)
    return le & lt


def non_dominated_sort(points) -> np.ndarray:
    """Front number of each objective row: 0 for the non-dominated set, 1
    for the set non-dominated once front 0 is removed, and so on."""
    F = np.asarray(points, dtype=float)
    if F.ndim != 2 or F.shape[0] == 0:
        raise InvalidInputError("non_dominated_sort needs a non-empty list of objective vectors")
    D = domination_matrix(F)
    counts = D.sum(axis=0).astype(int)
    rank = np.empty(len(F), dtype=int)
    current = np.flatnonzero(counts == 0)
    r = 0
    while current.size:
        rank[current] = r
        counts = counts - D[current].sum(axis=0)
        counts[current] = -1
        current = np.flatnonzero(counts == 0)
        r += 1
    return rank


def crowding_distance(front) -> np.ndarray:
    """NSGA-II crowding distance over one front of objective vectors.

    Boundary solutions per objective get +inf; interior solutions sum the
    normalized gap between their neighbours per objective. Zero-range
    objectives contribute 0, and fronts of size <= 2 are all +inf.
    """
    F = np.asarray(front, dtype=float)
    if F.ndim != 2 or F.shape[0] == 0:
        raise InvalidInputError("crowding_distance needs a non-empty front")
    n, m = F.shape
    if n <= 2:
        return np.full(n, np.inf)
    dist = np.zeros(n)
    for k in range(m):
        order = np.argsort(F[:, k], kind="stable")
        col = F[order, k]
        span = col[-1] - col[0]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if span > 0:
            dist[order[1:-1]] += (col[2:] - col[:-2]) / span
    return dist


def rank_and_crowd(points) -> tuple[np.ndarray, np.ndarray]:
    """Each objective row's rank (front number) and its crowding distance
    within its front."""
    F = np.asarray(points, dtype=float)
    rank = non_dominated_sort(F)
    crowd = np.empty(len(F))
    for r in range(rank.max() + 1):
        front = np.flatnonzero(rank == r)
        crowd[front] = crowding_distance(F[front])
    return rank, crowd


def crowded_order(rank, crowd) -> np.ndarray:
    """Indices sorted by the crowded comparison: lower rank first, then
    larger crowding distance, then lower index."""
    return np.lexsort((-np.asarray(crowd, dtype=float), np.asarray(rank)))

