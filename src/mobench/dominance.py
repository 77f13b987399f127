"""Pareto dominance, fast non-dominated sorting, and crowding distance.

Everything here minimizes. The sort uses the O(n_objectives * n^2)
domination-count scheme; fronts preserve the original index order, so the
partition is deterministic for a given input order.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class FrontPartition:
    """Ordered fronts of input indices; front 0 is the non-dominated set."""

    fronts: tuple[tuple[int, ...], ...]


def non_dominated_sort(points) -> FrontPartition:
    """Partition objective vectors into ranked non-dominated fronts."""
    F = np.asarray(points, dtype=float)
    if F.ndim != 2 or F.shape[0] == 0:
        raise InvalidInputError("non_dominated_sort needs a non-empty list of objective vectors")
    D = domination_matrix(F)
    counts = D.sum(axis=0).astype(int)
    fronts: list[tuple[int, ...]] = []
    current = np.flatnonzero(counts == 0)
    while current.size:
        fronts.append(tuple(int(i) for i in current))
        counts = counts - D[current].sum(axis=0)
        counts[current] = -1
        current = np.flatnonzero(counts == 0)
    return FrontPartition(fronts=tuple(fronts))


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


def rank_and_crowd(points) -> tuple[FrontPartition, np.ndarray, np.ndarray]:
    """Non-dominated partition of objective rows plus each row's rank
    (front number) and crowding distance within its front."""
    F = np.asarray(points, dtype=float)
    partition = non_dominated_sort(F)
    rank = np.empty(len(F), dtype=int)
    crowd = np.empty(len(F))
    for r, front in enumerate(partition.fronts):
        idx = list(front)
        rank[idx] = r
        crowd[idx] = crowding_distance(F[idx])
    return partition, rank, crowd


def crowded_order(rank, crowd) -> np.ndarray:
    """Indices sorted by the crowded comparison: lower rank first, then
    larger crowding distance, then lower index."""
    return np.lexsort((-np.asarray(crowd, dtype=float), np.asarray(rank)))


def environmental_selection(partition: FrontPartition, crowd, k: int) -> np.ndarray:
    """Indices of the best ``k`` rows: whole fronts while they fit, then the
    overflowing front by descending crowding distance."""
    crowd = np.asarray(crowd, dtype=float)
    chosen: list[int] = []
    for front in partition.fronts:
        if len(chosen) + len(front) <= k:
            chosen.extend(front)
            continue
        order = np.argsort(-crowd[list(front)], kind="stable")
        chosen.extend(front[j] for j in order[: k - len(chosen)])
        break
    return np.array(chosen, dtype=int)
