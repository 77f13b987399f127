"""Pareto dominance, fast non-dominated sorting, and crowding distance.

Everything here minimizes. :func:`non_dominated_sort` and
:func:`non_dominated` refuse a NaN objective value with
:class:`InvalidInputError`: it compares neither way, so it has no front.
:func:`_no_worse` is the one pairwise kernel of the package: ``le[i, j]``
iff row ``i`` is no worse than row ``j`` in every objective, one
``(n, n)`` pass per objective and no ``(n, n, m)`` temporary. It compares
integer rank codes rather than floats: each value is replaced by the
number of smaller values in its column, so codes order as the values do,
equal values (``-0.0`` and ``0.0`` included) share a code, and the codes
fit in int16 up to 32768 rows. Strict dominance needs no second pass:
where row ``i`` is no worse than row ``j``, it is strictly better
somewhere exactly when row ``j`` is not no worse than row ``i``, so it is
``le > le.T``. :func:`non_dominated` is the one rule for keeping a
non-dominated set (archive, reference fronts): a row goes when another
row dominates it or an earlier row equals it; equal rows are found by a
lexsort of the codes, not from the matrix. :func:`non_dominated_sort`
returns a rank array: ``rank[i]`` is the front number of row ``i``, so
front 0 (the non-dominated set) is ``rank == 0``. With two objectives
both functions use an O(n log n) sweep over the rows sorted by (f1, f2)
(Jensen 2003). With one or three and more they work on the O(m * n^2)
matrix ``le``, and the sort uses the domination-count scheme on
``le > le.T``. Crowding distance is computed for all fronts at once, in
one pass per objective.
Selection needs only :func:`crowded_order`: the first ``k`` indices it
returns are NSGA-II's environmental selection of ``k`` rows (whole fronts
while they fit, then the overflowing front by descending crowding).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .errors import InvalidInputError


def _codes(F: np.ndarray) -> np.ndarray:
    """Objective-major rank codes of the rows of ``F``: ``R[k, i]`` is the
    number of rows whose objective ``k`` is smaller than row ``i``'s."""
    cols = np.ascontiguousarray(F.T)
    R = np.empty(cols.shape, dtype=np.int16 if len(F) <= 32768 else np.int64)
    for r, col, ordered in zip(R, cols, np.sort(cols, axis=1)):
        r[:] = np.searchsorted(ordered, col)
    return R


def _no_worse(R: np.ndarray) -> np.ndarray:
    """Pairwise comparison of one set's rows from their rank codes (see
    :func:`_codes`): ``le[i, j]`` iff row ``i`` is no worse than row ``j``
    in every objective."""
    n = R.shape[1]
    le = np.ones((n, n), dtype=bool)
    for r in R:
        le &= r[:, None] <= r
    return le


def _objectives(points) -> np.ndarray:
    """Objective rows as floats, refusing NaN, which no sort can place."""
    F = np.asarray(points, dtype=float)
    if np.isnan(F).any():
        raise InvalidInputError("objective vectors must not contain NaN")
    return F


def _sweep(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Front number of each row of a two-column ``F``, and whether an
    earlier row equals it. In (f1, f2) order a row can be dominated only by
    rows before it, and a front holds one of them exactly when the front's
    smallest f2 so far is at most the row's f2; the fronts' smallest f2
    values only grow with the front number, so a bisection finds the first
    front that does not dominate the row. An exact repeat (``-0.0`` equals
    ``0.0``) sorts right after its equal and takes its front."""
    f1, f2 = F.T
    order = np.lexsort((f2, f1))  # stable: equal rows keep index order
    f1, f2 = f1[order], f2[order]
    same = (f1[1:] == f1[:-1]) & (f2[1:] == f2[:-1])
    ranks, lows, r = [], [], 0  # lows[k]: front k's smallest f2 so far
    for y, again in zip(f2.tolist(), [False, *same.tolist()]):
        if not again:
            r = bisect_right(lows, y)
            if r < len(lows):
                lows[r] = y
            else:
                lows.append(y)
        ranks.append(r)
    rank = np.empty(len(F), dtype=int)
    rank[order] = ranks
    repeat = np.zeros(len(F), dtype=bool)
    repeat[order[1:]] = same
    return rank, repeat


def non_dominated(points) -> np.ndarray:
    """Mask of the rows to keep as a non-dominated set: those that no row
    dominates and no earlier row equals (``-0.0`` equals ``0.0``)."""
    F = _objectives(points)
    if F.ndim != 2 or F.shape[1] == 0:
        raise InvalidInputError("non_dominated needs a 2-D array of objective rows")
    if F.shape[1] == 2:
        rank, repeat = _sweep(F)
        return (rank == 0) & ~repeat
    R = _codes(F)
    le = _no_worse(R)
    # a stable lexsort puts equal rows next to each other, earliest first
    order = np.lexsort(R)
    ordered = R[:, order]
    repeat = np.zeros(len(F), dtype=bool)
    repeat[order[1:]] = (ordered[:, 1:] == ordered[:, :-1]).all(axis=0)
    return ~(le > le.T).any(axis=0) & ~repeat


def non_dominated_sort(points) -> np.ndarray:
    """Front number of each objective row: 0 for the non-dominated set, 1
    for the set non-dominated once front 0 is removed, and so on."""
    F = _objectives(points)
    if F.ndim != 2 or F.shape[0] == 0:
        raise InvalidInputError("non_dominated_sort needs a non-empty list of objective vectors")
    if F.shape[1] == 2:
        return _sweep(F)[0]
    R = _codes(F)
    le = _no_worse(R)
    D = (le > le.T).view(np.uint8)  # D[i, j]: row i dominates row j
    counts = D.sum(axis=0, dtype=R.dtype)  # a count, like a code, is below n
    rank = np.empty(len(F), dtype=int)
    current = np.flatnonzero(counts == 0)
    r = 0
    while current.size:
        rank[current] = r
        counts -= D[current].sum(axis=0, dtype=R.dtype)
        counts[current] = -1
        current = np.flatnonzero(counts == 0)
        r += 1
    return rank


def _crowding(F: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Crowding distance of every row within its front, all fronts at once:
    per objective, order the rows by front, value and index, give each
    front's first and last row +inf, and add the neighbour gap over the
    front's span to its interior rows when that span is positive."""
    n = len(F)
    dist = np.zeros(n)
    # every objective's order runs through the same rank sequence, so the
    # fronts' bounds are found once: edge[k] marks a front starting at
    # sorted position k, edge[n] the end of the last one
    edge = np.ones(n + 1, dtype=bool)
    r = np.sort(rank)
    np.not_equal(r[1:], r[:-1], out=edge[1:n])
    first, last = edge[:n], edge[1:]
    starts, ends = np.flatnonzero(first), np.flatnonzero(last)
    bound = first | last
    inner = np.flatnonzero(~bound)
    inner_front = (np.cumsum(first) - 1)[inner]
    for col in F.T:
        order = np.lexsort((col, rank))
        col = col[order]
        span = (col[ends] - col[starts])[inner_front]
        dist[order[bound]] = np.inf
        wide = span > 0
        at = inner[wide]
        dist[order[at]] += (col[at + 1] - col[at - 1]) / span[wide]
    return dist


def rank_and_crowd(points) -> tuple[np.ndarray, np.ndarray]:
    """Each objective row's rank (front number) and its crowding distance
    within its front."""
    F = np.asarray(points, dtype=float)
    rank = non_dominated_sort(F)
    return rank, _crowding(F, rank)


def crowded_order(rank, crowd) -> np.ndarray:
    """Indices sorted by the crowded comparison: lower rank first, then
    larger crowding distance, then lower index."""
    return np.lexsort((-np.asarray(crowd, dtype=float), np.asarray(rank)))

