"""Pareto dominance, fast non-dominated sorting, and crowding distance.

Everything here minimizes. :func:`non_dominated_sort` and
:func:`non_dominated` refuse a NaN objective value with
:class:`InvalidInputError`: it compares neither way, so it has no front.
:func:`_dominance` is the one pairwise kernel of the package: ``D[i, j]``
iff row ``i`` dominates row ``j``, one ``(n, n)`` pass per objective and
no ``(n, n, m)`` temporary. It compares integer rank codes
(:func:`_codes`, one argsort of all columns) rather than floats: each
value is replaced by the number of smaller values in its column, so
codes order as the values do, equal values (``-0.0`` and ``0.0``
included) share a code, and the codes fit in int16 up to 32768 rows.
Strict dominance needs no transposed pass: where row ``i`` is no worse
than row ``j``, it is strictly better somewhere exactly when its code
sum is smaller, so the passes start from the sums' order. The archive
orders its truncation by the same codes. :func:`non_dominated` is the
one rule for keeping a non-dominated set (archive, reference fronts): a
row goes when another row dominates it or an earlier row equals it;
equal rows are found by a lexsort of the codes, not from the matrix. :func:`non_dominated_sort`
returns a rank array: ``rank[i]`` is the front number of row ``i``, so
front 0 (the non-dominated set) is ``rank == 0``. With two objectives
both functions sort the rows once by (f1, f2); front 0 is the rows whose
f2 is below the prefix minimum of the f2 values before them, so
:func:`non_dominated` runs no Python loop. The sort's later fronts come
from an O(n log n) bisection sweep (Jensen 2003) over the rows outside
front 0 only. With one or three and more objectives both work on the
O(m * n^2) matrix ``D``, and the sort uses the domination-count scheme
on it. Crowding distance is computed for all fronts at once, in one pass
per objective; with two objectives and no repeated row it reuses the
sort's order for both objectives instead. A front of distinct rows
listed by rising f1 is a chain, along which f2 strictly falls, so its
crowding is one shifted difference per objective (:func:`_chain`).
:func:`select` is NSGA-II's environmental selection of ``k`` rows,
the first ``k`` indices of :func:`crowded_order` (whole fronts while they
fit, then the overflowing front by descending crowding), with the front-0
mask. When front 0 holds at least ``k`` rows, the common case for any
number of objectives, it crowds front 0 alone (one chain, or
:func:`_front_crowding` from a stable sort per objective) and ranks no other row.
:func:`crowded_first` finds the first row in crowded order; with two
objectives it reads front 0's extremes alone.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .errors import InvalidInputError


def _codes(F: np.ndarray) -> np.ndarray:
    """Objective-major rank codes of the rows of ``F``: ``R[k, i]`` is the
    number of rows whose objective ``k`` is smaller than row ``i``'s, that
    is the sorted position where its run of equal values starts."""
    cols = np.ascontiguousarray(F.T)
    m, n = cols.shape
    dtype = np.int16 if n <= 32768 else np.int64
    order = cols.argsort(axis=1)
    order += n * np.arange(m)[:, None]  # flat positions in cols and R
    ordered = cols.ravel()[order]
    starts = np.zeros((m, n), dtype=dtype)
    np.multiply(ordered[:, 1:] != ordered[:, :-1], np.arange(1, n, dtype=dtype), out=starts[:, 1:])
    np.maximum.accumulate(starts, axis=1, out=starts)
    R = np.empty_like(starts)
    R.ravel()[order] = starts
    return R


def _dominance(R: np.ndarray) -> np.ndarray:
    """Pairwise dominance of one set's rows from their rank codes (see
    :func:`_codes`): ``D[i, j]`` iff row ``i`` dominates row ``j``. Where row
    ``i`` is no worse than row ``j`` everywhere, it is strictly better
    somewhere exactly when its code sum is smaller, and equal rows have
    equal sums, so one pass per objective refines the sums' order."""
    s = R.sum(axis=0, dtype=np.int16 if R.size <= 32768 else np.int64)
    D = s[:, None] < s
    for r in R:
        D &= r[:, None] <= r
    return D


def _objectives(points) -> np.ndarray:
    """Objective rows as floats, refusing NaN, which no sort can place."""
    F = np.asarray(points, dtype=float)
    if np.isnan(F).any():
        raise InvalidInputError("objective vectors must not contain NaN")
    return F


def _front_zero(F: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The one sort of a two-column ``F``: the row order by (f1, f2), the
    sorted columns, and in that order whether each row is front 0's first
    of its kind. A stable sort keeps equal rows (``-0.0`` equals ``0.0``) in
    index order. A row that no earlier row equals can be dominated only by
    rows before it, and one of them dominates it exactly when the smallest
    f2 before it is at most its own f2, so front 0's first rows of their
    kind are those below that prefix minimum; a repeat equals the prefix
    minimum and is never first of its kind."""
    f1, f2 = F.T
    order = np.lexsort((f2, f1))
    f1, f2 = f1[order], f2[order]
    best = np.empty(len(F), dtype=bool)
    best[:1] = True
    np.less(f2[1:], np.minimum.accumulate(f2[:-1]), out=best[1:])
    return order, f1, f2, best


def _runs(f1: np.ndarray, f2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For sorted columns: whether each row after the first equals the one
    before it, and whether each row is the first of its run of equal rows."""
    same = (f1[1:] == f1[:-1]) & (f2[1:] == f2[:-1])
    head = np.empty(len(f1), dtype=bool)
    head[0] = True
    np.logical_not(same, out=head[1:])
    return same, head


def _sweep(order, f1, f2, best) -> tuple[np.ndarray, np.ndarray]:
    """Front number of each row of a non-empty two-column matrix, from its
    :func:`_front_zero` sort, and in the sorted order whether each row
    equals the one before it. Equal rows form a run that takes its first
    row's front. The runs outside front 0 are swept in the sorted order,
    where a front holds a dominator of a row exactly when the front's
    smallest f2 so far is at most the row's f2. The fronts' smallest f2
    values only grow with the front number, so a bisection finds the
    first front that does not dominate the row (Jensen 2003)."""
    same, head = _runs(f1, f2)
    top = best[head]  # whether each run is in front 0
    rest = (~top).nonzero()[0]
    ranks, lows = [], []  # lows[k]: front k + 1's smallest f2 so far
    for y in f2[head][rest].tolist():
        r = bisect_right(lows, y)
        if r < len(lows):
            lows[r] = y
        else:
            lows.append(y)
        ranks.append(r + 1)
    run_rank = np.zeros(len(top), dtype=int)
    run_rank[rest] = ranks
    rank = np.empty(len(order), dtype=int)
    rank[order] = run_rank[head.cumsum() - 1]
    return rank, same


def non_dominated(points) -> np.ndarray:
    """Mask of the rows to keep as a non-dominated set: those that no row
    dominates and no earlier row equals (``-0.0`` equals ``0.0``)."""
    F = _objectives(points)
    if F.ndim != 2 or F.shape[1] == 0:
        raise InvalidInputError("non_dominated needs a 2-D array of objective rows")
    if F.shape[1] == 2:
        order, _, _, best = _front_zero(F)
        keep = np.empty(len(F), dtype=bool)
        keep[order] = best
        return keep
    return _non_dominated(F)[0]


def _non_dominated(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`non_dominated` of a matrix ``F`` from its rank codes (the
    two-column case sorts instead), and the codes ``R``."""
    R = _codes(F)
    # a stable lexsort puts equal rows next to each other, earliest first
    order = np.lexsort(R)
    ordered = R[:, order]
    repeat = np.zeros(len(F), dtype=bool)
    repeat[order[1:]] = (ordered[:, 1:] == ordered[:, :-1]).all(axis=0)
    return ~_dominance(R).any(axis=0) & ~repeat, R


def _sortable(points) -> np.ndarray:
    """Objective rows that can be ranked: a non-empty matrix without NaN."""
    F = _objectives(points)
    if F.ndim != 2 or F.shape[0] == 0:
        raise InvalidInputError("non_dominated_sort needs a non-empty list of objective vectors")
    return F


def non_dominated_sort(points) -> np.ndarray:
    """Front number of each objective row: 0 for the non-dominated set, 1
    for the set non-dominated once front 0 is removed, and so on."""
    F = _sortable(points)
    return _sweep(*_front_zero(F))[0] if F.shape[1] == 2 else _peel(F)


def _peel(F: np.ndarray) -> np.ndarray:
    """Front numbers from the domination counts of :func:`_dominance`."""
    R = _codes(F)
    D = _dominance(R).view(np.uint8)
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


def _fronts(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For front numbers ``r`` in ascending order: which positions are a
    front's first or last, the other (inner) positions, and the first and
    last position of each inner position's front."""
    n = len(r)
    # edge[k] marks a front starting at position k, edge[n] the end of the last one
    edge = np.empty(n + 1, dtype=bool)
    edge[0] = edge[n] = True
    np.not_equal(r[1:], r[:-1], out=edge[1:n])
    first, last = edge[:n], edge[1:]
    bound = first | last
    inner = (~bound).nonzero()[0]
    front = first.cumsum()[inner] - 1
    return bound, inner, first.nonzero()[0][front], last.nonzero()[0][front]


def _crowding(F: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Crowding distance of every row within its front, all fronts at once:
    per objective, order the rows by front, value and index, give each
    front's first and last row +inf, and add the neighbour gap over the
    front's span to its interior rows when that span is positive."""
    dist = np.zeros(len(F))
    # every objective's order runs through the same rank sequence, so the
    # fronts' bounds are found once
    bound, inner, lo, hi = _fronts(np.sort(rank))
    for col in F.T:
        order = np.lexsort((col, rank))
        col = col[order]
        span = col[hi] - col[lo]
        dist[order[bound]] = np.inf
        wide = span > 0
        at = inner[wide]
        dist[order[at]] += (col[at + 1] - col[at - 1]) / span[wide]
    return dist


def _front_crowding(F: np.ndarray, order: np.ndarray) -> np.ndarray:
    """:func:`_crowding` of ``F`` as one front, from each objective's rows in
    (value, index) order ``order[k]``: an objective's edge rows get +inf
    before its interior gaps are added, so overflowing spans match too."""
    dist = np.zeros(len(F))
    for col, o in zip(F.T, order):
        col = col[o]
        dist[o[0]] = dist[o[-1]] = np.inf
        if (span := col[-1] - col[0]) > 0:
            dist[o[1:-1]] += (col[2:] - col[:-2]) / span
    return dist


def _chain(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """:func:`_crowding` of one front of distinct rows listed by rising f1,
    along which f2 strictly falls: +inf at both ends, and inside one
    shifted difference per objective over its span, objective 0 added
    first."""
    dist = np.empty(len(f1))
    dist[[0, -1]] = np.inf
    dist[1:-1] = (f1[2:] - f1[:-2]) / (f1[-1] - f1[0]) + (f2[:-2] - f2[2:]) / (f2[0] - f2[-1])
    return dist


def _chains(F: np.ndarray, rank: np.ndarray, order: np.ndarray) -> np.ndarray:
    """:func:`_crowding` of a two-column ``F`` in which no row repeats, from
    the sweep's (f1, f2) ``order``: every front is a chain (see
    :func:`_chain`), so listing each front by rising f1 gives both
    objectives' neighbours and spans, every span is positive, and the
    sums are those of :func:`_crowding`, objective 0 first."""
    order = order[rank[order].argsort(kind="stable")]
    bound, inner, lo, hi = _fronts(rank[order])
    f1, f2 = F[order].T
    at = inner - 1  # entry p - 1 of f1[2:] - f1[:-2] is position p's neighbour gap
    gap1, gap2 = (f1[2:] - f1[:-2])[at], (f2[:-2] - f2[2:])[at]
    dist = np.zeros(len(F))
    dist[order[bound]] = np.inf
    dist[order[inner]] = gap1 / (f1[hi] - f1[lo]) + gap2 / (f2[lo] - f2[hi])
    return dist


def rank_and_crowd(points) -> tuple[np.ndarray, np.ndarray]:
    """Each objective row's rank (front number) and its crowding distance
    within its front."""
    F = _sortable(points)
    if F.shape[1] != 2:
        rank = _peel(F)
        return rank, _crowding(F, rank)
    rank, same = _sweep(*(sort := _front_zero(F)))
    return rank, _crowding(F, rank) if same.any() else _chains(F, rank, sort[0])


def select(points, k: int) -> tuple[np.ndarray, np.ndarray]:
    """NSGA-II's environmental selection of ``k`` rows, the first ``k``
    indices of :func:`crowded_order` of the rows' ranks and crowding, and
    the mask of front 0 (``rank == 0``). When front 0 holds at least ``k``
    rows, only front 0 is crowded; a repeat of a front-0 row is in front 0
    too. With two objectives front 0 is one chain unless it holds a repeat."""
    F = _sortable(points)
    if F.shape[1] != 2:
        top = ~_dominance(R := _codes(F)).any(axis=0)
        rows = top.nonzero()[0]
    else:
        order, f1, f2, best = _front_zero(F)
        same, head = _runs(f1, f2)
        # a repeat takes the front of the first row of its run
        zero = best[head][head.cumsum() - 1] if same.any() else best
        rows = order[zero]
        top = np.zeros(len(F), dtype=bool)
        top[rows] = True
    if len(rows) < k:
        return crowded_order(*rank_and_crowd(F))[:k], top
    if F.shape[1] != 2:
        crowd = _front_crowding(F[rows], R[:, rows].argsort(axis=1, kind="stable"))
    elif len(rows) == np.count_nonzero(best):  # no repeat in front 0
        crowd = _chain(f1[zero], f2[zero])
    else:
        rows.sort()  # index order, in which equal values are ordered
        crowd = _front_crowding(F[rows], F[rows].argsort(axis=0, kind="stable").T)
    return rows[np.lexsort((rows, -crowd))[:k]], top


def crowded_first(points) -> int:
    """The first index of :func:`crowded_order` of the rows' ranks and
    crowding. With two objectives the rows with infinite crowding, which
    come first, are front 0's first and last rows in each objective's
    (value, index) order, that is the first rows of front 0's first and
    last runs of equal rows in (f1, f2) order, so it is the lower index of
    those two. With one or three and more objectives it ranks and crowds
    every row."""
    F = _sortable(points)
    if F.shape[1] != 2:
        return int(crowded_order(*rank_and_crowd(F))[0])
    order, _, _, best = _front_zero(F)
    return int(min(order[0], order[np.flatnonzero(best)[-1]]))


def crowded_order(rank, crowd) -> np.ndarray:
    """Indices sorted by the crowded comparison: lower rank first, then
    larger crowding distance, then lower index."""
    return np.lexsort((-np.asarray(crowd, dtype=float), np.asarray(rank)))
