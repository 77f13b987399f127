"""Bounded external archive of mutually non-dominated objective vectors.

The archive stores the best front found across a run. One
:meth:`ParetoArchive.insert` call offers a matrix of objective rows: the
members, in their order, are stacked above the offered rows, and every
row that :func:`dominance.non_dominated` rejects (another row dominates it
or an earlier row matches it exactly) is dropped. An empty offer changes
nothing. Without truncation, one batch leaves the same members in the
same order as offering its rows one at a time. Overflow is then
resolved by repeatedly dropping the member with the smallest finite
crowding distance. When none is finite, the first member goes and
truncation starts over on the rest, whose spans have changed. This is
incremental and exact, not an approximation: a drop changes the
crowding of at most 2m members, its neighbours in each objective's
order (Kukkonen & Deb 2006), and no span changes while a finite-crowding
member goes, so only those neighbours are recomputed, each from scratch
and only when it comes up as the next candidate to drop. The set-up
comes from one stable sort of every column's rank codes, those the
filter compared or, on a restart, fresh ones: it gives each row's
neighbours in each objective, the spans and the starting crowding,
:func:`dominance._front_crowding` of the whole set (+inf or NaN at
every edge row). An insert takes one path by its column count and makes
at most one truncation call. With two objectives the filter's own
(f1, f2) sort already lists the kept rows as one chain, along which f2
falls, so truncation walks one prev/next list over that order instead,
with the same heap entries and sums, and keeps the survivors in stacking
order. At capacity 1, where an end must go, or when a span overflows,
the chain's rows go to the general truncation in stacking order.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .dominance import _chain, _codes, _front_crowding, _front_zero, _non_dominated
from .errors import InvalidConfigError, InvalidInputError


class ParetoArchive:
    def __init__(self, capacity: int):
        if capacity < 1:
            raise InvalidConfigError("archive capacity must be >= 1")
        self.capacity = capacity
        self._F = np.empty((0, 0))  # one row per member

    def __len__(self) -> int:
        return len(self._F)

    def objectives(self) -> np.ndarray:
        """Objective matrix of the current members, one row per member."""
        return self._F.copy()

    def insert(self, F) -> int:
        """Offer objective rows (a single vector is one row) to the archive.

        Returns how many offered rows became members, before truncation;
        an empty offer returns 0 and leaves the members as they are. A row
        is rejected when any member or offered row dominates it, or
        when an earlier one matches it exactly (duplicates corrupt spacing
        and crowding statistics). Rows with a non-finite value, or of a
        width other than the members', raise :class:`InvalidInputError`.
        """
        new = np.atleast_2d(np.asarray(F, dtype=float))
        if new.size == 0:
            return 0
        if new.ndim != 2:
            raise InvalidInputError(f"archive rows must form a matrix, got shape {new.shape}")
        if len(self) and new.shape[1] != self._F.shape[1]:
            raise InvalidInputError(f"archive rows have {self._F.shape[1]} objectives, got {new.shape[1]}")
        if not np.isfinite(new).all():
            raise InvalidInputError("archive rows must be finite")
        F = np.concatenate([self._F, new]) if len(self) else new
        if F.shape[1] == 2:  # the filter's sort lists the kept rows as one chain
            order, _, _, best = _front_zero(F)
            chain = order[best]
            kept = _thin_chain(F, chain, self.capacity) if len(chain) > self.capacity else chain
            self._F = F[np.sort(kept)]
            return int(np.count_nonzero(chain >= len(F) - len(new)))
        keep, R = _non_dominated(F)
        self._F = F[keep]
        if len(self) > self.capacity:  # the filter's codes order the kept rows too
            self._F = self._F[_thin(self._F, self.capacity, R[:, keep])]
        return int(keep[len(F) - len(new):].sum())


def _thin(F: np.ndarray, capacity: int, R: np.ndarray) -> list[int]:
    """Rows of ``F`` kept after dropping the smallest finite crowding (lowest
    row on ties) one row at a time down to ``capacity``, from codes ``R``
    that order each objective's values as :func:`dominance._codes` does.
    With none finite it drops the first row and starts over on the rest
    with fresh codes, as the spans change; only edge and NaN rows are then
    left, a few per objective, so restarts nest only that deep."""
    n, m = F.shape
    order = R.argsort(axis=1, kind="stable")  # order[k]: rows by objective k, ties by row
    prev, nxt = np.full((m, n), -1), np.full((m, n), -1)  # each row's neighbours per objective
    k = np.arange(m)
    nxt[k[:, None], order[:, :-1]] = order[:, 1:]
    prev[k[:, None], order[:, 1:]] = order[:, :-1]
    spans = F[order[:, -1], k] - F[order[:, 0], k]
    cols, prev, nxt = F.T.tolist(), prev.tolist(), nxt.tolist()
    links = list(zip(prev, nxt))
    terms = [(col, span, p, q) for col, span, p, q in zip(cols, spans.tolist(), prev, nxt) if span > 0]
    # (crowding, row) of the finite-crowding rows left; a drop only raises its
    # neighbours' crowding, so a stale entry is a lower bound, renewed on top
    crowd = _front_crowding(F, order)
    finite = np.flatnonzero(crowd < np.inf)
    heap = list(zip(crowd[finite].tolist(), finite.tolist()))
    heapq.heapify(heap)
    heappop, heapreplace = heapq.heappop, heapq.heapreplace  # local names for the drop loop
    alive, stale = [True] * n, [False] * n
    for _ in range(n - capacity):
        while heap and stale[i := heap[0][1]]:
            stale[i], c = False, 0.0
            for col, span, p, q in terms:  # in objective order, as _crowding
                c += (col[q[i]] - col[p[i]]) / span
            if c < math.inf:
                heapreplace(heap, (c, i))
            else:  # NaN: a gap overflowed, and it only widens
                heappop(heap)
        if not heap:
            alive[alive.index(True)] = False
            rest = [i for i in range(n) if alive[i]]
            return [rest[i] for i in _thin(F[rest], capacity, _codes(F[rest]))]
        drop = heappop(heap)[1]
        alive[drop] = False
        for p, q in links:  # a finite-crowding row is interior in every objective
            a, b = p[drop], q[drop]
            q[a], p[b], stale[a], stale[b] = b, a, True, True
    return [i for i in range(n) if alive[i]]


def _thin_chain(F: np.ndarray, chain: np.ndarray, capacity: int) -> np.ndarray:
    """:func:`_thin` of the rows ``chain`` of a two-column ``F``, listed by
    rising f1 and so by falling f2: each row's neighbours in both
    objectives are its neighbours along the chain, so one prev/next list
    serves both. Heap entries and sums are those of :func:`_thin`, so ties
    and rounding match. At capacity 1 an end must go, and when a span
    overflows a gap can give NaN crowding, which _thin skips; both go to
    :func:`_thin` of the rows in stacking order, with fresh codes."""
    n = len(chain)
    f1, f2 = F[chain].T
    span1, span2 = float(f1[-1] - f1[0]), float(f2[0] - f2[-1])
    if capacity == 1 or not math.isfinite(span1 + span2):
        rows = np.sort(chain)
        return rows[_thin(F[rows], capacity, _codes(F[rows]))]
    crowd = _chain(f1, f2)
    f1, f2 = f1.tolist(), f2.tolist()
    prev, nxt = list(range(-1, n - 1)), list(range(1, n + 1))
    # (crowding, row, position) of the inner positions; rows are distinct,
    # so the position is never compared
    heap = list(zip(crowd[1:-1].tolist(), chain[1:-1].tolist(), range(1, n - 1)))
    heapq.heapify(heap)
    heappop, heapreplace = heapq.heappop, heapq.heapreplace
    alive, stale = np.ones(n, dtype=bool), [False] * n
    for _ in range(n - capacity):
        while stale[(top := heap[0])[2]]:
            i = top[2]
            stale[i] = False
            a, b = prev[i], nxt[i]
            heapreplace(heap, ((f1[b] - f1[a]) / span1 + (f2[a] - f2[b]) / span2, top[1], i))
        i = heappop(heap)[2]
        alive[i] = False
        a, b = prev[i], nxt[i]
        nxt[a], prev[b], stale[a], stale[b] = b, a, True, True
    return chain[alive]
