"""Bounded external archive of mutually non-dominated objective vectors.

The archive stores the best front found across a run. One
:meth:`ParetoArchive.insert` call offers a matrix of objective rows: the
members, in their order, are stacked above the offered rows, every row
that another row dominates or that an earlier row matches exactly is
dropped, and overflow is then resolved by repeatedly dropping the member
with the smallest finite crowding distance (recomputed after each
removal) until the capacity holds. Members with infinite crowding
(per-objective extremes) are only ever dropped when no finite-crowding
member remains. Without truncation, one batch leaves the same members in
the same order as offering its rows one at a time.
"""

from __future__ import annotations

import numpy as np

from .dominance import crowding_distance
from .errors import InvalidConfigError


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

        Returns how many offered rows became members, before truncation.
        A row is rejected when any member or offered row dominates it, or
        when an earlier one matches it exactly (duplicates corrupt spacing
        and crowding statistics).
        """
        new = np.atleast_2d(np.asarray(F, dtype=float))
        F = np.concatenate([self._F, new]) if len(self) else new
        le = (F[:, None, :] <= F[None, :, :]).all(axis=2)  # le[i, j]: row i no worse than row j
        lt = (F[:, None, :] < F[None, :, :]).any(axis=2)
        earlier = np.triu(np.ones_like(le), k=1)
        keep = ~(le & (lt | earlier)).any(axis=0)
        self._F = F[keep]
        self.truncate()
        return int(keep[len(F) - len(new):].sum())

    def truncate(self) -> None:
        """Drop lowest-crowding members one at a time until within capacity."""
        while len(self) > self.capacity:
            crowd = crowding_distance(self._F)
            finite = np.isfinite(crowd)
            if finite.any():
                candidates = np.flatnonzero(finite)
                drop = int(candidates[np.argmin(crowd[candidates])])
            else:
                drop = 0
            self._F = np.delete(self._F, drop, axis=0)
