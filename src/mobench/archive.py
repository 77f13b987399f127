"""Bounded external archive of mutually non-dominated objective vectors.

The archive stores the best front found across a whole run. Inserting a
dominated or duplicate objective vector is a no-op; an accepted one evicts
every member it dominates, and overflow is resolved by repeatedly dropping
the member with the smallest finite crowding distance (recomputed after
each removal) until the capacity holds. Members with infinite crowding
(per-objective extremes) are only ever dropped when no finite-crowding
member remains.
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
        self._F: np.ndarray | None = None  # one row per member

    def __len__(self) -> int:
        return 0 if self._F is None else len(self._F)

    def objectives(self) -> np.ndarray:
        """Objective matrix of the current members, one row per member."""
        if self._F is None:
            return np.empty((0, 0))
        return self._F.copy()

    def insert(self, f) -> bool:
        """Offer an objective vector to the archive.

        Returns True iff it was accepted. Rejected when any member
        dominates it or matches it exactly (duplicates corrupt spacing and
        crowding statistics).
        """
        cf = np.asarray(f, dtype=float)
        if self._F is None:
            self._F = cf[None, :].copy()
            return True
        F = self._F
        le = (F <= cf).all(axis=1)
        if le.any():
            # a member no worse everywhere either dominates the candidate
            # or equals it exactly; both mean rejection
            return False
        ge = (F >= cf).all(axis=1)
        gt = (F > cf).any(axis=1)
        keep = ~(ge & gt)
        if not keep.all():
            F = F[keep]
        self._F = np.concatenate([F, cf[None, :]], axis=0)
        if len(self._F) > self.capacity:
            self.truncate()
        return True

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
