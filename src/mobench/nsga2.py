"""NSGA-II baseline sharing the problem, operator, and archive substrate.

Binary tournament by the crowded comparison selects parents, SBX and
polynomial mutation produce the offspring, and the parent+offspring merge
is reduced by fast non-dominated sorting with crowding on the overflow
front. An external archive mirrors the reporting convention of the other
engine so comparisons differ only in algorithmic logic.
"""

from __future__ import annotations

import numpy as np

from .dominance import crowded_order
from .engine import Engine, EngineConfig

Nsga2Config = EngineConfig


class Nsga2Engine(Engine):
    algorithm = "nsga2"

    def mating(self):
        """Binary tournaments: each parent is the better of two members
        drawn uniformly, the one earlier in crowded order (lower rank, then
        larger crowding distance, then lower index)."""
        half = self.config.offspring_count // 2
        place = np.argsort(crowded_order(self.rank, self.crowd))
        i, j = self.rng.integers(0, len(place), size=(2, 2, half))
        a, b = np.where(place[i] < place[j], i, j)
        return a, b
