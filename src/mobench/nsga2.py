"""NSGA-II baseline sharing the problem, operator, and archive substrate.

Binary tournament by the crowded comparison selects parents, SBX and
polynomial mutation produce the offspring, and the parent+offspring merge
is reduced by fast non-dominated sorting with crowding on the overflow
front. The engine keeps the population in crowded order, so a tournament
goes to the contestant with the lower row index. An external archive
mirrors the reporting convention of the other engine so comparisons
differ only in algorithmic logic.
"""

from __future__ import annotations

from .engine import Engine, EngineConfig

Nsga2Config = EngineConfig


class Nsga2Engine(Engine):
    algorithm = "nsga2"

    def mating(self):
        """Binary tournaments: each parent is the better of two members
        drawn uniformly by the crowded comparison (lower rank, then larger
        crowding distance, then lower index), which on the best-first
        population is the lower row index."""
        half = self.config.offspring_count // 2
        a, b = self.rng.integers(0, len(self.X), size=(2, 2, half)).min(axis=0)
        return a, b
