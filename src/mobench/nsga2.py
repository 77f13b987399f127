"""NSGA-II baseline sharing the problem, operator, and archive substrate.

Binary tournament by the crowded comparison selects parents, SBX and
polynomial mutation produce the offspring, and the parent+offspring merge
is reduced by fast non-dominated sorting with crowding on the overflow
front. An external archive mirrors the reporting convention of the other
engine so comparisons differ only in algorithmic logic.
"""

from __future__ import annotations

from .engine import Engine, EngineConfig

Nsga2Config = EngineConfig


class Nsga2Engine(Engine):
    algorithm = "nsga2"

    def _tournament(self) -> int:
        # Binary tournament on (rank, crowding), index breaking exact ties.
        i, j = (int(v) for v in self.rng.integers(0, self.config.n_pop, size=2))
        return min(i, j, key=lambda k: (self.rank[k], -self.crowd[k], k))

    def mating(self):
        """Two independent tournaments per crossover."""
        while True:
            yield self._tournament(), self._tournament()
