"""MOLPB: the multiobjective learner performance-based behavior algorithm.

Each generation a dp-sized group is separated from the population and
split into good/bad halves by crowded dominance ranking. The best of the
bad half prunes the main population, whose remaining members are routed
into perfect / good / bad buckets relative to the pivot solutions. Parent
pairs are drawn from the good half (internally and against main-population
partners) and from the routed good members against the perfect bucket,
borrowing from the bad bucket when the perfect one runs out. Offspring
re-enter through an elitist merge with rank/crowding selection, and the
non-dominated members of the merged set feed a bounded external archive
whose contents are the reported front.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle

import numpy as np

from .dominance import crowded_order, rank_and_crowd
from .engine import Engine, EngineConfig
from .errors import InvalidInputError, InvalidStateError
from .operators import dp_split_size


@dataclass(frozen=True, kw_only=True)
class MolpbConfig(EngineConfig):
    """Engine settings plus the separated fraction ``dp`` (default 0.6)."""

    dp: float = 0.6

    def __post_init__(self):
        super().__post_init__()
        dp_split_size(self.n_pop, self.dp)  # validates dp and n_pop >= 4


def split_good_bad(F) -> tuple[np.ndarray, np.ndarray]:
    """Order the separated group's objective rows by crowded dominance and
    split it: the best floor(S/2) row indices are the good half, the
    remainder the bad half."""
    if len(F) < 2:
        raise InvalidInputError("split_good_bad needs at least two solutions")
    _, rank, crowd = rank_and_crowd(F)
    order = crowded_order(rank, crowd)
    half = len(F) // 2
    return order[:half], order[half:]


def best_of_bad(F) -> int:
    """Row index of the crowded-comparison minimum of the bad half (ranked
    within the bad half alone)."""
    if len(F) == 0:
        raise InvalidStateError("bad population is empty")
    _, rank, crowd = rank_and_crowd(F)
    return int(crowded_order(rank, crowd)[0])


def filter_main(F, best_bad) -> np.ndarray:
    """Indices of the main-population rows not dominated by ``best_bad``."""
    F = np.asarray(F, dtype=float)
    best_bad = np.asarray(best_bad, dtype=float)
    dominated = (best_bad <= F).all(axis=1) & (best_bad < F).any(axis=1)
    return np.flatnonzero(~dominated)


def route_main(main, good, bad) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Route each main-population row relative to the pivot solutions.

    Ranks and crowding are computed jointly over main + good + bad. A
    member that the bad pivot precedes or ties goes to the bad bucket; one
    that strictly precedes the good pivot goes to perfect; everything else
    extends the good population. Returns the (perfect, good extension, bad
    extension) row indices into ``main``.
    """
    if len(good) == 0 or len(bad) == 0:
        raise InvalidStateError("route_main needs non-empty good and bad halves")
    n_main, n_good = len(main), len(good)
    _, rank, crowd = rank_and_crowd(np.concatenate([main, good, bad]))

    def pivot(lo: int, hi: int) -> int:
        return lo + int(crowded_order(rank[lo:hi], crowd[lo:hi])[0])

    def precedes(p: int) -> np.ndarray:
        # main members ranked strictly ahead of row p
        r, c = rank[:n_main], crowd[:n_main]
        return (r < rank[p]) | ((r == rank[p]) & (c > crowd[p]))

    best_good = pivot(n_main, n_main + n_good)
    best_bad = pivot(n_main + n_good, len(rank))
    to_bad = ~precedes(best_bad)
    ahead = precedes(best_good)
    return (
        np.flatnonzero(~to_bad & ahead),
        np.flatnonzero(~to_bad & ~ahead),
        np.flatnonzero(to_bad),
    )


class MolpbEngine(Engine):
    algorithm = "molpb"

    def mating(self):
        """Split and route the population, then cycle through the parent
        pairs: good-half pairs, good-half members against main-population
        partners, and routed good members against the perfect bucket,
        borrowing from the bad half when it runs out."""
        cfg, F = self.config, self.F
        perm = self.rng.permutation(cfg.n_pop)
        split = dp_split_size(cfg.n_pop, cfg.dp)
        separated, main = perm[:split], perm[split:]
        good_rows, bad_rows = split_good_bad(F[separated])
        good, bad = separated[good_rows], separated[bad_rows]
        main = main[filter_main(F[main], F[bad[best_of_bad(F[bad])]])]
        perfect, extension, _ = route_main(F[main], F[good], F[bad])
        perfect, extension = main[perfect], main[extension]

        first_half = good[: (len(good) + 1) // 2]
        second_half = good[(len(good) + 1) // 2 :]
        pairs = [(first_half[i], first_half[i + 1]) for i in range(0, len(first_half) - 1, 2)]
        if len(first_half) % 2 == 1:
            pairs.append((first_half[-1], first_half[0]))
        partners = main if len(main) else bad
        for member in second_half:
            pairs.append((member, partners[int(self.rng.integers(len(partners)))]))
        for i, member in enumerate(extension):
            if i < len(perfect):
                pairs.append((member, perfect[i]))
            else:
                pairs.append((member, bad[(i - len(perfect)) % len(bad)]))
        yield from cycle(pairs)
