"""MOLPB: the multiobjective learner performance-based behavior algorithm.

Each generation a group of :data:`DP` (60%) of the population is separated
and split into good/bad halves by crowded dominance ranking. The best of the
bad half prunes the main population, whose remaining members are routed
into perfect / good / bad buckets relative to the pivot solutions. Parent
pairs are drawn from the good half (internally and against main-population
partners) and from the routed good members against the perfect bucket,
borrowing from the bad half when the perfect one runs out. Offspring
re-enter through an elitist merge with rank/crowding selection, and the
offspring in the merged set's first front are offered, once, to a bounded
external archive whose contents are the reported front.

Most generations mate a population that is one front, in which no row
dominates another though rows may repeat (``Engine.one_front``). Then the
best of the bad half prunes nothing, and every crowded order, the joint
one of main + good + bad included, is one-front crowding with ties by
position, so :func:`_front_route` gives the same pairs from the same draws
with two :func:`~mobench.dominance._front_crowding` calls. Every other
population goes through :func:`split_good_bad`, :func:`best_of_bad`,
:func:`filter_main` and :func:`route_main`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dominance import _front_crowding, crowded_first, crowded_order, rank_and_crowd
from .engine import Engine, EngineConfig
from .errors import InvalidConfigError, InvalidInputError, InvalidStateError

DP = 0.6  # fraction of the population separated each generation


@dataclass(frozen=True, kw_only=True)
class MolpbConfig(EngineConfig):
    """Engine settings; MOLPB needs ``n_pop >= 4``, so that the separated
    group (half-up :data:`DP` of the population) has at least two members
    to halve and the main population at least one."""

    def __post_init__(self):
        super().__post_init__()
        if self.n_pop < 4:
            raise InvalidConfigError(f"population size must be >= 4, got {self.n_pop}")


def split_good_bad(F) -> tuple[np.ndarray, np.ndarray]:
    """Order the separated group's objective rows by crowded dominance and
    split it: the best floor(S/2) row indices are the good half, the
    remainder the bad half."""
    if len(F) < 2:
        raise InvalidInputError("split_good_bad needs at least two solutions")
    rank, crowd = rank_and_crowd(F)
    order = crowded_order(rank, crowd)
    half = len(F) // 2
    return order[:half], order[half:]


def best_of_bad(F) -> int:
    """Row index of the crowded-comparison minimum of the bad half (ranked
    within the bad half alone)."""
    if len(F) == 0:
        raise InvalidStateError("bad population is empty")
    return crowded_first(F)


def filter_main(F, best_bad) -> np.ndarray:
    """Indices of the main-population rows not dominated by ``best_bad``."""
    best = np.asarray(best_bad, dtype=float)
    dominated = (best <= F).all(axis=1) & (best < F).any(axis=1)
    return np.flatnonzero(~dominated)


def route_main(main, good, bad) -> tuple[np.ndarray, np.ndarray]:
    """Route each main-population row relative to the pivot solutions.

    Ranks and crowding are computed jointly over main + good + bad. A
    member that the bad pivot precedes or ties goes to the bad bucket,
    which takes no part in mating; one that strictly precedes the good
    pivot goes to perfect; everything else extends the good population.
    Returns the (perfect, good extension) row indices into ``main``.
    """
    if len(good) == 0 or len(bad) == 0:
        raise InvalidStateError("route_main needs non-empty good and bad halves")
    n_main, n_good = len(main), len(good)
    rank, crowd = rank_and_crowd(np.concatenate([main, good, bad]))

    def pivot(lo: int, hi: int) -> int:
        return lo + int(crowded_order(rank[lo:hi], crowd[lo:hi])[0])

    def precedes(p: int) -> np.ndarray:
        # main members ranked strictly ahead of row p
        r, c = rank[:n_main], crowd[:n_main]
        return (r < rank[p]) | ((r == rank[p]) & (c > crowd[p]))

    best_good = pivot(n_main, n_main + n_good)
    best_bad = pivot(n_main + n_good, len(rank))
    kept = precedes(best_bad)
    ahead = precedes(best_good)
    return np.flatnonzero(kept & ahead), np.flatnonzero(kept & ~ahead)


def _front_route(F, separated, main):
    """The good and bad halves of ``separated`` and the (perfect, good
    extension) rows of ``main``, as the four general helpers give them,
    when no row of the population ``F`` dominates another; ``None`` when a
    joint crowding is NaN (overflowing spans), which only they order. A
    main row precedes a pivot exactly when its crowding is larger than the
    largest of the pivot's half."""

    def crowding(rows):
        G = F.T[:, rows]  # one row per objective
        return _front_crowding(G.T, G.argsort(axis=1, kind="stable"))

    ranked = separated[(-crowding(separated)).argsort(kind="stable")]
    half = len(ranked) // 2
    good, bad = ranked[:half], ranked[half:]
    crowd = crowding(np.concatenate([main, good, bad]))
    if np.isnan(crowd).any():
        return None
    n = len(main)
    c = crowd[:n]
    kept = c > crowd[n + half :].max()
    ahead = c > crowd[n : n + half].max()
    return good, bad, main[kept & ahead], main[kept & ~ahead]


class MolpbEngine(Engine):
    algorithm = "molpb"

    def mating(self):
        """Split and route the population, then cycle through the parent
        pairs: consecutive members of the good half's first part (the last
        with the first when the part is odd), the rest of the good half
        against random main-population partners, and routed good members
        against the perfect bucket, borrowing from the bad half when it
        runs out."""
        cfg, F = self.config, self.F
        perm = self.rng.permutation(cfg.n_pop)
        split = int(DP * cfg.n_pop + 0.5)  # half-up; in [2, n_pop - 1] for n_pop >= 4
        separated, main = perm[:split], perm[split:]
        route = _front_route(F, separated, main) if self.one_front else None
        if route is not None:
            good, bad, perfect, extension = route
        else:
            good_rows, bad_rows = split_good_bad(F[separated])
            good, bad = separated[good_rows], separated[bad_rows]
            main = main[filter_main(F[main], F[bad[best_of_bad(F[bad])]])]
            perfect, extension = (main[i] for i in route_main(F[main], F[good], F[bad]))

        cut = len(good) - len(good) // 2
        first, second = good[:cut], good[cut:]
        partners = main if len(main) else bad
        drawn = partners[self.rng.integers(len(partners), size=len(second))]
        lent = np.arange(max(len(extension) - len(perfect), 0)) % len(bad)
        a = np.concatenate([first[0::2], second, extension])
        b = np.concatenate([first[1::2], first[: cut % 2], drawn, perfect[: len(extension)], bad[lent]])
        pairs = np.arange(cfg.offspring_count // 2) % len(a)
        return a[pairs], b[pairs]
