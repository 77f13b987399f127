"""The generation loop shared by MOLPB and NSGA-II.

A population is two aligned arrays, ``X`` (decoded decision vectors, one
row per member) and ``F`` (their objective vectors), with the rows kept
best first: in crowded order (lower rank, then larger crowding distance,
then lower index) of the elitist merge that produced them, so a lower
row index means a member that is no worse by the crowded comparison. A
generation is a handful of whole-array calls: :meth:`Engine.mating`, the
one method an algorithm provides, returns the parent pairs as two index
arrays; one SBX call crosses every pair and one polynomial mutation call
perturbs every child; the offspring are decoded and evaluated in one
batch; and :meth:`Engine._merge` keeps the first ``n_pop`` rows of parents
plus offspring in crowded order, from one :func:`~mobench.dominance.select`
call that ranks and crowds only as far as those rows need, and offers the
newcomers in the merged set's first front (``rank == 0``) to the archive
in one call. Each evaluated point is thus offered at most once, in the
generation it is evaluated. No front-0 point is missed: a member in a
merged first front was in the first front when it entered, since a row
that dominated it then ranks lower and is kept whenever it is.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .archive import ParetoArchive
from .dominance import select
from .errors import InvalidConfigError, InvalidStateError
from .operators import polynomial_mutation, sbx_crossover
from .problems import ProblemSpec, decode, evaluate
from .results import RunResult


@dataclass(frozen=True, kw_only=True)
class EngineConfig:
    """Run parameters; the defaults are the standard benchmark settings
    (population 100, 350 generations, archive 100, and 2*round(0.7*n_pop)
    offspring, 140 at that population). The variation settings are not
    run parameters: the operators read
    :data:`~mobench.operators.MUTATION_PROB` and
    :data:`~mobench.operators.DISTRIBUTION_INDEX` themselves."""

    n_pop: int = 100
    offspring_count: Optional[int] = None
    archive_capacity: int = 100
    max_generations: int = 350
    seed: int = 0

    def __post_init__(self):
        if self.n_pop < 2:
            raise InvalidConfigError("n_pop must be >= 2")
        if self.max_generations < 0:
            raise InvalidConfigError("max_generations must be >= 0")
        if self.seed < 0:
            raise InvalidConfigError("seed must be >= 0")
        if self.offspring_count is None:
            object.__setattr__(self, "offspring_count", 2 * round(0.7 * self.n_pop))
        if self.offspring_count < 2 or self.offspring_count % 2 != 0:
            raise InvalidConfigError("offspring_count must be even and >= 2")


class Engine:
    """One seeded run over a problem; owns its rng, population arrays and
    archive, so separate instances can run concurrently."""

    algorithm = ""  # the registry name, set by each algorithm

    def __init__(self, config: EngineConfig, problem: ProblemSpec):
        self.config = config
        self.problem = problem
        self.rng = np.random.default_rng(config.seed)
        self.archive = ParetoArchive(config.archive_capacity)
        self.X = np.empty((0, problem.n_vars))
        self.F = np.empty((0, problem.n_objectives))
        self.evaluations = 0
        self.generation = 0

    def mating(self) -> tuple[np.ndarray, np.ndarray]:
        """Row indices ``(a, b)`` of the parents of the current generation,
        ``offspring_count // 2`` each: pair ``i`` crosses ``X[a[i]]`` with
        ``X[b[i]]``."""
        raise NotImplementedError

    def _evaluate(self, rows) -> tuple[np.ndarray, np.ndarray]:
        X = decode(rows, self.problem)
        F = evaluate(self.problem, X)
        self.evaluations += len(X)
        return X, F

    def _merge(self, X_new, F_new) -> None:
        """Elitist merge: keep the best ``n_pop`` rows of the population
        plus the newcomers in crowded order, and offer the newcomers in the
        merged set's first front to the archive in one call."""
        n = len(self.X)
        X = np.concatenate([self.X, X_new])
        F = np.concatenate([self.F, F_new])
        keep, top = select(F, self.config.n_pop)
        self.X, self.F = X[keep], F[keep]
        self.archive.insert(F[n:][top[n:]])

    def initialize(self) -> None:
        """Uniform random population; the archive starts from its
        non-dominated subset. An engine makes one run: once it has a
        population, this raises :class:`InvalidStateError`."""
        if len(self.X):
            raise InvalidStateError("this engine has already run; make a new one per run")
        p = self.problem
        rows = self.rng.uniform(p.lower, p.upper, size=(self.config.n_pop, p.n_vars))
        self._merge(*self._evaluate(rows))

    def step(self) -> None:
        """One generation: mating, variation, elitist merge, archive update."""
        if not len(self.X):
            raise InvalidStateError("this engine has no population yet; call initialize() first")
        p = self.problem
        a, b = self.mating()
        c1, c2 = sbx_crossover(self.X[a], self.X[b], p.lower, p.upper, self.rng)
        children = polynomial_mutation(np.concatenate([c1, c2]), p.lower, p.upper, self.rng)
        self.generation += 1
        self._merge(*self._evaluate(children))

    def run(self) -> RunResult:
        """Initialize, then step ``max_generations`` times."""
        start = time.perf_counter()
        self.initialize()
        for _ in range(self.config.max_generations):
            self.step()
        return RunResult(
            algorithm=self.algorithm,
            problem=self.problem.name,
            seed=self.config.seed,
            generations=self.generation,
            evaluations=self.evaluations,
            wall_ms=(time.perf_counter() - start) * 1000.0,
            front=self.archive.objectives(),
        )
