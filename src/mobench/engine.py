"""The generation loop shared by MOLPB and NSGA-II.

A population is four aligned arrays: ``X`` (decoded decision vectors, one
row per member), ``F`` (their objective vectors), and each member's
``rank`` and crowding distance ``crowd`` from the last elitist merge. A
generation is a handful of whole-array calls: :meth:`Engine.mating`, the
one method an algorithm provides, returns the parent pairs as two index
arrays; one SBX call crosses every pair and one polynomial mutation call
perturbs every child; the offspring are decoded and evaluated in one
batch; parents plus offspring are reduced by rank and crowding; and the
merged set's first front (``rank == 0``) is offered to the archive.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .archive import ParetoArchive
from .dominance import environmental_selection, rank_and_crowd
from .errors import InvalidConfigError
from .operators import default_offspring_count, polynomial_mutation, sbx_crossover
from .problems import ProblemSpec, decode, evaluate
from .results import RunResult


@dataclass(frozen=True, kw_only=True)
class EngineConfig:
    """Run parameters; the defaults are the standard benchmark settings
    (population 100, 140 offspring, mutation 0.02, archive 100, 350
    generations)."""

    n_pop: int = 100
    offspring_count: Optional[int] = None
    mutation_prob: float = 0.02
    sbx_eta: float = 20.0
    pm_eta: float = 20.0
    archive_capacity: int = 100
    max_generations: int = 350
    seed: int = 0

    def __post_init__(self):
        if self.n_pop < 2:
            raise InvalidConfigError("n_pop must be >= 2")
        if self.max_generations < 0:
            raise InvalidConfigError("max_generations must be >= 0")
        if self.offspring_count is None:
            object.__setattr__(self, "offspring_count", default_offspring_count(self.n_pop))
        if self.offspring_count < 2 or self.offspring_count % 2 != 0:
            raise InvalidConfigError("offspring_count must be even and >= 2")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise InvalidConfigError("mutation_prob must lie in [0, 1]")
        if self.sbx_eta <= 0 or self.pm_eta <= 0:
            raise InvalidConfigError("distribution indices must be positive")


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
        self.rank = np.empty(0, dtype=int)
        self.crowd = np.empty(0)
        self.evaluations = 0
        self.generation = 0
        self.front_size_trace: list[int] = []
        self.evaluation_trace: list[int] = []

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

    def _record(self, front) -> None:
        for f in front:
            self.archive.insert(f)
        self.front_size_trace.append(len(self.archive))
        self.evaluation_trace.append(self.evaluations)

    def initialize(self) -> None:
        """Uniform random population; the archive starts from its
        non-dominated subset."""
        p = self.problem
        self.X, self.F = self._evaluate(
            self.rng.uniform(p.lower, p.upper, size=(self.config.n_pop, p.n_vars))
        )
        self.rank, self.crowd = rank_and_crowd(self.F)
        self._record(self.F[self.rank == 0])

    def step(self) -> None:
        """One generation: mating, variation, elitist merge, archive update."""
        cfg, p = self.config, self.problem
        a, b = self.mating()
        c1, c2 = sbx_crossover(self.X[a], self.X[b], p.lower, p.upper, cfg.sbx_eta, self.rng)
        children = polynomial_mutation(
            np.concatenate([c1, c2]), p.lower, p.upper, cfg.mutation_prob, cfg.pm_eta, self.rng
        )
        X_children, F_children = self._evaluate(children)
        X = np.concatenate([self.X, X_children])
        F = np.concatenate([self.F, F_children])
        rank, crowd = rank_and_crowd(F)
        keep = environmental_selection(rank, crowd, cfg.n_pop)
        self.X, self.F, self.rank, self.crowd = X[keep], F[keep], rank[keep], crowd[keep]
        self.generation += 1
        self._record(F[rank == 0])

    def result(self, wall_ms: float) -> RunResult:
        return RunResult(
            algorithm=self.algorithm,
            problem=self.problem.name,
            seed=self.config.seed,
            generations=self.generation,
            evaluations=self.evaluations,
            wall_ms=wall_ms,
            front=self.archive.objectives(),
            front_size_trace=list(self.front_size_trace),
            evaluation_trace=list(self.evaluation_trace),
        )

    def run(self) -> RunResult:
        """Initialize, then step ``max_generations`` times."""
        start = time.perf_counter()
        self.initialize()
        for _ in range(self.config.max_generations):
            self.step()
        return self.result((time.perf_counter() - start) * 1000.0)
