"""Non-evolutionary baselines used for relative-ordering checks."""

from __future__ import annotations

import time

import numpy as np

from .archive import ParetoArchive
from .problems import ProblemSpec, decode, evaluate
from .results import RunResult


def random_search(
    problem: ProblemSpec, n_evaluations: int, archive_capacity: int = 100, seed: int = 0
) -> RunResult:
    """Uniform random sampling with the same archive bookkeeping as the
    evolutionary engines; the samples are offered in consecutive batches of
    at most ``archive_capacity`` rows, and the front is whatever the archive
    retains after the full evaluation budget."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    archive = ParetoArchive(archive_capacity)
    X = rng.uniform(problem.lower, problem.upper, size=(n_evaluations, problem.n_vars))
    F = evaluate(problem, decode(X, problem))
    for i in range(0, n_evaluations, archive_capacity):
        archive.insert(F[i : i + archive_capacity])
    return RunResult(
        algorithm="random",
        problem=problem.name,
        seed=seed,
        generations=0,
        evaluations=n_evaluations,
        wall_ms=(time.perf_counter() - start) * 1000.0,
        front=archive.objectives(),
    )
