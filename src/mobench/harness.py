"""Seeded multi-run campaigns over (algorithm x problem) with summaries.

A campaign runs N independent seeded executions (seed = base_seed + run
index), writes each final front as CSV and each run as JSON as soon as
that run is done, scores every run against a resolved reference front,
and summarizes the four quality indicators like a comparison-table
column (mean and N-divisor standard deviation per metric, plus total
wall time). Campaign runs and merged-reference builds alike go through
one helper, :func:`_runs`, which uses a process pool when ``jobs > 1``.
:func:`load_summaries` reads summaries back for a table and refuses any
that one table cannot show.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import FrontFileError, InvalidConfigError, InvalidInputError
from .metrics import score_front
from .molpb import MolpbConfig, MolpbEngine
from .nsga2 import Nsga2Config, Nsga2Engine
from .results import RunResult, write_atomic, write_front_csv
from .suite import (
    ReferenceFront,
    analytic_reference_front,
    get_problem,
    is_zdt,
    load_reference_csv,
    merged_reference_front,
    problem_names,
)

ENGINES = {"molpb": (MolpbEngine, MolpbConfig), "nsga2": (Nsga2Engine, Nsga2Config)}

ALGORITHMS = tuple(ENGINES)

BUILDER_POPULATION = 100  # population and archive of the merged-reference runs

# Summary fields that fix a campaign's budget; one table compares equal budgets only.
BUDGET_KEYS = ("generations", "population", "runs", "gd_p", "reference_source")

_METRIC_BY_ROW = {"GD": "gd", "MS": "max_spread", "RGD": "rgd", "S": "spacing"}

STAT_ROWS = (*(f"{prefix}.{row}" for prefix in ("Ave", "Std") for row in _METRIC_BY_ROW), "PT")


@dataclass(frozen=True)
class CampaignConfig:
    algorithm: str
    problem: str
    out_dir: Path
    runs: int = 30
    base_seed: int = 1
    generations: int = 350
    population: int = 100
    reference_path: Optional[Path] = None
    jobs: int = 1
    gd_p: int = 2

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise InvalidConfigError(
                f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}"
            )
        if self.runs < 1:
            raise InvalidConfigError("runs must be >= 1")
        if self.jobs < 1:
            raise InvalidConfigError("jobs must be >= 1")
        if self.gd_p not in (1, 2):
            raise InvalidConfigError("gd_p must be 1 or 2")
        # the registry key (lower case), so one problem has one summary name
        object.__setattr__(self, "problem", get_problem(self.problem).name)
        # the engine's own checks, before any reference build starts
        engine_config(self.algorithm, self.population, self.generations, self.base_seed)
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        # an empty path, like an absent one, asks for the default reference
        reference = Path(self.reference_path) if self.reference_path else None
        object.__setattr__(self, "reference_path", reference)

    @property
    def summary_path(self) -> Path:
        """Where :func:`run_campaign` writes the campaign's summary."""
        return self.out_dir / f"summary_{self.algorithm}_{self.problem}.json"


def engine_config(algorithm: str, population: int, generations: int, seed: int = 0):
    """The engine config of a campaign or reference-builder run; the
    archive holds as many members as the population."""
    return ENGINES[algorithm][1](
        n_pop=population, archive_capacity=population, max_generations=generations, seed=seed
    )


def _execute_run(algorithm: str, problem_name: str, population: int, generations: int, seed: int):
    config = engine_config(algorithm, population, generations, seed)
    return ENGINES[algorithm][0](config, get_problem(problem_name)).run()


def _runs(tasks: Sequence[tuple], jobs: int) -> Iterator[RunResult]:
    """``_execute_run(*task)`` for each task, in task order, each yielded
    once it and every earlier task are done: in this process when
    ``jobs == 1`` or there is one task, else in a pool of up to ``jobs``
    worker processes."""
    if jobs == 1 or len(tasks) == 1:
        for task in tasks:
            yield _execute_run(*task)
        return
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        yield from pool.map(_execute_run, *zip(*tasks))


def resolve_reference(
    problem_name: str,
    path=None,
    cache_dir=None,
    builder_runs: int = 20,
    builder_generations: int = 1000,
    jobs: int = 1,
) -> ReferenceFront:
    """Pick the reference front for a problem.

    An explicit CSV path wins, and must hold as many objectives as the
    problem (else :class:`InvalidInputError`, before any run starts); ZDT
    problems fall back to their analytic fronts (1000 points); engineering
    problems fall back to a merged front built from long runs of both
    algorithms with seeds 0, 1, ... at population
    :data:`BUILDER_POPULATION`. That front is cached in
    ``cache_dir`` under a name that records the builder's runs,
    generations, population and first seed, so later calls with the same
    budget reload it and calls with another budget build their own. The
    builder runs go through :func:`_runs` with ``jobs``, which does not
    change the cache bytes. The cache is written atomically after the last
    run, so an interrupted build never leaves a cache that later calls
    would trust. A build needs ``builder_runs >= 1``, else
    :class:`InvalidConfigError` before any run starts.
    """
    if path is not None:
        reference = load_reference_csv(path)
        width, expected = reference.points.shape[1], get_problem(problem_name).n_objectives
        if width != expected:
            raise InvalidInputError(
                f"{path}: reference has {width} objectives, {problem_name} has {expected}"
            )
        return reference
    if is_zdt(problem_name):
        return analytic_reference_front(problem_name)
    if cache_dir is None:
        raise InvalidConfigError(
            f"{problem_name}: building a merged reference front needs a cache directory"
        )
    if builder_runs < 1:
        raise InvalidConfigError(f"builder_runs must be >= 1, got {builder_runs}")
    cache_dir = Path(cache_dir)
    cache_file = cache_dir / (
        f"reference_{problem_name.lower()}_r{builder_runs}_g{builder_generations}"
        f"_p{BUILDER_POPULATION}_s0.csv"
    )
    if cache_file.exists():
        loaded = load_reference_csv(cache_file)
        return ReferenceFront(points=loaded.points, source="merged-runs")
    tasks = [
        (algorithm, problem_name, BUILDER_POPULATION, builder_generations, r)
        for algorithm in ALGORITHMS
        for r in range(builder_runs)
    ]
    reference = merged_reference_front([result.front for result in _runs(tasks, jobs)])
    cache_dir.mkdir(parents=True, exist_ok=True)
    write_front_csv(cache_file, reference.points)
    return reference


def _stats_block(per_run: Sequence[dict]) -> dict[str, float]:
    """The summary's ``stats``, in :data:`STAT_ROWS` order: each Ave./Std.
    row is the mean or N-divisor standard deviation of one metric over the
    runs' score dicts, and ``PT`` is their total wall time."""
    block = {
        f"{prefix}.{row}": float(stat([run[metric] for run in per_run]))
        for prefix, stat in (("Ave", np.mean), ("Std", np.std))  # np.std divides by N
        for row, metric in _METRIC_BY_ROW.items()
    }
    return {**block, "PT": sum(run["wall_ms"] for run in per_run)}


def run_campaign(config: CampaignConfig) -> dict:
    """Execute a campaign and write fronts, run JSONs, and the summary.

    Each run's front CSV and JSON are written as the run arrives, so a
    campaign that fails (say, a pool worker dies) keeps the runs before it.
    Returns the summary dict, also written to ``config.summary_path``.
    """
    reference = resolve_reference(
        config.problem, path=config.reference_path, cache_dir=config.out_dir, jobs=config.jobs
    )
    config.out_dir.mkdir(parents=True, exist_ok=True)

    tasks = [
        (config.algorithm, config.problem, config.population, config.generations, seed)
        for seed in range(config.base_seed, config.base_seed + config.runs)
    ]
    per_run = []
    for result in _runs(tasks, config.jobs):
        stem = f"{config.algorithm}_{config.problem}_{result.seed}"
        write_front_csv(config.out_dir / f"front_{stem}.csv", result.front)
        result.write_json(config.out_dir / f"result_{stem}.json")
        scores = score_front(result.front, reference.points, gd_p=config.gd_p).as_dict()
        per_run.append({"seed": result.seed, "wall_ms": result.wall_ms, **scores})

    summary = {
        "algorithm": config.algorithm,
        "problem": config.problem,
        "runs": config.runs,
        "base_seed": config.base_seed,
        "generations": config.generations,
        "population": config.population,
        "gd_p": config.gd_p,
        "reference_source": reference.source,
        "stats": _stats_block(per_run),
        "per_run": per_run,
    }
    write_atomic(config.summary_path, json.dumps(summary, indent=2) + "\n")
    return summary


# --------------------------------------------------------------------------
# Comparison tables
# --------------------------------------------------------------------------

def tabulate(summaries: Sequence[dict]) -> tuple[str, str]:
    """Render summaries (one column per algorithm) as an aligned text table
    and as CSV. Text uses 6 significant digits, CSV full precision."""
    if len(summaries) == 0:
        raise InvalidConfigError("tabulate needs at least one summary")
    names = [s["algorithm"] for s in summaries]
    width = max(12, *(len(n) for n in names))

    def fmt6(v: float) -> str:
        return format(v, ".6g")

    header = "metric".ljust(10) + "".join(n.rjust(width + 2) for n in names)
    text_lines = [header]
    csv_lines = ["metric," + ",".join(names)]
    for row in STAT_ROWS:
        values = [s["stats"][row] for s in summaries]
        text_lines.append(row.ljust(10) + "".join(fmt6(v).rjust(width + 2) for v in values))
        csv_lines.append(row + "," + ",".join(format(v, ".17g") for v in values))
    return "\n".join(text_lines) + "\n", "\n".join(csv_lines) + "\n"


def load_summaries(directory) -> dict[str, list[dict]]:
    """Read every summary_*.json under a campaign output directory into
    ``{problem: [summaries sorted by algorithm]}``, problems sorted, each
    group one :func:`tabulate` call. Raises :class:`FrontFileError` naming
    the file when one is not valid UTF-8 JSON (or nests too deep to
    parse), lacks a key that the table reads (:data:`BUDGET_KEYS` too) or
    holds a wrong type or value there (names must be a registered
    algorithm and problem, so no name can steer where the table CSV goes
    or split its header; stats must be finite real numbers); once every
    file passes, raises :class:`InvalidConfigError` when there is none,
    or when one problem's summaries differ in a :data:`BUDGET_KEYS`
    field."""
    directory = Path(directory)
    registered = {"algorithm": ALGORITHMS, "problem": problem_names()}
    groups: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("summary_*.json")):
        try:
            summary = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise FrontFileError(f"{path}: not a valid summary: {exc}") from exc
        try:  # every key that tabulate and the table command read
            names = {key: summary[key] for key in ("algorithm", "problem")}
            stats = {row: summary["stats"][row] for row in STAT_ROWS}
        except (KeyError, TypeError) as exc:
            raise FrontFileError(f"{path}: not a valid summary: {exc!r}") from exc
        # json.loads yields exact types, and a bool is neither int nor float here
        bad = []
        for key, v in names.items():
            if type(v) is not str:
                bad.append(f"{key} has the wrong type")
            elif v not in registered[key]:
                bad.append(f"{key} {v!r} is not registered")
        for row, v in stats.items():
            if type(v) not in (int, float):
                bad.append(f"stats[{row!r}] has the wrong type")
            elif not abs(v) <= sys.float_info.max:  # NaN, +-Infinity, an int beyond floats
                bad.append(f"stats[{row!r}] is not finite")
        if bad:
            raise FrontFileError(f"{path}: not a valid summary: {bad[0]}")
        missing = [key for key in BUDGET_KEYS if key not in summary]
        if missing:
            raise FrontFileError(f"{path}: not a valid summary: no {missing[0]!r} field")
        groups.setdefault(summary["problem"], []).append(summary)
    if not groups:
        raise InvalidConfigError(f"no summary_*.json files under {directory}")
    groups = dict(sorted(groups.items()))
    for problem, group in groups.items():
        group.sort(key=lambda s: s["algorithm"])
        for key in BUDGET_KEYS:
            if any(s[key] != group[0][key] for s in group):
                values = ", ".join(f"{s['algorithm']}={s[key]!r}" for s in group)
                raise InvalidConfigError(f"{problem}: summaries differ in {key} ({values})")
    return groups
