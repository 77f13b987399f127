"""Seeded multi-run campaigns over (algorithm x problem) with summaries.

A campaign runs N independent seeded executions (seed = base_seed + run
index), writes each final front as CSV and each run as JSON, scores every
run against a resolved reference front, and aggregates the four quality
indicators into a summary shaped like a comparison-table column (Ave./Std.
per metric plus total wall time).
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .errors import FrontFileError, InvalidConfigError
from .metrics import IndicatorReport, aggregate, score_front
from .molpb import MolpbConfig, MolpbEngine
from .nsga2 import Nsga2Config, Nsga2Engine
from .results import write_atomic, write_front_csv
from .suite import (
    ReferenceFront,
    analytic_reference_front,
    get_problem,
    is_zdt,
    load_reference_csv,
    merged_reference_front,
)

ENGINES = {"molpb": (MolpbEngine, MolpbConfig), "nsga2": (Nsga2Engine, Nsga2Config)}

ALGORITHMS = tuple(ENGINES)

# Summary fields that fix a campaign's budget; one table compares equal budgets only.
BUDGET_KEYS = ("generations", "population", "runs", "gd_p", "reference_source")

STAT_ROWS = ("Ave.GD", "Ave.MS", "Ave.RGD", "Ave.S", "Std.GD", "Std.MS", "Std.RGD", "Std.S", "PT")

_METRIC_BY_ROW = {"GD": "gd", "MS": "max_spread", "RGD": "rgd", "S": "spacing"}


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
        # the engine's own checks, before any reference build starts
        ENGINES[self.algorithm][1](
            n_pop=self.population,
            archive_capacity=self.population,
            max_generations=self.generations,
        )
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        if self.reference_path is not None:
            object.__setattr__(self, "reference_path", Path(self.reference_path))


def _execute_run(algorithm: str, problem_name: str, population: int, generations: int, seed: int):
    engine, config = ENGINES[algorithm]
    return engine(
        config(
            n_pop=population,
            archive_capacity=population,
            max_generations=generations,
            seed=seed,
        ),
        get_problem(problem_name),
    ).run()


def resolve_reference(
    problem_name: str,
    path=None,
    cache_dir=None,
    builder_runs: int = 20,
    builder_generations: int = 1000,
    builder_population: int = 100,
) -> ReferenceFront:
    """Pick the reference front for a problem.

    An explicit CSV path wins; ZDT problems fall back to their analytic
    fronts (1000 points); engineering problems fall back to a merged front
    built from long runs of both algorithms with seeds 0, 1, ... That
    front is cached in ``cache_dir`` under a name that records the
    builder's runs, generations, population and first seed, so later calls
    with the same budget reload it and calls with another budget build
    their own. The cache is written atomically, so an interrupted build
    never leaves a truncated cache that later calls would trust.
    """
    if path is not None:
        return load_reference_csv(path)
    if is_zdt(problem_name):
        return analytic_reference_front(problem_name)
    if cache_dir is None:
        raise InvalidConfigError(
            f"{problem_name}: building a merged reference front needs a cache directory"
        )
    cache_dir = Path(cache_dir)
    cache_file = cache_dir / (
        f"reference_{problem_name.lower()}_r{builder_runs}_g{builder_generations}"
        f"_p{builder_population}_s0.csv"
    )
    if cache_file.exists():
        loaded = load_reference_csv(cache_file)
        return ReferenceFront(points=loaded.points, source="merged-runs")
    fronts = []
    for algorithm in ALGORITHMS:
        for r in range(builder_runs):
            result = _execute_run(
                algorithm, problem_name, builder_population, builder_generations, r
            )
            if result.front.size:
                fronts.append(result.front)
    reference = merged_reference_front(fronts)
    cache_dir.mkdir(parents=True, exist_ok=True)
    write_front_csv(cache_file, reference.points)
    return reference


def _stats_block(reports: Sequence[IndicatorReport], total_wall_ms: float) -> dict[str, float]:
    stats = aggregate(reports)
    block: dict[str, float] = {}
    for row in STAT_ROWS:
        if row == "PT":
            block[row] = total_wall_ms
            continue
        prefix, metric = row.split(".")
        source = stats.mean if prefix == "Ave" else stats.std
        block[row] = getattr(source, _METRIC_BY_ROW[metric])
    return block


def run_campaign(config: CampaignConfig) -> dict:
    """Execute a campaign and write fronts, run JSONs, and the summary.

    Returns the summary dict (also written to
    summary_<algorithm>_<problem>.json in the output directory).
    """
    get_problem(config.problem)  # fail fast on unknown problems
    reference = resolve_reference(
        config.problem, path=config.reference_path, cache_dir=config.out_dir
    )
    config.out_dir.mkdir(parents=True, exist_ok=True)

    seeds = [config.base_seed + r for r in range(config.runs)]
    args = [
        (config.algorithm, config.problem, config.population, config.generations, seed)
        for seed in seeds
    ]
    if config.jobs == 1 or config.runs == 1:
        results = [_execute_run(*a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(_execute_run, *zip(*args)))

    reports = []
    per_run = []
    for result in results:
        stem = f"{config.algorithm}_{config.problem}_{result.seed}"
        write_front_csv(config.out_dir / f"front_{stem}.csv", result.front)
        result.write_json(config.out_dir / f"result_{stem}.json")
        report = score_front(result.front, reference.points, gd_p=config.gd_p)
        reports.append(report)
        per_run.append(
            {"seed": result.seed, "wall_ms": result.wall_ms, **report.as_dict()}
        )

    summary = {
        "algorithm": config.algorithm,
        "problem": config.problem,
        "runs": config.runs,
        "base_seed": config.base_seed,
        "generations": config.generations,
        "population": config.population,
        "gd_p": config.gd_p,
        "reference_source": reference.source,
        "stats": _stats_block(reports, sum(r.wall_ms for r in results)),
        "per_run": per_run,
    }
    summary_path = config.out_dir / f"summary_{config.algorithm}_{config.problem}.json"
    write_atomic(summary_path, json.dumps(summary, indent=2) + "\n")
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


def load_summaries(directory) -> list[dict]:
    """Read every summary_*.json under a campaign output directory; raises
    :class:`FrontFileError` naming the file when one is not valid JSON, or
    lacks a key that the table command reads (:data:`BUDGET_KEYS` too) or
    holds a wrong type there (names must be strings, stats real numbers)."""
    directory = Path(directory)
    summaries = []
    for path in sorted(directory.glob("summary_*.json")):
        try:
            summary = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise FrontFileError(f"{path}: not a valid summary: {exc}") from exc
        try:  # every key that tabulate and the table command read
            names = {key: summary[key] for key in ("algorithm", "problem")}
            stats = {row: summary["stats"][row] for row in STAT_ROWS}
        except (KeyError, TypeError) as exc:
            raise FrontFileError(f"{path}: not a valid summary: {exc!r}") from exc
        # json.loads yields exact types, and a bool is neither int nor float here
        bad = [key for key, v in names.items() if type(v) is not str] + [
            f"stats[{row!r}]" for row, v in stats.items() if type(v) not in (int, float)
        ]
        if bad:
            raise FrontFileError(f"{path}: not a valid summary: {bad[0]} has the wrong type")
        missing = [key for key in BUDGET_KEYS if key not in summary]
        if missing:
            raise FrontFileError(f"{path}: not a valid summary: no {missing[0]!r} field")
        summaries.append(summary)
    return summaries
