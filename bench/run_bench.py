"""The mobench benchmark: seeded end-to-end runs with a traced per-layer breakdown.

Run from the root of a checkout::

    python3 bench/run_bench.py --workload zdt1-molpb --seed 1 --seconds 40 --trace 0

Workloads (closed loop: one driver process, one run at a time; the
campaign uses at most two pool workers):

- ``zdt1-molpb``: one MOLPB run on ZDT1 at the paper's settings (pop 100,
  archive 100, 350 generations, 49,100 evaluations), driven through
  ``initialize()``/``step()`` and scored against the 1000-point analytic
  front. Dominance and operators lead; the only MOLPB split/route user.
- ``car-nsga2``: one NSGA-II run on the 4-objective ``car_side_impact``,
  scored with the reference-free S and MS. Archive insert/truncate and
  m >= 3 sorting lead; the no-change control for MOLPB and variation work.
- ``spring-campaign-j2``: ``run_campaign`` of NSGA-II on ``coil_spring``
  at ``jobs=2``. The only user of the harness pool, the result writers,
  reference CSV loading and the mixed integer/discrete ``decode``. Its
  reference front is built before timing starts, with a small budget, so
  the default 40-run merged build never runs inside a repetition.

With ``--trace 0`` the benchmark repeats the workload for ``--seconds``
seconds and prints the end-to-end metrics (medians over repetitions).
With ``--trace 1`` it makes one untraced and two traced repetitions with
one seed, prints the per-layer metrics of the first traced one, and checks
that all three fronts are byte-identical and that the layer call counts of
the two traced ones repeat exactly. Every repetition passes a correctness
gate; a repetition that fails it or raises counts as failed.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A result file with
the run's metadata, and the spans of a traced run, go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from spans import Tracer  # sibling module of this script

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

POPULATION = 100
ARCHIVE = 100
GENERATIONS = 350
OFFSPRING = 140  # the engines' default, 2 * round(0.7 * POPULATION)
EXPECTED_EVALUATIONS = POPULATION + GENERATIONS * OFFSPRING  # 49,100
ZDT1_GD_BOUND = 0.10  # the acceptance suite's bound on ZDT1 GD
SETUP_SAMPLES = 4  # set-ups timed before the first and after each repetition

WORKLOADS = {
    "zdt1-molpb": {"algorithm": "molpb", "problem": "zdt1"},
    "car-nsga2": {"algorithm": "nsga2", "problem": "car_side_impact"},
    "spring-campaign-j2": {
        "algorithm": "nsga2",
        "problem": "coil_spring",
        "runs": 4,
        "jobs": 2,
        "reference_runs": 1,
        "reference_generations": 50,
    },
}

MODULES = ("archive", "dominance", "harness", "metrics", "molpb", "nsga2", "results", "suite")


@dataclass
class Rep:
    """One repetition: timings, the hashes of its front CSVs, and the
    correctness problems found (empty when it passed)."""

    setup_s: float = math.nan
    wall_s: float = math.nan
    evaluations: int = 0
    gen_ms: list[float] = field(default_factory=list)
    fronts: dict[int, str] = field(default_factory=dict)  # seed -> sha256 of front CSV
    runs: int = 1
    problems: list[str] = field(default_factory=list)
    campaign_s: float = 0.0  # duration of run_campaign alone
    busy_s: float = 0.0  # sum of the campaign runs' own wall times


def fresh_import() -> SimpleNamespace:
    """Import mobench from this checkout's ``src`` anew, so every set-up
    pays the package's import cost."""
    for name in [n for n in sys.modules if n == "mobench" or n.startswith("mobench.")]:
        del sys.modules[name]
    package = importlib.import_module("mobench")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"mobench was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{n: importlib.import_module(f"mobench.{n}") for n in MODULES})


def engine_for(m, algorithm: str, seed: int):
    if algorithm == "molpb":
        return m.molpb.MolpbEngine, m.molpb.MolpbConfig(
            n_pop=POPULATION, archive_capacity=ARCHIVE, max_generations=GENERATIONS,
            offspring_count=OFFSPRING, seed=seed,
        )
    return m.nsga2.Nsga2Engine, m.nsga2.Nsga2Config(
        n_pop=POPULATION, archive_capacity=ARCHIVE, max_generations=GENERATIONS,
        offspring_count=OFFSPRING, seed=seed,
    )


def front_problems(front: np.ndarray, evaluations: int, label: str) -> list[str]:
    """The gate shared by all workloads: a mutually non-dominated front
    (brute force), within the archive capacity, after the exact budget."""
    found = []
    F = np.asarray(front, dtype=float)
    if F.ndim != 2 or not 1 <= len(F) <= ARCHIVE:
        found.append(f"{label}: front shape {F.shape}, want 1..{ARCHIVE} rows")
    elif not np.isfinite(F).all():
        found.append(f"{label}: non-finite objective values in the front")
    else:
        le = (F[:, None, :] <= F[None, :, :]).all(axis=2)
        lt = (F[:, None, :] < F[None, :, :]).any(axis=2)
        if (le & lt).any():
            found.append(f"{label}: front members dominate each other")
    if evaluations != EXPECTED_EVALUATIONS:
        found.append(f"{label}: {evaluations} evaluations, want {EXPECTED_EVALUATIONS}")
    return found


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def single_rep(spec: dict, seed: int, work: Path, tracer: Tracer | None = None,
               setup_only: bool = False) -> Rep:
    """One seeded engine run: set-up, 350 timed steps, scoring, gate."""
    rep = Rep()
    t0 = time.perf_counter()
    m = fresh_import()
    if tracer:
        tracer.install()
    problem = m.suite.get_problem(spec["problem"])
    reference = None
    if spec["problem"] == "zdt1":
        reference = m.suite.analytic_reference_front("zdt1", 1000).points
    engine_cls, config = engine_for(m, spec["algorithm"], seed)
    engine = engine_cls(config, problem)
    engine.initialize()
    rep.setup_s = time.perf_counter() - t0
    if setup_only:
        return rep
    clock = time.perf_counter
    for _ in range(GENERATIONS):
        s = clock()
        engine.step()
        rep.gen_ms.append((clock() - s) * 1000.0)
    front = engine.archive.objectives()
    if reference is not None:
        scores = m.metrics.score_front(front, reference).as_dict()
    else:
        scores = {"spacing": m.metrics.spacing(front), "max_spread": m.metrics.max_spread(front)}
    rep.wall_s = time.perf_counter() - t0
    rep.evaluations = engine.evaluations

    rep.problems = front_problems(front, engine.evaluations, f"seed {seed}")
    if not all(math.isfinite(v) for v in scores.values()):
        rep.problems.append(f"seed {seed}: non-finite scores {scores}")
    if reference is not None and not scores["gd"] <= ZDT1_GD_BOUND:
        rep.problems.append(f"seed {seed}: GD {scores['gd']} > {ZDT1_GD_BOUND}")
    path = work / f"front_{seed}.csv"
    m.results.write_front_csv(path, front)
    rep.fronts[seed] = sha256(path)
    return rep


def campaign_rep(spec: dict, seed: int, work: Path, reference_path: Path,
                 tracer: Tracer | None = None, setup_only: bool = False) -> Rep:
    """One ``run_campaign`` with base seed ``seed``, then its gate."""
    rep = Rep(runs=spec["runs"])
    t0 = time.perf_counter()
    m = fresh_import()
    if tracer:
        tracer.install()
    m.suite.get_problem(spec["problem"])
    m.harness.resolve_reference(spec["problem"], path=reference_path)
    rep.setup_s = time.perf_counter() - t0
    if setup_only:
        return rep
    out = Path(tempfile.mkdtemp(prefix="campaign-", dir=work))
    config = m.harness.CampaignConfig(
        algorithm=spec["algorithm"], problem=spec["problem"], out_dir=out,
        runs=spec["runs"], base_seed=seed, generations=GENERATIONS, population=POPULATION,
        reference_path=reference_path, jobs=spec["jobs"],
    )
    began = time.perf_counter()
    summary = m.harness.run_campaign(config)
    ended = time.perf_counter()
    rep.wall_s, rep.campaign_s = ended - t0, ended - began

    seeds = [seed + r for r in range(spec["runs"])]
    if [run["seed"] for run in summary["per_run"]] != seeds:
        rep.problems.append(f"campaign {seed}: summary lists runs {summary['per_run']}")
    for s in seeds:
        stem = f"{spec['algorithm']}_{spec['problem']}_{s}"
        result = json.loads((out / f"result_{stem}.json").read_text(encoding="utf-8"))
        rep.evaluations += result["evaluations"]
        rep.busy_s += result["wall_ms"] / 1000.0
        rep.gen_ms.append(result["wall_ms"] / result["generations"])
        front = np.loadtxt(out / f"front_{stem}.csv", delimiter=",", skiprows=1, ndmin=2)
        rep.problems += front_problems(front, result["evaluations"], f"seed {s}")
        if result["generations"] != GENERATIONS:
            rep.problems.append(f"seed {s}: {result['generations']} generations")
        rep.fronts[s] = sha256(out / f"front_{stem}.csv")
    for run in summary["per_run"]:
        if not all(math.isfinite(run[k]) for k in ("gd", "rgd", "spacing", "max_spread")):
            rep.problems.append(f"seed {run['seed']}: non-finite scores {run}")
    return rep


def guarded(fn, *args, **kwargs) -> Rep:
    """Run one repetition from a collected heap; an exception fails it
    instead of the benchmark."""
    gc.collect()
    try:
        return fn(*args, **kwargs)
    except Exception:  # a crash of the program under test is a failed repetition
        return Rep(problems=[traceback.format_exc()])


def peak_rss_mb(include_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def git_sha() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def end_to_end(reps: list[Rep], setups: list[float], campaign: bool) -> dict:
    passed = [r for r in reps if not r.problems]
    if not passed:
        return {"wall_s": (math.nan, "s")}  # nothing to measure: reported as no result
    gen_ms = [g for r in passed for g in r.gen_ms]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r.wall_s for r in passed), "s"),
        "evals_per_s": (statistics.median(r.evaluations / r.wall_s for r in passed), "1/s"),
        "gen_ms_p50": (float(np.percentile(gen_ms, 50)), "ms"),
        "gen_ms_p95": (float(np.percentile(gen_ms, 95)), "ms"),
        "peak_rss_mb": (peak_rss_mb(campaign), "MB"),
    }


def per_layer(tracer: Tracer, traced: Rep, untraced_wall_s: float, jobs: int) -> dict:
    layers = tracer.per_layer()
    archive = layers["archive.insert"]
    metrics = {}
    for name, values in layers.items():
        if name in ("problems.evaluate", "operators.sbx_crossover",
                    "dominance.rank_and_crowd", "archive.insert", "archive.truncate"):
            metrics[f"{name}.calls"] = (values["calls"], "count")
        metrics[f"{name}.self_s"] = (values["self_s"], "s")
    metrics["archive.insert.accepted"] = (tracer.accepted, "count")
    metrics["archive.insert.accept_ratio"] = (
        tracer.accepted / archive["calls"] if archive["calls"] else 0.0, "ratio")
    metrics["harness.worker_busy_s"] = (traced.busy_s, "s")
    metrics["harness.pool_efficiency"] = (
        traced.busy_s / (jobs * traced.campaign_s) if traced.campaign_s else 0.0, "ratio")
    metrics["tracing.overhead_s"] = (traced.wall_s - untraced_wall_s, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        fresh_import()
    except ImportError as exc:  # no sources to measure: fail before any output
        raise SystemExit(f"cannot import mobench from {SRC}: {exc}") from exc
    spec = WORKLOADS[args.workload]
    campaign = "jobs" in spec
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "settings": {"population": POPULATION, "archive": ARCHIVE, "generations": GENERATIONS,
                     "offspring": OFFSPRING, **spec},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as tmp:
        work = Path(tmp)
        if campaign:
            # Built before any timing, with a small fixed budget, so the
            # default merged build never runs inside a repetition.
            m = fresh_import()
            reference = m.harness.resolve_reference(
                spec["problem"], cache_dir=work, builder_runs=spec["reference_runs"],
                builder_generations=spec["reference_generations"],
            )
            reference_path = work / "reference.csv"
            m.results.write_front_csv(reference_path, reference.points)

            def rep(seed, **kw):
                return guarded(campaign_rep, spec, seed, work, reference_path, **kw)
        else:
            def rep(seed, **kw):
                return guarded(single_rep, spec, seed, work, **kw)

        notes = []
        if args.trace:
            untraced = rep(args.seed)
            tracers = [Tracer(), Tracer()]
            traced = [rep(args.seed, tracer=t) for t in tracers]
            reps = [untraced, *traced]
            for r in traced:
                if r.fronts != untraced.fronts:
                    r.problems.append("traced front CSVs differ from the untraced run's")
            if tracers[0].counts() != tracers[1].counts():
                traced[1].problems.append(
                    f"layer counts differ between two traced runs: "
                    f"{tracers[0].counts()} vs {tracers[1].counts()}")
            metrics = per_layer(tracers[0], traced[0], untraced.wall_s, spec.get("jobs", 1))
            tracers[0].save(OUT / f"spans_{args.workload}_seed{args.seed}.npz")
            if tracers[0].missing:
                notes.append(f"layer functions not found, their layers read 0: {tracers[0].missing}")
            if campaign:
                notes.append("spans inside pool workers are out of reach; engine layers read 0 "
                             "here, only parent-side spans are recorded")
        else:
            # Set-ups are sampled between repetitions, so that their median
            # spans the whole run as the repetitions do.
            setups = [rep(args.seed, setup_only=True).setup_s for _ in range(SETUP_SAMPLES)]
            reps = []
            start = time.perf_counter()
            while True:
                began = time.perf_counter()
                reps.append(rep(args.seed * 1000 + len(reps) * spec.get("runs", 1)))
                setups += [rep(args.seed, setup_only=True).setup_s for _ in range(SETUP_SAMPLES)]
                last = time.perf_counter() - began
                if time.perf_counter() - start + last > args.seconds:
                    break
            setups = [t for t in setups + [r.setup_s for r in reps] if math.isfinite(t)]
            metrics = end_to_end(reps, setups, campaign)

    attempted = sum(r.runs for r in reps)
    failed = sum(r.runs for r in reps if r.problems)
    print(f"# mobench benchmark: {json.dumps(meta)}")
    for r in reps:
        for problem in r.problems:
            print(f"FAILED: {problem}")
    for note in notes:
        print(f"note: {note}")
    if not all(math.isfinite(v) for v, _ in metrics.values()):
        raise SystemExit("no metrics: the repetitions they come from failed")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, **result, "notes": notes}, indent=2) + "\n", encoding="utf-8")
    print(f"{'fail_rate':34s} {failed / attempted:.6g} ({failed}/{attempted} runs)")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value!r} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
