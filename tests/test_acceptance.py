"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the one-line
PASS/FAIL verdict per criterion.
"""

import math
import time

import numpy as np
import pytest

from mobench.archive import ParetoArchive
from mobench.dominance import non_dominated_sort
from mobench.harness import CampaignConfig, run_campaign
from mobench.metrics import gd, max_spread, rgd, spacing
from mobench.molpb import MolpbConfig, MolpbEngine
from mobench.nsga2 import Nsga2Config, Nsga2Engine
from mobench.problems import decode, evaluate
from mobench.suite import analytic_reference_front, get_problem

from oracles import (
    gd_oracle,
    max_spread_oracle,
    partition_recount,
    rank_array,
    rgd_oracle,
    spacing_oracle,
)

RUNS = 10
GENERATIONS = 350
POPULATION = 100


def verdict(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def mean_gd(engine_cls, config_cls, problem_name, runs=RUNS):
    problem = get_problem(problem_name)
    reference = analytic_reference_front(problem_name, 1000).points
    values = []
    for seed in range(1, runs + 1):
        config = config_cls(
            n_pop=POPULATION,
            archive_capacity=POPULATION,
            max_generations=GENERATIONS,
            seed=seed,
        )
        result = engine_cls(config, problem).run()
        values.append(gd(result.front, reference))
    return float(np.mean(values))


def test_criterion_1_zdt1_molpb_mean_gd():
    start = time.perf_counter()
    value = mean_gd(MolpbEngine, MolpbConfig, "zdt1")
    elapsed = time.perf_counter() - start
    verdict(
        1,
        value <= 0.10 and elapsed <= 180.0,
        f"ZDT1/MOLPB mean GD {value:.5f} <= 0.10 over {RUNS} runs in {elapsed:.0f}s (<=180s)",
    )


def test_criterion_2_zdt1_nsga2_mean_gd():
    start = time.perf_counter()
    value = mean_gd(Nsga2Engine, Nsga2Config, "zdt1")
    elapsed = time.perf_counter() - start
    verdict(
        2,
        value <= 0.05 and elapsed <= 180.0,
        f"ZDT1/NSGA-II mean GD {value:.5f} <= 0.05 over {RUNS} runs in {elapsed:.0f}s (<=180s)",
    )


def test_criterion_3_zdt2_and_zdt6_molpb():
    zdt2_value = mean_gd(MolpbEngine, MolpbConfig, "zdt2")
    zdt6_value = mean_gd(MolpbEngine, MolpbConfig, "zdt6")
    verdict(
        3,
        zdt2_value <= 0.06 and zdt6_value <= 0.20,
        f"MOLPB mean GD: ZDT2 {zdt2_value:.5f} <= 0.06, ZDT6 {zdt6_value:.5f} <= 0.20",
    )


def test_criterion_4_zdt4_molpb_beats_random_tenfold():
    problem = get_problem("zdt4")
    reference = analytic_reference_front("zdt4", 1000).points
    budget = POPULATION + GENERATIONS * 140
    molpb_values = []
    random_values = []
    for seed in range(1, RUNS + 1):
        config = MolpbConfig(
            n_pop=POPULATION,
            archive_capacity=POPULATION,
            max_generations=GENERATIONS,
            seed=seed,
        )
        molpb_values.append(gd(MolpbEngine(config, problem).run().front, reference))
        # random search: uniform samples offered to an archive in batches
        rng = np.random.default_rng(seed)
        archive = ParetoArchive(POPULATION)
        X = rng.uniform(problem.lower, problem.upper, size=(budget, problem.n_vars))
        F = evaluate(problem, decode(X, problem))
        for i in range(0, budget, POPULATION):
            archive.insert(F[i : i + POPULATION])
        random_values.append(gd(archive.objectives(), reference))
    molpb_mean = float(np.mean(molpb_values))
    random_mean = float(np.mean(random_values))
    verdict(
        4,
        molpb_mean * 10.0 <= random_mean,
        f"ZDT4 mean GD: MOLPB {molpb_mean:.4f} vs random {random_mean:.4f} "
        f"(ratio {random_mean / molpb_mean:.1f}x >= 10x)",
    )


def test_criterion_5_dominance_sort_oracle():
    rng = np.random.default_rng(1234)
    start = time.perf_counter()
    for trial in range(1000):
        n = int(rng.integers(2, 301))
        m = int(rng.integers(2, 5))
        # mix continuous and low-resolution grids so duplicates occur
        if trial % 3 == 0:
            F = rng.integers(0, 10, size=(n, m)).astype(float)
        else:
            F = rng.random((n, m))
        want = rank_array(partition_recount(F))
        assert np.array_equal(non_dominated_sort(F), want), f"rank mismatch at trial {trial}"
    elapsed = time.perf_counter() - start
    verdict(
        5,
        elapsed <= 60.0,
        f"non_dominated_sort matches the recount oracle on 1000 instances in {elapsed:.1f}s (<=60s)",
    )


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(4321)
    start = time.perf_counter()
    for _ in range(100):
        n_a = int(rng.integers(2, 51))
        n_b = int(rng.integers(2, 51))
        m = int(rng.integers(2, 5))
        front = (rng.random((n_a, m)) * 5).tolist()
        reference = (rng.random((n_b, m)) * 5).tolist()
        assert gd(front, reference) == pytest.approx(gd_oracle(front, reference), abs=1e-10)
        assert rgd(front, reference) == pytest.approx(rgd_oracle(front, reference), abs=1e-10)
        assert spacing(front) == pytest.approx(spacing_oracle(front), abs=1e-10)
        assert max_spread(front) == pytest.approx(max_spread_oracle(front), abs=1e-10)
    elapsed = time.perf_counter() - start
    verdict(
        6,
        elapsed <= 10.0,
        f"GD/RGD/S/MS match brute-force oracles on 100 front pairs in {elapsed:.1f}s (<=10s)",
    )


def test_criterion_7_archive_torture():
    rng = np.random.default_rng(77)
    archive = ParetoArchive(capacity=100)
    start = time.perf_counter()
    for step in range(10_000):
        if step % 4 == 0:
            f1 = rng.random()
            point = np.array([f1, 1.0 - f1 + 0.05 * rng.standard_normal()])
        else:
            point = rng.random(2) * 2.0
        archive.insert(point)
        assert len(archive) <= 100
        F = archive.objectives()
        assert (non_dominated_sort(F) == 0).all(), f"domination inside archive at step {step}"
    elapsed = time.perf_counter() - start
    verdict(
        7,
        elapsed <= 30.0,
        f"10^4 insertions at capacity 100 kept size and mutual non-domination in "
        f"{elapsed:.1f}s (<=30s)",
    )


def test_criterion_8_engineering_fixtures():
    start = time.perf_counter()
    truss = get_problem("four_bar_truss").objectives(
        np.array([1.0, math.sqrt(2), math.sqrt(2), 1.0])
    )
    truss_exact = (200 * (2 + 2 + 2**0.25 + 1), 0.04)
    vessel = get_problem("pressure_vessel").objectives(np.array([1.0, 1.0, 10.0, 10.0]))
    vessel_f1_exact = 0.6224 * 100 + 1.7781 * 100 + 3.1661 * 10 + 19.84 * 10
    vessel_violation_exact = 1296000 - (math.pi * 1000 + (4.0 / 3.0) * math.pi * 1000)
    reducer = get_problem("speed_reducer").objectives(
        np.array([3.0, 0.7, 17.0, 7.3, 7.9, 3.35, 5.2])
    )
    reducer_f2_exact = math.sqrt((745 * 7.3 / (0.7 * 17)) ** 2 + 1.69e7) / (0.1 * 3.35**3)
    car = get_problem("car_side_impact").objectives(np.ones(7))
    v_mbp = 10.58 - 0.674 - 0.67275
    spring = get_problem("coil_spring").objectives(np.array([10.0, 1.0, 0.1]))
    spring_f1_exact = math.pi**2 * 1.0 * 0.1**2 * 12 / 4

    checks = [
        ("truss f1 vs 1237.84", truss[0], 1237.84, 1e-3),
        ("truss f1 exact", truss[0], truss_exact[0], 1e-9),
        ("truss f2 vs 0.04", truss[1], 0.04, 1e-9),
        ("vessel f1 vs 470.111", vessel[0], 470.111, 1e-3),
        ("vessel f1 exact", vessel[0], vessel_f1_exact, 1e-9),
        ("vessel violation vs 1288669.62", vessel[1], 1288669.62, 1e-3),
        ("vessel violation exact", vessel[1], vessel_violation_exact, 1e-9),
        ("reducer f2 vs 1100.2", reducer[1], 1100.2, 1e-3),
        ("reducer f2 exact", reducer[1], reducer_f2_exact, 1e-9),
        ("car f2 vs 4.03", car[1], 4.03, 1e-3),
        ("car V_MBP vs 9.23325", v_mbp, 9.23325, 1e-9),
        ("spring f1 vs 0.2961", spring[0], 0.2961, 1e-3),
        ("spring f1 exact", spring[0], spring_f1_exact, 1e-9),
    ]
    failures = [
        name
        for name, got, want, rel in checks
        if not math.isclose(got, want, rel_tol=rel)
    ]
    elapsed = time.perf_counter() - start
    verdict(
        8,
        not failures and elapsed <= 1.0,
        f"all {len(checks)} hand-derived fixtures reproduce in {elapsed:.2f}s (<=1s)"
        + (f"; failed: {failures}" if failures else ""),
    )


def test_criterion_9_campaign_determinism(tmp_path):
    start = time.perf_counter()
    names = []
    for algorithm in ("molpb", "nsga2"):
        for label in ("a", "b"):
            out = tmp_path / f"{algorithm}_{label}"
            run_campaign(
                CampaignConfig(
                    algorithm=algorithm,
                    problem="zdt1",
                    out_dir=out,
                    runs=2,
                    base_seed=11,
                    generations=5,
                    population=30,
                )
            )
        for seed in (11, 12):
            name = f"front_{algorithm}_zdt1_{seed}.csv"
            a = (tmp_path / f"{algorithm}_a" / name).read_bytes()
            b = (tmp_path / f"{algorithm}_b" / name).read_bytes()
            assert a == b, f"{name} differs between identical campaigns"
            names.append(name)
    elapsed = time.perf_counter() - start
    verdict(
        9,
        elapsed <= 60.0,
        f"{len(names)} front CSVs byte-identical across repeated campaigns in "
        f"{elapsed:.1f}s (<=60s)",
    )


def test_criterion_10_generation_cost_scales_quadratically():
    sizes = [50, 100, 200, 400]
    times = []
    start = time.perf_counter()
    for n_pop in sizes:
        config = MolpbConfig(
            n_pop=n_pop,
            archive_capacity=n_pop,
            max_generations=0,
            seed=13,
        )
        engine = MolpbEngine(config, get_problem("zdt1"))
        engine.initialize()
        engine.step()  # warmup
        samples = []
        for _ in range(6):
            t0 = time.perf_counter()
            engine.step()
            samples.append(time.perf_counter() - t0)
        times.append(float(np.median(samples)))
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    elapsed = time.perf_counter() - start
    verdict(
        10,
        slope <= 2.3 and elapsed <= 300.0,
        f"per-generation time log-log slope {slope:.2f} <= 2.3 over n_pop {sizes} "
        f"in {elapsed:.0f}s (<=300s)",
    )
