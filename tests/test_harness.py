import json

import numpy as np
import pytest

from mobench import harness, results
from mobench.errors import FrontFileError, InvalidConfigError, InvalidInputError
from mobench.harness import (
    STAT_ROWS,
    CampaignConfig,
    load_summaries,
    resolve_reference,
    run_campaign,
    tabulate,
)
from mobench.results import RunResult, read_front_csv, write_front_csv

from oracles import parse_table_csv


class TestFrontCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "front.csv"
        F = np.array([[0.12345678901234567, 1.0], [1.0, 0.0]])
        write_front_csv(path, F)
        assert path.read_text().splitlines()[0] == "f1,f2"
        assert np.array_equal(read_front_csv(path), F)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "front.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(FrontFileError):
            read_front_csv(path)

    def test_bad_cell_rejected(self, tmp_path):
        path = tmp_path / "front.csv"
        path.write_text("f1,f2\n1,zap\n")
        with pytest.raises(FrontFileError):
            read_front_csv(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_front_csv(tmp_path / "absent.csv")

    def test_failed_replace_leaves_target_and_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "front.csv"
        write_front_csv(path, np.array([[0.0, 1.0]]))
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(results.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            write_front_csv(path, np.array([[2.0, 3.0]]))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["front.csv"]


class TestRunResultJson:
    def test_document_fields(self, tmp_path):
        result = RunResult(
            algorithm="molpb",
            problem="zdt1",
            seed=3,
            generations=2,
            evaluations=300,
            wall_ms=12.5,
            front=np.array([[0.0, 1.0]]),
        )
        path = tmp_path / "run.json"
        result.write_json(path)
        doc = json.loads(path.read_text())
        assert doc == {
            "algorithm": "molpb",
            "problem": "zdt1",
            "seed": 3,
            "generations": 2,
            "evaluations": 300,
            "wall_ms": 12.5,
            "front": [[0.0, 1.0]],
        }


class TestCampaignConfig:
    def test_rejects_unknown_algorithm(self, tmp_path):
        with pytest.raises(InvalidConfigError):
            CampaignConfig(algorithm="spea", problem="zdt1", out_dir=tmp_path)

    def test_problem_stored_as_registry_key(self, tmp_path):
        config = CampaignConfig(algorithm="molpb", problem="ZDT1", out_dir=tmp_path)
        assert config.problem == "zdt1"

    def test_rejects_unknown_problem(self, tmp_path):
        with pytest.raises(InvalidInputError, match="unknown problem"):
            CampaignConfig(algorithm="molpb", problem="zdt9", out_dir=tmp_path)

    def test_rejects_zero_runs(self, tmp_path):
        with pytest.raises(InvalidConfigError):
            CampaignConfig(algorithm="molpb", problem="zdt1", out_dir=tmp_path, runs=0)

    def test_bad_engine_settings_fail_before_any_reference_run(self, tmp_path, monkeypatch):
        builds = []
        monkeypatch.setattr(harness, "_execute_run", lambda *args: builds.append(args))
        with pytest.raises(InvalidConfigError, match="population size"):
            run_campaign(
                CampaignConfig(
                    algorithm="molpb", problem="coil_spring", out_dir=tmp_path, population=3
                )
            )
        assert builds == [] and list(tmp_path.iterdir()) == []


class TestResolveReference:
    def test_zdt_defaults_to_analytic(self):
        ref = resolve_reference("zdt2")
        assert ref.source == "analytic"
        assert [0.0, 1.0] in ref.points.tolist()

    def test_explicit_path_wins(self, tmp_path):
        path = tmp_path / "ref.csv"
        write_front_csv(path, np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]]))
        with pytest.warns(UserWarning):
            ref = resolve_reference("zdt1", path=path)
        assert ref.source == "file"
        assert len(ref.points) == 2

    def test_engineering_front_is_built_and_cached(self, tmp_path):
        kwargs = dict(cache_dir=tmp_path, builder_runs=1, builder_generations=4)
        ref1 = resolve_reference("four_bar_truss", **kwargs)
        cache = tmp_path / "reference_four_bar_truss_r1_g4_p100_s0.csv"
        assert cache.exists()
        assert ref1.source == "merged-runs"
        stamp = cache.stat().st_mtime_ns
        ref2 = resolve_reference("four_bar_truss", **kwargs)
        assert cache.stat().st_mtime_ns == stamp  # cache hit, no rebuild
        assert np.array_equal(ref1.points, ref2.points)

    def test_different_budget_rebuilds(self, tmp_path, monkeypatch):
        builds = []

        def counting(*args):
            builds.append(args)
            return execute_run(*args)

        execute_run = harness._execute_run
        monkeypatch.setattr(harness, "_execute_run", counting)
        small = dict(builder_runs=1, builder_generations=3)
        resolve_reference("four_bar_truss", cache_dir=tmp_path, **small)
        assert len(builds) == 2  # one run per algorithm
        resolve_reference("four_bar_truss", cache_dir=tmp_path, **small)
        assert len(builds) == 2  # same budget: cache hit
        resolve_reference(
            "four_bar_truss", cache_dir=tmp_path, **{**small, "builder_generations": 5}
        )
        assert len(builds) == 4
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "reference_four_bar_truss_r1_g3_p100_s0.csv",
            "reference_four_bar_truss_r1_g5_p100_s0.csv",
        ]

    def test_cache_bytes_do_not_depend_on_jobs(self, tmp_path):
        small = dict(builder_runs=2, builder_generations=10)
        name = "reference_coil_spring_r2_g10_p100_s0.csv"
        for jobs in (1, 2):
            resolve_reference("coil_spring", cache_dir=tmp_path / f"j{jobs}", jobs=jobs, **small)
        assert (tmp_path / "j1" / name).read_bytes() == (tmp_path / "j2" / name).read_bytes()

    def test_engineering_without_cache_dir_rejected(self):
        with pytest.raises(InvalidConfigError):
            resolve_reference("pressure_vessel")


class TestRunCampaign:
    def _config(self, tmp_path, **overrides):
        base = dict(
            algorithm="molpb",
            problem="zdt1",
            out_dir=tmp_path,
            runs=2,
            base_seed=5,
            generations=2,
            population=12,
        )
        base.update(overrides)
        return CampaignConfig(**base)

    def test_produces_expected_files(self, tmp_path):
        summary = run_campaign(self._config(tmp_path))
        fronts = sorted(p.name for p in tmp_path.glob("front_*.csv"))
        assert fronts == ["front_molpb_zdt1_5.csv", "front_molpb_zdt1_6.csv"]
        assert len(list(tmp_path.glob("result_*.json"))) == 2
        assert (tmp_path / "summary_molpb_zdt1.json").exists()
        assert summary["runs"] == 2
        assert summary["reference_source"] == "analytic"

    def test_smoke_single_run_zero_generations(self, tmp_path):
        summary = run_campaign(
            self._config(tmp_path, runs=1, generations=0, algorithm="nsga2")
        )
        assert set(summary["stats"]) == {
            "Ave.GD", "Ave.MS", "Ave.RGD", "Ave.S",
            "Std.GD", "Std.MS", "Std.RGD", "Std.S", "PT",
        }
        assert summary["stats"]["Std.GD"] == 0.0

    def test_repeat_is_byte_identical(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        run_campaign(self._config(a_dir))
        run_campaign(self._config(b_dir))
        for name in ("front_molpb_zdt1_5.csv", "front_molpb_zdt1_6.csv"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        run_campaign(self._config(serial_dir))
        run_campaign(self._config(parallel_dir, jobs=2))
        for name in ("front_molpb_zdt1_5.csv", "front_molpb_zdt1_6.csv"):
            assert (serial_dir / name).read_bytes() == (parallel_dir / name).read_bytes()

    def test_summary_stats_equal_recomputed_aggregate(self, tmp_path):
        summary = run_campaign(self._config(tmp_path, runs=3))
        per_run = summary["per_run"]
        expected = {}
        for prefix, stat in (("Ave", np.mean), ("Std", np.std)):
            for row, metric in (("GD", "gd"), ("MS", "max_spread"), ("RGD", "rgd"), ("S", "spacing")):
                expected[f"{prefix}.{row}"] = float(stat([r[metric] for r in per_run]))
        expected["PT"] = sum(r["wall_ms"] for r in per_run)
        assert summary["stats"] == expected
        assert list(summary["stats"]) == list(STAT_ROWS)
        # the standard deviation divides by N, not N - 1
        gd = np.array([r["gd"] for r in per_run])
        assert len(set(gd)) > 1
        n_divisor = np.sqrt(((gd - gd.mean()) ** 2).sum() / len(gd))
        assert summary["stats"]["Std.GD"] == pytest.approx(n_divisor, rel=1e-12)
        assert summary["stats"]["Std.GD"] != pytest.approx(np.std(gd, ddof=1), rel=1e-6)


class TestTabulate:
    def _summary(self, algorithm, offset=0.0):
        stats = {row: offset + i for i, row in enumerate(
            ("Ave.GD", "Ave.MS", "Ave.RGD", "Ave.S", "Std.GD", "Std.MS", "Std.RGD", "Std.S", "PT")
        )}
        return {"algorithm": algorithm, "problem": "zdt1", "stats": stats}

    def test_single_summary_single_column(self):
        text, csv_text = tabulate([self._summary("molpb")])
        lines = text.splitlines()
        assert lines[0].split() == ["metric", "molpb"]
        assert lines[1].startswith("Ave.GD")
        assert len(lines) == 10

    def test_two_algorithms_row_order(self):
        text, csv_text = tabulate([self._summary("molpb"), self._summary("nsga2", 0.5)])
        rows = [line.split(",")[0] for line in csv_text.splitlines()]
        assert rows == [
            "metric", "Ave.GD", "Ave.MS", "Ave.RGD", "Ave.S",
            "Std.GD", "Std.MS", "Std.RGD", "Std.S", "PT",
        ]

    def test_csv_round_trip(self):
        summaries = [self._summary("molpb", 0.123456789012345), self._summary("nsga2", 2.5)]
        _, csv_text = tabulate(summaries)
        parsed = parse_table_csv(csv_text)
        for summary in summaries:
            for row, value in summary["stats"].items():
                assert parsed[summary["algorithm"]][row] == value


def test_load_summaries_reads_written_files(tmp_path):
    config = CampaignConfig(
        algorithm="nsga2", problem="zdt1", out_dir=tmp_path, runs=1, generations=0,
        population=12,
    )
    run_campaign(config)
    summaries = load_summaries(tmp_path)
    assert list(summaries) == ["zdt1"]
    assert [s["algorithm"] for s in summaries["zdt1"]] == ["nsga2"]


def test_load_summaries_groups_by_problem_and_sorts_by_algorithm(tmp_path):
    for algorithm, problem in [("nsga2", "zdt2"), ("molpb", "zdt2"), ("nsga2", "zdt1")]:
        summary = {
            "algorithm": algorithm, "problem": problem, "generations": 0, "population": 12,
            "runs": 1, "gd_p": 2, "reference_source": "analytic",
            "stats": dict.fromkeys(STAT_ROWS, 0.5),
        }
        (tmp_path / f"summary_{algorithm}_{problem}.json").write_text(json.dumps(summary))
    summaries = load_summaries(tmp_path)
    assert list(summaries) == ["zdt1", "zdt2"]
    assert [s["algorithm"] for s in summaries["zdt2"]] == ["molpb", "nsga2"]
