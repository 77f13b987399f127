import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from mobench import harness
from mobench.cli import main
from mobench.harness import BUDGET_KEYS, STAT_ROWS
from mobench.results import write_front_csv

_execute_run = harness._execute_run


def _run_or_die(algorithm, problem, population, generations, seed):
    """A campaign run that kills its worker process on seed 2, once seed 1's
    front is in ``out/`` under the working directory (waiting up to 60 s)."""
    if seed == 2:
        deadline = time.monotonic() + 60.0
        while not Path("out", "front_nsga2_zdt1_1.csv").exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        os._exit(1)
    return _execute_run(algorithm, problem, population, generations, seed)


def _build_or_die(algorithm, problem, population, generations, seed):
    """A merged-reference builder run cut to two generations that kills
    its worker process on NSGA-II's seed 1."""
    if algorithm == "nsga2" and seed == 1:
        os._exit(1)
    return _execute_run(algorithm, problem, population, 2, seed)


BUDGET = {"generations": 0, "population": 12, "runs": 1, "gd_p": 2, "reference_source": "analytic"}


def test_problems_lists_registry(capsys):
    assert main(["problems"]) == 0
    out = capsys.readouterr().out
    assert "zdt1" in out and "n_vars=30" in out
    assert "car_side_impact" in out and "n_objectives=4" in out


def test_run_smoke_and_outputs(tmp_path, capsys):
    code = main(
        [
            "run", "--algo", "nsga2", "--problem", "zdt1",
            "--runs", "1", "--generations", "0", "--pop", "12",
            "--seed", "9", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Ave.GD" in out
    assert (tmp_path / "front_nsga2_zdt1_9.csv").exists()
    assert (tmp_path / "summary_nsga2_zdt1.json").exists()


def test_run_unknown_problem_exits_2(tmp_path, capsys):
    code = main(
        ["run", "--algo", "molpb", "--problem", "zdt9", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_run_crashed_worker_exits_5_and_keeps_finished_runs(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "_execute_run", _run_or_die)
    code = main(
        [
            "run", "--algo", "nsga2", "--problem", "zdt1", "--runs", "2", "--jobs", "2",
            "--generations", "1", "--pop", "12", "--out", "out",
        ]
    )
    assert code == 5
    assert "worker process died" in capsys.readouterr().err
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "front_nsga2_zdt1_1.csv", "result_nsga2_zdt1_1.json"
    ]


def test_reference_build_crashed_worker_exits_5_and_writes_no_cache(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(harness, "_execute_run", _build_or_die)
    code = main(
        [
            "run", "--algo", "nsga2", "--problem", "coil_spring", "--runs", "2", "--jobs", "2",
            "--generations", "1", "--pop", "12", "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 5
    assert "worker process died" in capsys.readouterr().err
    assert list(tmp_path.rglob("reference_*.csv")) == []


def test_run_unreadable_reference_exits_3(tmp_path, capsys):
    code = main(
        [
            "run", "--algo", "molpb", "--problem", "zdt1",
            "--runs", "1", "--generations", "0", "--pop", "12",
            "--out", str(tmp_path), "--reference", str(tmp_path / "missing.csv"),
        ]
    )
    assert code == 3


def test_run_is_byte_deterministic(tmp_path, capsys):
    args = [
        "run", "--algo", "molpb", "--problem", "zdt1",
        "--runs", "2", "--generations", "2", "--pop", "12", "--seed", "4",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("front_molpb_zdt1_4.csv", "front_molpb_zdt1_5.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_score_reports_metrics(tmp_path, capsys):
    front = tmp_path / "front.csv"
    reference = tmp_path / "ref.csv"
    write_front_csv(front, np.array([[0.0, 1.0], [1.0, 0.0]]))
    write_front_csv(reference, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert main(["score", "--front", str(front), "--reference", str(reference)]) == 0
    out = capsys.readouterr().out
    assert "gd 0" in out and "max_spread" in out


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("bad_file", ["front", "reference"])
def test_score_non_finite_value_exits_3(tmp_path, capsys, cell, bad_file):
    paths = {name: tmp_path / f"{name}.csv" for name in ("front", "reference")}
    for path in paths.values():
        write_front_csv(path, np.array([[0.0, 1.0], [1.0, 0.0]]))
    with paths[bad_file].open("a") as handle:
        handle.write(f"0.5,{cell}\n")
    code = main(["score", "--front", str(paths["front"]), "--reference", str(paths["reference"])])
    assert code == 3
    assert f"{bad_file}.csv:4" in capsys.readouterr().err


def test_table_truncated_summary_exits_3(tmp_path, capsys):
    assert main(
        [
            "run", "--algo", "nsga2", "--problem", "zdt1",
            "--runs", "1", "--generations", "0", "--pop", "12",
            "--out", str(tmp_path),
        ]
    ) == 0
    summary = tmp_path / "summary_nsga2_zdt1.json"
    text = summary.read_text()
    valid = {"algorithm": "nsga2", "problem": "zdt1", **BUDGET, "stats": dict.fromkeys(STAT_ROWS, 0.5)}
    for damaged, named in [
        (text[:40], "summary_nsga2_zdt1.json"),
        ('{"algorithm": "nsga2"}', "KeyError('problem')"),
        ('{"algorithm": "nsga2", "problem": "zdt1", "stats": {}}', "KeyError('Ave.GD')"),
        (json.dumps({**valid, "stats": dict.fromkeys(STAT_ROWS, "x")}), "stats['Ave.GD'] has"),
        (json.dumps({**valid, "stats": dict.fromkeys(STAT_ROWS, True)}), "stats['Ave.GD'] has"),
        (json.dumps({**valid, "algorithm": 1}), "algorithm has the wrong type"),
        (json.dumps({**valid, "problem": None}), "problem has the wrong type"),
        (json.dumps({**valid, "stats": {**valid["stats"], "Std.S": float("nan")}}),
         "stats['Std.S'] is not finite"),
        (json.dumps({**valid, "stats": {**valid["stats"], "PT": float("-inf")}}),
         "stats['PT'] is not finite"),
        (json.dumps({**valid, "stats": dict.fromkeys(STAT_ROWS, float("inf"))}),
         "stats['Ave.GD'] is not finite"),
        (json.dumps({**valid, "stats": {**valid["stats"], "Ave.S": 10**400}}),
         "stats['Ave.S'] is not finite"),
    ]:
        summary.write_text(damaged)
        assert main(["table", "--in", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "summary_nsga2_zdt1.json" in err and named in err
    summary.write_text(json.dumps(valid))  # each case above breaks one field of this one
    assert main(["table", "--in", str(tmp_path)]) == 0


def test_score_missing_front_exits_3(tmp_path, capsys):
    code = main(
        ["score", "--front", str(tmp_path / "nope.csv"), "--reference", str(tmp_path / "nope.csv")]
    )
    assert code == 3


def test_table_renders_and_writes_csv(tmp_path, capsys):
    for algo in ("molpb", "nsga2"):
        assert main(
            [
                "run", "--algo", algo, "--problem", "zdt1",
                "--runs", "1", "--generations", "0", "--pop", "12",
                "--out", str(tmp_path),
            ]
        ) == 0
    assert main(["table", "--in", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "== zdt1 ==" in out
    table = (tmp_path / "table_zdt1.csv").read_text()
    header = table.splitlines()[0]
    assert header == "metric,molpb,nsga2"


def test_table_empty_dir_exits_2(tmp_path, capsys):
    assert main(["table", "--in", str(tmp_path)]) == 2


def _write_summary(directory, algorithm, problem="zdt1", **fields):
    summary = {"algorithm": algorithm, "problem": problem, **BUDGET, **fields}
    summary["stats"] = dict.fromkeys(STAT_ROWS, 0.5)
    (directory / f"summary_{algorithm}_{problem}.json").write_text(json.dumps(summary))


@pytest.mark.parametrize(
    "field, other", [("generations", 300), ("population", 100), ("runs", 30), ("gd_p", 1),
                     ("reference_source", "merged-runs")]
)
def test_table_rejects_mixed_budgets(tmp_path, capsys, field, other):
    _write_summary(tmp_path, "molpb")
    _write_summary(tmp_path, "nsga2", **{field: other})
    assert main(["table", "--in", str(tmp_path)]) == 2
    assert f"differ in {field}" in capsys.readouterr().err
    assert not list(tmp_path.glob("table_*.csv"))


def test_table_checks_budget_across_problem_name_case(tmp_path, capsys):
    # ZDT1 and zdt1 are one problem: one summary name, one budget check
    common = ["--runs", "1", "--pop", "12", "--out", str(tmp_path)]
    assert main(["run", "--algo", "molpb", "--problem", "ZDT1", "--generations", "2", *common]) == 0
    assert main(["run", "--algo", "nsga2", "--problem", "zdt1", "--generations", "3", *common]) == 0
    assert sorted(p.name for p in tmp_path.glob("summary_*.json")) == [
        "summary_molpb_zdt1.json", "summary_nsga2_zdt1.json"
    ]
    capsys.readouterr()
    assert main(["table", "--in", str(tmp_path)]) == 2
    assert "zdt1: summaries differ in generations" in capsys.readouterr().err
    assert not list(tmp_path.glob("table_*.csv"))


def test_table_mixed_budget_in_another_problem_writes_nothing(tmp_path, capsys):
    # a budget clash in one problem stops the command before any table is written
    _write_summary(tmp_path, "molpb")
    _write_summary(tmp_path, "molpb", "zdt2", generations=5)
    _write_summary(tmp_path, "nsga2", "zdt2", generations=300)
    assert main(["table", "--in", str(tmp_path)]) == 2
    assert "zdt2: summaries differ in generations" in capsys.readouterr().err
    assert not list(tmp_path.glob("table_*.csv"))


@pytest.mark.parametrize("field", BUDGET_KEYS)
def test_table_summary_without_budget_field_exits_3(tmp_path, capsys, field):
    _write_summary(tmp_path, "molpb")
    summary = json.loads((tmp_path / "summary_molpb_zdt1.json").read_text())
    del summary[field]
    (tmp_path / "summary_molpb_zdt1.json").write_text(json.dumps(summary))
    assert main(["table", "--in", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "summary_molpb_zdt1.json" in err and repr(field) in err
