import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobench import cli, harness
from mobench.cli import main
from mobench.errors import FrontFileError
from mobench.harness import BUDGET_KEYS, STAT_ROWS, CampaignConfig
from mobench.results import read_front_csv, write_front_csv

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


def _never_run(*task):
    raise AssertionError(f"an engine run started: {task}")


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


def test_run_negative_seed_exits_2_before_any_reference_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "_execute_run", _never_run)
    out = tmp_path / "out"
    code = main(
        ["run", "--algo", "nsga2", "--problem", "coil_spring", "--seed", "-3", "--out", str(out)]
    )
    assert code == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


def test_run_unreadable_reference_exits_3(tmp_path, capsys):
    code = main(
        [
            "run", "--algo", "molpb", "--problem", "zdt1",
            "--runs", "1", "--generations", "0", "--pop", "12",
            "--out", str(tmp_path), "--reference", str(tmp_path / "missing.csv"),
        ]
    )
    assert code == 3


def test_run_reference_of_wrong_width_exits_2_before_any_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "_execute_run", _never_run)
    reference = tmp_path / "ref.csv"
    write_front_csv(reference, np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]]))
    out = tmp_path / "out"
    code = main(
        [
            "run", "--algo", "nsga2", "--problem", "zdt1", "--runs", "2",
            "--out", str(out), "--reference", str(reference),
        ]
    )
    assert code == 2
    assert "ref.csv: reference has 3 objectives, zdt1 has 2" in capsys.readouterr().err
    assert not out.exists()


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


def _capture_configs(monkeypatch) -> list:
    """Replace the CLI's ``run_campaign`` with one that records its config
    and returns a summary with no statistics."""
    configs = []

    def record(config):
        configs.append(config)
        return {"stats": {}}

    monkeypatch.setattr(cli, "run_campaign", record)
    return configs


def test_run_flags_fill_their_config_fields(tmp_path, capsys, monkeypatch):
    configs = _capture_configs(monkeypatch)
    out, reference = tmp_path / "out", tmp_path / "ref.csv"
    code = main(
        [
            "run", "--algo", "molpb", "--problem", "zdt2", "--runs", "3",
            "--generations", "7", "--pop", "14", "--seed", "5", "--out", str(out),
            "--reference", str(reference), "--jobs", "2", "--gd-p", "1",
        ]
    )
    assert code == 0
    assert configs == [
        CampaignConfig(
            algorithm="molpb", problem="zdt2", out_dir=out, runs=3, base_seed=5,
            generations=7, population=14, reference_path=reference, jobs=2, gd_p=1,
        )
    ]
    assert capsys.readouterr().out == (
        f"molpb on zdt2: 3 runs, 7 generations\nsummary: {out / 'summary_molpb_zdt2.json'}\n"
    )


def test_run_defaults_fill_the_config(tmp_path, capsys, monkeypatch):
    configs = _capture_configs(monkeypatch)
    assert main(["run", "--algo", "nsga2", "--problem", "zdt1", "--out", str(tmp_path)]) == 0
    (config,) = configs
    assert (config.algorithm, config.problem, config.out_dir) == ("nsga2", "zdt1", tmp_path)
    assert (config.runs, config.generations, config.population, config.base_seed) == (
        30, 350, 100, 1
    )
    assert (config.jobs, config.gd_p, config.reference_path) == (1, 2, None)


def test_score_gd_p_selects_the_gd_exponent(tmp_path, capsys):
    front, reference = tmp_path / "front.csv", tmp_path / "ref.csv"
    write_front_csv(front, np.array([[0.0, 2.0], [2.0, 0.0]]))
    write_front_csv(reference, np.array([[0.0, 1.0], [1.0, 0.0]]))
    args = ["score", "--front", str(front), "--reference", str(reference)]
    # both members lie at distance 1: p = 1 gives (1 + 1)/2, p = 2 sqrt(1 + 1)/2
    assert main(args + ["--gd-p", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "gd 1"
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"gd {2**0.5 / 2:.17g}"


def test_score_overflowing_indicator_exits_4(tmp_path, capsys):
    front, reference = tmp_path / "front.csv", tmp_path / "ref.csv"
    write_front_csv(front, np.array([[1e308, -1e308], [-1e308, 1e308]]))
    write_front_csv(reference, np.array([[0.0, 1.0], [1.0, 0.0]]))
    code = main(["score", "--front", str(front), "--reference", str(reference)])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "indicator gd is not finite" in captured.err


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
    (tmp_path / "table_nested").mkdir()  # lets a problem name "nested/../../x" resolve
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
        (json.dumps({**valid, "problem": "nested/../../escaped"}),
         "problem 'nested/../../escaped' is not registered"),
        (json.dumps({**valid, "algorithm": "x,y\nz"}), "algorithm 'x,y\\nz' is not registered"),
    ]:
        summary.write_text(damaged)
        assert main(["table", "--in", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "summary_nsga2_zdt1.json" in err and named in err
    assert not (tmp_path.parent / "escaped.csv").exists()
    assert [p.name for p in tmp_path.glob("table_*")] == ["table_nested"]
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


@pytest.mark.parametrize("bad_file", ["front", "reference"])
def test_score_file_that_is_not_utf8_exits_3(tmp_path, capsys, bad_file):
    paths = {name: tmp_path / f"{name}.csv" for name in ("front", "reference")}
    for path in paths.values():
        write_front_csv(path, np.array([[0.0, 1.0], [1.0, 0.0]]))
    paths[bad_file].write_bytes(b"f1,f2\n\xff,1\n")
    code = main(["score", "--front", str(paths["front"]), "--reference", str(paths["reference"])])
    assert code == 3
    assert f"{bad_file}.csv: not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("data", [b"\xff\xfe{}", b"[" * 100_000], ids=["not-utf8", "too-deep"])
def test_table_summary_that_cannot_be_parsed_exits_3(tmp_path, capsys, data):
    (tmp_path / "summary_nsga2_zdt1.json").write_bytes(data)
    assert main(["table", "--in", str(tmp_path)]) == 3
    assert "summary_nsga2_zdt1.json: not a valid summary" in capsys.readouterr().err


# bytes that are mostly not a front, or a valid head followed by anything
FILE_BYTES = st.binary(max_size=200) | st.builds(
    bytes.__add__, st.sampled_from([b"f1,f2\n", b"f1,f2\n0.5,0.5\n", b"f1,f2\r\n1,0\n"]),
    st.binary(max_size=100),
)


@pytest.mark.parametrize("bad_file", ["front", "reference"])
def test_score_any_bytes_give_a_score_or_exit_3(tmp_path, capsys, bad_file):
    # a file reads as a finite float matrix or raises FrontFileError, and
    # the command exits 0 or 3 accordingly, never with a traceback
    paths = {name: tmp_path / f"{name}.csv" for name in ("front", "reference")}
    for path in paths.values():
        write_front_csv(path, np.array([[0.0, 1.0], [1.0, 0.0]]))
    argv = ["score", "--front", str(paths["front"]), "--reference", str(paths["reference"])]

    @settings(max_examples=200, deadline=None)
    @given(FILE_BYTES)
    def check(data):
        paths[bad_file].write_bytes(data)
        try:
            F = read_front_csv(paths[bad_file])
        except FrontFileError:
            F = None
        else:
            assert F.dtype == np.float64 and F.ndim == 2 and np.isfinite(F).all()
        assert main(argv) == (3 if F is None or F.shape[1] != 2 else 0)
        capsys.readouterr()

    check()


FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda m: st.lists(st.lists(FINITE, min_size=m + 1, max_size=m + 1), min_size=1, max_size=8)))
def test_front_csv_round_trip_keeps_every_float_bit(rows):
    # 17 significant digits bring back every finite float64, -0.0,
    # subnormals and +-max included
    F = np.array(rows, dtype=float)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "front.csv"
        write_front_csv(path, F)
        assert read_front_csv(path).tobytes() == F.tobytes()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters(exclude_categories=())),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def test_table_any_single_field_replacement_gives_a_table_or_exit_2_or_3(tmp_path, capsys):
    # one field of one of two valid summaries, top-level or a stats row,
    # becomes any JSON value or raw bytes; text may hold a lone surrogate,
    # whose UTF-8 form no decoder accepts
    _write_summary(tmp_path, "molpb")
    valid = {"algorithm": "nsga2", "problem": "zdt1", **BUDGET, "stats": dict.fromkeys(STAT_ROWS, 0.5)}
    fields = [(key,) for key in valid] + [("stats", row) for row in STAT_ROWS]
    target = tmp_path / "summary_nsga2_zdt1.json"
    marker = "@@field@@"

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(fields), JSON_VALUES | st.binary(max_size=20))
    def check(field, value):
        summary = json.loads(json.dumps(valid))
        *parents, key = field
        holder = summary
        for name in parents:
            holder = holder[name]
        holder[key] = marker
        if isinstance(value, bytes):
            token = value
        else:
            token = json.dumps(value, ensure_ascii=False).encode("utf-8", "surrogatepass")
        target.write_bytes(json.dumps(summary).encode().replace(json.dumps(marker).encode(), token))
        for table in tmp_path.glob("table_*.csv"):
            table.unlink()
        code = main(["table", "--in", str(tmp_path)])
        assert code in (0, 2, 3)
        assert (code == 0) == (tmp_path / "table_zdt1.csv").exists()
        capsys.readouterr()

    check()
