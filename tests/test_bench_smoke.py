"""Each benchmark workload runs once and passes its correctness gate, and
one traced run passes its own, so a change that breaks a name the
benchmark uses fails here. The script writes its outputs to the ignored
``bench/out/``."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_runs_correctly(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", workload, "--seed", "1",
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout


def test_traced_run_checks_its_fronts_and_names_the_gone_layers():
    # the traced run's own gate: fronts byte-identical with and without
    # tracing, layer counts repeated between two traced runs; a renamed
    # function would join the missing-layer note and zero its layer
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "car-nsga2", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert json.loads(lines[-1])["correct"] is True, proc.stdout
    note = "note: layer functions not found, their layers read 0: "
    (missing,) = [line[len(note):] for line in lines if line.startswith(note)]
    assert sorted(ast.literal_eval(missing)) == [
        "archive.ParetoArchive.truncate",
        "dominance.crowding_distance",
        "dominance.environmental_selection",
    ]
