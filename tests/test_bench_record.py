"""The comparison script runs pairs against the committed HEAD from
sibling copies, reports every end-to-end metric, and stops at a run
that is not correct."""

import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "evals_per_s", "gen_ms_p50", "gen_ms_p95", "peak_rss_mb", "setup_s")


def load_bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)
    return bench_record


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout to extract HEAD from")
def test_two_pairs_against_head_report_every_metric():
    proc = subprocess.run(
        [sys.executable, "tools/bench_record.py", "--base", "HEAD", "--pairs", "2",
         "--seconds", "0", "--workload", "zdt1-molpb"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "zdt1-molpb seed 1: HEAD" in out and "2 pairs, every run correct" in out
    lines = out.splitlines()
    for metric in METRICS:
        found = [line for line in lines if line.startswith(f"  {metric} ")]
        assert len(found) == 1, out
        assert all(part in found[0] for part in (" ratio ", " sign p ", "beyond base IQR: "))


def test_sign_test_is_exact_and_two_sided():
    bench_record = load_bench_record()
    assert bench_record.sign_test(10, 0) == bench_record.sign_test(0, 10) == 2 / 1024
    assert bench_record.sign_test(9, 1) == 2 * 11 / 1024
    assert bench_record.sign_test(5, 5) == bench_record.sign_test(0, 0) == 1.0


def test_a_run_that_is_not_correct_stops_the_comparison(monkeypatch):
    bench_record = load_bench_record()
    calls = []

    def run_bench(checkout, workload, seed, seconds, trace):
        calls.append(checkout.name)
        # the base's second run, which comes in pair 2 (checkout first)
        correct = not (checkout.name == "base" and calls.count("base") == 2)
        metrics = {name: {"value": 1.0} for name in METRICS}
        return {"meta": {}, "notes": [] if correct else ["FAILED: front differs"],
                "result": {"correct": correct, "metrics": metrics}}

    monkeypatch.setattr(bench_record, "run_bench", run_bench)
    record = {"git_sha": "0" * 40, "base_sha": "1" * 40, "dirty": False}
    args = SimpleNamespace(base="HEAD", seeds=[7], pairs=3, seconds=0.0)
    checkouts = {"base": Path("base"), "change": Path("head")}
    with pytest.raises(SystemExit) as stop:
        bench_record.compare(record, args, checkouts, ["zdt1-molpb"],
                             {name: "lower" for name in METRICS})
    message = str(stop.value.code)
    assert "a base run of zdt1-molpb (seed 7, pair 2) is not correct" in message
    assert "FAILED: front differs" in message
    assert calls == ["base", "head", "head", "base"]
