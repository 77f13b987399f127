"""The comparison script runs one pair against the committed HEAD and
reports both sides, every run correct, in block and interleaved mode."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout to extract HEAD from")
def test_one_pair_against_head_reports_both_sides():
    proc = subprocess.run(
        [sys.executable, "tools/bench_record.py", "--base", "HEAD", "--pairs", "1",
         "--workload", "zdt1-molpb", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "zdt1-molpb seed 1: HEAD" in out and "1 pairs" in out
    assert "base   every run correct: True" in out
    assert "change every run correct: True" in out
    for metric in ("wall_s", "gen_ms_p50", "peak_rss_mb"):
        assert f"  {metric} " in out and "wins " in out


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout to extract HEAD from")
def test_one_interleaved_pair_against_head_reports_the_ratios():
    proc = subprocess.run(
        [sys.executable, "tools/bench_record.py", "--base", "HEAD", "--interleave", "1",
         "--workload", "zdt1-molpb"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "zdt1-molpb seed 1: HEAD" in out
    assert "1 interleaved pairs, every repetition correct" in out
    for metric in ("wall_s", "evals_per_s", "gen_ms_p50", "gen_ms_p95"):
        assert f"  {metric} " in out
    # per-process figures come from the block mode only
    assert "peak_rss_mb" not in out and "setup_s" not in out
    assert out.count(" of 1  sign p 1 ") == 4


def test_sign_test_is_exact_and_two_sided():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)
    assert bench_record.sign_test(10, 0) == bench_record.sign_test(0, 10) == 2 / 1024
    assert bench_record.sign_test(9, 1) == 2 * 11 / 1024
    assert bench_record.sign_test(5, 5) == bench_record.sign_test(0, 0) == 1.0
