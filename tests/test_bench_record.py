"""The comparison script runs one pair against the committed HEAD and
reports both sides, every run correct."""

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
