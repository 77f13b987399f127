"""The trajectories stay bit for bit the same: ``tools/fingerprint.py``
runs 62 seeded runs and its last line is the sha256 of their digests.

A change that alters a trajectory on purpose (a new rng stream, say)
updates ``TOTAL`` and states the new total in CHANGES.md."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOTAL = "total 3380d2298bf7d7a38501f15cd74231cea78e45a6da086f75e166352d0fd17095"


def test_fingerprint_total_is_unchanged():
    proc = subprocess.run(
        [sys.executable, "tools/fingerprint.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == TOTAL
