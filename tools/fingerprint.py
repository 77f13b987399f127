"""Fingerprint the trajectories of 62 seeded runs.

Run from anywhere; it imports ``mobench`` from the ``src`` directory of
the checkout it lives in::

    python3 tools/fingerprint.py

The runs are every bundled problem under both engines with seeds 1-3 at
120 generations (60 runs), plus seed-1 MOLPB on zdt1 and seed-1 NSGA-II
on car_side_impact at the full 350 generations, all at population and
archive 100. For each run it prints the sha256 of the final archive
front, the population's decision vectors ``X`` and its objective vectors
``F`` (shape and raw float64 bytes of each, in that order); the last line
is the sha256 of all those per-run digests. Two checkouts whose last
lines match ran the same trajectories bit for bit.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mobench.harness import ENGINES, engine_config  # noqa: E402
from mobench.suite import get_problem, problem_names  # noqa: E402

RUNS = [
    (algorithm, problem, seed, 120)
    for problem in problem_names()
    for algorithm in ("molpb", "nsga2")
    for seed in (1, 2, 3)
] + [("molpb", "zdt1", 1, 350), ("nsga2", "car_side_impact", 1, 350)]


def run_digest(algorithm: str, problem: str, seed: int, generations: int) -> str:
    config = engine_config(algorithm, 100, generations, seed)
    engine = ENGINES[algorithm][0](config, get_problem(problem))
    engine.run()
    digest = hashlib.sha256()
    for array in (engine.archive.objectives(), engine.X, engine.F):
        array = np.ascontiguousarray(array, dtype=np.float64)
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def main() -> None:
    total = hashlib.sha256()
    for run in RUNS:
        digest = run_digest(*run)
        total.update(digest.encode())
        print(*run, digest, flush=True)
    print("total", total.hexdigest())


if __name__ == "__main__":
    main()
