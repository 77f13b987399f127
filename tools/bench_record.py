"""Record benchmark runs, or compare this checkout with a git revision.

Drives ``bench/run_bench.py`` as a subprocess, once per run, and never
imports ``mobench`` itself. Run from anywhere inside the checkout::

    python3 tools/bench_record.py --label mylabel --seeds 1 2 --seconds 8
    python3 tools/bench_record.py --base HEAD~1 --pairs 20 --seconds 0 \\
        --seeds 1 7 --workload car-nsga2
    python3 tools/bench_record.py --base HEAD --pairs 30 --seconds 0 \\
        --seeds 1 7 --label aa

``--label L`` alone runs every workload (or each ``--workload``) at
``--trace 0`` for each seed, then once at ``--trace 1``, and writes
``BENCH_<L>.json`` at the root of the checkout: each run's metadata line
and final JSON line, plus the checkout's git sha.

``--base REV`` runs ``--pairs`` pairs of ``run_bench.py`` processes per
workload and seed, in ABBA order: the base first in odd pairs and the
checkout first in even ones. Both sides run from sibling copies in one
temporary directory: ``base`` holds ``git archive REV src bench``, and
``head`` a copy of the checkout's ``src/`` and ``bench/`` as they are on
disk, without ``bench/out/`` and ``__pycache__``. Where a side's files
live shifts its figures (a layout bias; Mytkowicz et al., ASPLOS 2009),
so neither side runs from the checkout itself.

With ``--seconds 0`` each run makes exactly one repetition, of seed
``S*1000``, besides ``run_bench.py``'s set-up samples. Every run is then
a fresh process, both sides of a pair run the same trajectory, and a
pair spans a second or two, so that both of its runs see the box at
about the same speed. Longer ``--seconds`` give blocks of repetitions.

For every end-to-end metric that ``BENCHMARK.json`` declares it prints
the per-pair ratio checkout / base (median and quartiles), the pairs the
checkout won and lost, and the exact two-sided sign-test p-value over
the pairs that were not tied; beside them, both sides' median and
quartiles and whether the medians differ by more than the base's
interquartile range. A run whose result is not correct stops the
comparison with exit status 1. With ``--label`` as well, the runs, the
ratios and the verdicts go to ``BENCH_<L>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEADER = "# mobench benchmark: "


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``run_bench.py`` run in ``checkout``: its metadata and result."""
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run_bench.py failed in {checkout} ({workload}, seed {seed}):\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    meta = next(json.loads(line[len(HEADER):]) for line in lines if line.startswith(HEADER))
    notes = [line for line in lines if line.startswith(("note:", "FAILED:"))]
    return {"meta": meta, "result": json.loads(lines[-1]), "notes": notes}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdicts(pairs: list[dict], metrics: dict[str, str]) -> list[dict]:
    """Per metric: both sides' quartiles, the change's wins, and whether
    the medians differ by more than the base's interquartile range."""
    out = []
    for name, better in metrics.items():
        sides = {
            side: [p[side]["result"]["metrics"][name]["value"] for p in pairs]
            for side in ("base", "change")
        }
        lower = better == "lower"
        wins = sum((c < b) if lower else (c > b) for b, c in zip(sides["base"], sides["change"]))
        (b1, b2, b3), (c1, c2, c3) = quartiles(sides["base"]), quartiles(sides["change"])
        out.append({
            "metric": name, "better": better,
            "base": {"q1": b1, "median": b2, "q3": b3},
            "change": {"q1": c1, "median": c2, "q3": c3},
            "ratio": c2 / b2 if b2 else math.nan,
            "wins": wins, "pairs": len(pairs),
            "beyond_base_iqr": abs(c2 - b2) > b3 - b1,
        })
    return out


def abba(i: int) -> tuple[str, str]:
    """The order of the two sides in pair ``i``: base first in even pairs."""
    return ("base", "change") if i % 2 == 0 else ("change", "base")


def sign_test(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of ``wins`` against ``losses``."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def ratios(pairs: list[dict], metrics: dict[str, str]) -> list[dict]:
    """Per metric: the quartiles of the per-pair ratio checkout / base,
    the pairs the checkout won and lost, and the sign test's p-value."""
    out = []
    for name, better in metrics.items():
        lower = better == "lower"
        values = [p["change"]["result"]["metrics"][name]["value"]
                  / p["base"]["result"]["metrics"][name]["value"] for p in pairs]
        wins = sum((r < 1) if lower else (r > 1) for r in values)
        losses = sum((r > 1) if lower else (r < 1) for r in values)
        q1, q2, q3 = quartiles(values)
        out.append({"metric": name, "better": better,
                    "ratio": {"q1": q1, "median": q2, "q3": q3},
                    "wins": wins, "losses": losses, "pairs": len(pairs),
                    "sign_p": sign_test(wins, losses)})
    return out


def sibling_copies(base_sha: str, tmp: Path) -> dict[str, Path]:
    """``tmp/base`` with ``src`` and ``bench`` of ``base_sha``, and
    ``tmp/head`` with the checkout's own, as they are on disk."""
    # Both sides run from directories of one parent whose names have the
    # same length. In A/A pairs at one commit, runs from the live checkout
    # against runs from an archive under the temporary directory read
    # peak_rss_mb 0.13-0.17% apart, one way in 24 of 30 pairs; sibling
    # copies read 1.000 with no such sign (BENCH_aa_fresh_pairs.json).
    base, head = tmp / "base", tmp / "head"
    base.mkdir()
    archive = subprocess.run(["git", "archive", base_sha, "src", "bench"], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)

    def skip(directory: str, names: list[str]) -> list[str]:
        return [n for n in names
                if n == "__pycache__" or Path(directory, n) == ROOT / "bench" / "out"]

    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, head / part, ignore=skip)
    return {"base": base, "change": head}


def compare(record: dict, args, checkouts: dict[str, Path], workloads: list[str],
            metrics: dict[str, str]) -> None:
    """Run and print ``--pairs`` ABBA pairs of runs per workload and seed,
    and add them to ``record``; a run that is not correct ends the
    program."""
    record["comparisons"] = []
    for workload in workloads:
        for seed in args.seeds:
            pairs = [{} for _ in range(args.pairs)]
            for i, pair in enumerate(pairs):
                for side in abba(i):
                    pair[side] = run_bench(checkouts[side], workload, seed, args.seconds, 0)
                    if not pair[side]["result"]["correct"]:
                        raise SystemExit(f"a {side} run of {workload} (seed {seed}, pair {i + 1}) "
                                         "is not correct:\n" + "\n".join(pair[side]["notes"]))
            stats, found = ratios(pairs, metrics), verdicts(pairs, metrics)
            record["comparisons"].append({"workload": workload, "seed": seed, "pairs": pairs,
                                          "ratios": stats, "verdicts": found})
            print(f"{workload} seed {seed}: {args.base} ({record['base_sha'][:12]}) -> checkout "
                  f"({record['git_sha'][:12]}{', dirty' if record['dirty'] else ''}), "
                  f"{len(pairs)} pairs, every run correct")
            for r, v in zip(stats, found):
                q, b, c = r["ratio"], v["base"], v["change"]
                print(f"  {r['metric']:12s} ratio {q['median']:.3f} [{q['q1']:.3f}, {q['q3']:.3f}]"
                      f"  won {r['wins']} lost {r['losses']} of {r['pairs']}"
                      f"  sign p {r['sign_p']:.2g}"
                      f"  base {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]"
                      f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
                      f"  beyond base IQR: {'yes' if v['beyond_base_iqr'] else 'no'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", help="write BENCH_<LABEL>.json at the root of the checkout")
    parser.add_argument("--base", metavar="REV",
                        help="compare with REV in ABBA pairs of run_bench.py runs, both sides "
                             "run from sibling copies")
    parser.add_argument("--workload", action="append", help="a workload (default: all of BENCHMARK.json's)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="run_bench.py's --seconds; 0 makes each run one repetition, "
                             "of seed S*1000 (default: %(default)s)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload and seed "
                        "with --base (default: %(default)s)")
    args = parser.parse_args(argv)
    if not args.label and not args.base:
        parser.error("give --label, --base or both")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    # whether what the runs use (the package and the benchmark) differs from HEAD
    dirty = bool(git("status", "--porcelain", "--", "src", "bench"))
    record = {"git_sha": git("rev-parse", "HEAD"), "dirty": dirty, "seconds": args.seconds}

    if not args.base:
        record["runs"] = []
        for workload in workloads:
            for seed in args.seeds:
                record["runs"].append({"workload": workload, "seed": seed, "trace": 0,
                                       **run_bench(ROOT, workload, seed, args.seconds, 0)})
            record["runs"].append({"workload": workload, "seed": args.seeds[0], "trace": 1,
                                   **run_bench(ROOT, workload, args.seeds[0], args.seconds, 1)})
        for run in record["runs"]:
            result = run["result"]
            print(f"{run['workload']} seed {run['seed']} trace {run['trace']}: "
                  f"correct={result['correct']} failed={result['failed']}/{result['attempted']}")
    else:
        record["base_sha"] = git("rev-parse", f"{args.base}^{{commit}}")
        with tempfile.TemporaryDirectory(prefix="mobench-compare-") as tmp:
            compare(record, args, sibling_copies(record["base_sha"], Path(tmp)), workloads, metrics)

    if args.label:
        path = ROOT / f"BENCH_{args.label}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
