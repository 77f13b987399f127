"""Record benchmark runs, or compare this checkout with a git revision.

Drives ``bench/run_bench.py`` as a subprocess, once per run, and never
imports ``mobench`` itself. Run from anywhere inside the checkout::

    python3 tools/bench_record.py --label mylabel --seeds 1 2 --seconds 8
    python3 tools/bench_record.py --base HEAD~1 --pairs 10 --seeds 1 7 \\
        --workload zdt1-molpb --seconds 8

``--label L`` alone runs every workload (or each ``--workload``) at
``--trace 0`` for each seed, then once at ``--trace 1``, and writes
``BENCH_<L>.json`` at the root of the checkout: each run's metadata line
and final JSON line, plus the checkout's git sha.

``--base REV`` extracts ``REV`` with ``git archive`` into a temporary
directory and runs ``--pairs`` alternating pairs per workload and seed,
the base first in odd pairs and the checkout first in even ones. For
every end-to-end metric that ``BENCHMARK.json`` declares it prints both
sides' median and quartiles, how many pairs the checkout won, and whether
the medians differ by more than the base's interquartile range. With
``--label`` as well, the runs and verdicts go to ``BENCH_<L>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="write BENCH_<LABEL>.json at the root of the checkout")
    parser.add_argument("--base", metavar="REV", help="compare with REV in alternating pairs")
    parser.add_argument("--workload", action="append", help="a workload (default: all of BENCHMARK.json's)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if not args.label and not args.base:
        parser.error("give --label, --base or both")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    # whether the measured code (the package and the benchmark) differs from HEAD
    dirty = bool(git("status", "--porcelain", "--", "src", "bench/run_bench.py", "bench/spans.py"))
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
        record["comparisons"] = []
        with tempfile.TemporaryDirectory(prefix="mobench-base-") as tmp:
            base = Path(tmp)
            archive = subprocess.run(["git", "archive", record["base_sha"]], cwd=ROOT,
                                     check=True, capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
            for workload in workloads:
                for seed in args.seeds:
                    pairs = []
                    for i in range(args.pairs):
                        order = ("base", "change") if i % 2 == 0 else ("change", "base")
                        pair = {}
                        for side in order:
                            checkout = base if side == "base" else ROOT
                            pair[side] = run_bench(checkout, workload, seed, args.seconds, 0)
                        pairs.append(pair)
                    found = verdicts(pairs, metrics)
                    record["comparisons"].append(
                        {"workload": workload, "seed": seed, "pairs": pairs, "verdicts": found})
                    print(f"{workload} seed {seed}: {args.base} ({record['base_sha'][:12]}) -> "
                          f"checkout ({record['git_sha'][:12]}{', dirty' if dirty else ''}), "
                          f"{len(pairs)} pairs")
                    for side in ("base", "change"):
                        correct = all(p[side]["result"]["correct"] for p in pairs)
                        print(f"  {side:6s} every run correct: {correct}")
                    for v in found:
                        b, c = v["base"], v["change"]
                        print(f"  {v['metric']:12s} base {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]"
                              f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
                              f"  ratio {v['ratio']:.3f}  wins {v['wins']}/{v['pairs']}"
                              f"  beyond base IQR: {'yes' if v['beyond_base_iqr'] else 'no'}")

    if args.label:
        path = ROOT / f"BENCH_{args.label}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
