"""Record benchmark runs, or compare this checkout with a git revision.

Drives ``bench/run_bench.py`` as a subprocess, once per run, and never
imports ``mobench`` itself; only the workers of ``--interleave`` import
a checkout's ``run_bench``. Run from anywhere inside the checkout::

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

``--base REV --interleave N`` pairs single repetitions instead of
``--seconds`` blocks, so that both runs of a pair see the box at the
same speed::

    python3 tools/bench_record.py --base HEAD~1 --interleave 20 --workload zdt1-molpb

It starts one worker process per side, each with its side's ``bench/``
and ``src/`` on ``sys.path``, and each worker runs its side's own
``run_bench.single_rep`` or ``campaign_rep`` (so its own settings, gate
and timing) for the seeds that ``run_bench.py --seed S`` gives its
repetitions. The driver asks for one repetition at a time, in ABBA order
(base first in even pairs). For ``wall_s``, ``evals_per_s``,
``gen_ms_p50`` and ``gen_ms_p95`` of each repetition it prints the
per-pair ratio checkout / base (median and quartiles), the number of
pairs that the checkout won and lost, and the exact two-sided sign-test
p-value over the pairs that were not tied, then the medians and the IQR
verdict as above. ``setup_s`` and ``peak_rss_mb`` are figures of a whole
benchmark process and come from the block mode only. A repetition that
fails its gate stops the comparison with exit status 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HEADER = "# mobench benchmark: "
REPLY = "@rep "  # marks a worker's answer among any other output
# the end-to-end metrics that one repetition gives, as run_bench.end_to_end computes them
PER_REP = ("wall_s", "evals_per_s", "gen_ms_p50", "gen_ms_p95")


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


def heading(record: dict, base: str, workload: str, seed: int) -> str:
    """The first line of one comparison's report."""
    return (f"{workload} seed {seed}: {base} ({record['base_sha'][:12]}) -> "
            f"checkout ({record['git_sha'][:12]}{', dirty' if record['dirty'] else ''})")


def sign_test(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of ``wins`` against ``losses``."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def ratios(pairs: list[dict], metrics: dict[str, str]) -> list[dict]:
    """Per metric of :data:`PER_REP`: the quartiles of the per-pair ratio
    checkout / base, the pairs the checkout won and lost, and the sign
    test's p-value."""
    out = []
    for name in PER_REP:
        lower = metrics[name] == "lower"
        values = [p["change"]["result"]["metrics"][name]["value"]
                  / p["base"]["result"]["metrics"][name]["value"] for p in pairs]
        wins = sum((r < 1) if lower else (r > 1) for r in values)
        losses = sum((r > 1) if lower else (r < 1) for r in values)
        q1, q2, q3 = quartiles(values)
        out.append({"metric": name, "better": metrics[name],
                    "ratio": {"q1": q1, "median": q2, "q3": q3},
                    "wins": wins, "losses": losses, "pairs": len(pairs),
                    "sign_p": sign_test(wins, losses)})
    return out


def worker(checkout: Path, workload: str) -> int:
    """Serve single repetitions of ``workload`` with ``checkout``'s own
    ``bench/run_bench.py``: each line ``S I`` on standard input asks for
    the repetition that ``run_bench.py --seed S`` runs ``I``-th, and is
    answered by one line of its figures or its gate's problems. A first
    line says that the set-up is done."""
    sys.path[:0] = [str(checkout / "bench"), str(checkout / "src")]
    import run_bench  # noqa: E402 -- the checkout's own, from the path set above

    spec = run_bench.WORKLOADS[workload]
    with tempfile.TemporaryDirectory(prefix="mobench-worker-") as tmp:
        work = Path(tmp)
        if "jobs" in spec:  # the campaign's reference, built as run_bench.main builds it
            m = run_bench.fresh_import()
            reference = m.harness.resolve_reference(
                spec["problem"], cache_dir=work, builder_runs=spec["reference_runs"],
                builder_generations=spec["reference_generations"],
            )
            reference_path = work / "reference.csv"
            m.results.write_front_csv(reference_path, reference.points)
            run = functools.partial(run_bench.campaign_rep, reference_path=reference_path)
        else:
            run = run_bench.single_rep
        print(REPLY + json.dumps({"ready": True}), flush=True)
        for line in sys.stdin:
            seed, index = map(int, line.split())
            rep = run_bench.guarded(run, spec, seed * 1000 + index * spec.get("runs", 1), work)
            figures = {}
            if not rep.problems:
                figures = {
                    "wall_s": rep.wall_s,
                    "evals_per_s": rep.evaluations / rep.wall_s,
                    "gen_ms_p50": float(np.percentile(rep.gen_ms, 50)),
                    "gen_ms_p95": float(np.percentile(rep.gen_ms, 95)),
                }
            print(REPLY + json.dumps({"problems": rep.problems, "metrics": figures}), flush=True)
    return 0


def interleave(checkouts: dict[str, Path], workload: str, seeds: list[int], n: int) -> dict:
    """``n`` pairs of single repetitions per seed, one worker per side,
    in ABBA order; a repetition that fails its gate ends the program."""
    workers = {
        side: subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(path),
             "--workload", workload],
            cwd=path, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        for side, path in checkouts.items()
    }

    def answer(side: str) -> dict:
        proc = workers[side]
        for line in proc.stdout:
            if line.startswith(REPLY):
                return json.loads(line[len(REPLY):])
        raise SystemExit(f"the {side} worker for {workload} exited (status {proc.wait()})")

    def repetition(side: str, seed: int, index: int) -> dict:
        workers[side].stdin.write(f"{seed} {index}\n")
        workers[side].stdin.flush()
        reply = answer(side)
        if reply["problems"]:
            raise SystemExit(f"a {side} repetition of {workload} (seed {seed}, pair {index + 1}) "
                             "failed its gate:\n" + "\n".join(reply["problems"]))
        metrics = {name: {"value": v} for name, v in reply["metrics"].items()}
        return {"result": {"correct": True, "metrics": metrics}}

    try:
        for side in workers:  # no repetition runs while a worker still sets up
            answer(side)
        runs = {seed: [{side: repetition(side, seed, i) for side in abba(i)} for i in range(n)]
                for seed in seeds}
    finally:
        for proc in workers.values():
            proc.stdin.close()
        for proc in workers.values():
            proc.wait()
    return runs


def compare_blocks(record: dict, args, checkouts: dict[str, Path], workloads: list[str],
                   metrics: dict[str, str]) -> None:
    """Run and print ``--pairs`` alternating pairs of ``--seconds`` blocks
    per workload and seed, and add them to ``record``."""
    record["comparisons"] = []
    for workload in workloads:
        for seed in args.seeds:
            pairs = [{side: run_bench(checkouts[side], workload, seed, args.seconds, 0)
                      for side in abba(i)} for i in range(args.pairs)]
            found = verdicts(pairs, metrics)
            record["comparisons"].append(
                {"workload": workload, "seed": seed, "pairs": pairs, "verdicts": found})
            print(f"{heading(record, args.base, workload, seed)}, {len(pairs)} pairs")
            for side in ("base", "change"):
                correct = all(p[side]["result"]["correct"] for p in pairs)
                print(f"  {side:6s} every run correct: {correct}")
            for v in found:
                b, c = v["base"], v["change"]
                print(f"  {v['metric']:12s} base {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]"
                      f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
                      f"  ratio {v['ratio']:.3f}  wins {v['wins']}/{v['pairs']}"
                      f"  beyond base IQR: {'yes' if v['beyond_base_iqr'] else 'no'}")


def compare_interleaved(record: dict, args, checkouts: dict[str, Path], workloads: list[str],
                        metrics: dict[str, str]) -> None:
    """Run and print :func:`interleave`'s comparisons, and add them to
    ``record``."""
    record["interleaved"] = []
    per_rep = {name: metrics[name] for name in PER_REP}
    for workload in workloads:
        for seed, pairs in interleave(checkouts, workload, args.seeds, args.interleave).items():
            found, stats = verdicts(pairs, per_rep), ratios(pairs, metrics)
            record["interleaved"].append({"workload": workload, "seed": seed, "pairs": pairs,
                                          "ratios": stats, "verdicts": found})
            print(f"{heading(record, args.base, workload, seed)}, "
                  f"{len(pairs)} interleaved pairs, every repetition correct")
            for r, v in zip(stats, found):
                q, b, c = r["ratio"], v["base"], v["change"]
                print(f"  {r['metric']:12s} ratio {q['median']:.3f} [{q['q1']:.3f}, {q['q3']:.3f}]"
                      f"  won {r['wins']} lost {r['losses']} of {r['pairs']}"
                      f"  sign p {r['sign_p']:.2g}"
                      f"  base {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]"
                      f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
                      f"  beyond base IQR: {'yes' if v['beyond_base_iqr'] else 'no'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="write BENCH_<LABEL>.json at the root of the checkout")
    parser.add_argument("--base", metavar="REV", help="compare with REV in alternating pairs")
    parser.add_argument("--workload", action="append", help="a workload (default: all of BENCHMARK.json's)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--interleave", type=int, metavar="N",
                        help="with --base: N pairs of single repetitions instead of blocks")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args.worker, args.workload[0])
    if not args.label and not args.base:
        parser.error("give --label, --base or both")
    if args.interleave is not None and (not args.base or args.interleave < 1):
        parser.error("--interleave needs --base and at least one pair")

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
        with tempfile.TemporaryDirectory(prefix="mobench-base-") as tmp:
            base = Path(tmp)
            archive = subprocess.run(["git", "archive", record["base_sha"]], cwd=ROOT,
                                     check=True, capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
            compare = compare_interleaved if args.interleave else compare_blocks
            compare(record, args, {"base": base, "change": ROOT}, workloads, metrics)

    if args.label:
        path = ROOT / f"BENCH_{args.label}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
