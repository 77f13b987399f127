"""Command line interface.

Subcommands: ``run`` executes a seeded campaign, ``problems`` lists the
bundled problems, ``score`` rates one front CSV against a reference CSV,
and ``table`` renders comparison tables from campaign summaries. Exit
codes: 0 success, 2 configuration error, 3 I/O error, 4 numerical error,
5 a worker process of a campaign or a reference build died.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import fields
from pathlib import Path

from .errors import EvaluationError, InvalidConfigError, InvalidInputError
from .harness import ALGORITHMS, CampaignConfig, load_summaries, run_campaign, tabulate
from .metrics import score_front
from .results import read_front_csv, write_atomic
from .suite import get_problem, load_reference_csv, problem_names

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_WORKER = 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench", description="Multiobjective optimization benchmark harness."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each dest is a CampaignConfig field, and each default that field's default, so the
    # flags fill the config by name; each metavar keeps the flag's own name in the help
    run_p = sub.add_parser("run", help="run a seeded multi-run campaign")
    run_p.set_defaults(handler=_cmd_run, **{f.name: f.default for f in fields(CampaignConfig)})
    run_p.add_argument("--algo", dest="algorithm", required=True, choices=ALGORITHMS)
    run_p.add_argument("--problem", required=True, help="registered problem name")
    run_p.add_argument("--runs", type=int, help="independent runs (default %(default)s)")
    run_p.add_argument("--generations", type=int, help="generations per run (default %(default)s)")
    run_p.add_argument(
        "--pop", dest="population", metavar="POP", type=int,
        help="population size (default %(default)s)",
    )
    run_p.add_argument(
        "--seed", dest="base_seed", metavar="SEED", type=int, help="base seed; run r uses seed+r"
    )
    run_p.add_argument(
        "--out", dest="out_dir", metavar="OUT", required=True, help="output directory"
    )
    run_p.add_argument(
        "--reference", dest="reference_path", metavar="REFERENCE", help="reference front CSV"
    )
    run_p.add_argument("--jobs", type=int, help="concurrent runs (default %(default)s)")
    run_p.add_argument("--gd-p", type=int, choices=(1, 2), help="GD exponent (default %(default)s)")

    sub.add_parser("problems", help="list registered problems").set_defaults(handler=_cmd_problems)

    score_p = sub.add_parser("score", help="score one front against a reference front")
    score_p.set_defaults(handler=_cmd_score)
    score_p.add_argument("--front", required=True)
    score_p.add_argument("--reference", required=True)
    score_p.add_argument(
        "--gd-p", type=int, default=2, choices=(1, 2), help="GD exponent (default 2)"
    )

    table_p = sub.add_parser("table", help="emit comparison tables from summaries")
    table_p.set_defaults(handler=_cmd_table)
    table_p.add_argument("--in", dest="in_dir", required=True, help="campaign output directory")
    return parser


def _cmd_run(args) -> int:
    config = CampaignConfig(**{f.name: getattr(args, f.name) for f in fields(CampaignConfig)})
    summary = run_campaign(config)
    print(
        f"{config.algorithm} on {config.problem}: "
        f"{config.runs} runs, {config.generations} generations"
    )
    for row, value in summary["stats"].items():
        print(f"  {row:<8} {value:.6g}")
    print(f"summary: {config.summary_path}")
    return EXIT_OK


def _cmd_problems(args) -> int:
    for name in problem_names():
        spec = get_problem(name)
        print(f"{name:<18} n_vars={spec.n_vars:<3} n_objectives={spec.n_objectives}")
    return EXIT_OK


def _cmd_score(args) -> int:
    front = read_front_csv(args.front)
    reference = load_reference_csv(args.reference)
    report = score_front(front, reference.points, gd_p=args.gd_p)
    for name, value in report.as_dict().items():
        print(f"{name} {value:.17g}")
    return EXIT_OK


def _cmd_table(args) -> int:
    for problem, group in load_summaries(args.in_dir).items():
        text, csv_text = tabulate(group)
        print(f"== {problem} ==")
        print(text)
        csv_path = Path(args.in_dir) / f"table_{problem}.csv"
        write_atomic(csv_path, csv_text)
        print(f"wrote {csv_path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (InvalidConfigError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (EvaluationError, FloatingPointError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except BrokenExecutor as exc:
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return EXIT_WORKER


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
