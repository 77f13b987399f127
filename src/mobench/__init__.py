"""Multiobjective evolutionary optimization toolkit.

MOLPB and an NSGA-II baseline over a shared problem / operator / archive
substrate, the ZDT benchmarks plus five constrained engineering design
problems, four front quality indicators, and a seeded experiment harness.
"""

from .archive import ParetoArchive
from .dominance import non_dominated_sort
from .errors import (
    EvaluationError,
    FrontFileError,
    InvalidConfigError,
    InvalidInputError,
    InvalidStateError,
)
from .metrics import IndicatorReport, gd, max_spread, rgd, spacing
from .molpb import MolpbConfig, MolpbEngine
from .nsga2 import Nsga2Config, Nsga2Engine
from .problems import Continuous, Discrete, Integer, ProblemSpec, decode, evaluate
from .results import RunResult
from .suite import (
    ReferenceFront,
    analytic_reference_front,
    get_problem,
    merged_reference_front,
    problem_names,
)

__version__ = "0.1.0"

__all__ = [
    "ParetoArchive",
    "non_dominated_sort",
    "EvaluationError",
    "FrontFileError",
    "InvalidConfigError",
    "InvalidInputError",
    "InvalidStateError",
    "IndicatorReport",
    "gd",
    "max_spread",
    "rgd",
    "spacing",
    "MolpbConfig",
    "MolpbEngine",
    "Nsga2Config",
    "Nsga2Engine",
    "Continuous",
    "Discrete",
    "Integer",
    "ProblemSpec",
    "decode",
    "evaluate",
    "RunResult",
    "ReferenceFront",
    "analytic_reference_front",
    "get_problem",
    "merged_reference_front",
    "problem_names",
    "__version__",
]
