"""Bundled benchmark problems and reference fronts.

ZDT1-4 and ZDT6 (continuous, two objectives, no constraints) plus five
engineering design problems, all declared in one table, ``_PROBLEMS``,
that maps each name to ``(objectives, n_objectives, lower, upper,
kinds)``; :func:`get_problem` builds a fresh :class:`ProblemSpec` from a
row. Every engineering problem but the four-bar truss has constraints
beyond its bounds and exposes one extra minimized objective, last, equal
to the total constraint violation, which is zero exactly on the feasible
set. :func:`_with_violation` is the one place that appends it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dominance import non_dominated
from .errors import InvalidInputError
from .problems import Continuous, Discrete, Integer, ProblemSpec
from .results import _read_front

# Allowed spring wire diameters, ascending.
SPRING_WIRE_DIAMETERS = (
    0.009, 0.0095, 0.0104, 0.0118, 0.0128, 0.0132,
    0.014, 0.015, 0.0162, 0.0173, 0.018, 0.02,
    0.023, 0.025, 0.028, 0.032, 0.035, 0.041,
    0.047, 0.054, 0.063, 0.072, 0.08, 0.092,
    0.105, 0.12, 0.135, 0.148, 0.162, 0.177,
    0.192, 0.207, 0.225, 0.244, 0.263, 0.283,
    0.307, 0.331, 0.362, 0.394, 0.4375, 0.5,
)


def constraint_violation(g) -> np.ndarray:
    """Total violation of constraints stated as g_i >= 0, per row: the sum
    of max(-g_i, 0), so feasible points score exactly 0."""
    return np.maximum(-np.asarray(g, dtype=float), 0.0).sum(axis=-1)


def _with_violation(objectives: Callable, g: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """The objectives of a constrained problem: the columns that
    ``objectives(x)`` lists, then ``constraint_violation(g(x))`` last."""

    def with_violation(x: np.ndarray) -> np.ndarray:
        return np.stack([*objectives(x), constraint_violation(g(x))], axis=-1)

    return with_violation


# --------------------------------------------------------------------------
# ZDT family
# --------------------------------------------------------------------------
# Every objective and constraint function below takes decision vectors as
# the rows of a matrix (or one vector) and works over the last axis.

def _zdt_g_linear(x: np.ndarray) -> np.ndarray:
    return 1.0 + 9.0 * x[..., 1:].sum(axis=-1) / (x.shape[-1] - 1)


def _zdt1_obj(x: np.ndarray) -> np.ndarray:
    f1 = x[..., 0]
    g = _zdt_g_linear(x)
    return np.stack([f1, g * (1.0 - np.sqrt(f1 / g))], axis=-1)


def _zdt2_obj(x: np.ndarray) -> np.ndarray:
    f1 = x[..., 0]
    g = _zdt_g_linear(x)
    return np.stack([f1, g * (1.0 - (f1 / g) ** 2)], axis=-1)


def _zdt3_obj(x: np.ndarray) -> np.ndarray:
    f1 = x[..., 0]
    g = _zdt_g_linear(x)
    ratio = f1 / g
    return np.stack(
        [f1, g * (1.0 - np.sqrt(ratio) - ratio * np.sin(10.0 * math.pi * f1))], axis=-1
    )


def _zdt4_obj(x: np.ndarray) -> np.ndarray:
    f1 = x[..., 0]
    tail = x[..., 1:]
    g = 1.0 + 10.0 * tail.shape[-1] + (tail**2 - 10.0 * np.cos(4.0 * math.pi * tail)).sum(axis=-1)
    return np.stack([f1, g * (1.0 - np.sqrt(f1 / g))], axis=-1)


def _zdt6_obj(x: np.ndarray) -> np.ndarray:
    x1 = x[..., 0]
    f1 = 1.0 - np.exp(-4.0 * x1) * np.sin(6.0 * math.pi * x1) ** 6
    g = 1.0 + 9.0 * (x[..., 1:].sum(axis=-1) / (x.shape[-1] - 1)) ** 0.25
    return np.stack([f1, g * (1.0 - (f1 / g) ** 2)], axis=-1)


# name -> (objectives, n_vars, bounds of x2..xn); x1 is in [0, 1] for all
_ZDT_TABLE: dict[str, tuple[Callable, int, float, float]] = {
    "zdt1": (_zdt1_obj, 30, 0.0, 1.0),
    "zdt2": (_zdt2_obj, 30, 0.0, 1.0),
    "zdt3": (_zdt3_obj, 30, 0.0, 1.0),
    "zdt4": (_zdt4_obj, 10, -5.0, 5.0),
    "zdt6": (_zdt6_obj, 10, 0.0, 1.0),
}

ZDT_NAMES = tuple(_ZDT_TABLE)


# --------------------------------------------------------------------------
# Engineering design problems
# --------------------------------------------------------------------------

_TRUSS_F = 10.0       # load, kN
_TRUSS_E = 2.0e5      # elastic modulus, kN/cm^2
_TRUSS_L = 200.0      # bar length, cm
_TRUSS_SIGMA = 10.0   # stress bound
_TRUSS_A = _TRUSS_F / _TRUSS_SIGMA  # smallest cross-section area


def _truss_obj(x: np.ndarray) -> np.ndarray:
    x1, x2, x3, x4 = x.T
    f1 = _TRUSS_L * (2.0 * x1 + math.sqrt(2.0) * x2 + np.sqrt(x3) + x4)
    f2 = (_TRUSS_F * _TRUSS_L / _TRUSS_E) * (
        2.0 / x1 + 2.0 * math.sqrt(2.0) / x2 - 2.0 * math.sqrt(2.0) / x3 + 2.0 / x4
    )
    return np.stack([f1, f2], axis=-1)


def _vessel_g(x: np.ndarray) -> np.ndarray:
    x1, x2, x3, x4 = x.T
    return np.stack(
        [
            x1 - 0.0193 * x3,
            x2 - 0.00954 * x3,
            math.pi * x3**2 * x4 + (4.0 / 3.0) * math.pi * x3**3 - 1296000.0,
        ],
        axis=-1,
    )


def _vessel_obj(x: np.ndarray) -> list[np.ndarray]:
    x1, x2, x3, x4 = x.T
    f1 = (
        0.6224 * x1 * x3 * x4
        + 1.7781 * x2 * x3**2
        + 3.1661 * x1**2 * x4
        + 19.84 * x1**2 * x3
    )
    return [f1]


_SPRING_F_MAX = 1000.0     # highest working load, lb
_SPRING_S = 189000.0       # allowable shear stress, psi
_SPRING_L_MAX = 14.0       # highest free length, inch
_SPRING_D_MIN = 0.2        # lowest wire diameter, inch
_SPRING_D_MAX = 3.0        # highest exterior diameter, inch
_SPRING_F_P = 300.0        # preload compression force, lb
_SPRING_SIGMA_PM = 6.0     # allowable deflection under preload, inch
_SPRING_SIGMA_W = 1.25     # deflection from preload to full load, inch
_SPRING_G = 11.5e6         # shear modulus


def _spring_obj(x: np.ndarray) -> list[np.ndarray]:
    x1, x2, x3 = x.T
    f1 = math.pi**2 * x2 * x3**2 * (x1 + 2.0) / 4.0
    return [f1]


def _spring_g(x: np.ndarray) -> np.ndarray:
    x1, x2, x3 = x.T
    ratio = x2 / x3
    c_f = (4.0 * ratio - 1.0) / (4.0 * ratio - 4.0) + 0.615 * x3 / x2
    k = _SPRING_G * x3**4 / (8.0 * x1 * x2**3)
    sigma_p = _SPRING_F_P / k
    l_f = _SPRING_F_MAX / k + 1.05 * (x1 + 2.0) * x3
    return np.stack(
        [
            -8.0 * c_f * _SPRING_F_MAX * x2 / (math.pi * x3**3) + _SPRING_S,
            -l_f + _SPRING_L_MAX,
            -3.0 + ratio,
            -sigma_p + _SPRING_SIGMA_PM,
            -sigma_p - (_SPRING_F_MAX - _SPRING_F_P) / k - 1.05 * (x1 + 2.0) * x3 + l_f,
            -_SPRING_SIGMA_W + (_SPRING_F_MAX - _SPRING_F_P) / k,
        ],
        axis=-1,
    )


def _reducer_f2(x: np.ndarray) -> np.ndarray:
    x2, x3, x4, x6 = x[..., 1], x[..., 2], x[..., 3], x[..., 5]
    return np.sqrt((745.0 * x4 / (x2 * x3)) ** 2 + 1.69e7) / (0.1 * x6**3)


def _reducer_obj(x: np.ndarray) -> list[np.ndarray]:
    x1, x2, x3, x4, x5, x6, x7 = x.T
    f1 = (
        0.7854 * x1 * x2**2 * (10.0 * x3**2 / 3.0 + 14.933 * x3 - 43.0934)
        - 1.508 * x1 * (x6**2 + x7**2)
        + 7.477 * (x6**3 + x7**3)
        + 0.7854 * (x4 * x6**2 + x5 * x7**2)
    )
    return [f1, _reducer_f2(x)]


def _reducer_g(x: np.ndarray) -> np.ndarray:
    x1, x2, x3, x4, x5, x6, x7 = x.T
    return np.stack(
        [
            1.0 / 27.0 - 1.0 / (x1 * x2**3 * x3),
            1.0 / 397.5 - 1.0 / (x1 * x2**2 * x3**2),
            1.0 / 1.92 - x4**3 / (x2 * x3 * x6**4),
            1.0 / 1.93 - x5**3 / (x2 * x3 * x7**4),
            40.0 - x2 * x3,
            12.0 - x1 / x2,
            -5.0 + x1 / x2,
            -1.9 + x4 - 1.6 * x6,
            -1.9 + x5 - 1.1 * x7,
            1300.0 - _reducer_f2(x),
            1100.0 - np.sqrt((745.0 * x5 / (x2 * x3)) ** 2 + 1.575e8) / (0.1 * x7**3),
        ],
        axis=-1,
    )


def _car_v_mbp(x: np.ndarray) -> np.ndarray:
    return 10.58 - 0.674 * x[..., 0] - 0.67275 * x[..., 1]


def _car_v_fd(x: np.ndarray) -> np.ndarray:
    return 16.45 - 0.489 * x[..., 2] * x[..., 6] - 0.843 * x[..., 4] * x[..., 5]


def _car_f2(x: np.ndarray) -> np.ndarray:
    return 4.72 - 0.5 * x[..., 3] - 0.19 * x[..., 1] * x[..., 2]


def _car_g(x: np.ndarray) -> np.ndarray:
    x1, x2, x3, x4, x5, x6, x7 = x.T
    return np.stack(
        [
            1.0 - 1.16 + 0.3717 * x2 * x4 + 0.0092928 * x3,
            0.32 - 0.261 + 0.0159 * x1 * x2 + 0.06486 * x1 + 0.019 * x2 * x7
            - 0.0144 * x3 * x5 - 0.0154464 * x6,
            0.32 - 0.214 - 0.00817 * x5 + 0.045195 * x1 + 0.0135168 * x1
            - 0.03099 * x2 * x6 + 0.018 * x2 * x7 - 0.007176 * x3 - 0.023232 * x3
            + 0.00364 * x5 * x6 + 0.018 * x2**2,
            0.32 - 0.74 + 0.61 * x2 + 0.031296 * x3 + 0.031872 * x7 - 0.227 * x2**2,
            32.0 - 28.98 - 3.818 * x3 + 4.2 * x1 * x2 - 1.27296 * x6 + 2.68065 * x7,
            32.0 - 33.86 - 2.95 * x3 + 5.057 * x1 * x2 + 3.795 * x2 + 3.4431 * x7 - 1.45728,
            32.0 - 46.36 + 9.9 * x2 + 4.4505 * x1,
            4.0 - _car_f2(x),
            9.9 - _car_v_mbp(x),
            15.7 - _car_v_fd(x),
        ],
        axis=-1,
    )


def _car_obj(x: np.ndarray) -> list[np.ndarray]:
    x1, x2, x3, x4, x5, x6, x7 = x.T
    f1 = (
        1.98 + 4.9 * x1 + 6.67 * x2 + 6.98 * x3 + 4.01 * x4
        + 1.78 * x5 + 1e-5 * x6 + 2.73 * x7
    )
    f3 = 0.5 * (_car_v_mbp(x) + _car_v_fd(x))
    return [f1, _car_f2(x), f3]


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------
# name -> (objectives, n_objectives, lower, upper, kinds). Bounds are tuples,
# so every spec that get_problem builds from a row owns its bound arrays.

_PROBLEMS: dict[str, tuple[Callable, int, tuple, tuple, tuple]] = {
    **{
        name: (obj, 2, (0.0,) + (lo,) * (n - 1), (1.0,) + (hi,) * (n - 1), (Continuous(),) * n)
        for name, (obj, n, lo, hi) in _ZDT_TABLE.items()
    },
    # four-bar truss sizing: structural volume, joint displacement
    "four_bar_truss": (
        _truss_obj, 2,
        (_TRUSS_A, math.sqrt(2.0) * _TRUSS_A, math.sqrt(2.0) * _TRUSS_A, _TRUSS_A),
        (3.0 * _TRUSS_A,) * 4, (Continuous(),) * 4,
    ),
    # cylindrical pressure vessel: fabrication cost, violation; the shell and
    # head thicknesses are integers in {1, ..., 100}, radius and length continuous
    "pressure_vessel": (
        _with_violation(_vessel_obj, _vessel_g), 2,
        (1.0, 1.0, 10.0, 10.0), (100.0, 100.0, 200.0, 240.0),
        (Integer(), Integer(), Continuous(), Continuous()),
    ),
    # coil compression spring: wire volume, violation; an integer coil count,
    # a continuous exterior diameter and a wire diameter from the catalogue
    "coil_spring": (
        _with_violation(_spring_obj, _spring_g), 2,
        (1.0, 0.6, SPRING_WIRE_DIAMETERS[0]), (70.0, 30.0, SPRING_WIRE_DIAMETERS[-1]),
        (Integer(), Continuous(), Discrete(SPRING_WIRE_DIAMETERS)),
    ),
    # gearbox design: volume, shaft stress, violation; the tooth count x3 is an integer
    "speed_reducer": (
        _with_violation(_reducer_obj, _reducer_g), 3,
        (2.6, 0.7, 17.0, 7.8, 7.8, 2.9, 5.0), (3.6, 0.8, 28.0, 8.3, 8.3, 3.9, 5.5),
        (Continuous(), Continuous(), Integer()) + (Continuous(),) * 4,
    ),
    # car side-impact structure: mass, pubic force, mean pillar velocity, violation
    "car_side_impact": (
        _with_violation(_car_obj, _car_g), 4,
        (0.5, 0.45, 0.5, 0.5, 0.875, 0.4, 0.4), (1.5, 1.35, 1.5, 1.5, 2.625, 1.2, 1.2),
        (Continuous(),) * 7,
    ),
}


def problem_names() -> list[str]:
    return sorted(_PROBLEMS)


def get_problem(name: str) -> ProblemSpec:
    key = name.lower()
    if key not in _PROBLEMS:
        raise InvalidInputError(
            f"unknown problem {name!r}; available: {', '.join(problem_names())}"
        )
    objectives, n_objectives, lower, upper, kinds = _PROBLEMS[key]
    return ProblemSpec(key, n_objectives, lower, upper, kinds, objectives)


def is_zdt(name: str) -> bool:
    return name.lower() in ZDT_NAMES


# --------------------------------------------------------------------------
# Reference fronts
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceFront:
    """A mutually non-dominated set of objective vectors used for scoring."""

    points: np.ndarray
    source: str  # analytic | file | merged-runs

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise InvalidInputError("a reference front must be a non-empty 2-D point set")


def _zdt6_f1_min() -> float:
    # exp(-4x) * sin^6(6 pi x) peaks where tan(6 pi x) = 9 pi; the decay
    # makes the first such x the highest peak on [0, 1]
    x = math.atan(9.0 * math.pi) / (6.0 * math.pi)
    return 1.0 - math.exp(-4.0 * x) * math.sin(6.0 * math.pi * x) ** 6


def analytic_reference_front(name: str, n_points: int = 1000) -> ReferenceFront:
    """Sample the true Pareto front of a ZDT problem.

    ZDT1-ZDT4 evaluate the problem's own objectives at x1 uniform on
    [0, 1] and x2..xn = 0, where g = 1; ZDT3 keeps the non-dominated
    segments of its discontinuous curve. ZDT6 spans its attainable f1
    range with f2 = 1 - f1^2.
    """
    key = name.lower()
    if key not in ZDT_NAMES:
        raise InvalidInputError(f"no analytic front for {name!r}")
    if n_points < 2:
        raise InvalidInputError("n_points must be >= 2")
    if key == "zdt6":
        f1 = np.linspace(_zdt6_f1_min(), 1.0, n_points)
        return ReferenceFront(points=np.column_stack([f1, 1.0 - f1**2]), source="analytic")
    # g = 1 wherever x2..xn = 0, for any n, so one zero column stands for them all
    x = np.zeros((max(50 * n_points, 50001) if key == "zdt3" else n_points, 2))
    x[:, 0] = np.linspace(0.0, 1.0, len(x))
    points = _PROBLEMS[key][0](x)
    if key == "zdt3":  # f1 = x1 rises strictly, so no row repeats
        kept = np.flatnonzero(non_dominated(points))
        pick = np.unique(np.linspace(0, len(kept) - 1, n_points).round().astype(int))
        points = points[kept[pick]]
    return ReferenceFront(points=points, source="analytic")


def merged_reference_front(fronts: Sequence[np.ndarray]) -> ReferenceFront:
    """Non-dominated subset of the union of several fronts (exact duplicate
    rows collapse to one). Used in place of a curated reference when none
    is supplied for an engineering problem."""
    if len(fronts) == 0:
        raise InvalidInputError("merged_reference_front needs at least one front")
    arrays = [np.asarray(f, dtype=float) for f in fronts]
    for f in arrays:  # the first front's ndim is checked before its width is read
        if f.ndim != 2 or f.shape[1] != arrays[0].shape[1]:
            raise InvalidInputError("fronts must be 2-D and share one objective dimensionality")
    union = np.unique(np.vstack(arrays), axis=0)  # sorted rows fix the cache's row order
    return ReferenceFront(points=union[non_dominated(union)], source="merged-runs")


def load_reference_csv(path) -> ReferenceFront:
    """Load a reference front from CSV, dropping dominated and repeated rows.

    A row that another row dominates, or that repeats an earlier row, is
    dropped with a warning that lists the offending file line numbers
    (the header is line 1), so each reference point counts once in RGD.
    """
    F, line_numbers = _read_front(path)
    keep = non_dominated(F)
    if not keep.all():
        lines = [line_numbers[i] for i in np.flatnonzero(~keep)]
        warnings.warn(
            f"{path}: dropped dominated or repeated reference rows at lines {lines}",
            stacklevel=2,
        )
        F = F[keep]
    return ReferenceFront(points=F, source="file")
