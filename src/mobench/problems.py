"""Problem representation: bounded, mixed-variable, multiobjective minimization.

A problem is a pure mapping from a decision vector to an objective vector
(every objective minimized), plus box bounds and a per-variable kind
(continuous, integer, or discrete-from-a-set). :func:`decode` maps any
real vector to a legal decision vector. The engines store decoded vectors
and run the real-coded operators on them, decoding every offspring before
it is evaluated, so one set of real-coded operators serves every problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import EvaluationError, InvalidConfigError, InvalidInputError


@dataclass(frozen=True)
class Continuous:
    """Real-valued variable; decode only clamps it to its bounds."""


@dataclass(frozen=True)
class Integer:
    """Integer variable on {lo, ..., hi}; decode rounds ties away from zero."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise InvalidConfigError(f"integer variable needs lo <= hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class Discrete:
    """Variable restricted to a finite ascending set; decode snaps to the
    nearest member, ties to the smaller value."""

    allowed: tuple[float, ...]

    def __post_init__(self):
        if len(self.allowed) == 0:
            raise InvalidConfigError("discrete variable needs a non-empty value set")
        values = np.asarray(self.allowed, dtype=float)
        if np.any(np.diff(values) <= 0):
            raise InvalidConfigError("discrete value set must be strictly ascending")


VariableKind = Continuous | Integer | Discrete


@dataclass(frozen=True)
class ProblemSpec:
    """Immutable description of a multiobjective minimization problem.

    ``objectives`` maps a legal decision vector to the full objective
    vector; ``constraints`` (optional) returns raw constraint values g_i
    with the feasibility convention g_i >= 0. Evaluation must be pure:
    equal inputs yield bit-identical outputs.
    """

    name: str
    n_vars: int
    n_objectives: int
    lower: np.ndarray
    upper: np.ndarray
    kinds: tuple[VariableKind, ...]
    objectives: Callable[[np.ndarray], np.ndarray]
    constraints: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if self.n_objectives < 2:
            raise InvalidConfigError("a multiobjective problem needs at least 2 objectives")
        if lower.shape != (self.n_vars,) or upper.shape != (self.n_vars,):
            raise InvalidConfigError("bounds must have one [lower, upper] pair per variable")
        if len(self.kinds) != self.n_vars:
            raise InvalidConfigError("kinds must have one entry per variable")
        for j, kind in enumerate(self.kinds):
            if isinstance(kind, Discrete):
                if lower[j] != kind.allowed[0] or upper[j] != kind.allowed[-1]:
                    raise InvalidConfigError(
                        f"variable {j}: bounds must span the discrete value set"
                    )
            elif not lower[j] < upper[j]:
                raise InvalidConfigError(f"variable {j}: lower bound must be < upper bound")

    @cached_property
    def _integer_indices(self) -> np.ndarray:
        return np.array(
            [j for j, k in enumerate(self.kinds) if isinstance(k, Integer)], dtype=int
        )

    @cached_property
    def _discrete_indices(self) -> np.ndarray:
        return np.array(
            [j for j, k in enumerate(self.kinds) if isinstance(k, Discrete)], dtype=int
        )

    @cached_property
    def _all_continuous(self) -> bool:
        return all(isinstance(k, Continuous) for k in self.kinds)


def _round_half_away(values: np.ndarray) -> np.ndarray:
    return np.copysign(np.floor(np.abs(values) + 0.5), values)


def _snap_to_set(value: float, allowed: np.ndarray) -> float:
    pos = int(np.searchsorted(allowed, value))
    if pos == 0:
        return float(allowed[0])
    if pos == len(allowed):
        return float(allowed[-1])
    below, above = allowed[pos - 1], allowed[pos]
    # tie goes to the smaller member
    if value - below <= above - value:
        return float(below)
    return float(above)


def decode(x_raw: Sequence[float] | np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Map a raw genotype to a legal decision vector.

    Coordinates are clamped to their bounds; integer coordinates are
    rounded to the nearest integer (ties away from zero) and discrete
    coordinates snapped to the nearest allowed value (ties to the smaller
    one). Idempotent: decode(decode(x)) == decode(x).
    """
    x = np.asarray(x_raw, dtype=float)
    if x.shape != (spec.n_vars,):
        raise InvalidInputError(
            f"{spec.name}: expected {spec.n_vars} variables, got shape {x.shape}"
        )
    x = np.clip(x, spec.lower, spec.upper)
    if spec._all_continuous:
        return x
    idx = spec._integer_indices
    if idx.size:
        x[idx] = _round_half_away(x[idx])
    for j in spec._discrete_indices:
        x[j] = _snap_to_set(x[j], np.asarray(spec.kinds[j].allowed))
    return x


def evaluate(spec: ProblemSpec, x: np.ndarray) -> np.ndarray:
    """Evaluate a decoded decision vector into its objective vector.

    Raises :class:`EvaluationError` if the evaluator returns the wrong
    number of objectives or any non-finite value (all bundled problems are
    finite on their domains, so a NaN signals a bug, not a sentinel).
    """
    f = np.asarray(spec.objectives(x), dtype=float)
    if f.shape != (spec.n_objectives,):
        raise EvaluationError(
            f"{spec.name}: evaluator returned {f.shape}, expected ({spec.n_objectives},)",
            x=x,
        )
    if not np.all(np.isfinite(f)):
        bad = int(np.flatnonzero(~np.isfinite(f))[0])
        raise EvaluationError(
            f"{spec.name}: objective {bad} is non-finite at x={x!r}",
            x=x,
            objective_index=bad,
        )
    return f
