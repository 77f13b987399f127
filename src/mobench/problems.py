"""Problem representation: bounded, mixed-variable, multiobjective minimization.

A problem is a pure mapping from decision vectors to objective vectors
(every objective minimized), plus box bounds and a per-variable kind
(continuous, integer, or discrete-from-a-set). Each fact is stated once:
the variable count is the number of kinds, and an integer variable's
range is its whole-number bounds. Every function here works
on a whole population at once: a matrix with one decision vector per row
maps to a matrix with one objective vector per row, and a single vector
maps to a single objective vector. :func:`decode` maps any real vectors
to legal decision vectors. The engines store decoded vectors and run the
real-coded operators on them, decoding every offspring before it is
evaluated, so one set of real-coded operators serves every problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import EvaluationError, InvalidConfigError, InvalidInputError


@dataclass(frozen=True)
class Continuous:
    """Real-valued variable; decode only clamps it to its bounds."""


@dataclass(frozen=True)
class Integer:
    """Integer variable on its whole-number bounds {lower, ..., upper};
    decode rounds ties away from zero."""


@dataclass(frozen=True)
class Discrete:
    """Variable restricted to a finite ascending set; decode snaps to the
    nearest member, ties to the smaller value."""

    allowed: tuple[float, ...]

    def __post_init__(self):
        if len(self.allowed) == 0:
            raise InvalidConfigError("discrete variable needs a non-empty value set")
        values = np.asarray(self.allowed, dtype=float)
        if not np.isfinite(values).all():
            raise InvalidConfigError(f"discrete value set {self.allowed} must be finite")
        if np.any(np.diff(values) <= 0):
            raise InvalidConfigError("discrete value set must be strictly ascending")


VariableKind = Continuous | Integer | Discrete


@dataclass(frozen=True)
class ProblemSpec:
    """Immutable description of a multiobjective minimization problem.

    ``objectives`` maps legal decision vectors, the rows of an ``(N,
    n_vars)`` matrix, to their objective vectors, an ``(N, n_objectives)``
    matrix, and a single vector to a single objective vector; writing it
    over the last axis (``x[..., j]`` or ``x.T`` unpacking, and
    ``np.stack(..., axis=-1)``) serves both. Evaluation must be pure:
    equal inputs yield bit-identical outputs.
    """

    name: str
    n_objectives: int
    lower: np.ndarray
    upper: np.ndarray
    kinds: tuple[VariableKind, ...]
    objectives: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if self.n_objectives < 2:
            raise InvalidConfigError("a multiobjective problem needs at least 2 objectives")
        if not lower.shape == upper.shape == (len(self.kinds),):
            raise InvalidConfigError("bounds must have one [lower, upper] pair per variable kind")
        for j, kind in enumerate(self.kinds):
            if not (np.isfinite(lower[j]) and np.isfinite(upper[j])):
                raise InvalidConfigError(
                    f"variable {j}: bounds [{lower[j]}, {upper[j]}] must be finite"
                )
            if isinstance(kind, Discrete):
                if lower[j] != kind.allowed[0] or upper[j] != kind.allowed[-1]:
                    raise InvalidConfigError(
                        f"variable {j}: bounds must span the discrete value set"
                    )
            elif not lower[j] < upper[j]:
                raise InvalidConfigError(f"variable {j}: lower bound must be < upper bound")
            elif isinstance(kind, Integer) and (lower[j] % 1 or upper[j] % 1):
                raise InvalidConfigError(
                    f"variable {j}: integer bounds [{lower[j]}, {upper[j]}] must be whole numbers"
                )

    @property
    def n_vars(self) -> int:
        """The number of variables: one per entry of ``kinds``."""
        return len(self.kinds)

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


def decode(x_raw: Sequence[float] | np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Map raw genotypes, one per row of a matrix (or a single vector), to
    legal decision vectors.

    Coordinates are clamped to their bounds; integer coordinates are
    rounded to the nearest integer (ties away from zero) and discrete
    coordinates snapped to the nearest allowed value (ties to the smaller
    one). Idempotent: decode(decode(x)) == decode(x).
    """
    x = np.asarray(x_raw, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != spec.n_vars:
        raise InvalidInputError(
            f"{spec.name}: expected {spec.n_vars} variables per row, got shape {x.shape}"
        )
    x = np.clip(x, spec.lower, spec.upper)
    if spec._integer_indices.size:
        ints = x[..., spec._integer_indices]
        x[..., spec._integer_indices] = np.copysign(np.floor(np.abs(ints) + 0.5), ints)
    for j in spec._discrete_indices:
        allowed = np.asarray(spec.kinds[j].allowed)
        pos = np.searchsorted(allowed, x[..., j])
        below = allowed[np.maximum(pos - 1, 0)]
        above = allowed[np.minimum(pos, len(allowed) - 1)]
        x[..., j] = np.where(x[..., j] - below <= above - x[..., j], below, above)
    return x


def evaluate(spec: ProblemSpec, x: np.ndarray) -> np.ndarray:
    """Evaluate decoded decision vectors, one per row of a matrix (or a
    single vector), into their objective vectors, one per row.

    Raises :class:`EvaluationError` if the evaluator returns the wrong
    number of objectives or any non-finite value (all bundled problems are
    finite on their domains, so a NaN signals a bug, not a sentinel).
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(spec.objectives(x), dtype=float)
    expected = x.shape[:-1] + (spec.n_objectives,)
    if f.shape != expected:
        raise EvaluationError(f"{spec.name}: evaluator returned {f.shape}, expected {expected}")
    rows, cols = np.nonzero(~np.isfinite(np.atleast_2d(f)))
    if rows.size:
        row, bad = int(rows[0]), int(cols[0])
        raise EvaluationError(
            f"{spec.name}: objective {bad} of row {row} is non-finite"
            f" at x={np.atleast_2d(x)[row]!r}"
        )
    return f
