"""Real-coded variation operators and the population-split primitive.

Simulated binary crossover (SBX) and polynomial mutation are shared by
both algorithms so that comparisons isolate the algorithmic logic rather
than operator choices. Both work on whole parent matrices, one pair or
one child per row, with one draw of uniforms per call (a single vector
is one row). All operators take an explicit numpy Generator and are pure
given it. The engines run them at the paper's fixed settings below.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidConfigError

MUTATION_PROB = 0.02  # per-coordinate polynomial mutation probability
DISTRIBUTION_INDEX = 20.0  # eta of both SBX and polynomial mutation


def default_offspring_count(n_pop: int) -> int:
    """Offspring per generation: an absolute count of 2*round(0.7*n_pop)."""
    return 2 * round(0.7 * n_pop)


def dp_split_size(n_pop: int, dp: float) -> int:
    """Size of the group separated from the main population.

    Half-up rounding of n_pop*dp, clamped to [2, n_pop] so the group can
    always be halved.
    """
    if n_pop < 4:
        raise InvalidConfigError(f"population size must be >= 4, got {n_pop}")
    size = int(math.floor(n_pop * dp + 0.5))
    return max(2, min(size, n_pop))


def sbx_crossover(p1, p2, lower, upper, eta: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover of the parent pairs ``(p1[i], p2[i])``;
    children clamped to the bounds.

    Pre-clamp the children are mean-preserving: (c1+c2)/2 == (p1+p2)/2
    coordinate-wise, and identical parents reproduce themselves exactly.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    u = rng.random(p1.shape)
    beta = np.where(
        u <= 0.5,
        (2.0 * u) ** (1.0 / (eta + 1.0)),
        (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0)),
    )
    c1 = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
    c2 = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
    return np.clip(c1, lower, upper), np.clip(c2, lower, upper)


def polynomial_mutation(x, lower, upper, mutation_prob: float, eta: float, rng) -> np.ndarray:
    """Polynomial mutation applied independently per coordinate of every
    row with the given probability; the perturbation scales with the
    variable range and the result is clamped to the bounds."""
    x = np.asarray(x, dtype=float)
    mask = rng.random(x.shape) < mutation_prob
    u = rng.random(x.shape)
    delta = np.where(
        u < 0.5,
        (2.0 * u) ** (1.0 / (eta + 1.0)) - 1.0,
        1.0 - (2.0 * (1.0 - u)) ** (1.0 / (eta + 1.0)),
    )
    out = np.where(mask, x + delta * (np.asarray(upper) - np.asarray(lower)), x)
    return np.clip(out, lower, upper)
