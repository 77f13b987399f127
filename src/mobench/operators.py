"""Real-coded variation operators: SBX and polynomial mutation.

Simulated binary crossover (SBX) and polynomial mutation are shared by
both algorithms so that comparisons isolate the algorithmic logic rather
than operator choices. Both work on whole parent matrices, one pair or
one child per row, with one draw of uniforms per call (a single vector
is one row). All operators take an explicit numpy Generator and are pure
given it. Both read the paper's fixed settings below. Polynomial mutation
draws its mask and its uniforms for every coordinate, so the random
stream does not depend on which coordinates mutate, but evaluates the
perturbation's powers only for those that do. SBX takes one power per
coordinate, of a base chosen first.
"""

from __future__ import annotations

import numpy as np

MUTATION_PROB = 0.02  # per-coordinate polynomial mutation probability
DISTRIBUTION_INDEX = 20.0  # eta of both SBX and polynomial mutation (Deb & Agrawal 1995)


def sbx_crossover(p1, p2, lower, upper, rng) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover of the parent pairs ``(p1[i], p2[i])``;
    children clamped to the bounds.

    Pre-clamp the children are mean-preserving: (c1+c2)/2 == (p1+p2)/2
    coordinate-wise, and identical parents reproduce themselves exactly.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    u = rng.random(p1.shape)
    base = np.where(u <= 0.5, 2.0 * u, 1.0 / (2.0 * (1.0 - u)))
    beta = base ** (1.0 / (DISTRIBUTION_INDEX + 1.0))
    c1 = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
    c2 = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
    return np.clip(c1, lower, upper, out=c1), np.clip(c2, lower, upper, out=c2)


def polynomial_mutation(x, lower, upper, rng) -> np.ndarray:
    """Polynomial mutation applied independently per coordinate of every
    row with probability :data:`MUTATION_PROB`; the perturbation scales
    with the variable range and the result is clamped to the bounds."""
    x = np.asarray(x, dtype=float)
    mask = rng.random(x.shape) < MUTATION_PROB
    u = rng.random(x.shape)[mask]
    exponent = 1.0 / (DISTRIBUTION_INDEX + 1.0)
    delta = np.zeros(x.shape)
    delta[mask] = np.where(u < 0.5, (2.0 * u) ** exponent - 1.0, 1.0 - (2.0 * (1.0 - u)) ** exponent)
    out = np.where(mask, x + delta * (np.asarray(upper) - np.asarray(lower)), x)
    return np.clip(out, lower, upper, out=out)
