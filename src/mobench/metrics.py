"""Quality indicators for obtained fronts: GD, RGD, spacing, maximum spread.

GD defaults to the quadratic (p=2) form, sqrt(sum d_i^2)/n, with the plain
arithmetic mean (p=1) available via the ``p`` argument; summaries record
which was used. RGD swaps the roles of the two sets, measuring reference
points against the obtained front. Spacing is the Schott statistic over
nearest-neighbour L1 distances, and maximum spread is the unnormalized
Euclidean norm of the per-objective widths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class IndicatorReport:
    gd: float
    rgd: float
    spacing: float
    max_spread: float

    _FIELDS = ("gd", "rgd", "spacing", "max_spread")

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self._FIELDS}


def _as_front(points, label: str) -> np.ndarray:
    F = np.asarray(points, dtype=float)
    if F.ndim != 2 or F.shape[0] == 0:
        raise InvalidInputError(f"{label} must be a non-empty 2-D set of objective vectors")
    return F


def _min_euclidean(front: np.ndarray, reference: np.ndarray) -> np.ndarray:
    diff = front[:, None, :] - reference[None, :, :]
    return np.sqrt((diff**2).sum(axis=2)).min(axis=1)


def gd(front, reference, p: int = 2) -> float:
    """Generational distance from the obtained front to the reference set (p = 1 or 2)."""
    if p not in (1, 2):
        raise InvalidInputError(f"GD exponent p must be 1 or 2, got {p!r}")
    F = _as_front(front, "front")
    R = _as_front(reference, "reference")
    if F.shape[1] != R.shape[1]:
        raise InvalidInputError(
            f"dimensionality mismatch: front has {F.shape[1]} objectives, reference {R.shape[1]}"
        )
    d = _min_euclidean(F, R)
    if p == 1:
        return float(d.sum() / len(d))
    return float(np.sqrt((d**2).sum()) / len(d))


def rgd(front, reference, p: int = 2) -> float:
    """Reverse generational distance: reference points measured against the
    obtained front, capturing convergence and coverage together."""
    return gd(reference, front, p=p)


def spacing(front) -> float:
    """Schott spacing: standard deviation of nearest-neighbour L1 distances
    within the front. Zero means perfectly even spacing; fronts with fewer
    than two points score 0 by definition."""
    F = np.asarray(front, dtype=float)
    if F.ndim != 2 or F.shape[0] < 2:
        return 0.0
    d1 = np.abs(F[:, None, :] - F[None, :, :]).sum(axis=2)
    np.fill_diagonal(d1, np.inf)
    nearest = d1.min(axis=1)
    mean = nearest.mean()
    return float(np.sqrt(((mean - nearest) ** 2).sum() / (len(nearest) - 1)))


def max_spread(front) -> float:
    """Euclidean norm of the per-objective extents of the front."""
    F = _as_front(front, "front")
    widths = F.max(axis=0) - F.min(axis=0)
    return float(np.sqrt((widths**2).sum()))


def score_front(front, reference, gd_p: int = 2) -> IndicatorReport:
    """All four indicators for one front against one reference front."""
    return IndicatorReport(
        gd=gd(front, reference, p=gd_p),
        rgd=rgd(front, reference, p=gd_p),
        spacing=spacing(front),
        max_spread=max_spread(front),
    )

