"""Independent brute-force oracles the library code is checked against.

These deliberately avoid the library's code paths: dominance is re-derived
from scalar comparisons, the partition oracle re-counts dominators from
scratch at every peeling level instead of bookkeeping, crowding and
archive truncation recompute every distance from scratch, MOLPB's
mating follows its stated rules one row at a time, polynomial mutation
computes every coordinate's perturbation, the metric oracles are plain
double loops, and the table parser reads the comparison CSV back with
string splits.
"""

from __future__ import annotations

import math

import numpy as np


def dominates_scalar(a, b) -> bool:
    not_worse = True
    strictly_better = False
    for av, bv in zip(a, b):
        if av > bv:
            not_worse = False
            break
        if av < bv:
            strictly_better = True
    return not_worse and strictly_better


def non_dominated_mask_python(points) -> list[bool]:
    """Pure-python non-dominated mask via pairwise scalar comparisons."""
    pts = [list(map(float, p)) for p in points]
    mask = []
    for i, a in enumerate(pts):
        dominated = any(j != i and dominates_scalar(b, a) for j, b in enumerate(pts))
        mask.append(not dominated)
    return mask


def distinct_non_dominated_python(points) -> list[bool]:
    """Pure-python mask of the rows no row dominates and no earlier row
    equals element by element (so -0.0 equals 0.0)."""
    pts = [list(map(float, p)) for p in points]
    return [
        not any(dominates_scalar(b, a) for b in pts) and a not in pts[:i]
        for i, a in enumerate(pts)
    ]


def partition_python(points) -> list[list[int]]:
    """Pure-python front partition by repeated peeling (small inputs only)."""
    remaining = list(range(len(points)))
    fronts = []
    while remaining:
        front = [
            i
            for i in remaining
            if not any(j != i and dominates_scalar(points[j], points[i]) for j in remaining)
        ]
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


def partition_recount(points) -> list[list[int]]:
    """Front partition that re-counts each point's dominators directly at
    every level (no decrement bookkeeping); vectorized for large inputs."""
    F = np.asarray(points, dtype=float)
    remaining = np.arange(len(F))
    fronts = []
    while remaining.size:
        sub = F[remaining]
        le = np.all(sub[None, :, :] <= sub[:, None, :], axis=2)  # le[i, j]: j <= i everywhere
        lt = np.any(sub[None, :, :] < sub[:, None, :], axis=2)
        dominated = (le & lt).any(axis=1)
        fronts.append([int(i) for i in remaining[~dominated]])
        remaining = remaining[dominated]
    return fronts


def rank_array(fronts) -> np.ndarray:
    """The rank array (front number of every index) of a front partition."""
    rank = np.empty(sum(len(front) for front in fronts), dtype=int)
    for r, front in enumerate(fronts):
        rank[front] = r
    return rank


def gd_oracle(front, reference, p: int = 2) -> float:
    total = 0.0
    for a in front:
        best = min(
            math.sqrt(sum((ai - bi) ** 2 for ai, bi in zip(a, b))) for b in reference
        )
        total += best if p == 1 else best**2
    if p == 1:
        return total / len(front)
    return math.sqrt(total) / len(front)


def rgd_oracle(front, reference, p: int = 2) -> float:
    return gd_oracle(reference, front, p=p)


def spacing_oracle(front) -> float:
    n = len(front)
    if n < 2:
        return 0.0
    nearest = []
    for i, a in enumerate(front):
        best = min(
            sum(abs(ai - bi) for ai, bi in zip(a, b))
            for j, b in enumerate(front)
            if j != i
        )
        nearest.append(best)
    mean = sum(nearest) / n
    return math.sqrt(sum((mean - d) ** 2 for d in nearest) / (n - 1))


def max_spread_oracle(front) -> float:
    m = len(front[0])
    total = 0.0
    for k in range(m):
        column = [row[k] for row in front]
        total += (max(column) - min(column)) ** 2
    return math.sqrt(total)


def crowding_oracle(front) -> list[float]:
    """Literal per-objective sort implementation of crowding distance."""
    pts = [list(map(float, p)) for p in front]
    n, m = len(pts), len(pts[0])
    if n <= 2:
        return [math.inf] * n
    dist = [0.0] * n
    for k in range(m):
        order = sorted(range(n), key=lambda i: pts[i][k])
        lo, hi = pts[order[0]][k], pts[order[-1]][k]
        dist[order[0]] = math.inf
        dist[order[-1]] = math.inf
        if hi > lo:
            for pos in range(1, n - 1):
                i = order[pos]
                if dist[i] != math.inf:
                    dist[i] += (pts[order[pos + 1]][k] - pts[order[pos - 1]][k]) / (hi - lo)
    return dist


def rank_and_crowd_oracle(points) -> tuple[np.ndarray, np.ndarray]:
    """Rank from the recount partition and crowding front by front from
    the literal oracle: the per-front loop the one-pass crowding replaced."""
    fronts = partition_recount(points)
    crowd = np.empty(len(points))
    for front in fronts:
        crowd[front] = crowding_oracle([points[i] for i in front])
    return rank_array(fronts), crowd


def truncation_oracle(points, capacity: int) -> list[int]:
    """Indices kept by iterative archive truncation: recompute every
    crowding distance, drop the lowest finite one (the lower index on
    ties), or the first row when none is finite, until ``capacity`` remain."""
    kept = list(range(len(points)))
    while len(kept) > capacity:
        crowd = crowding_oracle([points[i] for i in kept])
        finite = [j for j, c in enumerate(crowd) if math.isfinite(c)]
        del kept[min(finite, key=crowd.__getitem__) if finite else 0]
    return kept


def selection_oracle(points, k: int) -> list[int]:
    """Elitist truncation to ``k`` indices from the oracle partition and
    crowding: whole fronts in index order while they fit, then the
    overflowing front by descending crowding, ties to the lower index."""
    chosen: list[int] = []
    for front in partition_python(points):
        if len(chosen) + len(front) <= k:
            chosen += front
            continue
        crowd = crowding_oracle([points[i] for i in front])
        best = sorted(range(len(front)), key=lambda j: -crowd[j])
        chosen += [front[j] for j in best[: k - len(chosen)]]
        break
    return chosen


def crowded_first(rank, crowd, rows) -> list[int]:
    """``rows`` sorted by the crowded comparison of their ``rank`` and
    ``crowd`` entries: lower rank, then larger crowding, then lower row."""
    return sorted(rows, key=lambda i: (rank[i], -crowd[i], i))


def molpb_mating_oracle(F, rng, n_pairs=None) -> tuple[np.ndarray, np.ndarray]:
    """MOLPB's parent pairs of the population ``F`` (stored best first),
    from the rules as stated, one row at a time: separate the first
    half-up 60% of a permutation and halve it by the crowded comparison;
    prune the main part by the bad half's best row; route each main row
    against the good and bad pivots of the joint ranking; then cycle the
    pairs. ``n_pairs`` defaults to the engine's ``round(0.7 * n_pop)``.
    It makes the engine's two draws, in its order."""
    pts = [list(map(float, row)) for row in F]
    n = len(pts)
    perm = [int(i) for i in rng.permutation(n)]
    split = int(0.6 * n + 0.5)
    separated, main = perm[:split], perm[split:]

    rank, crowd = rank_and_crowd_oracle([pts[i] for i in separated])
    order = crowded_first(rank, crowd, range(len(separated)))
    half = len(separated) // 2
    good = [separated[j] for j in order[:half]]
    bad = [separated[j] for j in order[half:]]

    rank, crowd = rank_and_crowd_oracle([pts[i] for i in bad])
    pivot = pts[bad[crowded_first(rank, crowd, range(len(bad)))[0]]]
    main = [i for i in main if not dominates_scalar(pivot, pts[i])]

    joint = main + good + bad
    rank, crowd = rank_and_crowd_oracle([pts[i] for i in joint])
    best_good = crowded_first(rank, crowd, range(len(main), len(main) + len(good)))[0]
    best_bad = crowded_first(rank, crowd, range(len(main) + len(good), len(joint)))[0]

    def precedes(j, p):
        return rank[j] < rank[p] or (rank[j] == rank[p] and crowd[j] > crowd[p])

    perfect, extension = [], []
    for j, i in enumerate(main):
        if precedes(j, best_bad):
            (perfect if precedes(j, best_good) else extension).append(i)

    cut = (len(good) + 1) // 2
    first, second = good[:cut], good[cut:]
    partners = main if main else bad
    draws = rng.integers(len(partners), size=len(second)).tolist()
    a, b = [], []
    for k in range(0, len(first), 2):
        a.append(first[k])
        b.append(first[(k + 1) % len(first)])
    for i, d in zip(second, draws):
        a.append(i)
        b.append(partners[d])
    donors = perfect + [bad[k % len(bad)] for k in range(len(extension))]
    for i, d in zip(extension, donors):
        a.append(i)
        b.append(d)
    if n_pairs is None:
        n_pairs = round(0.7 * n)
    pairs = [k % len(a) for k in range(n_pairs)]
    return np.array([a[k] for k in pairs]), np.array([b[k] for k in pairs])


def crowded_selection_oracle(points, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``k`` rows by the crowded comparison of the oracle ranks
    and crowding (the engine's environmental selection, best first), and
    the oracle's front-0 mask."""
    rank, crowd = rank_and_crowd_oracle(points)
    return np.array(crowded_first(rank, crowd, range(len(points)))[:k], dtype=int), rank == 0


def archive_insert_oracle(members, offer, capacity: int) -> tuple[np.ndarray, int]:
    """The members after offering the rows ``offer`` to an archive holding
    ``members``, and how many offered rows became members before
    truncation: the distinct non-dominated rows of the members stacked
    above the offer, thinned by :func:`truncation_oracle`."""
    F = np.concatenate([members, offer]) if len(members) else np.asarray(offer, dtype=float)
    keep = distinct_non_dominated_python(F.tolist())
    kept = F[np.array(keep, dtype=bool)]
    return kept[truncation_oracle(kept.tolist(), capacity)], sum(keep[len(F) - len(offer):])


def sbx_crossover_two_powers(p1, p2, lower, upper, rng, eta: float):
    """SBX with each branch's power taken over the full arrays and the
    children clamped into new arrays: the same draw as the library's
    operator."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    u = rng.random(p1.shape)
    exponent = 1.0 / (eta + 1.0)
    beta = np.where(u <= 0.5, (2.0 * u) ** exponent, (1.0 / (2.0 * (1.0 - u))) ** exponent)
    c1 = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
    c2 = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
    return np.clip(c1, lower, upper), np.clip(c2, lower, upper)


def polynomial_mutation_dense(x, lower, upper, rng, prob: float, eta: float) -> np.ndarray:
    """Polynomial mutation with the perturbation computed for every
    coordinate and kept where the mask is set: the same two draws of
    uniforms as the library's operator."""
    x = np.asarray(x, dtype=float)
    mask = rng.random(x.shape) < prob
    u = rng.random(x.shape)
    exponent = 1.0 / (eta + 1.0)
    delta = np.where(u < 0.5, (2.0 * u) ** exponent - 1.0, 1.0 - (2.0 * (1.0 - u)) ** exponent)
    out = np.where(mask, x + delta * (np.asarray(upper) - np.asarray(lower)), x)
    return np.clip(out, lower, upper)


def parse_table_csv(text: str) -> dict[str, dict[str, float]]:
    """Inverse of the CSV side of ``harness.tabulate``: {algorithm: {row: value}}."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    names = lines[0].split(",")[1:]
    table: dict[str, dict[str, float]] = {n: {} for n in names}
    for line in lines[1:]:
        cells = line.split(",")
        for name, cell in zip(names, cells[1:]):
            table[name][cells[0]] = float(cell)
    return table
