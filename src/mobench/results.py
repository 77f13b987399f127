"""Run results and front file I/O.

Front CSVs carry a ``f1,f2[,f3[,f4]]`` header and one member per row with
17 significant digits, which makes seeded reruns byte-comparable.
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FrontFileError


@dataclass
class RunResult:
    """Outcome of one seeded algorithm execution."""

    algorithm: str
    problem: str
    seed: int
    generations: int
    evaluations: int
    wall_ms: float
    front: np.ndarray

    def write_json(self, path) -> None:
        record = {**vars(self), "front": np.asarray(self.front, dtype=float).tolist()}
        write_atomic(path, json.dumps(record, indent=2) + "\n")


def write_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file in the same
    directory and a rename, so a reader, or a later run after a crash,
    sees the old file or the whole new one, never a partial write."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_front_csv(path, front: np.ndarray) -> None:
    F = np.asarray(front, dtype=float)
    if F.ndim != 2:
        raise FrontFileError(f"front must be 2-D, got shape {F.shape}")
    header = ",".join(f"f{k + 1}" for k in range(F.shape[1]))
    lines = [header]
    for row in F:
        lines.append(",".join(format(v, ".17g") for v in row))
    write_atomic(path, "\n".join(lines) + "\n")


def read_front_csv(path) -> np.ndarray:
    """Parse a front CSV; raises :class:`FrontFileError` on malformed files
    and on non-finite values (``nan``, ``inf``)."""
    return _read_front(path)[0]


def _read_front(path) -> tuple[np.ndarray, list[int]]:
    """:func:`read_front_csv`'s front, and the file line number (the first
    line is 1) of each of its rows; blank lines are skipped but counted."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise FrontFileError(f"{path}: empty front file")
    (_, head), *body = lines
    header = [c.strip() for c in head.split(",")]
    if header != [f"f{k + 1}" for k in range(len(header))] or len(header) < 2:
        raise FrontFileError(f"{path}: expected header f1,f2[,...], got {head!r}")
    rows = []
    for ln_no, line in body:
        cells = line.split(",")
        if len(cells) != len(header):
            raise FrontFileError(f"{path}:{ln_no}: expected {len(header)} columns")
        try:
            row = [float(c) for c in cells]
        except ValueError as exc:
            raise FrontFileError(f"{path}:{ln_no}: {exc}") from exc
        if not np.isfinite(row).all():
            raise FrontFileError(f"{path}:{ln_no}: non-finite value in {line!r}")
        rows.append(row)
    if not rows:
        raise FrontFileError(f"{path}: no data rows")
    return np.array(rows, dtype=float), [no for no, _ in body]
