"""Span tracing of mobench from outside the package.

A :class:`Tracer` wraps the public functions of each layer at every place
the package looks them up. The engines bind names with imports such as
``from .dominance import rank_and_crowd``, so patching only the defining
module would miss the calls that matter; :func:`install` therefore finds
every module global and class attribute that holds the target object and
replaces each one.

Spans live in compact in-memory arrays (layer id, parent span, start, end)
and are written out only when the benchmark ends. A layer's self time is
the summed duration of its spans minus the part covered by their child
spans, so ``truncate`` inside ``insert`` and ``rank_and_crowd`` inside
``route_main`` are each counted once.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Layer name -> the functions (dotted paths under ``mobench``) whose calls
# form that layer's spans.
LAYERS = {
    "problems.evaluate": ("problems.evaluate",),
    "problems.decode": ("problems.decode",),
    "operators.sbx_crossover": ("operators.sbx_crossover",),
    "operators.polynomial_mutation": ("operators.polynomial_mutation",),
    "dominance.rank_and_crowd": ("dominance.rank_and_crowd",),
    "dominance.crowding_distance": ("dominance.crowding_distance",),
    "dominance.environmental_selection": ("dominance.environmental_selection",),
    "molpb.split_route": (
        "molpb.split_good_bad",
        "molpb.best_of_bad",
        "molpb.filter_main",
        "molpb.route_main",
    ),
    "molpb.step": ("molpb.MolpbEngine.step",),
    "nsga2.step": ("nsga2.Nsga2Engine.step",),
    "archive.insert": ("archive.ParetoArchive.insert",),
    "archive.truncate": ("archive.ParetoArchive.truncate",),
    # Without a reference front the benchmark scores with spacing and
    # max_spread directly; both belong to the scoring layer.
    "metrics.score_front": ("metrics.score_front", "metrics.spacing", "metrics.max_spread"),
    "suite.reference": ("suite.analytic_reference_front", "suite.load_reference_csv"),
    "results.write": ("results.write_front_csv", "results.RunResult.write_json"),
    "harness.run_campaign": ("harness.run_campaign",),
}


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.layers = list(LAYERS)
        self.layer = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.accepted = 0  # archive inserts that returned True
        self.missing: list[str] = []
        self._stack = [-1]

    def wrap(self, layer: str, fn):
        lid = self.layers.index(layer)
        layer_a, parent_a, start_a, end_a = self.layer, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start_a)
            layer_a.append(lid)
            parent_a.append(stack[-1])
            end_a.append(0.0)
            stack.append(i)
            start_a.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end_a[i] = clock()
                stack.pop()

        return traced

    def _count_accepted(self, insert):
        @functools.wraps(insert)
        def counted(*args, **kwargs):
            accepted = insert(*args, **kwargs)
            self.accepted += bool(accepted)
            return accepted

        return counted

    def install(self) -> None:
        """Wrap every lookup site of every layer function in the loaded
        ``mobench`` modules. Targets that no longer exist are listed in
        ``missing`` and their layers read zero."""
        modules = [m for n, m in sys.modules.items() if n == "mobench" or n.startswith("mobench.")]
        for layer, targets in LAYERS.items():
            for path in targets:
                module_name, _, rest = path.partition(".")
                owner = sys.modules.get(f"mobench.{module_name}")
                *owner_path, attr = rest.split(".")
                for name in owner_path:
                    owner = getattr(owner, name, None)
                target = getattr(owner, attr, None)
                if target is None:
                    self.missing.append(path)
                    continue
                wrapped = self.wrap(layer, target)
                if path == "archive.ParetoArchive.insert":
                    wrapped = self._count_accepted(wrapped)
                if owner_path:  # a method: every lookup goes through its class
                    setattr(owner, attr, wrapped)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is target:
                            setattr(module, name, wrapped)

    def per_layer(self) -> dict[str, dict[str, float]]:
        """Calls and self time (seconds) of every layer."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64)
        duration = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        layer = np.frombuffer(self.layer, dtype=np.uint16)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=n)
        own = duration - children
        calls = np.bincount(layer, minlength=len(self.layers))
        self_s = np.bincount(layer, weights=own, minlength=len(self.layers))
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.layers)
        }

    def counts(self) -> dict[str, int]:
        """Every layer's call count plus accepted archive inserts: these
        must repeat exactly between two traced runs with one seed."""
        counts = {name: v["calls"] for name, v in self.per_layer().items()}
        counts["archive.insert.accepted"] = self.accepted
        return counts

    def save(self, path) -> None:
        """Write the spans (times relative to the first span) as .npz."""
        start = np.frombuffer(self.start, dtype=np.float64)
        origin = start[0] if len(start) else 0.0
        np.savez_compressed(
            path,
            layers=np.array(self.layers),
            layer=np.frombuffer(self.layer, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=start - origin,
            end=np.frombuffer(self.end, dtype=np.float64) - origin,
        )
