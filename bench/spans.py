"""Spans and work counters around the public functions of each szegolab layer.

The wrappers are installed from outside the package.  Installing one rebinds
the wrapped function in the class or module that defines it and in every
loaded ``szegolab`` module that imported the name (``from .integrate import
surface_samples`` and the like), so every call site goes through a span.
Spans are kept in memory as (layer, start, end, parent) and a layer's self
time is its spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _rows(args, kwargs, pos: int, name: str) -> int:
    """Leading dimension of a batch argument, 1 for a single point."""
    shape = np.shape(args[pos] if len(args) > pos else kwargs[name])
    return shape[0] if len(shape) > 1 else 1


def _gram_counts(t, args, kwargs, result):
    if result.stderr is None:
        return
    diag = np.abs(np.diag(result.matrix))
    rel = float(np.max(np.diag(result.stderr) / diag)) if diag.size else 0.0
    t.counts["basis.gram.rel_stderr_max"] = max(t.counts["basis.gram.rel_stderr_max"], rel)


def _rho_counts(t, args, kwargs, result):
    rows = _rows(args, kwargs, 1, "Z")
    t.counts["geometry.rho_value.rows"] += rows
    if t.active["integrate.radial_roots"]:
        t.counts["integrate.radial_roots.rho_rows"] += rows


def _monomial_counts(t, args, kwargs, result):
    rows = _rows(args, kwargs, 0, "Z")
    t.counts["basis.monomial.rows"] += rows
    if t.active["basis.gram"]:
        t.counts["basis.gram.sample_rows"] += rows


def _count(key, arg=None, of_result=None):
    """Counter adding the rows of argument arg = (position, name), or of_result(result)."""
    if arg is not None:
        def counter(t, args, kwargs, result):
            t.counts[key] += _rows(args, kwargs, *arg)
    else:
        def counter(t, args, kwargs, result):
            t.counts[key] += of_result(result)
    return counter


# (layer, module, attribute path, counter run on each successful call)
TARGETS = (
    ("geometry.rho_value", "geometry", "DefiningPolynomial.value", _rho_counts),
    ("geometry.rho_grad", "geometry", "DefiningPolynomial.z_gradient", None),
    ("geometry.rho_grad", "geometry", "DefiningPolynomial.zz_hessian", None),
    ("geometry.point", "geometry", "Manifold.point", None),
    ("geometry.point", "geometry", "Manifold.act", None),
    ("geometry.strata", "geometry", "Manifold.strata_orders", None),
    ("geometry.orbit_distance", "geometry", "Manifold.orbit_distance_batch",
     _count("geometry.orbit_distance.pairs", arg=(1, "X"))),
    ("integrate.radial_roots", "integrate", "radial_roots", _count("integrate.radial_roots.rays", arg=(1, "U"))),
    ("integrate.sample", "integrate", "surface_samples", None),
    ("integrate.sample", "integrate", "sample_sphere", _count("integrate.sample.points", of_result=lambda r: r.count)),
    ("integrate.sample", "integrate", "sample_hypersurface",
     _count("integrate.sample.points", of_result=lambda r: r.count)),
    ("integrate.point_gen", "integrate", "stratified_points", None),
    ("integrate.point_gen", "integrate", "support_pattern_points", None),
    ("integrate.point_gen", "integrate", "random_surface_points", None),
    ("integrate.point_gen", "integrate", "project_radially", None),
    ("integrate.point_gen", "integrate", "ball_points", None),
    ("basis.gram", "basis", "gram_matrix", _gram_counts),
    ("basis.monomial", "basis", "monomial_values", _monomial_counts),
    ("basis.monomial", "basis", "monomial_jacobian", _count("basis.monomial.rows", arg=(0, "z"))),
    ("basis.whiten", "basis", "orthonormalize", None),
    ("basis.eval", "basis", "eval_basis", _count("basis.eval.rows", arg=(1, "x"))),
    ("basis.eval", "basis", "eval_basis_batch", _count("basis.eval.rows", arg=(1, "Z"))),
    ("basis.eval", "basis", "eval_basis_jacobian", _count("basis.eval.rows", arg=(1, "x"))),
    ("kernel.eval", "kernel", "szego_kernel", None),
    ("kernel.eval", "kernel", "kernel_diagonal", None),
    ("kernel.eval", "kernel", "stratum_vanishing_check", None),
    ("kernel.eval", "kernel", "ratio_diagnostic", None),
    ("kernel.fit", "kernel", "fit_expansion", None),
    ("embedding.build", "embedding", "build_embedding", None),
    ("embedding.build", "embedding", "embedding_from_levels", None),
    ("embedding.immersion", "embedding", "immersion_report",
     _count("embedding.immersion.points", of_result=lambda r: len(r.records))),
    ("embedding.separation", "embedding", "separation_report",
     _count("embedding.separation.pairs", of_result=lambda r: r.pair_count)),
    ("cli.report", "cli", "emit_report", None),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))


def resolve(module: str, path: str):
    """(owner, attribute name, function) for a TARGETS entry."""
    owner = importlib.import_module(f"szegolab.{module}")
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """In-memory span recorder for one campaign."""

    def __init__(self):
        self.layers: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.active: defaultdict[str, int] = defaultdict(int)

    def span(self, layer: str, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._record(layer, fn, counter, args, kwargs)

        return wrapper

    def _record(self, layer, fn, counter, args, kwargs):
        idx = len(self.layers)
        self.layers.append(layer)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.active[layer] += 1
        self.counts[f"{layer}.calls"] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self.starts[idx] = start
            self.active[layer] -= 1
            self._stack.pop()
        if counter is not None:
            counter(self, args, kwargs, result)
        return result

    @contextmanager
    def installed(self):
        """Rebind every TARGETS function to its span wrapper; restore on exit."""
        for module in {module for _, module, _, _ in TARGETS}:
            importlib.import_module(f"szegolab.{module}")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "szegolab" or name.startswith("szegolab.")]
        undo = []
        try:
            for layer, module, path, counter in TARGETS:
                owner, attr, fn = resolve(module, path)
                wrapper = self.span(layer, fn, counter)
                if isinstance(owner, type):
                    undo.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            undo.append((mod, key, fn))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, attr, fn in reversed(undo):
                setattr(owner, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span durations minus their children's durations."""
        n = len(self.layers)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        covered = np.zeros(n)
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], dur[has_parent])
        own = dur - covered
        out = {layer: 0.0 for layer in LAYERS}
        for layer, value in zip(self.layers, own.tolist()):
            out[layer] += value
        return out

    def metrics(self) -> dict[str, float]:
        """Counts, self times and useful-work ratios, every layer present."""
        out = {f"{layer}.calls": self.counts[f"{layer}.calls"] for layer in LAYERS}
        for layer, seconds in self.self_times().items():
            out[f"{layer}.self_s"] = seconds
        for key, value in self.counts.items():
            out.setdefault(key, value)
        for key in ("geometry.rho_value.rows", "geometry.orbit_distance.pairs",
                    "integrate.radial_roots.rays", "integrate.radial_roots.rho_rows",
                    "integrate.sample.points", "basis.gram.sample_rows",
                    "basis.gram.rel_stderr_max", "basis.monomial.rows", "basis.eval.rows",
                    "embedding.immersion.points", "embedding.separation.pairs"):
            out.setdefault(key, 0.0)
        calls = out["geometry.rho_value.calls"]
        out["geometry.rho_value.rows_per_call"] = out["geometry.rho_value.rows"] / calls if calls else 0.0
        rays = out["integrate.radial_roots.rays"]
        out["integrate.rho_rows_per_ray"] = out["integrate.radial_roots.rho_rows"] / rays if rays else 0.0
        return out

    def dump(self, path, t0: float) -> None:
        """Write the spans, times relative to t0, as compact JSON."""
        index = {layer: i for i, layer in enumerate(LAYERS)}
        spans = [
            [index[layer], round(s - t0, 9), round(e - t0, 9), p]
            for layer, s, e, p in zip(self.layers, self.starts, self.ends, self.parents)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"layers": list(LAYERS), "spans": spans}))
