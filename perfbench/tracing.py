"""Per-layer tracing: span wrappers over evidkit's public functions and
call/point counters on the model callables the benchmark hands to the
black-box estimators.

A :class:`Tracer` patches each listed function in every ``evidkit.*``
namespace that binds it (the package itself included).  Modules call each
other through those namespaces, so internal calls are caught as well.  Spans
``(name, start, end, parent)`` are kept in memory; :meth:`Tracer.metrics`
turns them into ``<layer>.<function>.{calls,total_s,self_s}`` and
:meth:`Tracer.write_spans` writes them out.  Nothing is patched until
:meth:`Tracer.install` runs, and :meth:`Tracer.uninstall` restores every
original, so untraced passes run the package untouched.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import os
import sys
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = {
    "cli": ("main", "parse_args"),
    "dataio": ("read_observations", "write_json", "write_csv"),
    "glm": ("glm_log_evidence", "map_estimate", "posterior_precision",
            "flexibility_exact", "gram_eigen_range"),
    "selection": ("select", "risk_mc", "sweet_spot_experiment", "mackay_crossover",
                  "polynomial_family", "scaled_polynomial_design"),
    "generic": ("map_optimize", "map_optimize_multistart", "finite_difference_gradient",
                "finite_difference_hessian", "resolve_integration_box",
                "log_trapezoid_integral", "normalize_prior", "wrap_glm"),
    "evidence": ("evidence_quadrature", "evidence_laplace", "laplace_curvature",
                 "evidence_importance", "bic_sweep"),
}

SPAN_NAMES = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)

# Counters beyond calls/total_s/self_s, with their units.
COUNTERS = {
    "dataio.read_observations.rows": "count",
    "dataio.write_json.bytes": "B",
    "dataio.write_csv.bytes": "B",
    "generic.log_trapezoid_integral.nodes": "count",
    "model.log_lik.calls": "count",
    "model.log_lik.points": "count",
    "model.regularizer.calls": "count",
    "model.regularizer.points": "count",
    "generic.map_optimize.log_lik_calls": "count",
    "generic.map_optimize.failures": "count",
}
RATIOS = ("evidence.quadrature.fine_point_share", "generic.multistart.distinct_basin_share")

# Functions whose arguments or result feed a counter after each call.
_HOOKED = frozenset({"dataio.read_observations", "dataio.write_json", "dataio.write_csv",
                     "generic.log_trapezoid_integral", "evidence.evidence_quadrature",
                     "generic.map_optimize_multistart"})

# Two multistart basins are the same when their maximizers agree this closely.
BASIN_TOL = 1e-6


def metric_units() -> dict[str, str]:
    """Unit of every metric :meth:`Tracer.metrics` reports."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    units.update({name: "ratio" for name in RATIOS})
    return units


def _distinct_basins(basins) -> int:
    reps = []
    for _, theta, _ in basins:
        theta = np.asarray(theta, dtype=float)
        if not any(np.max(np.abs(theta - r)) <= BASIN_TOL * (1.0 + np.max(np.abs(r)))
                   for r in reps):
            reps.append(theta)
    return len(reps)


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self):
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if name == "evidkit" or name.startswith("evidkit.")]
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"evidkit.{layer}")
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for namespace in namespaces:
                    if getattr(namespace, fn_name, None) is original:
                        self._patched.append((namespace, fn_name, original))
                        setattr(namespace, fn_name, wrapper)

    def uninstall(self):
        while self._patched:
            namespace, fn_name, original = self._patched.pop()
            setattr(namespace, fn_name, original)

    def _wrap(self, name, fn):
        signature = inspect.signature(fn) if name in _HOOKED else None
        spans, stack, opened, counts = self.spans, self._stack, self._open, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            opened[name] += 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[f"{name}.failures"] += 1
                raise
            finally:
                span[2] = perf_counter()
                opened[name] -= 1
                stack.pop()
            if signature is not None:
                self._after(name, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def _after(self, name, arguments, result):
        counts = self.counts
        if name == "dataio.read_observations":
            counts[f"{name}.rows"] += result.n
        elif name in ("dataio.write_json", "dataio.write_csv"):
            counts[f"{name}.bytes"] += os.path.getsize(arguments["path"])
        elif name == "generic.log_trapezoid_integral":
            counts[f"{name}.nodes"] += int(arguments["points_per_dim"]) ** arguments["model"].dim
        elif name == "evidence.evidence_quadrature":
            counts["quadrature.fine_nodes"] += \
                int(arguments["grid_points_per_dim"]) ** arguments["model"].dim
        elif name == "generic.map_optimize_multistart":
            counts["multistart.starts"] += len(result.basins)
            counts["multistart.distinct_basins"] += _distinct_basins(result.basins)

    # -- model callables ----------------------------------------------------

    def instrument(self, model):
        """Copy of a ``GenericModelSpec`` whose callables count calls and points."""
        return dataclasses.replace(
            model,
            log_lik=self._counted("model.log_lik", model.log_lik, model.vectorized),
            regularizer=self._counted("model.regularizer", model.regularizer,
                                      model.vectorized))

    def _counted(self, name, fn, vectorized):
        counts, opened = self.counts, self._open
        is_log_lik = name == "model.log_lik"

        def counted(points):
            n_points = int(np.shape(points)[0]) if vectorized else 1
            counts[f"{name}.calls"] += 1
            counts[f"{name}.points"] += n_points
            if is_log_lik:
                if opened["generic.map_optimize"]:
                    counts["generic.map_optimize.log_lik_calls"] += 1
                if opened["evidence.evidence_quadrature"]:
                    counts["quadrature.log_lik_points"] += n_points
            return fn(points)

        return counted

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every metric named by :func:`metric_units`, zero where nothing ran."""
        calls, total, self_time = Counter(), Counter(), Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child[i]
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.total_s"] = total[name]
            out[f"{name}.self_s"] = self_time[name]
        for name in COUNTERS:
            out[name] = self.counts[name]
        c = self.counts
        out["evidence.quadrature.fine_point_share"] = (
            c["quadrature.fine_nodes"] / c["quadrature.log_lik_points"]
            if c["quadrature.log_lik_points"] else 0.0)
        out["generic.multistart.distinct_basin_share"] = (
            c["multistart.distinct_basins"] / c["multistart.starts"]
            if c["multistart.starts"] else 0.0)
        return out

    def write_spans(self, path):
        """Write the spans as JSON: a name table and ``[name, start, end, parent]`` rows."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[index[name], round(start - origin, 9), round(end - origin, 9), parent]
                for name, start, end, parent in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": names, "columns": ["name", "start_s", "end_s", "parent"],
                       "spans": rows}, handle, separators=(",", ":"))
