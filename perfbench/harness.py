"""Run one workload: repeated set-up, timed passes, checks, metrics.

One client runs the workload's ops in a closed loop: each op starts when the
previous one has finished.  Passes over the same inputs repeat until the
next one would overrun the time budget (at least one pass runs).  Counts and
accuracy figures come from the first pass, and every later pass must
reproduce its output digests.

The host's speed drifts by tens of percent over minutes, more than any
bound a regression check could use.  So a fixed pure-Python probe (about
5 ms) runs before the first op and after every op, and the bounded timings
are in probe units: ``wall_rel`` is the median over passes of a pass's summed
op time divided by the mean probe time of that pass.  Each op's relative
latency is its median over passes, and ``op_p50_rel``/``op_p90_rel`` are
percentiles of those over the ops of a pass (``ops_per_pass`` of them: 4 on
mc-experiments, 125 on blackbox-estimators, 23 on large-n).  The same
figures in seconds (``wall_s``, ``op_p50_ms``, ``op_p90_ms``) and the probe
time itself are reported with the per-layer metrics.

``setup_s`` is the median of ``SETUP_REPEATS`` set-ups.  Each one times a
fresh interpreter importing evidkit and the benchmark, then builds the
inputs and runs one warm-up pass of the tiny workload.  The first set-up
comes before the passes; the others are spread over the measured time, so
that their median sees the host's speed over the whole run.  Set-ups do not
count against the time budget.

An op that raises has failed; an op whose output fails its check, or
differs from the first pass's, has also made the run incorrect.
``failed``/``attempted`` and ``ok_op_share`` count both kinds, ``correct``
only the second (and failed set-up checks).

With ``trace=True`` untraced and traced passes alternate; the per-layer
metrics are medians over the traced passes and ``trace.overhead_share``
compares the relative wall of the two kinds of pass.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np
import scipy

from tracing import Tracer, metric_units
from workloads import WORKLOADS, PassRecord

SETUP_REPEATS = 5
PROBE_ITERATIONS = 60_000

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# Run in a fresh interpreter: the seconds it takes to import what run.py imports.
_IMPORT_CODE = """import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:]
import evidkit, harness
print(time.perf_counter() - start)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_rel": "probe",
    "op_p50_rel": "probe",
    "op_p90_rel": "probe",
    "peak_rss_mb": "MB",
    "ok_op_share": "ratio",
}
# Timings in seconds; they move with the host's speed, so they carry no bound.
TIMING_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "probe_ms": "ms",
}
# Deterministic figures of a run.
FIGURE_UNITS = {
    "failed_op_share": "ratio",
    "quad_err_max_nats": "nats",
    "laplace_err_max_nats": "nats",
    "is_err_max_nats": "nats",
    "err_bound_misses": "count",
}
PER_LAYER_UNITS = {**metric_units(), **TIMING_UNITS, **FIGURE_UNITS,
                   "trace.overhead_share": "ratio"}


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop; tracks the host's speed."""
    start = perf_counter()
    total = 0
    for k in range(PROBE_ITERATIONS):
        total += k * k
    return perf_counter() - start


def _identity(model):
    return model


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import evidkit and the benchmark."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CODE, SRC, HERE], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout)


def set_up(workload, seed, size, work):
    """One timed set-up: ``(seconds, state)``; see the module docstring."""
    import_s = import_seconds()
    start = perf_counter()
    state = workload.setup(seed, size, work)
    # Warm-up: one pass of the tiny workload fills lazy imports and caches.
    run_pass(workload.ops(workload.setup(seed, "tiny", os.path.join(work, "warmup")), _identity))
    return import_s + perf_counter() - start, state


def run_pass(ops, tracer: Tracer | None = None) -> PassRecord:
    """Run every op once; only the calls are timed, and only they are traced."""
    result = PassRecord()
    result.probes.append(probe())
    for op in ops:
        if tracer is not None:
            tracer.install()
        error = None
        start = perf_counter()
        try:
            output = op.call()
        except Exception as exc:  # every failure is counted, none stops the run
            error = exc
        finally:
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        result.times.append((op.kind, elapsed))
        result.probes.append(probe())
        if error is not None:
            result.errors.append((op.kind, f"{type(error).__name__}: {error}"))
            continue
        try:
            op.check(output, result)
        except Exception as exc:  # a check that cannot run is a failed check
            result.failures.append((op.kind, f"check: {type(exc).__name__}: {exc}"))
    return result


def machine_record() -> dict:
    """The machine a result was measured on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_thread_cap": {var: os.environ.get(var) for var in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def _percentiles(values, scale):
    """``(p50, p90)`` of ``values`` times ``scale``."""
    values = [scale * v for v in values]
    if len(values) == 1:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=10, method="inclusive")[8]


def _relative_times(result: PassRecord) -> list[float]:
    """Each op's time over the mean of the probes run just before and after it."""
    return [dt / (0.5 * (before + after)) for (_, dt), before, after
            in zip(result.times, result.probes, result.probes[1:])]


def _timings(passes: list[PassRecord]) -> dict:
    relative = [_relative_times(result) for result in passes]
    ops = range(len(passes[0].times))
    # Each op's latency is its median over passes; percentiles are taken over ops.
    op_s = [statistics.median(result.times[i][1] for result in passes) for i in ops]
    op_rel = [statistics.median(rel[i] for rel in relative) for i in ops]
    timings = {
        "wall_s": statistics.median(result.wall for result in passes),
        "wall_rel": statistics.median(sum(rel) for rel in relative),
        "probe_ms": 1e3 * statistics.median(p for result in passes for p in result.probes),
    }
    timings["op_p50_ms"], timings["op_p90_ms"] = _percentiles(op_s, 1e3)
    timings["op_p50_rel"], timings["op_p90_rel"] = _percentiles(op_rel, 1.0)
    return timings


def _run_figures(first: PassRecord, failed: int, attempted: int) -> dict:
    return {
        "failed_op_share": failed / attempted,
        "quad_err_max_nats": max(first.quad_errs, default=0.0),
        "laplace_err_max_nats": max(first.laplace_errs, default=0.0),
        "is_err_max_nats": max(first.is_errs, default=0.0),
        "err_bound_misses": first.err_bound_misses,
    }


def run_benchmark(name, seed, seconds, trace, size="full", workdir=".perfbench_out",
                  spans_path=None, setup_repeats=SETUP_REPEATS):
    """Run workload ``name``; returns ``(summary, detail)``.

    ``summary`` has the keys ``correct``, ``attempted``, ``failed`` and
    ``metrics``; ``detail`` holds the digests, inputs, per-op figures and
    the machine record.
    """
    workload = WORKLOADS[name]
    work = os.path.join(workdir, name)

    setup_s, state = set_up(workload, seed, size, work)
    setup_times = [setup_s]

    plain_ops = workload.ops(state, _identity)
    passes: list[PassRecord] = []
    traced: list[tuple[Tracer, PassRecord]] = []
    measured = 0.0  # seconds spent in passes; set-ups do not count against ``seconds``
    while True:
        while len(setup_times) < setup_repeats \
                and measured >= seconds * len(setup_times) / setup_repeats:
            setup_times.append(set_up(workload, seed, size, work)[0])
        start = perf_counter()
        passes.append(run_pass(plain_ops))
        if trace:
            tracer = Tracer()
            traced.append((tracer, run_pass(workload.ops(state, tracer.instrument), tracer)))
        cost = perf_counter() - start
        measured += cost
        if measured + cost > seconds:
            break
    while len(setup_times) < setup_repeats:
        setup_times.append(set_up(workload, seed, size, work)[0])

    all_results = passes + [result for _, result in traced]
    first = passes[0]
    attempted = sum(len(result.times) for result in all_results)
    errors = [e for result in all_results for e in result.errors]
    failures = list(state["setup_failures"])
    failures += [f for result in all_results for f in result.failures]
    for result in all_results[1:]:
        for key, digest in result.digests.items():
            if first.digests.get(key) != digest:
                failures.append((key, "output differs from the first pass"))
    failed = len(errors) + len(failures)
    timings = _timings(passes)

    if trace:
        per_pass = [tracer.metrics() for tracer, _ in traced]
        metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
        metrics.update(timings)
        metrics.update(_run_figures(first, failed, attempted))
        traced_rel = statistics.median(sum(_relative_times(result)) for _, result in traced)
        metrics["trace.overhead_share"] = traced_rel / timings["wall_rel"] - 1.0
        units = PER_LAYER_UNITS
        if spans_path is not None:
            traced[0][0].write_spans(spans_path)
    else:
        metrics = {
            **timings,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_op_share": 1.0 - failed / attempted,
        }
        units = END_TO_END_UNITS

    by_kind: dict[str, list[float]] = {}
    for result in passes:
        for kind, dt in result.times:
            by_kind.setdefault(kind, []).append(1e3 * dt)
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": float(metrics[key]), "unit": units[key]} for key in units},
    }
    detail = {
        "workload": name, "seed": seed, "size": size, "trace": bool(trace),
        "inputs_sha256": state["inputs_sha256"],
        "output_sha256": first.digests,
        "passes": len(passes), "traced_passes": len(traced),
        "ops_per_pass": len(first.times),
        "setup_repeats_s": setup_times,
        "pass_wall_s": [result.wall for result in passes],
        "pass_probe_ms": [1e3 * statistics.fmean(result.probes) for result in passes],
        "op_median_ms": {kind: statistics.median(v) for kind, v in by_kind.items()},
        "op_count_per_pass": {kind: len(v) // len(passes) for kind, v in by_kind.items()},
        "timings": timings,
        "figures": _run_figures(first, failed, attempted),
        "errors": errors[:20],
        "failures": failures[:20],
        "machine": machine_record(),
    }
    return summary, detail
