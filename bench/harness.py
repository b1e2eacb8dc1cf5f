"""Runs one workload: set-up, timed passes, checks and metrics.

End-to-end numbers come from passes with tracing off.  A traced run
replays every pass with the span wrappers of :mod:`spans` installed, right
after the same pass untraced, so the two differ only by the tracing.
"""

from __future__ import annotations

import importlib
import math
import resource
import statistics
import sys
import time
from types import SimpleNamespace

import references
import spans
from workloads import Tally

# Set-up runs SETUP_REPS times before the first pass and SETUP_REPS_PER_PASS
# times before each pass, so that its median spans the whole run and not
# one moment of it.
SETUP_REPS = 5
SETUP_REPS_PER_PASS = 3
MIN_PASSES = 3
NVMIX_MODULES = ("mixtures", "linalg", "model", "rqmc", "distribution", "density", "sampling")

# (name, unit, better); the order is the order of printing.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("solved_frac", "fraction", "higher"),
    ("within_tol_frac", "fraction", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# Span names whose self time is reported per traced pass, as
# ``<name>.self_s``; with ``harness.self_s`` (the pass outside every
# nvmix call) they add up to ``tracing.wall_s``.
PASS_SPANS = (
    "mixtures.quantile",
    "distribution.prob",
    "distribution.prob_singular",
    "distribution.reorder",
    "distribution.integrand",
    "rqmc",
    "rqmc.integrand",
    "density.log_density_batch",
    "linalg.mahalanobis_sq",
    "density.log_integral_batch",
    "density.peak",
    "density.region_bounds",
    "density.mid_rqmc",
    "density.mid_rqmc.integrand",
    "sampling.rnvmix",
)

PER_LAYER = (
    ("mixtures.quantile.calls", "count", "lower"),
    ("mixtures.quantile.u_values", "count", "lower"),
    ("mixtures.quantile.ns_per_u", "ns", "lower"),
    ("distribution.integrand.point_dims", "count", "lower"),
    ("distribution.integrand.ns_per_point_dim", "ns", "lower"),
    ("rqmc.batches", "count", "lower"),
    ("rqmc.integrand_points", "count", "lower"),
    ("density.peak.calls", "count", "lower"),
    ("density.adaptive_frac", "fraction", "lower"),
    ("density.search_calls_per_point", "count", "lower"),
    ("density.mid_rqmc.batches", "count", "lower"),
    ("sampling.rnvmix.draws_per_s", "1/s", "higher"),
    *((f"{name}.self_s", "s", "lower") for name in PASS_SPANS),
    ("linalg.cholesky.self_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("tracing.wall_s", "s", "lower"),
    ("tracing.untraced_wall_s", "s", "lower"),
    ("tracing.overhead_frac", "fraction", "lower"),
)


def import_nvmix() -> SimpleNamespace:
    """Import nvmix afresh (dropping any earlier import) as a namespace of
    its modules."""
    for name in [m for m in sys.modules if m == "nvmix" or m.startswith("nvmix.")]:
        del sys.modules[name]
    mods = {n: importlib.import_module("nvmix." + n) for n in NVMIX_MODULES}
    return SimpleNamespace(NvmModel=mods["model"].NvmModel,
                           RqmcConfig=mods["rqmc"].RqmcConfig, **mods)


def setup(workload, reps: int, times: list) -> tuple:
    """Import nvmix and build the workload's models ``reps`` times,
    appending each time to ``times``; returns the last namespace and
    models."""
    for _ in range(reps):
        t0 = time.perf_counter()
        nv = import_nvmix()
        models = workload.build(nv)
        times.append(time.perf_counter() - t0)
    return nv, models


def _timed(calls) -> float:
    t0 = time.perf_counter()
    for call in calls:
        call.run()
    return time.perf_counter() - t0


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with ten samples beyond it, as (level, value);
    the maximum (level 100) when there are ten samples or fewer."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]


def run(workload, seconds: float, trace: bool) -> dict:
    """Set up, run passes for ``seconds`` (at least ``MIN_PASSES``), check
    every output and return the result record."""
    setup_times = []
    nv, models = setup(workload, SETUP_REPS, setup_times)
    tally = Tally()
    for problem in references.check_against_nvmix(nv):
        tally.error("reference check: " + problem)
    # A workload may probe a known defect outside its passes and the tally.
    probe = workload.probe(nv, models) if hasattr(workload, "probe") else {}

    tracer = spans.Tracer() if trace else None
    if trace:
        spans.install(tracer, nv)
        with tracer.root("setup"):
            workload.build(nv)
        tracer.unpatch()
        setup_hi = len(tracer.spans)

    # One untimed pass first, so that lazy set-up inside numpy and scipy
    # (first calls, loaded tables) is not timed.
    for call in workload.calls(nv, models, 0):
        call.run()

    walls, all_walls, replays = [], [], []
    deadline = time.perf_counter() + seconds
    p = 0
    while p < MIN_PASSES or time.perf_counter() < deadline:
        nv, models = setup(workload, SETUP_REPS_PER_PASS, setup_times)
        calls = workload.calls(nv, models, p)
        dt = _timed(calls)
        workload.check(calls, tally)
        all_walls.append(dt)
        if all(c.exc is None for c in calls):
            walls.append(dt)
        if trace:
            calls = workload.calls(nv, models, p)
            lo = len(tracer.spans)
            spans.install(tracer, nv)
            try:
                with tracer.root("pass"):
                    _timed(calls)
            finally:
                tracer.unpatch()
            workload.check(calls, tally)
            replays.append((dt, lo, len(tracer.spans)))
        p += 1

    samples = walls or all_walls
    level, tail_s = tail(samples)
    attempted = max(tally.attempted, 1)
    summary = {
        "passes": p,
        "pass_s": all_walls,
        "wall_samples": len(samples),
        "wall_median_s": statistics.median(samples),
        "wall_tail_level": level,
        "wall_tail_s": tail_s,
        "failed": tally.failed,
        "unconverged": tally.unconverged,
        "failed_frac": (tally.failed + tally.unconverged) / attempted,
        "with_ref": tally.with_ref,
        "max_err_over_tol": tally.max_err_over_tol,
        **probe,
    }
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.fmean(samples),
        "solved_frac": 1.0 - summary["failed_frac"],
        "within_tol_frac": tally.within_tol / tally.with_ref if tally.with_ref else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per_layer = layer_metrics(tracer.spans, setup_hi, replays) if trace else {}
    return {
        "correct": not tally.wrong,
        "wrong": tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "summary": summary,
    }


def layer_metrics(all_spans, setup_hi: int, replays) -> dict:
    """Per-layer numbers from the traced replays.

    Counts are totals over the first ``MIN_PASSES`` passes, which every run
    makes and whose inputs depend only on the seed, so they repeat
    exactly.  Times are means per traced pass; ``linalg.cholesky.self_s``
    is the traced model build of set-up.
    """
    n = len(replays)
    first = spans.aggregate(all_spans, replays[0][1], replays[MIN_PASSES - 1][2])
    total = spans.aggregate(all_spans, replays[0][1], replays[-1][2])
    setup = spans.aggregate(all_spans, 0, setup_hi)
    unlisted = set(total) - set(PASS_SPANS) - {"pass"}

    def ratio(num, den):
        return num / den if den else 0.0

    peaks = first["density.peak"]["calls"]
    search = sum(first["mixtures.quantile"]["by_parent"][s] for s in spans.SEARCH_SPANS)
    untraced = sum(r[0] for r in replays)
    traced = total["pass"]["total_s"]
    m = {
        "mixtures.quantile.calls": first["mixtures.quantile"]["calls"],
        "mixtures.quantile.u_values": first["mixtures.quantile"]["units"],
        "mixtures.quantile.ns_per_u": 1e9 * ratio(total["mixtures.quantile"]["self_s"],
                                                   total["mixtures.quantile"]["units"]),
        "distribution.integrand.point_dims": first["distribution.integrand"]["units"],
        "distribution.integrand.ns_per_point_dim": 1e9 * ratio(
            total["distribution.integrand"]["self_s"], total["distribution.integrand"]["units"]),
        "rqmc.batches": first["rqmc.integrand"]["calls"],
        "rqmc.integrand_points": first["rqmc.integrand"]["units"],
        "density.peak.calls": peaks,
        "density.adaptive_frac": ratio(peaks, first["density.log_density_batch"]["units"]),
        "density.search_calls_per_point": ratio(search, peaks),
        "density.mid_rqmc.batches": first["density.mid_rqmc.integrand"]["calls"],
        "sampling.rnvmix.draws_per_s": ratio(total["sampling.rnvmix"]["units"],
                                             total["sampling.rnvmix"]["total_s"]),
    }
    for name in PASS_SPANS:
        m[f"{name}.self_s"] = total[name]["self_s"] / n
    m["linalg.cholesky.self_s"] = setup["linalg.cholesky"]["self_s"]
    m["harness.self_s"] = total["pass"]["self_s"] / n
    m["tracing.wall_s"] = traced / n
    m["tracing.untraced_wall_s"] = untraced / n
    m["tracing.overhead_frac"] = (traced - untraced) / untraced

    parts = sum(m[f"{name}.self_s"] for name in PASS_SPANS) + m["harness.self_s"]
    if unlisted or not math.isclose(parts, m["tracing.wall_s"], rel_tol=1e-9):
        raise RuntimeError(f"self times do not add up to the traced pass: {unlisted}")
    return m
