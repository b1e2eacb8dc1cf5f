"""nvmix benchmark.

Usage, from the root of the repository:

    python3 bench/run.py --workload prob --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                       # every workload, a table
    python3 bench/run.py --trace 1             # every workload, traced

Workloads (see ``workloads.py``): ``prob`` (box probabilities),
``density-tail`` (IG(4) log-densities of heavy-tailed points) and
``sim-score`` (Pareto sampling and scoring).  Inputs are generated from
``--seed``; seed 1 is the default and seed 2 is kept for checking a
claim on inputs not used while the change was written.

With ``--workload`` the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it records the run's metadata (CPU count,
pinned thread counts, versions) and a summary: every pass time, their
median and the highest percentile with ten passes beyond it,
``failed_frac``, ``max_err_over_tol`` and, for ``density-tail``,
``far_tail_probe``: the outcome of one untimed point beyond the workload's
radii, where nvmix raises today.

End-to-end metrics: ``setup_s`` (median time to import nvmix and build
the models), ``wall_s`` (mean time of a pass, i.e. to all of its
solutions at the stated tolerance), ``solved_frac`` (share of calls and
results that neither raised, nor came out non-finite or out of range,
nor report ``converged=False``; it is ``1 - failed_frac``),
``within_tol_frac`` (share of results with an exact reference that meet
it within tol) and ``peak_rss_mb`` (the process peak so far, so in the
all-workload table it accumulates).  ``failed`` in the JSON counts calls
that raised and results that are non-finite or out of range.

Only the ``nvmix`` found under ``src/`` next to this directory is used;
without it the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable CPU count; call before numpy
    is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        n = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(n, nproc))
    return nproc


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload and print its JSON result")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = pin_threads()
    if not (SRC / "nvmix" / "__init__.py").is_file():
        print(f"error: no nvmix package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy
    import scipy

    import harness
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    meta = {
        "nproc": nproc,
        "threads": {var: int(os.environ[var]) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        result = harness.run(WORKLOADS[name](args.seed), args.seconds, bool(args.trace))
        results[name] = result
        print(json.dumps({"workload": name, **meta, **result["summary"]}))
        for problem in result["wrong"]:
            print(f"WRONG {name}: {problem}", file=sys.stderr)

    key, metrics = ("per_layer", harness.PER_LAYER) if args.trace else \
        ("end_to_end", harness.END_TO_END)
    if args.workload is None:
        print(f"{'workload':<14} {'metric':<44} {'value':>14}  unit")
        for name, result in results.items():
            rows = [(m, result[key][m], unit) for m, unit, _ in metrics]
            if not args.trace:
                s = result["summary"]
                rows += [("wall_median_s", s["wall_median_s"], "s"),
                         (f"wall_p{s['wall_tail_level']:.0f}_s", s["wall_tail_s"], "s"),
                         ("wall_samples", s["wall_samples"], "count"),
                         ("failed_frac", s["failed_frac"], "fraction"),
                         ("max_err_over_tol", s["max_err_over_tol"], "1")]
                if "far_tail_probe" in s:
                    rows.append(("far_tail_probe", s["far_tail_probe"], ""))
            rows.append(("correct", result["correct"], ""))
            for metric, value, unit in rows:
                print(f"{name:<14} {metric:<44} {_format(value):>14}  {unit}")
        return 0 if all(r["correct"] for r in results.values()) else 1

    result = results[args.workload]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": result[key][m], "unit": unit} for m, unit, _ in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
