"""Cost and calibration of the adaptive log-density path.

Two parts, both at tol 1e-3 under the default ``RqmcConfig``:

* Cost: ``log_integral_batch`` on N rows that all take the adaptive
  path (IG(4), D2 evenly spaced in [0.5, 2], ``shift_k`` 5, prefactor 0,
  seed 1) for N = 500 and 2000.  Prints the wall time of one untraced
  call, the tracemalloc peak of another and the number of quantile calls
  and u-values it evaluates, in all and per phase.
* Calibration: IG(4) log-densities in d = 10 of points whose D2 / d
  follows F(10, 1), as under the nu = 1 mixture (multivariate Cauchy),
  stratified below D2 = 1e8 as in the density-tail benchmark workload,
  on the identity scale, one call of 300 points per seed.  Prints the
  share of adaptive rows, the rows that report converged while missing
  tol against ``closed_log_density``, the quantiles of error over
  error estimate of the adaptive rows and the quantile work per phase,
  summed over the calls.

The phases are the crude pass, the search (``_bracket_z``: the peak of
h, the maximum of g and the bracket's ends) and the adaptive RQMC
(``_run``); the search's u-values are also given per adaptive row.

Run from the root of a checkout (about 10 s)::

    PYTHONPATH=src python3 scripts/adaptive_cost.py [n_seeds]
"""

import sys
import time
import tracemalloc

import numpy as np
from scipy.special import fdtr, fdtri

import nvmix.density as density
from nvmix.density import closed_log_density, log_density_batch, log_integral_batch
from nvmix.mixtures import inverse_gamma, quantile
from nvmix.model import NvmModel
from nvmix.rqmc import RqmcConfig

TOL = 1e-3


PHASES = ("crude", "search", "rqmc")


def _phase_counts(call):
    """``call()``'s result and the quantile calls and u-values it
    evaluates in each phase of ``log_integral_batch``: a quantile call
    belongs to the search while ``_bracket_z`` runs, to the RQMC while
    ``_run`` runs and to the crude pass otherwise."""
    counts = {p: [0, 0] for p in PHASES}
    phase = ["crude"]

    def counted(spec, u, *args, **kwargs):
        counts[phase[0]][0] += 1
        counts[phase[0]][1] += np.size(u)
        return quantile(spec, u, *args, **kwargs)

    def in_phase(name, fn):
        def wrapped(*args, **kwargs):
            outer, phase[0] = phase[0], name
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = outer
        return wrapped

    saved = {name: getattr(density, name) for name in ("quantile", "_bracket_z", "_run")}
    density.quantile = counted
    density._bracket_z = in_phase("search", saved["_bracket_z"])
    density._run = in_phase("rqmc", saved["_run"])
    try:
        result = call()
    finally:
        for name, fn in saved.items():
            setattr(density, name, fn)
    return result, counts


def _print_phases(counts, adaptive_rows: int) -> None:
    for p in PHASES:
        calls, u_values = counts[p]
        per_row = f" ({u_values / max(adaptive_rows, 1):.1f} per adaptive row)"
        print(f"  {p:6s}: quantile calls {calls:4d}, u-values {u_values:9d}"
              + (per_row if p == "search" else ""))


def cost(n: int) -> None:
    args = (np.linspace(0.5, 2.0, n), 5.0, 0.0, inverse_gamma(), [4.0], RqmcConfig(tol=TOL))
    t0 = time.perf_counter()
    res = log_integral_batch(*args, seed=1)
    wall = time.perf_counter() - t0
    tracemalloc.start()
    try:
        log_integral_batch(*args, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _, counts = _phase_counts(lambda: log_integral_batch(*args, seed=1))
    points = sorted({r.n_per_randomization for r in res})
    print(f"N = {n:5d}: {wall:.3f} s, tracemalloc peak {peak / 2 ** 20:.1f} MiB, "
          f"quantile calls {sum(c[0] for c in counts.values())}, "
          f"u-values {sum(c[1] for c in counts.values())}, "
          f"converged {sum(r.converged for r in res)}/{n}, points per randomization {points}")
    _print_phases(counts, n)


def calibration(n_seeds: int, n_points: int = 300, d: int = 10) -> None:
    cfg = RqmcConfig(tol=TOL)
    model = NvmModel.build(None, np.eye(d), inverse_gamma(), [4.0])
    u_max = fdtr(d, 1.0, 1e8 / d)
    errors, estimates, unconverged = [], [], 0
    counts = {p: [0, 0] for p in PHASES}
    for seed in range(1, n_seeds + 1):
        rng = np.random.default_rng(seed)
        strata = (np.arange(n_points) + rng.uniform(size=n_points)) / n_points
        D2 = d * fdtri(d, 1.0, u_max * strata)
        X = np.zeros((n_points, d))
        X[:, 0] = np.sqrt(D2)
        exact = closed_log_density(model, X)
        res, seed_counts = _phase_counts(lambda: log_density_batch(X, model, cfg, seed=seed))
        for p in PHASES:
            counts[p] = [c + s for c, s in zip(counts[p], seed_counts[p])]
        for r, e in zip(res, exact):
            if r.n_per_randomization <= 4 * cfg.n0:
                continue
            if not r.converged:
                unconverged += 1
                continue
            errors.append(abs(r.estimate - e))
            estimates.append(r.error_estimate)
    errors = np.array(errors)
    ratio = errors / np.maximum(estimates, np.finfo(float).tiny)
    q = np.quantile(ratio, [0.5, 0.9, 0.99, 1.0])
    print(f"calibration, {n_seeds} x {n_points} points: adaptive rows {len(errors) + unconverged} "
          f"({(len(errors) + unconverged) / (n_seeds * n_points):.1%}), unconverged {unconverged}, "
          f"converged but missing tol {np.sum(errors > TOL)}")
    print("  |error| / error estimate: median {:.3g}, 90% {:.3g}, 99% {:.3g}, max {:.3g}"
          .format(*q))
    _print_phases(counts, len(errors) + unconverged)


def main(n_seeds: int = 10) -> None:
    log_integral_batch([0.5, 1e4], 5.0, 0.0, inverse_gamma(), [4.0], seed=0)  # lazy imports
    for n in (500, 2000):
        cost(n)
    calibration(n_seeds)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 10)
