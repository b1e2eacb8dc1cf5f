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
  share of adaptive rows, the adaptive and the crude rows that report
  converged while missing tol against ``closed_log_density``, the
  quantiles of error over error estimate of the adaptive rows and the
  quantile work per phase, summed over the calls.

The phases are the crude pass, the table of the quantile
(``_QuantileTable``: its nodes and midpoints, evaluated exactly), the
search (``_bracket_z``: the maximum of g and the bracket's ends) and
the adaptive RQMC (``_run``); the search's u-values are also given per
adaptive row.  The table's line also gives the time spent building it,
its node count and its largest bound in log w; the search and the RQMC
make no quantile call where they read it.  The search's line also gives
its bisection steps and row evaluations (rows summed over those steps)
per call of ``_bracket_z``.
Both parts also print the crude pass's values (rows times points per
batch, summed over the batches it reduces) and, for each of its
batches, the rows it settles there and the rows it sends on to the
adaptive path from there.  A row takes the adaptive path when the crude
pass sends it on, whatever the number of batches it ran.

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


PHASES = ("crude", "table", "search", "rqmc")


def _new_counts():
    counts = {p: [0, 0] for p in PHASES}
    counts.update(values=0, table_s=0.0, bound=0.0, searches=0, steps=0, row_evals=0,
                  batches=[[0, 0] for _ in range(density._PILOT_BATCHES)])
    return counts


def _phase_counts(call, counts=None):
    """``call()``'s result, the quantile calls and u-values it evaluates
    in each phase of ``log_integral_batch``, added to ``counts``, and
    which of its rows the crude pass sends on to the adaptive path (one
    call of ``log_integral_batch`` only): a quantile call belongs to the
    table while a ``_QuantileTable`` is built, to the search while
    ``_bracket_z`` runs, to the RQMC while ``_run`` runs and to the crude
    pass otherwise.  ``counts["values"]`` holds the crude pass's values:
    rows times points of each batch it reduces; ``counts["batches"][j]``
    the rows it settles in its batch j + 1 and the rows it sends on from
    there; ``counts["table_s"]`` the time spent building tables and
    ``counts["bound"]`` the largest of their bounds;
    ``counts["searches"]``, ``counts["steps"]`` and ``counts["row_evals"]``
    the calls of ``_bracket_z``, their bisection steps and the rows those
    steps evaluate."""
    counts = _new_counts() if counts is None else counts
    phase = ["crude"]
    table = density._QuantileTable
    # (rows, converged) of each batch the crude pass folds.
    folds = []
    saved_accumulator = density.RqmcAccumulator

    class Crude(saved_accumulator):
        def fold(self, batch_means, rows=None):
            super().fold(batch_means, rows)
            folds.append((rows, self.converged()[rows]))

    def counted(spec, u, *args, **kwargs):
        counts[phase[0]][0] += 1
        counts[phase[0]][1] += np.size(u)
        return quantile(spec, u, *args, **kwargs)

    def crude_values(w, pref, k, m, B):
        counts["values"] += len(m) * len(w)
        return saved["_crude_log_means"](w, pref, k, m, B)

    def in_phase(name, fn):
        def wrapped(*args, **kwargs):
            outer, phase[0] = phase[0], name
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = outer
        return wrapped

    def bisect(goes_up, *args):
        def step(z, rows):
            counts["steps"] += 1
            counts["row_evals"] += len(rows)
            return goes_up(z, rows)
        return saved["_bisect"](step, *args)

    def search(*args):
        counts["searches"] += 1
        return saved["_bracket_z"](*args)

    def build(self, *args):
        t0 = time.perf_counter()
        in_phase("table", saved_init)(self, *args)
        counts["table_s"] += time.perf_counter() - t0
        counts["bound"] = max(counts["bound"], self.bound)

    saved = {name: getattr(density, name)
             for name in ("quantile", "_bracket_z", "_bisect", "_run", "_crude_log_means")}
    saved_init = table.__init__
    density.RqmcAccumulator = Crude
    density.quantile = counted
    density._crude_log_means = crude_values
    density._bracket_z = in_phase("search", search)
    density._bisect = bisect
    density._run = in_phase("rqmc", saved["_run"])
    table.__init__ = build
    try:
        result = call()
    finally:
        for name, fn in saved.items():
            setattr(density, name, fn)
        table.__init__ = saved_init
        density.RqmcAccumulator = saved_accumulator
    # A row is sent on from the batch after which it is neither settled
    # nor folded again.
    adaptive = np.zeros(len(folds[0][0]), dtype=bool)
    for j, (rows, settled) in enumerate(folds):
        later = folds[j + 1][0] if j + 1 < len(folds) else []
        sent = np.setdiff1d(rows[~settled], later)
        adaptive[sent] = True
        counts["batches"][j][0] += int(np.sum(settled))
        counts["batches"][j][1] += len(sent)
    return result, counts, adaptive


def _print_phases(counts, adaptive_rows: int) -> None:
    for p in PHASES:
        calls, u_values = counts[p]
        per_row = f" ({u_values / max(adaptive_rows, 1):.1f} per adaptive row)"
        print(f"  {p:6s}: quantile calls {calls:4d}, u-values {u_values:9d}"
              + (per_row if p == "search" else "")
              + (_table_summary(counts) if p == "table" else ""))
    searches = max(counts["searches"], 1)
    print(f"  search: bisection steps {counts['steps'] / searches:.1f} per call, "
          f"row evaluations {counts['row_evals'] / searches:.1f} per call "
          f"({counts['searches']} calls)")


def _table_summary(counts) -> str:
    """Build time, node count and largest bound of the tables."""
    return (f", build {1e3 * counts['table_s']:.1f} ms, {density._TABLE_INTERVALS + 1} nodes, "
            f"bound {counts['bound']:.2g}")


def _print_crude(counts) -> None:
    """The crude pass's values and, per batch, the rows it settles and
    the rows it sends on to the adaptive path."""
    print(f"  crude pass: values {counts['values']}, rows settled / sent on per batch: "
          + ", ".join(f"{j}: {settled}/{sent}"
                      for j, (settled, sent) in enumerate(counts["batches"], 1)))


def cost(n: int) -> None:
    cfg = RqmcConfig(tol=TOL)
    args = (np.linspace(0.5, 2.0, n), 5.0, 0.0, inverse_gamma(), [4.0], cfg)
    t0 = time.perf_counter()
    res = log_integral_batch(*args, seed=1)
    wall = time.perf_counter() - t0
    tracemalloc.start()
    try:
        log_integral_batch(*args, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _, counts, _ = _phase_counts(lambda: log_integral_batch(*args, seed=1))
    points = sorted({r.n_per_randomization for r in res})
    print(f"N = {n:5d}: {wall:.3f} s, tracemalloc peak {peak / 2 ** 20:.1f} MiB, "
          f"quantile calls {sum(counts[p][0] for p in PHASES)}, "
          f"u-values {sum(counts[p][1] for p in PHASES)}, "
          f"converged {sum(r.converged for r in res)}/{n}, points per randomization {points}")
    _print_phases(counts, n)
    _print_crude(counts)


def calibration(n_seeds: int, n_points: int = 300, d: int = 10) -> None:
    cfg = RqmcConfig(tol=TOL)
    model = NvmModel.build(None, np.eye(d), inverse_gamma(), [4.0])
    u_max = fdtr(d, 1.0, 1e8 / d)
    errors, estimates, unconverged, crude_misses = [], [], 0, 0
    counts = _new_counts()
    for seed in range(1, n_seeds + 1):
        rng = np.random.default_rng(seed)
        strata = (np.arange(n_points) + rng.uniform(size=n_points)) / n_points
        D2 = d * fdtri(d, 1.0, u_max * strata)
        X = np.zeros((n_points, d))
        X[:, 0] = np.sqrt(D2)
        exact = closed_log_density(model, X)
        res, _, adaptive = _phase_counts(lambda: log_density_batch(X, model, cfg, seed=seed),
                                         counts)
        for r, e, a in zip(res, exact, adaptive):
            if not a:
                crude_misses += r.converged and abs(r.estimate - e) > TOL
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
          f"converged but missing tol {np.sum(errors > TOL)}; "
          f"crude rows converged but missing tol {crude_misses}")
    print("  |error| / error estimate: median {:.3g}, 90% {:.3g}, 99% {:.3g}, max {:.3g}"
          .format(*q))
    _print_phases(counts, len(errors) + unconverged)
    _print_crude(counts)


def main(n_seeds: int = 10, sizes=(500, 2000), n_points: int = 300) -> None:
    log_integral_batch([0.5, 1e4], 5.0, 0.0, inverse_gamma(), [4.0], seed=0)  # lazy imports
    for n in sizes:
        cost(n)
    calibration(n_seeds, n_points)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 10)
