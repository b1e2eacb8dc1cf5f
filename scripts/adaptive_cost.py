"""Cost and calibration of the log-density path in z.

Three parts, the first two at tol 1e-3 under the default ``RqmcConfig``:

* Cost: ``log_integral_batch`` on N rows (IG(4), D2 evenly spaced in
  [0.5, 2], ``shift_k`` 5, prefactor 0, seed 1) for N = 500 and 2000.
  Prints the wall time of one untraced call, the tracemalloc peak of
  another, the number of quantile calls and u-values it evaluates, in
  all and per phase, and the trapezoid rule's nodes and the RQMC's
  points per row.
* Calibration: IG(4) log-densities in d = 10 of points whose D2 / d
  follows F(10, 1), as under the nu = 1 mixture (multivariate Cauchy),
  stratified below D2 = 1e8 as in the density-tail benchmark workload,
  on the identity scale, one call of 300 points per seed.  Prints the
  rows that report converged while missing tol against
  ``closed_log_density``, the unconverged rows, the quantiles of error
  over error estimate of the converged rows, the rule's nodes and the
  RQMC's points per row and the quantile work per phase, summed over the
  calls.
* Jump sweep: log-densities of the mixture 0.3 N_d(0, I) + 0.7 N_d(0, 4 I),
  given as a black box whose W jumps from 1 to 4 at u = 0.3, so that the
  RQMC integrates every row.  One call per d in {3, 10}, tol in {1e-3,
  1e-5}, absolute and relative, and seed in {1, 3, 17}, each on 12 rows
  with D2 from 0 to 1e10.  Prints the rows, the converged rows, those
  that miss tol against the exact log-density, the largest |error| / tol
  of a converged row and the points per randomization summed over the
  rows.

The phases are the table of the quantile (``_QuantileTable``: its nodes
and midpoints, evaluated exactly), the search (``_bracket_z``: the
maximum of g and the bracket's ends, and ``_table_budget``'s reads of w
at those ends), the trapezoid rule (``_nested_trapezoid``), which
integrates the rows of a call whose search reads the table, the RQMC
(``_run``, the one loop, which keeps plain running means, under a
running scale for rows of logs, and returns each row's estimate, error
and batch count), which integrates the others, and
anything else (the check for an atom of W at 0 when a row has D2 = 0);
the search's u-values are also given per row.  The table's line also
gives the time spent building tables, their node counts and their
largest bound in log w; the search, the rule and the RQMC make no
quantile call where they read a table.  The search's line also gives its
steps and row evaluations (rows summed over those steps) per call of
``_bracket_z``: the Newton steps of its search on a table (``_newton``)
or the bisection steps of its search on the quantile (``_bisect``), not
counting the table search's one scan of g on the table's nodes or the
evaluation of g at its maximum.  The rule's line gives its values (the
first and one per halving of its step), row blocks and nodes (row
evaluations) per call and its rows' nodes, the RQMC's line its rows'
points per randomization.

Run from the root of a checkout (about 10 s)::

    PYTHONPATH=src python3 scripts/adaptive_cost.py [n_seeds]
"""

import itertools
import math
import sys
import time
import tracemalloc

import numpy as np
from scipy.special import fdtr, fdtri

import nvmix.density as density
import nvmix.mixtures as mixtures
from nvmix import (NvmModel, RqmcConfig, blackbox, closed_log_density, inverse_gamma,
                   log_density_batch)
from nvmix.density import log_integral_batch
from nvmix.mixtures import quantile

TOL = 1e-3


PHASES = ("table", "search", "rule", "rqmc", "other")


def _new_counts():
    counts = {p: [0, 0] for p in PHASES}
    counts.update(table_s=0.0, bound=0.0, nodes=set(), searches=0, steps=0, row_evals=0,
                  rules=0, rule_values=0, rule_blocks=0, rule_nodes=[], rqmc_points=[])
    return counts


def _phase_counts(call, counts=None):
    """``call()``'s result and the quantile calls and u-values it evaluates
    in each phase of ``log_integral_batch``, added to ``counts``: a
    quantile call belongs to the table while a ``_QuantileTable`` is
    built, to the search while ``_bracket_z`` or ``_table_budget`` runs,
    to the rule while ``_nested_trapezoid`` runs, to the RQMC while
    ``_run`` runs and to ``other`` otherwise.
    ``counts["table_s"]`` holds the time spent building tables,
    ``counts["bound"]`` the largest of their bounds and
    ``counts["nodes"]`` their node counts; ``counts["searches"]``,
    ``counts["steps"]`` and ``counts["row_evals"]`` the calls of
    ``_bracket_z``, their Newton and bisection steps and the rows those
    steps evaluate; ``counts["rules"]``, ``counts["rule_values"]`` and
    ``counts["rule_blocks"]`` the rule's calls, values and row blocks,
    ``counts["rule_nodes"]`` its rows' nodes and ``counts["rqmc_points"]``
    the RQMC rows' points."""
    counts = _new_counts() if counts is None else counts
    phase = ["other"]
    table = mixtures._QuantileTable

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

    def stepped(name):
        def solve(f, *args):
            def step(z, rows):
                counts["steps"] += 1
                counts["row_evals"] += len(rows)
                return f(z, rows)
            return saved[name](step, *args)
        return solve

    def search(*args):
        counts["searches"] += 1
        return saved["_bracket_z"](*args)

    def rule(log_g, *args):
        # Each value of the rule evaluates nodes of a new count per row.
        sizes = set()

        def blocks(v, rows):
            sizes.add(len(v))
            counts["rule_blocks"] += 1
            return log_g(v, rows)

        counts["rules"] += 1
        out = saved["_nested_trapezoid"](blocks, *args)
        counts["rule_values"] += len(sizes)
        counts["rule_nodes"] += out[2].tolist()
        return out

    def rqmc(g, dimension, cfg, *args, **kwargs):
        estimate, error, batches = saved["_run"](g, dimension, cfg, *args, **kwargs)
        counts["rqmc_points"] += (batches * cfg.n0).tolist()
        return estimate, error, batches

    def build(self, *args):
        t0 = time.perf_counter()
        in_phase("table", saved_init)(self, *args)
        counts["table_s"] += time.perf_counter() - t0
        counts["bound"] = max(counts["bound"], self.bound)
        counts["nodes"].add(self.intervals + 1)

    saved = {name: getattr(density, name)
             for name in ("_bracket_z", "_table_budget", "_bisect", "_newton",
                          "_nested_trapezoid", "_run")}
    saved_init = table.__init__
    # The density path calls the quantile through mixtures._quantile_z.
    mixtures.quantile = counted
    density._bracket_z = in_phase("search", search)
    density._table_budget = in_phase("search", saved["_table_budget"])
    density._bisect = stepped("_bisect")
    density._newton = stepped("_newton")
    density._nested_trapezoid = in_phase("rule", rule)
    density._run = in_phase("rqmc", rqmc)
    table.__init__ = build
    try:
        result = call()
    finally:
        for name, fn in saved.items():
            setattr(density, name, fn)
        mixtures.quantile = quantile
        table.__init__ = saved_init
    return result, counts


def _print_phases(counts, rows: int) -> None:
    for p in PHASES:
        calls, u_values = counts[p]
        per_row = f" ({u_values / max(rows, 1):.1f} per row)"
        print(f"  {p:6s}: quantile calls {calls:4d}, u-values {u_values:9d}"
              + (per_row if p == "search" else "")
              + (_table_summary(counts) if p == "table" else ""))
    searches = max(counts["searches"], 1)
    print(f"  search: steps {counts['steps'] / searches:.1f} per call, "
          f"row evaluations {counts['row_evals'] / searches:.1f} per call "
          f"({counts['searches']} calls)")
    rules = max(counts["rules"], 1)
    print(f"  rule  : values {counts['rule_values'] / rules:.1f} per call, "
          f"row blocks {counts['rule_blocks'] / rules:.1f} per call, "
          f"row evaluations {sum(counts['rule_nodes']) / rules:.1f} per call "
          f"({counts['rules']} calls); nodes per row: {_histogram(counts['rule_nodes'])}")
    print(f"  rqmc  : points per row: {_histogram(counts['rqmc_points'])}")


def _table_summary(counts) -> str:
    """Build time, node counts and largest bound of the tables."""
    nodes = "/".join(str(n) for n in sorted(counts["nodes"]))
    return f", build {1e3 * counts['table_s']:.1f} ms, {nodes} nodes, bound {counts['bound']:.2g}"


def _histogram(counts) -> str:
    """Each distinct count and its number of rows, or "none"."""
    values, rows = np.unique(np.asarray(counts, dtype=int), return_counts=True)
    return ", ".join(f"{v}: {n}" for v, n in zip(values, rows)) or "none"


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
    _, counts = _phase_counts(lambda: log_integral_batch(*args, seed=1))
    print(f"N = {n:5d}: {wall:.3f} s, tracemalloc peak {peak / 2 ** 20:.1f} MiB, "
          f"quantile calls {sum(counts[p][0] for p in PHASES)}, "
          f"u-values {sum(counts[p][1] for p in PHASES)}, "
          f"converged {sum(r.converged for r in res)}/{n}")
    _print_phases(counts, n)


def calibration(n_seeds: int, n_points: int = 300, d: int = 10) -> None:
    cfg = RqmcConfig(tol=TOL)
    model = NvmModel.build(None, np.eye(d), inverse_gamma(), [4.0])
    u_max = fdtr(d, 1.0, 1e8 / d)
    errors, estimates, unconverged = [], [], 0
    counts = _new_counts()
    for seed in range(1, n_seeds + 1):
        rng = np.random.default_rng(seed)
        strata = (np.arange(n_points) + rng.uniform(size=n_points)) / n_points
        D2 = d * fdtri(d, 1.0, u_max * strata)
        X = np.zeros((n_points, d))
        X[:, 0] = np.sqrt(D2)
        exact = closed_log_density(model, X)
        res, _ = _phase_counts(lambda: log_density_batch(X, model, cfg, seed=seed), counts)
        for r, e in zip(res, exact):
            if not r.converged:
                unconverged += 1
                continue
            errors.append(abs(r.estimate - e))
            estimates.append(r.error_estimate)
    errors = np.array(errors)
    ratio = errors / np.maximum(estimates, np.finfo(float).tiny)
    q = np.quantile(ratio, [0.5, 0.9, 0.99, 1.0])
    print(f"calibration, {n_seeds} x {n_points} points: unconverged {unconverged}, "
          f"converged but missing tol {np.sum(errors > TOL)}")
    print("  |error| / error estimate: median {:.3g}, 90% {:.3g}, 99% {:.3g}, max {:.3g}"
          .format(*q))
    _print_phases(counts, n_seeds * n_points)


# W = 1 with probability 0.3 and 4 otherwise: the quantile jumps, so no
# table is read and the RQMC integrates every row.
JUMP = blackbox(lambda u, nu: np.where(u < 0.3, 1.0, 4.0), 0)
JUMP_D2 = np.array([0.0, 1e-8, 0.5, 3.0, 10.0, 30.0, 80.0, 640.0, 1.6e4, 2e5, 1e8, 1e10])


def jump_sweep(seeds=(1, 3, 17), tols=(1e-3, 1e-5)) -> None:
    counts = {"rows": 0, "converged": 0, "misses": 0, "worst": 0.0, "points": 0}
    for d in (3, 10):
        # log(0.3 N_d(x; 0, I) + 0.7 N_d(x; 0, 4 I)), formed in logs: its
        # exp underflows from D2 = 1.6e4 on.
        exact = np.logaddexp(
            math.log(0.3) - 0.5 * d * math.log(2.0 * math.pi) - JUMP_D2 / 2.0,
            math.log(0.7) - 0.5 * d * math.log(8.0 * math.pi) - JUMP_D2 / 8.0)
        for tol, tol_type, seed in itertools.product(tols, ("absolute", "relative"), seeds):
            cfg = RqmcConfig(tol=tol, tol_type=tol_type)
            res = log_integral_batch(JUMP_D2, d / 2.0, -0.5 * d * math.log(2.0 * math.pi),
                                     JUMP, [], cfg, seed=seed)
            bound = tol * (np.abs(exact) if tol_type == "relative" else 1.0)
            ratio = np.array([abs(r.estimate - e) for r, e in zip(res, exact)]) / bound
            converged = np.array([r.converged for r in res])
            counts["rows"] += len(res)
            counts["converged"] += int(converged.sum())
            counts["misses"] += int(np.sum(converged & (ratio > 1.0)))
            counts["worst"] = max(counts["worst"], ratio[converged].max(initial=0.0))
            counts["points"] += sum(r.n_per_randomization for r in res)
    print("jump sweep, {rows} rows: converged {converged}, converged but missing tol "
          "{misses}, largest |error| / tol of a converged row {worst:.3g}, "
          "points per randomization {points}".format(**counts))


def main(n_seeds: int = 10, sizes=(500, 2000), n_points: int = 300, jump_seeds=(1, 3, 17),
         jump_tols=(1e-3, 1e-5)) -> None:
    log_integral_batch([0.5, 1e4], 5.0, 0.0, inverse_gamma(), [4.0], seed=0)  # lazy imports
    for n in sizes:
        cost(n)
    calibration(n_seeds, n_points)
    jump_sweep(jump_seeds, jump_tols)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 10)
