"""Cost and calibration of the log-density path in z.

Four parts, the first two at tol 1e-3 under the default ``RqmcConfig``:

* Cost: ``log_integral_batch`` on N rows (IG(4), D2 evenly spaced in
  [0.5, 2], ``shift_k`` 5, prefactor 0) for N = 500 and 2000, each call
  on a new reader of W, which builds its table.  Prints
  the wall time of one untraced call, the tracemalloc peak of another,
  the number of quantile calls and u-values it evaluates, in all and per
  phase, and the trapezoid rule's nodes per row.
* Calibration: IG(4) log-densities in d = 10 of points whose D2 / d
  follows F(10, 1), as under the nu = 1 mixture (multivariate Cauchy),
  stratified below D2 = 1e8 as in the density-tail benchmark workload,
  on the identity scale, one call of 300 points per seed, all on one
  model, whose reader of W builds its table on the first call.  Prints the
  rows that report converged while missing tol against
  ``closed_log_density``, the unconverged rows, the quantiles of error
  over error estimate of the converged rows, the rule's nodes per row and
  the quantile work per phase, summed over the calls.
* Table-less sweep: log-densities under four W whose quantiles break, as
  black boxes, so that the rule integrates each row on the pieces between
  the breaks: a jump (W = 1 or 4, probabilities 0.3 and 0.7), a
  staircase (atoms 0.5, 1, 3 and 10, probabilities 0.2, 0.3, 0.4 and
  0.1), an atom at 0 of mass 0.1 below W uniform on [1, 3], and a kink
  (W uniform on [1, 2] or on [2, 6], probability 1/2 each).  One call per
  d in {3, 10}, tol in {1e-3, 1e-8, 1e-12}, absolute and relative, each
  on 12 rows with D2 from 0 to 1e10; a D2 = 0 row under the atom at 0,
  where the density is infinite, raises, and counts as unconverged.  The
  calls on one W share its reader.
* Heavy-tailed black boxes: IG(4) and Pareto(2.5) quantiles wrapped in
  ``blackbox``, which see u only, at d = 10 on 11 rows with D2 from 0 to
  1e10, one call per tol in {1e-3, 1e-6, 1e-8} (absolute).

For each W and tol the two sweeps print the rows, the converged rows,
those that miss their bound against the exact log-density, the largest
|error| / bound of a converged row and the nodes summed over the rows.
The bound is tol, times |log f| under a relative tol.
The exact log-densities are mixtures of normals, and for the uniform
parts mpmath's generalized incomplete gamma function; the black boxes'
come from ``closed_log_density``.

The phases are the table of the quantile (``_WReader.pieces``: the nodes and
midpoints of each piece's table, evaluated exactly, and the bisection
that locates each break), the search (``_bracket_z``: the maximum of g
and the bracket's ends on each piece, and ``_table_budget``'s reads of w
at those ends), the trapezoid rule (``_nested_trapezoid``), and anything
else (the check for an atom of W at 0 when a row has D2 = 0); the
search's u-values are also given per row.  The table's line also gives
the time spent building tables, their node counts and their largest
bound in log w; the search and the rule make no quantile call where they
read a table.  The search's line also gives its steps and row
evaluations (rows summed over those steps) per call of ``_bracket_z``:
the Newton steps of its search on the tables (``_newton``), not counting
the one scan of g on each table's nodes or the evaluation of g at its
maximum.  The rule's line gives its values (the first and one per
halving of its step), row blocks and nodes (row evaluations) per call
and the nodes of its rows, one per row and piece.

Run from the root of a checkout (about 10 s)::

    PYTHONPATH=src python3 scripts/adaptive_cost.py [n_seeds]
"""

import itertools
import math
import sys
import time
import tracemalloc

import mpmath
import numpy as np
from scipy.special import fdtr, fdtri

import nvmix.density as density
import nvmix.mixtures as mixtures
from nvmix import (NvmModel, RqmcConfig, blackbox, closed_log_density, inverse_gamma, pareto,
                   log_density_batch)
from nvmix.density import log_integral_batch
from nvmix.mixtures import _WReader, quantile

TOL = 1e-3


PHASES = ("table", "search", "rule", "other")


def _new_counts():
    counts = {p: [0, 0] for p in PHASES}
    counts.update(table_s=0.0, bound=0.0, nodes=set(), searches=0, steps=0, row_evals=0,
                  rules=0, rule_values=0, rule_blocks=0, rule_nodes=[])
    return counts


def _phase_counts(call, counts=None):
    """``call()``'s result and the quantile calls and u-values it evaluates
    in each phase of ``log_integral_batch``, added to ``counts``: a
    quantile call belongs to the table while a reader of W builds its
    pieces (``_WReader.pieces``) or a ``_QuantileTable`` is built, to the
    search while ``_bracket_z`` or
    ``_table_budget`` runs, to the rule while ``_nested_trapezoid`` runs
    and to ``other`` otherwise.  ``counts["table_s"]`` holds the time spent
    building tables, ``counts["bound"]`` the largest of their bounds and
    ``counts["nodes"]`` their node counts; ``counts["searches"]``,
    ``counts["steps"]`` and ``counts["row_evals"]`` the calls of
    ``_bracket_z``, their Newton steps and the rows those steps evaluate;
    ``counts["rules"]``, ``counts["rule_values"]`` and
    ``counts["rule_blocks"]`` the rule's calls, values and row blocks, and
    ``counts["rule_nodes"]`` the nodes of its rows, one per row and piece."""
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

    def newton(f, *args):
        def step(z, rows):
            counts["steps"] += 1
            counts["row_evals"] += len(rows)
            return f(z, rows)
        return saved["_newton"](step, *args)

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

    def build(self, *args, **kwargs):
        t0 = time.perf_counter()
        in_phase("table", saved_init)(self, *args, **kwargs)
        counts["table_s"] += time.perf_counter() - t0
        counts["bound"] = max(counts["bound"], self.bound)
        counts["nodes"].add(self.intervals + 1)

    saved = {name: getattr(density, name)
             for name in ("_bracket_z", "_table_budget", "_newton", "_nested_trapezoid")}
    saved_init = table.__init__
    # A cached_property: its getter calls .func on the first read.
    pieces = mixtures._WReader.pieces
    saved_pieces = pieces.func
    # The density path calls the quantile through mixtures._quantile_z.
    mixtures.quantile = counted
    pieces.func = in_phase("table", saved_pieces)
    density._bracket_z = in_phase("search", search)
    density._table_budget = in_phase("search", saved["_table_budget"])
    density._newton = newton
    density._nested_trapezoid = in_phase("rule", rule)
    table.__init__ = build
    try:
        result = call()
    finally:
        for name, fn in saved.items():
            setattr(density, name, fn)
        mixtures.quantile = quantile
        pieces.func = saved_pieces
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

    def call():
        # A new reader of W, so that each call builds its table.
        return log_integral_batch(np.linspace(0.5, 2.0, n), 5.0, 0.0,
                                  _WReader(inverse_gamma(), [4.0]), cfg)

    t0 = time.perf_counter()
    res = call()
    wall = time.perf_counter() - t0
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _, counts = _phase_counts(call)
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
        res, _ = _phase_counts(lambda: log_density_batch(X, model, cfg), counts)
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


# Four W whose quantiles break, as black boxes, each with its atoms
# (probability, w) and uniform parts (probability, a, b).
TABLE_LESS = {
    "jump": (lambda u, nu: np.where(u < 0.3, 1.0, 4.0), [(0.3, 1.0), (0.7, 4.0)], []),
    "staircase": (lambda u, nu: np.select([u < 0.2, u < 0.5, u < 0.9], [0.5, 1.0, 3.0], 10.0),
                  [(0.2, 0.5), (0.3, 1.0), (0.4, 3.0), (0.1, 10.0)], []),
    "atom at 0": (lambda u, nu: np.where(u < 0.1, 0.0, 1.0 + 2.0 * (u - 0.1) / 0.9), [],
                  [(0.9, 1.0, 3.0)]),
    "kink": (lambda u, nu: np.where(u < 0.5, 1.0 + 2.0 * u, 2.0 + 8.0 * (u - 0.5)), [],
             [(0.5, 1.0, 2.0), (0.5, 2.0, 6.0)]),
}
TABLE_LESS_D2 = np.array([0.0, 1e-8, 0.5, 3.0, 10.0, 30.0, 80.0, 640.0, 1.6e4, 2e5, 1e8, 1e10])
BLACK_BOX_D2 = np.array([0.0, 1e-8, 0.5, 3.0, 10.0, 80.0, 640.0, 1.6e4, 1e6, 1e8, 1e10])


def _exact_log_density(atoms, uniforms, d, D2) -> float:
    """log f at distance D2 in d dimensions of the mixture of normals with
    these atoms and uniform parts of W, in mpmath: a part uniform on
    [a, b] contributes (2 pi)^(-d/2) / (b - a) times the integral of
    w^(-d/2) exp(-D2/(2w)) over [a, b], which is (D2/2)^(1 - d/2) times
    the incomplete gamma function of d/2 - 1 between D2/(2b) and D2/(2a)."""
    with mpmath.workdps(40):
        k, D2 = mpmath.mpf(d) / 2, mpmath.mpf(D2)
        f = sum(p * (2 * mpmath.pi * w) ** -k * mpmath.exp(-D2 / (2 * w)) for p, w in atoms)
        for p, a, b in uniforms:
            a, b = mpmath.mpf(a), mpmath.mpf(b)
            if D2 == 0:
                part = (b ** (1 - k) - a ** (1 - k)) / (1 - k)
            else:
                part = (D2 / 2) ** (1 - k) * mpmath.gammainc(k - 1, D2 / (2 * b), D2 / (2 * a))
            f += p / (b - a) * (2 * mpmath.pi) ** -k * part
        return float(mpmath.log(f))


def _tally(counts, res, exact, tol, tol_type) -> None:
    """Adds the rows ``res`` (None where the call raised) against ``exact``
    to ``counts``."""
    for r, e in zip(res, exact):
        counts["rows"] += 1
        if r is None:
            continue
        counts["nodes"] += r.n_per_randomization
        if r.converged:
            bound = tol * (abs(e) if tol_type == "relative" else 1.0)
            counts["converged"] += 1
            counts["misses"] += abs(r.estimate - e) > bound
            counts["worst"] = max(counts["worst"], abs(r.estimate - e) / bound)


def _print_tally(name, tol, counts) -> None:
    print(f"  {name:11s} tol {tol:g}: rows {counts['rows']}, converged {counts['converged']}, "
          f"converged but missing tol {counts['misses']}, largest |error| / bound of a "
          f"converged row {counts['worst']:.3g}, nodes {counts['nodes']}")


def table_less_sweep(tols=(1e-3, 1e-8, 1e-12)) -> None:
    print(f"table-less sweep, {len(TABLE_LESS_D2)} D2 x d in (3, 10) x absolute and relative:")
    for name, (q, atoms, uniforms) in TABLE_LESS.items():
        w = _WReader(blackbox(q, 0), [])
        for tol in tols:
            counts = {"rows": 0, "converged": 0, "misses": 0, "worst": 0.0, "nodes": 0}
            for d, tol_type in itertools.product((3, 10), ("absolute", "relative")):
                exact = [_exact_log_density(atoms, uniforms, d, x) for x in TABLE_LESS_D2]
                args = (d / 2.0, -0.5 * d * math.log(2.0 * math.pi), w,
                        RqmcConfig(tol=tol, tol_type=tol_type))
                try:
                    res = log_integral_batch(TABLE_LESS_D2, *args)
                except ValueError:  # the atom at 0 at D2 = 0
                    res = [None] + log_integral_batch(TABLE_LESS_D2[1:], *args)
                _tally(counts, res, exact, tol, tol_type)
            _print_tally(name, tol, counts)


def black_box_sweep(tols=(1e-3, 1e-6, 1e-8), d: int = 10) -> None:
    print(f"heavy-tailed black boxes, {len(BLACK_BOX_D2)} D2, d = {d}:")
    X = np.zeros((len(BLACK_BOX_D2), d))
    X[:, 0] = np.sqrt(BLACK_BOX_D2)
    for name, family, nu in (("IG(4)", inverse_gamma(), [4.0]), ("Pareto(2.5)", pareto(), [2.5])):
        w = _WReader(blackbox(lambda u, _, family=family, nu=nu: quantile(family, u, nu), 0), [])
        exact = closed_log_density(NvmModel.build(None, np.eye(d), family, nu), X)
        for tol in tols:
            counts = {"rows": 0, "converged": 0, "misses": 0, "worst": 0.0, "nodes": 0}
            res = log_integral_batch(BLACK_BOX_D2, d / 2.0, -0.5 * d * math.log(2.0 * math.pi),
                                     w, RqmcConfig(tol=tol))
            _tally(counts, res, exact, tol, "absolute")
            _print_tally(name, tol, counts)


def main(n_seeds: int = 10, sizes=(500, 2000), n_points: int = 300,
         tols=(1e-3, 1e-8, 1e-12), black_box_tols=(1e-3, 1e-6, 1e-8)) -> None:
    log_integral_batch([0.5, 1e4], 5.0, 0.0, _WReader(inverse_gamma(), [4.0]))  # lazy imports
    for n in sizes:
        cost(n)
    calibration(n_seeds, n_points)
    table_less_sweep(tols)
    black_box_sweep(black_box_tols)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 10)
