"""Log-density estimation for normal variance mixtures.

The log-density is a one-dimensional integral over the mixing variable's
probability scale u.  For large Mahalanobis distances the integrand
collapses onto a narrow peak, which can sit within 1e-17 of u = 0 or
u = 1, where it decays only polynomially in u; at zero distance it is
monotone with its peak at u = 0.  Every input is therefore integrated in
the logit coordinate z = log(u / (1 - u)), where the integrand
g(z) = h(expit(z)) expit(z) expit(-z) decays exponentially toward both
ends whenever h is bounded: a search brackets the region where g exceeds
a threshold below its maximum, and g is integrated over that bracket
(see :func:`log_integral_batch`): where w has a smooth table, by the
nested trapezoid rule, which converges exponentially for g analytic in a
strip (Trefethen & Weideman 2014, SIAM Review 56(3)), and by the paper's
adaptive RQMC where the quantile jumps or vanishes.  :func:`region_bounds`
is the one-input view of the search; :func:`peak` locates the peak of h.

w is read from a table of the call's one mixture (``_QuantileTable``,
kept beside ``quantile`` in :mod:`nvmix.mixtures`, where the box
probabilities read it too), a cubic interpolant L(z) of log w with a
checked bound on its error (numerical inversion after Hörmann & Leydold
2003 and Derflinger, Hörmann & Leydold 2010, applied in z), where that
bound allows.  A lookup costs a few dozen nanoseconds per point, against
several hundred for the inverse-gamma quantile.  On the table the search
takes Newton steps on L and its derivatives, from a scan of g on the
table's nodes: about ten steps per call, against 61 for the bisection
over the whole z range that it takes on the quantile itself.  All inputs
take each step together, yet each input's result depends on that input
alone.  The same machinery integrates any integrand of the form
c * w^(-k) * exp(-m/w), which covers the posterior weights needed for
fitting and the Mahalanobis-distance density.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.special import expit, gammainc, gammaln, log_expit

from .linalg import mahalanobis_sq
# quantile stays bound here for tools that patch it by name; the table in
# mixtures makes the calls.
from .mixtures import _TABLE_INTERVALS, _Z_LO, _MixtureSpec, _QuantileTable, _quantile_z, _z_range
from .mixtures import quantile  # noqa: F401
from .model import NvmModel
# rqmc_log_estimate stays bound here for tools that trace this module's
# estimator by name.
from .rqmc import (_BLOCK_VALUES, RqmcConfig, RqmcResult, _run, _tolerance_met,  # noqa: F401
                   rqmc_log_estimate)

__all__ = ["log_density_batch", "closed_log_density"]

_LOG_2PI = math.log(2.0 * math.pi)
_LN10 = math.log(10.0)
_LN2 = math.log(2.0)
_DIVERGES = "integrand diverges at w = 0 when D2 = 0"
# The bracket ends at most _K_TH decades below g's maximum, _K_TH_RULE on
# the trapezoid rule; the search stops a row once its z-step is below _EPS_BISEC.
_K_TH = 10.0
_K_TH_RULE = 16.0
_EPS_BISEC = 1e-6
# The bisection on the quantile reads g's slope from g this far either side
# of a midpoint: far enough that rounding in log g does not flip its sign
# where log g is flat, near enough that the central difference's own error
# moves the maximum by much less than _EPS_BISEC.
_RISE_H = 1e-4
# Points per randomization between the RQMC's checks; the rule's first intervals.
_ADAPTIVE_STEP = 16
# The search reads the tabulated quantile where its bound in log w is at
# most _SEARCH_LOG_W_ERR.
_SEARCH_LOG_W_ERR = 1e-6


def _log_h_of_w(w, pref, k, m) -> np.ndarray:
    """log integrand from quantile values; broadcasts params against w.
    Where m / w overflows, h is 0 and its log -inf."""
    w = np.asarray(w, dtype=float)
    safe = np.maximum(w, 1e-300)
    with np.errstate(over="ignore"):
        return np.where(w > 0.0, pref - k * np.log(safe) - m / safe, -np.inf)


def _row_arrays(D2, shift_k, prefactor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prefactors, shifts k and halved distances m = D2/2 of the
    integrands, one row per entry of the 1-D ``D2``."""
    D2 = np.asarray(D2, dtype=float)
    if D2.ndim != 1:
        raise ValueError("D2 must be one-dimensional")
    if not np.all(D2 >= 0.0):
        raise ValueError("D2 must be non-negative")
    k = np.broadcast_to(np.asarray(shift_k, dtype=float), D2.shape)
    if not np.all(k > 0.0):
        raise ValueError("shift_k must be positive")
    return np.broadcast_to(np.asarray(prefactor, dtype=float), D2.shape), k, 0.5 * D2


def _log_g_w(w, z, pref, k, m):
    """log g at z from the quantile values w there."""
    return _log_h_of_w(w, pref, k, m) + log_expit(z) + log_expit(-z)


def _log_g_log_w(log_w, z, pref, k, m):
    """log g at z from L = log w there, without forming w:
    pref - k L - e^(log m - L) - |z| - 2 log1p(e^(-|z|)), whose m-term is
    0 at m = 0.  Overwrites ``log_w``."""
    out = k * log_w
    np.subtract(pref, out, out=out)
    a = np.abs(z)
    out -= a
    np.negative(a, out=a)
    np.exp(a, out=a)
    np.log1p(a, out=a)
    a *= 2.0
    out -= a
    with np.errstate(divide="ignore", over="ignore"):
        np.subtract(np.log(m), log_w, out=log_w)
        np.exp(log_w, out=log_w)
    out -= log_w
    return out


def _table_budget(table, z_ends, k, m, cfg, log_bounds) -> np.ndarray:
    """Per row, the largest bound in log w of a table that its RQMC may
    read between ``z_ends``, ``(2, rows)``.

    An error delta in log w moves log h by (m/w - k) delta, so tol/10
    over the largest |m/w - k| between the ends (w is monotone; read as
    the search reads it) keeps the table's error in the log-integral
    within tol/10, times, under a relative tolerance, the log-integral's
    least magnitude between its bounds ``log_bounds``, at most 1.
    """
    w = table.read(_SEARCH_LOG_W_ERR)(z_ends)
    with np.errstate(divide="ignore", invalid="ignore"):
        budget = 0.1 * cfg.tol / np.max(np.abs(m / w - k), axis=0)
        if cfg.tol_type == "relative":
            lo, hi = log_bounds
            budget *= np.clip(np.maximum(lo, -hi), 0.0, 1.0)
    return budget


def _rows_log_g(tables, reads, z, pref, k, m):
    """log g at ``z``, whose row i reads L from ``tables[reads[i]]``, or
    the quantile where ``reads[i]`` is -1."""
    def one(j, z, pref, k, m):
        if j < 0:
            return _log_g_w(tables[0].exact(z), z, pref, k, m)
        return _log_g_log_w(tables[j].log_w(z), z, pref, k, m)

    if np.all(reads == reads[0]):
        return one(reads[0], z, pref, k, m)
    out = np.empty(z.shape)
    for j in np.unique(reads):
        on = reads == j
        out[on] = one(j, z[on], pref[on], k[on], m[on])
    return out


def _bisect(goes_up, a, b, rows) -> tuple[np.ndarray, np.ndarray]:
    """Per-row bisection of the given rows between ``a`` and ``b`` down to
    a width of ``_EPS_BISEC``: at each step the midpoint replaces ``a``
    where ``goes_up(mid, rows)`` holds and ``b`` elsewhere, in one call
    for all rows still running."""
    a, b = a.copy(), b.copy()
    rows = rows[np.abs(b[rows] - a[rows]) > _EPS_BISEC]
    while len(rows):
        mid = 0.5 * (a[rows] + b[rows])
        up = goes_up(mid, rows)
        a[rows] = np.where(up, mid, a[rows])
        b[rows] = np.where(up, b[rows], mid)
        rows = rows[np.abs(b[rows] - a[rows]) > _EPS_BISEC]
    return a, b


def _level_crossings(f, level, z_in, z_lo: float, z_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """``(z_l, z_r)`` per row: where ``f``, above ``level`` at ``z_in``,
    falls to it on the way to ``z_lo`` and on the way to ``z_hi``, by
    bisection; NaN where ``f`` is still above the level at that end.
    ``f(z, rows)`` evaluates the rows' integrands, one z each; both ends
    of all rows share each call."""
    n = len(z_in)
    rows = np.tile(np.arange(n), 2)
    level = np.tile(level, 2)
    z_end = np.repeat([z_lo, z_hi], n)
    open_end = f(z_end, rows) > level
    a, b = _bisect(lambda z, r: f(z, rows[r]) > level[r], np.tile(z_in, 2), z_end,
                   np.flatnonzero(~open_end))
    z = np.where(open_end, np.nan, 0.5 * (a + b))
    return z[:n], z[n:]


def _peak_z(w_star, table) -> np.ndarray:
    """Per row, the logit of the peak location of h, where the quantile
    reaches ``w_star`` = m / k.

    Bisection in z for ``w(z) = w_star`` down to a z-width of
    ``_EPS_BISEC``, all rows together, with w(z) read from ``table``:
    from L where its bound is at most ``_SEARCH_LOG_W_ERR`` in log w, so
    the root is that of L(z) = log w_star, which lies about
    bound / |L'(z)| from the quantile's; from the quantile otherwise.
    When the quantile cannot reach the target (the mixing support is
    bounded on that side, or the target lies beyond the doubles' range)
    the peak collapses to that end of the z range.  At D2 = 0 the target
    w* = 0 is unreachable unless W has an atom at 0, so h is monotone and
    its peak is at the left end.
    """
    z_lo, z_hi = _z_range(table.spec)
    w_z = table.read(_SEARCH_LOG_W_ERR)
    lo, hi = _bisect(lambda z, r: w_z(z) <= w_star[r], np.full(len(w_star), z_lo),
                     np.full(len(w_star), z_hi), np.arange(len(w_star)))
    at_lo, at_hi = lo == z_lo, hi == z_hi
    if np.any(w_star[~at_lo & ~at_hi] == 0.0):  # quantile(expit(lo)) <= w* = 0
        raise ValueError(_DIVERGES)
    return np.where(at_lo, lo, np.where(at_hi, hi, 0.5 * (lo + hi)))


def peak(D2: float, shift_k: float, prefactor: float, spec: _MixtureSpec,
         nu) -> tuple[float, float]:
    """Location u* and log height of the peak of one integrand h of
    :func:`log_integral_batch`.

    u* solves ``L(z) = log(D2 / (2 shift_k))`` to a z-width of
    ``_EPS_BISEC`` by bisection in z = logit(u), with L the tabulated
    log w that the density's search reads (or the log of the
    quantile where it reads that, see :func:`log_integral_batch`), and is
    returned as the nearest double.  That search finds g's maximum by
    Newton's method on g's slope and needs no peak of h.  An error delta
    of L in log w moves the root by about delta / |L'(z)|.  The interior
    peak height has a closed form independent of the mixing distribution;
    when the quantile cannot reach the target (the mixing support is
    bounded on that side) the peak collapses to the boundary and h is
    evaluated there instead.
    """
    if D2 <= 0.0:
        raise ValueError("peak undefined for D2 = 0, where h = w^(-k) is monotone in u")
    pref, k, m = _row_arrays([D2], shift_k, prefactor)
    table = _QuantileTable(spec, nu)
    z = _peak_z(m / k, table)
    if z[0] in _z_range(spec):
        log_h_max = _log_h_of_w(table.read(_SEARCH_LOG_W_ERR)(z), pref, k, m)[0]
    else:
        # math.log: numpy's array log may differ from it in the last bit.
        log_h_max = pref[0] - k[0] * (math.log(m[0]) - math.log(k[0])) - k[0]
    return float(expit(z[0])), float(log_h_max)


def region_bounds(D2: float, shift_k: float, prefactor: float, spec: _MixtureSpec,
                  nu) -> tuple[float, float, bool]:
    """The bracket ``(z_l, z_r, closed)`` in z = logit(u) where one
    integrand g of :func:`log_integral_batch` exceeds its maximum less
    ``_K_TH`` = 10 decades: the one-row case of that call's search, by
    Newton's method on the table's L where the search reads the table and
    by bisection on the quantile otherwise.  The call itself brackets
    ``5 + log10(1/tol)`` decades, at most 10 on the RQMC and 16 on the
    trapezoid rule, so it integrates over this bracket only on the RQMC
    at tol <= 1e-5.  ``closed`` is False when the bracket stops at an end
    of the z range with g still above the threshold.

    The bracket is given in z because that is where the RQMC works: at
    Pareto(6), d = 10 and D2 = 1e8 both ends round to u = 1.
    """
    (z_l,), (z_r,), (closed,), _, _ = _bracket_z(
        *_row_arrays([D2], shift_k, prefactor), _QuantileTable(spec, nu), _K_TH)
    return float(z_l), float(z_r), bool(closed)


def _log_g_slopes(table, z, pref, k, m):
    """log g at the flat ``z`` from the table's L (:func:`_log_g_log_w`),
    and its first and second derivatives in z.

    With e = m e^(-L) and q = e^(-|z|), the slope of log g is
    (e - k) L' - sign(z) (1 - q) / (1 + q) and its curvature
    (e - k) L'' - e L'^2 - 2 q / (1 + q)^2.  Where e overflows, log g is
    -inf and its slope +inf: w is too small there, and g rises toward
    larger w.  Run under ``np.errstate`` that ignores division by zero,
    overflow and invalid values.
    """
    log_w, l1, l2 = table.log_w_slopes(z)
    e = np.exp(np.log(m) - log_w)
    log_g = _log_g_log_w(log_w, z, pref, k, m)
    q = np.exp(-np.abs(z))
    r = 1.0 / (1.0 + q)
    ek = e - k
    slope = ek * l1 - np.copysign((1.0 - q) * r, z)
    curvature = ek * l2 - e * l1 * l1 - 2.0 * q * r * r
    return log_g, slope, curvature


def _newton(f, a, b, x) -> np.ndarray:
    """Per row, a zero of ``f`` between ``a`` <= ``b``, where f > 0 at
    ``a`` and f <= 0 at ``b``, by Newton steps from ``x`` in [a, b].

    Each evaluation moves ``a`` or ``b`` to its point by the sign of f
    there (NaN counts as positive).  A step that would leave the bracket,
    or that is not below half the step before last, is a bisection
    instead (as in Numerical Recipes' rtsafe), which bounds the number of
    steps.  A row stops when its step is below ``_EPS_BISEC``, at the
    step's end.  ``f(z, rows)`` gives f and its derivative at one z
    per row of ``rows``, in one call for all rows still running.  Run
    under ``np.errstate`` that ignores division by zero, overflow and
    invalid values.
    """
    roots = np.empty(len(x))
    rows = np.arange(len(x))
    a, b, x = a.copy(), b.copy(), x.copy()
    step = before = b - a
    while len(rows):
        fx, dfx = f(x, rows)
        up = ~(fx <= 0.0)
        a = np.where(up, x, a)
        b = np.where(up, b, x)
        new = x - fx / dfx
        newton = (new >= a) & (new <= b) & (2.0 * np.abs(fx) <= np.abs(before * dfx))
        new = np.where(newton, new, 0.5 * (a + b))
        before, step = step, np.abs(new - x)
        x = new
        done = step < _EPS_BISEC
        if done.any():
            roots[rows[done]] = x[done]
            going = ~done
            rows, a, b, x, step, before = (v[going] for v in (rows, a, b, x, step, before))
    return roots


def _table_bracket(table, z_lo, z_hi, pref, k, m, k_th):
    """:func:`_bracket_z` on the table's L: safeguarded Newton steps
    (:func:`_newton`) from a scan of g on the table's ``scan`` nodes,
    which include both ends of the z range.

    For g unimodal, the scan's best node and its neighbours bracket g's
    maximum, which Newton's method on g's slope finds from that node (from
    the end of the z range where that node is an end).  An end of the
    region is open when g at that end of the range is above the level, as
    for the bisection.  Otherwise it lies between the last node at or
    below the level seen from the maximum (or the end of the range) and
    the next point toward the maximum, a node or the maximum itself.
    Newton's method finds it from where the chord between those two
    points meets the level, on f = log1p(drop / fall) - log 2, with drop
    = top - log g and fall = k_th ln 10: f is bounded near the maximum,
    where drop vanishes, and nearly linear in L where m e^(-L) dominates
    log g.
    """
    z_s, log_w_s = table.scan
    log_g_s = _log_g_log_w(np.tile(log_w_s, (len(m), 1)), z_s, pref[:, None], k[:, None],
                           m[:, None])
    last = len(z_s) - 1
    j = np.argmax(log_g_s, axis=1)
    start = np.where(j == 0, z_lo, np.where(j == last, z_hi, z_s[j]))

    def slope(z, rows):
        return _log_g_slopes(table, z, pref[rows], k[rows], m[rows])[1:]

    z_g = _newton(slope, z_s[np.maximum(j - 1, 0)], z_s[np.minimum(j + 1, last)], start)
    top = _log_g_slopes(table, z_g, pref, k, m)[0]
    fall = k_th * _LN10
    below = log_g_s <= (top - fall)[:, None]
    index = np.arange(last + 1)
    left = np.max(np.where(below & (z_s < z_g[:, None]), index, 0), axis=1)
    right = np.min(np.where(below & (z_s > z_g[:, None]), index, last), axis=1)
    rows_l, rows_r = np.flatnonzero(below[:, 0]), np.flatnonzero(below[:, last])
    # The left ends, then the right ends, of the closed rows; f is
    # positive toward the smaller z on both sides.
    ends = np.concatenate([rows_l, rows_r])
    sign = np.repeat([1.0, -1.0], [len(rows_l), len(rows_r)])
    out = np.concatenate([left[rows_l], right[rows_r]])
    step_in = np.clip(out + sign.astype(np.intp), 0, last)
    z_e, top_e = z_g[ends], top[ends]
    at_max = sign * (z_s[step_in] - z_e) >= 0.0
    z_in = np.where(at_max, z_e, z_s[step_in])
    g_in = np.where(at_max, top_e, log_g_s[ends, step_in])
    z_out, g_out = z_s[out], log_g_s[ends, out]
    chord = z_out + (z_in - z_out) * ((top_e - fall - g_out) / (g_in - g_out))
    chord = np.where(np.isfinite(chord), chord, 0.5 * (z_in + z_out))

    def crossing(z, rows):
        i = ends[rows]
        log_g, s, _ = _log_g_slopes(table, z, pref[i], k[i], m[i])
        drop = top_e[rows] - log_g
        return sign[rows] * (np.log1p(drop / fall) - _LN2), sign[rows] * (-s / (drop + fall))

    z = _newton(crossing, np.minimum(z_in, z_out), np.maximum(z_in, z_out), chord)
    z_l, z_r = np.full(len(m), z_lo), np.full(len(m), z_hi)
    z_l[rows_l], z_r[rows_r] = z[:len(rows_l)], z[len(rows_l):]
    return z_l, z_r, below[:, 0] & below[:, last], z_g, top


def _bracket_z(pref, k, m, table, k_th):
    """``(z_l, z_r, closed, z_g, top)`` per row: the region where g
    exceeds its maximum less ``k_th`` decades, and where g takes its
    maximum, log g there being ``top``.  ``closed`` is False when g still
    exceeds the threshold at an end of the z range, i.e. mass lies beyond
    the doubles' reach.  All rows take each step together.

    Where the table's bound is at most ``_SEARCH_LOG_W_ERR`` in log w, the
    search reads its L (:func:`_table_bracket`): Newton steps safeguarded
    by bisection, from a scan of g on the table's nodes, down to a step
    below ``_EPS_BISEC``.  Otherwise it reads the quantile, by bisection
    down to a z-width of ``_EPS_BISEC``: g's maximum comes from one
    bisection on the sign of its slope over the whole z range (below
    min(z_h, 0), with z_h the peak of h, log h and the log-Jacobian both
    rise, and above max(z_h, 0) both fall, so the slope changes sign only
    between them).  Where w is 0 at a step's right point g counts as
    rising, as the mass lies to the right of where the nondecreasing w
    is 0; the maximum is taken at the bisection's upper end, where g is
    finite.  Both ends of the region then come from one bisection on the
    level.
    """
    z_lo, z_hi = _z_range(table.spec)
    if table.bound <= _SEARCH_LOG_W_ERR:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return _table_bracket(table, z_lo, z_hi, pref, k, m, k_th)
    w_z = table.exact

    def f(z, rows):
        return _log_g_w(w_z(z), z, pref[rows], k[rows], m[rows])

    def rises(z, rows):
        # g _RISE_H either side of each midpoint, in one call, within the
        # z range.
        zz = np.clip(z[:, None] + np.array([-_RISE_H, _RISE_H]), z_lo, z_hi)
        w = w_z(zz)
        log_g = _log_g_w(w, zz, pref[rows, None], k[rows, None], m[rows, None])
        return (log_g[:, 1] > log_g[:, 0]) | (w[:, 1] == 0.0)

    rows = np.arange(len(m))
    _, z_g = _bisect(rises, np.full(len(m), z_lo), np.full(len(m), z_hi), rows)
    top = f(z_g, rows)
    z_l, z_r = _level_crossings(f, top - k_th * _LN10, z_g, z_lo, z_hi)
    closed = ~np.isnan(z_l) & ~np.isnan(z_r)
    return (np.where(np.isnan(z_l), z_lo, z_l), np.where(np.isnan(z_r), z_hi, z_r), closed,
            z_g, top)


def _nested_trapezoid(log_g, high, cfg) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of ``high``, the log of the trapezoid rule over [0, 1] of
    exp(``log_g(v, rows)``), the change in it at the last halving of the
    step, and its nodes.  The rule starts at ``_ADAPTIVE_STEP`` intervals
    and halves the step within ``i_max n0`` intervals; each halving
    evaluates only the new midpoints of the rows still running, in row
    blocks of about ``_BLOCK_VALUES`` values.  The ends, k_th decades
    below g's maximum, count as 0: n intervals have n - 1 nodes.  The sums
    add exp(log g - high), which lie in about [1e-16, 1].  A row stops
    once the change is at most tol/10 (relative under a relative tol)."""
    budget = cfg.i_max * cfg.n0
    n = max(2, min(_ADAPTIVE_STEP, budget))
    total, nodes = np.zeros(len(high)), np.zeros(len(high), dtype=int)
    estimate, error = np.full(len(high), -math.inf), np.full(len(high), math.inf)
    rows, v = np.arange(len(high)), np.arange(1, n) / n
    while True:
        block = max(1, _BLOCK_VALUES // len(v))
        for start in range(0, len(rows), block):
            r = rows[start:start + block]
            total[r] += np.exp(log_g(v, r) - high[r, None]).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = high[rows] + np.log(total[rows] / n)
            change = np.abs(new - estimate[rows])
        estimate[rows], nodes[rows] = new, n - 1
        error[rows] = np.where(np.isnan(change), math.inf, change)
        rows = rows[~_tolerance_met(10.0 * error[rows], new, cfg, True)]
        if not len(rows) or 2 * n > budget:
            return estimate, error, nodes
        v = (np.arange(n) + 0.5) / n
        n *= 2


def log_integral_batch(D2, shift_k, prefactor, spec: _MixtureSpec, nu,
                       cfg: RqmcConfig | None = None,
                       seed: int | None = None) -> list[RqmcResult]:
    """Estimate ``log int_0^1 h_i(u) du`` for a batch of mixing integrands.

    Row i integrates ``exp(prefactor) w^(-shift_k) exp(-D2/(2w))`` with
    ``w`` the mixing quantile at u: ``shift_k = d/2`` gives the density,
    ``d/2 + 1`` the numerator of E[1/W | x] used by the fitting algorithm.
    ``D2`` is 1-D and non-negative; ``shift_k`` (positive) and
    ``prefactor`` broadcast against it.

    Every row takes one path in z = logit(u), all rows together.  A
    search (:func:`_bracket_z`) finds g's maximum and both ends of the
    bracket, where g falls ``5 + log10(1/tol)`` decades below its maximum
    (5 for any tol >= 1): on the table, by Newton's method safeguarded by
    bisection from a scan of g on the table's nodes, each row until its
    step is below ``_EPS_BISEC``; on the quantile, by bisection over the
    whole z range down to a z-width of ``_EPS_BISEC``.

    Where the search reads the table (every built-in family), the nested
    trapezoid rule (:func:`_nested_trapezoid`) integrates g over at most
    ``_K_TH_RULE`` decades, each row until two successive values differ by
    at most tol/10, its error estimate, within ``cfg.i_max * cfg.n0``
    intervals; its rows do not depend on ``seed``.  Otherwise (a quantile
    that jumps or vanishes, where the rule converges only at first order)
    RQMC integrates g over at most ``_K_TH`` decades within ``cfg.i_max``
    batches of ``cfg.n0`` points, each row until it meets the tolerance,
    tested every ``min(cfg.n0, _ADAPTIVE_STEP)`` points; its rows share
    one seed's ``B`` digital shifts.  Both work in blocks of rows of about
    ``_BLOCK_VALUES`` values, and a row's result equals that of a call
    with this row alone.  ``n_per_randomization`` counts a row's RQMC
    points or rule nodes, ``iterations_used`` them in batches of ``cfg.n0``.

    w comes from a table of the mixture, with 513 nodes (see
    ``_QuantileTable``), where its bound in log w is within the reader's
    budget, and from the quantile itself otherwise.  The search's budget
    is ``_SEARCH_LOG_W_ERR``; a row's integration has the budget of
    ``_table_budget``, which keeps the table's error in its log-integral
    within tol/10, and forms log g from L without forming w.  When some
    row's positive budget is below the bound of a table that the search
    reads, the call builds one table four times finer, once, and each row
    reads the coarser of the two tables within its budget; where no table
    can be read (its bound is inf), every row reads the quantile.  Each
    search step reads the table or the quantile once for all rows still
    running, and each integration step once per block of rows.

    A result is unconverged when it misses the tolerance or when g is
    still above the threshold at an end of the z range.  A row whose g
    peaks at an end of the z range (within ``_EPS_BISEC``) has its mass
    beyond the doubles' reach, as does a row whose g is -inf at its peak
    (D2 = inf): it gets no points, an infinite error estimate and, as its
    estimate, g's maximum plus the log of the bracket's width, -inf where
    that width rounds to 0.  At D2 = 0 the integral diverges when W has an
    atom at w = 0, or when g is still above the threshold at the lower end
    of the z range and no lower there than halfway to it (h grows at least
    like 1/u as u -> 0); either raises ``ValueError`` before any
    integration.
    """
    if cfg is None:
        cfg = RqmcConfig()
    pref, k, m = _row_arrays(D2, shift_k, prefactor)
    if len(m) == 0:
        return []
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    # An atom of W at 0 makes a D2 = 0 row diverge; the smallest u of the
    # z range meets it.
    if np.any(m == 0.0) and _quantile_z(spec, _Z_LO, nu) == 0.0:
        raise ValueError(_DIVERGES)

    table = _QuantileTable(spec, nu)
    rule = table.bound <= _SEARCH_LOG_W_ERR
    # Any tol >= 1 (inf included) gives k_th = 5.
    k_th = min(_K_TH_RULE if rule else _K_TH, 5.0 + max(0.0, -math.log10(cfg.tol)))
    z_l, z_r, closed, z_g, top = _bracket_z(pref, k, m, table, k_th)
    # At D2 = 0, g still above the threshold at z_lo and no lower there than
    # at z_lo / 2 means that h grows at least like 1/u as u -> 0: the
    # integral diverges.
    edge = np.flatnonzero((m == 0.0) & (z_l == _Z_LO))
    if len(edge):
        z_edge = np.array([_Z_LO, 0.5 * _Z_LO])
        log_g = _log_g_w(table.read(_SEARCH_LOG_W_ERR)(z_edge), z_edge, pref[edge, None],
                         k[edge, None], m[edge, None])
        if np.any(log_g[:, 0] >= log_g[:, 1]):
            raise ValueError(_DIVERGES)
    # A row whose g peaks at an end of the z range, or is -inf at its
    # peak (D2 = inf), has its mass beyond the doubles' reach, which no
    # integration inside the range can find.
    z_lo, z_hi = _z_range(spec)
    beyond = (z_g - z_lo <= _EPS_BISEC) | (z_hi - z_g <= _EPS_BISEC) | (top == -math.inf)
    width = z_r - z_l
    # A bracket that rounds to a point, where g falls k_th decades within a
    # rounding error of z (D2 = 1e300: log g near -5e145), has log width
    # -inf.
    with np.errstate(divide="ignore"):
        log_width = np.log(width)
    # The log-integral lies between g's threshold and maximum, plus log_width.
    high = top + log_width
    tables = [table]
    reads = np.full(len(m), -1)
    # Where no table can be read, every row reads the quantile.
    if table.bound < math.inf:
        budget = _table_budget(table, np.stack([z_l, z_r]), k, m, cfg,
                               (high - k_th * _LN10, high))
        if rule and np.any((budget > 0.0) & (budget < table.bound)):
            tables.append(_QuantileTable(spec, nu, 4 * _TABLE_INTERVALS))
        # Row i reads the coarsest table within its budget, or the quantile.
        for j in reversed(range(len(tables))):
            reads[tables[j].bound <= budget] = j
    run = np.flatnonzero(~beyond)
    # The bracket's width enters through the prefactor, so the estimate
    # that the tolerance tests is the reported one.
    pref_w = pref + log_width

    def mid_log_g(v, rows):
        rows = run[rows]
        z = z_l[rows, None] + width[rows, None] * v
        return _rows_log_g(tables, reads[rows], z, pref_w[rows, None], k[rows, None],
                           m[rows, None])

    # A row beyond the doubles' reach keeps ``high`` as its estimate.
    estimate, error, n = high, np.full(len(m), math.inf), np.zeros(len(m), dtype=int)
    if len(run) and rule:
        estimate[run], error[run], n[run] = _nested_trapezoid(mid_log_g, high[run], cfg)
    elif len(run):
        # Child 2 of the root seed, as SeedSequence(seed).spawn(3) gives
        # it, randomizes the RQMC.  A row sees the extensible stream's
        # points a step at a time, within a budget of i_max n0 points.
        step = min(cfg.n0, _ADAPTIVE_STEP)
        estimate[run], error[run], batches = _run(
            lambda v, rows: mid_log_g(v[:, 0], rows), 1,
            replace(cfg, n0=step, i_max=cfg.i_max * cfg.n0 // step),
            np.random.SeedSequence(seed).spawn(3)[2], len(run), log=True)
        n[run] = batches * step
    # The rule's rows meet tol/10 on their error estimates.
    converged = ~beyond & closed & _tolerance_met((10.0 if rule else 1.0) * error, estimate,
                                                  cfg, True)
    return [RqmcResult(*row) for row in zip(estimate.tolist(), error.tolist(), n.tolist(),
                                           (-(-n // cfg.n0)).tolist(), converged.tolist())]


def log_density_batch(X, model: NvmModel, cfg: RqmcConfig | None = None,
                      seed: int | None = None) -> list[RqmcResult]:
    """Estimate log f(x_i) for the rows of ``X`` under the mixture model.

    Constant mixtures short-circuit to the exact Gaussian log-density.
    """
    if not model.is_full_rank:
        raise ValueError("log-density requires a full-rank scale matrix")
    if model.spec.kind == "constant":
        return [RqmcResult(float(v), 0.0, 0, 0, True)
                for v in np.atleast_1d(closed_log_density(model, X))]

    d = model.dim
    d2 = np.atleast_1d(mahalanobis_sq(X, model.loc, model.factor))
    prefactor = -0.5 * d * _LOG_2PI - 0.5 * model.log_det
    return log_integral_batch(d2, d / 2.0, prefactor, model.spec, model.nu, cfg, seed)


def _log_lower_incomplete_gamma(z: float, x) -> np.ndarray | float:
    """log of the (unregularized) lower incomplete gamma function.

    Uses the regularized routine where it has mass and the leading series
    where that underflows.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    with np.errstate(divide="ignore"):
        reg = gammainc(z, x)
        out = gammaln(z) + np.log(reg)
    small = (reg < 1e-290) & (x > 0)
    if np.any(small):
        xs = x[small]
        out[small] = z * np.log(xs) - math.log(z) + np.log1p(-z * xs / (z + 1.0))
    if scalar:
        return float(out[0])
    return out


def closed_log_density(model: NvmModel, x) -> np.ndarray | float:
    """Exact log-density for the constant, inverse-gamma and Pareto
    families."""
    if not model.is_full_rank:
        raise ValueError("density requires a full-rank scale matrix")
    d2 = mahalanobis_sq(x, model.loc, model.factor)
    single = np.ndim(d2) == 0
    d2 = np.atleast_1d(d2)
    d = model.dim
    log_det = model.log_det
    kind = model.spec.kind

    if kind == "constant":
        c = float(model.nu[0])
        out = -0.5 * d * (_LOG_2PI + math.log(c)) - 0.5 * log_det - d2 / (2.0 * c)
    elif kind == "inverse_gamma":
        nu = float(model.nu[0])
        out = (
            gammaln((nu + d) / 2.0)
            - gammaln(nu / 2.0)
            - 0.5 * d * math.log(nu * math.pi)
            - 0.5 * log_det
            - 0.5 * (nu + d) * np.log1p(d2 / nu)
        )
    elif kind == "pareto":
        alpha = float(model.nu[0])
        z = alpha + 0.5 * d
        base = -0.5 * d * _LOG_2PI - 0.5 * log_det
        out = np.empty(len(d2))
        zero = d2 <= 0.0
        # Limit at the center: E(W^{-d/2}) = alpha / (alpha + d/2).
        out[zero] = base + math.log(alpha / z)
        pos = ~zero
        half = d2[pos] / 2.0
        out[pos] = (
            base + math.log(alpha) - z * np.log(half)
            + _log_lower_incomplete_gamma(z, half)
        )
    else:
        raise ValueError(f"no closed-form density for mixture kind {kind!r}")

    if single:
        return float(out[0])
    return out
