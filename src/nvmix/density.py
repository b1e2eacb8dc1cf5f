"""Log-density estimation for normal variance mixtures.

The log-density is a one-dimensional integral over the mixing variable's
probability scale u.  For large Mahalanobis distances the integrand
collapses onto a narrow peak, which can sit within 1e-17 of u = 0 or
u = 1, where it decays only polynomially in u.  Every input is therefore
integrated in the logit coordinate z = log(u / (1 - u)), where the
integrand g(z) = h(expit(z)) expit(z) expit(-z) decays exponentially
toward both ends whenever h is bounded: a search brackets the region
where g exceeds a threshold below its maximum, and the nested trapezoid
rule, exponentially convergent for g analytic in a strip (Trefethen &
Weideman 2014, SIAM Review 56(3)), integrates g over that bracket (see
:func:`log_integral_batch`); the paper uses adaptive RQMC instead.

w is read from cubic interpolants L(z) of log w with checked error bounds
(numerical inversion after Hörmann & Leydold 2003 and Derflinger, Hörmann
& Leydold 2010, applied in z), one per piece of the z range between the
breaks of w; a smooth W is one piece.  A model's reader of W
(``_WReader`` in :mod:`nvmix.mixtures`) builds these tables once, on first
use.  On each piece the search takes Newton steps on L, and where a piece
meets a break the rule works in the logit of the place in the piece's
bracket, as z = logit(u) does for u.  The same machinery integrates any
integrand c * w^(-k) * exp(-m/w), which covers the posterior weights
needed for fitting.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit, gammainc, gammaln, log_expit

from .linalg import mahalanobis_sq
# quantile stays bound here for tools that patch it by name; the table in
# mixtures makes the calls.
from .mixtures import _EPS, _SEARCH_LOG_W_ERR, _Z_LO, _quantile_z, _WReader, _z_range
from .mixtures import quantile  # noqa: F401
from .model import NvmModel
from .rqmc import _BLOCK_VALUES, RqmcConfig, RqmcResult, _tolerance_met

__all__ = ["log_density_batch", "closed_log_density"]

_LOG_2PI = math.log(2.0 * math.pi)
_LN10 = math.log(10.0)
_LN2 = math.log(2.0)
_DIVERGES = "integrand diverges at w = 0 when D2 = 0"
# The bracket ends at most _K_TH_RULE decades below g's maximum; the
# search stops a row once its z-step is below _EPS_BISEC.
_K_TH_RULE = 16.0
_EPS_BISEC = 1e-6
# The rule's first intervals.
_ADAPTIVE_STEP = 16


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
    """log g at z from the quantile values w there; broadcasts its
    arguments.  Where m / w overflows, h is 0 and log g -inf."""
    w = np.asarray(w, dtype=float)
    safe = np.maximum(w, 1e-300)
    with np.errstate(over="ignore"):
        log_h = np.where(w > 0.0, pref - k * np.log(safe) - m / safe, -np.inf)
    return log_h + log_expit(z) + log_expit(-z)


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
    """Per row, the largest bound in log w of a table that its
    integration may read between ``z_ends``, ``(2, rows)``.  An error
    delta in log w moves log h by (m/w - k) delta, so tol/10 over the
    largest |m/w - k| between the ends (w is monotone) keeps the table's
    error in the log-integral within tol/10, times, under a relative
    tolerance, the log-integral's least magnitude between its bounds
    ``log_bounds``, at most 1.  A read of L forms m/w as e^(log m - L),
    which rounds it as an error of eps |log m - L| in L would; the budget
    leaves room for that.
    """
    w = table.read(_SEARCH_LOG_W_ERR)(z_ends)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = m / w
        budget = 0.1 * cfg.tol / np.max(np.abs(e - k), axis=0)
        if cfg.tol_type == "relative":
            lo, hi = log_bounds
            budget *= np.clip(np.maximum(lo, -hi), 0.0, 1.0)
        return budget - _EPS * np.max(np.nan_to_num(np.abs(np.log(e)), posinf=0.0), axis=0)


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


def _retired(*args, **kwargs):
    raise NotImplementedError("removed: log_integral_batch integrates every row")


# bench/spans.py patches these names until ROADMAP item 5 retires them.
peak = region_bounds = rqmc_log_estimate = _retired


def _log_g_slopes(table, z, pref, k, m):
    """log g at the flat ``z`` from the table's L (:func:`_log_g_log_w`),
    and its first and second derivatives in z: with e = m e^(-L) and
    q = e^(-|z|), (e - k) L' - sign(z) (1 - q) / (1 + q) and
    (e - k) L'' - e L'^2 - 2 q / (1 + q)^2.  Where e overflows, log g is
    -inf and its slope +inf: g rises toward larger w.  Run under
    ``np.errstate`` that ignores division by zero, overflow and invalid
    values.
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
    instead (as in Numerical Recipes' rtsafe).  A row stops when its step
    is below ``_EPS_BISEC``.  ``f(z, rows)`` gives f and its derivative at
    one z per row, in one call for all rows still running.  Run under
    ``np.errstate`` that ignores division by zero, overflow and invalid
    values.
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


def _table_bracket(table, pref, k, m, z_g, g_max, log_g_s, top, fall):
    """Per row, the ends ``(z_l, z_r)`` on the table's z range of the
    region where g exceeds ``top - fall``, from g's maximum ``g_max`` (at
    least that level) at ``z_g`` and log g on the scan's nodes ``log_g_s``.
    An end is the end of the range where g there is above the level.
    Otherwise it lies between the last node at or below the level seen
    from the maximum and the next point toward it, a node or the maximum.
    Newton's method finds it from where the chord between those points
    meets the level, on f = log1p(drop / fall) - log 2, drop = top - log g:
    f is bounded near the level, and nearly linear in L where m e^(-L)
    dominates log g.  Run under ``np.errstate`` as :func:`_newton`.
    """
    z_s = table.scan[0]
    last = len(z_s) - 1
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
    g_in = np.where(at_max, g_max[ends], log_g_s[ends, step_in])
    z_out, g_out = z_s[out], log_g_s[ends, out]
    chord = z_out + (z_in - z_out) * ((top_e - fall - g_out) / (g_in - g_out))
    chord = np.where(np.isfinite(chord), chord, 0.5 * (z_in + z_out))

    def crossing(z, rows):
        i = ends[rows]
        log_g, s, _ = _log_g_slopes(table, z, pref[i], k[i], m[i])
        drop = top_e[rows] - log_g
        return sign[rows] * (np.log1p(drop / fall) - _LN2), sign[rows] * (-s / (drop + fall))

    z = _newton(crossing, np.minimum(z_in, z_out), np.maximum(z_in, z_out), chord)
    z_l, z_r = np.full(len(m), table.z_range[0]), np.full(len(m), table.z_range[1])
    z_l[rows_l], z_r[rows_r] = z[:len(rows_l)], z[len(rows_l):]
    return z_l, z_r


def _bracket_z(pref, k, m, pieces, k_th):
    """``(z_l, z_r, z_g, tops, ends, curvs)``: per piece of W (``pieces``,
    the tables of ``_WReader.pieces``) and row, ``(pieces, rows)`` each,
    the bracket [z_l, z_r] where g exceeds the row's maximum (the largest
    of its pieces') less ``k_th`` decades, NaN where g stays below that
    level on the piece, where g takes its maximum on the piece, and log g
    and its second derivative in z there; and log g at the two ends of the
    whole z range, ``(2, rows)``, -inf at an end that no piece holds
    (where w is 0).  On each piece, Newton steps on the table's L
    (:func:`_newton`) find g's maximum from the best of the table's
    ``scan`` nodes (for g unimodal, it and its neighbours bracket the
    maximum), then both ends of the bracket (:func:`_table_bracket`), all
    rows together.
    """
    z_lo, z_hi = _z_range(pieces[0].spec)
    fall = k_th * _LN10
    peaks = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for table in pieces:
            z_s, log_w_s = table.scan
            log_g_s = _log_g_log_w(np.tile(log_w_s, (len(m), 1)), z_s, pref[:, None],
                                   k[:, None], m[:, None])
            j, last = np.argmax(log_g_s, axis=1), len(z_s) - 1
            # From the end of the range where the best node is an end.
            start = np.where(j == 0, table.z_range[0],
                             np.where(j == last, table.z_range[1], z_s[j]))
            z_g = _newton(lambda z, rows: _log_g_slopes(table, z, pref[rows], k[rows],
                                                        m[rows])[1:],
                          z_s[np.maximum(j - 1, 0)], z_s[np.minimum(j + 1, last)], start)
            log_g, _, curv = _log_g_slopes(table, z_g, pref, k, m)
            peaks.append((z_g, log_g, log_g_s, curv))
        z_g, tops, curvs = (np.array([p[i] for p in peaks]) for i in (0, 1, 3))
        top = tops.max(axis=0)
        z_l, z_r = np.full(tops.shape, np.nan), np.full(tops.shape, np.nan)
        for i, (table, (_, g_max, log_g_s, _)) in enumerate(zip(pieces, peaks)):
            r = np.flatnonzero(g_max >= top - fall)
            z_l[i, r], z_r[i, r] = _table_bracket(table, pref[r], k[r], m[r], z_g[i, r],
                                                  g_max[r], log_g_s[r], top[r], fall)
    ends = np.full((2, len(m)), -np.inf)
    if pieces[0].z_range[0] == z_lo:
        ends[0] = peaks[0][2][:, 0]
    if pieces[-1].z_range[1] == z_hi:
        ends[1] = peaks[-1][2][:, -1]
    return z_l, z_r, z_g, tops, ends, curvs


def _nested_trapezoid(log_g, high, need, cfg) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of ``high``, the log of the trapezoid rule over [0, 1] of
    exp(``log_g(v, rows)``), the change in it at the last halving of the
    step, and its nodes.  The rule starts at ``_ADAPTIVE_STEP`` intervals
    and halves the step within ``i_max n0`` intervals; each halving
    evaluates only the new midpoints of the rows still running, in row
    blocks of about ``_BLOCK_VALUES`` values.  The ends, where the
    integrand is k_th decades below its maximum, count as 0: n intervals
    have n - 1 nodes.  The sums add exp(log g - high), about [1e-16, 1].
    A change is a row's error only once the coarser of its two rules has
    at least ``need`` intervals, per row (inf before), and a row stops
    once its error is at most tol/10 (relative under a relative tol)."""
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
        error[rows] = np.where(np.isnan(change) | (0.5 * n < need[rows]), math.inf, change)
        rows = rows[~_tolerance_met(10.0 * error[rows], new, cfg, True)]
        if not len(rows) or 2 * n > budget:
            return estimate, error, nodes
        v = (np.arange(n) + 0.5) / n
        n *= 2


def log_integral_batch(D2, shift_k, prefactor, w: _WReader,
                       cfg: RqmcConfig | None = None) -> RqmcResult:
    """Estimate ``log int_0^1 h_i(u) du`` for a batch of mixing integrands.

    Row i integrates ``exp(prefactor) w^(-shift_k) exp(-D2/(2w))`` with
    w the mixing quantile at u, read through ``w``, W's reader (a model's,
    or ``_WReader(spec, nu)``): ``shift_k = d/2`` gives the density,
    ``d/2 + 1`` the numerator of E[1/W | x] used by the fitting algorithm.
    ``D2`` is 1-D and non-negative; ``shift_k`` (positive) and
    ``prefactor`` broadcast against it.

    Every row takes one path in z = logit(u), all rows together.  A
    search (:func:`_bracket_z`) brackets, on each piece of W (``w.pieces``),
    where g exceeds the row's maximum less ``5 + log10(1/tol)`` decades (5
    for any tol >= 1, at most ``_K_TH_RULE``).  Each pair of a row and a
    piece with a bracket is one row of the nested trapezoid rule
    (:func:`_nested_trapezoid`), which stops once two successive values
    differ by at most tol/10, its error estimate, within ``cfg.i_max *
    cfg.n0`` intervals: in z on a W of one piece, and on a split W, where
    g need not vanish at a break, in s = logit of the place in the
    bracket, over |s| <= k_th ln 10 + 5.  In z, two values count only
    once the coarser one's step is at most sigma_z = (-(log g)'')^(-1/2)
    at g's maximum, so that steps wider than g's peak cannot agree by
    chance; a pair whose budget cannot reach that step gets an infinite
    error.  A row's estimate is the log of the sum of its pieces'
    integrals, its error their errors weighted by their shares of that sum
    (inf on a piece whose table misses the search's budget),
    ``n_per_randomization`` their nodes and ``iterations_used`` that count
    in batches of ``cfg.n0``: one :class:`RqmcResult` holds all rows, each
    field an array with one entry per row.  Row i, ``result[i]``, equals
    the result of a call with this row alone.

    The search reads the pieces' tables, and so does a row's integration
    where a table's bound is within the budget of ``_table_budget``, which
    keeps the table's error in the log-integral within tol/10; below a
    piece's bound the row reads the piece's table four times finer
    (``w.finer``) within its budget, or else the quantile.  ``w`` builds
    each table on the first call that needs it and keeps it for the next.

    A result is unconverged when it misses the tolerance, or when g is
    still above the threshold at an end of the z range, unless h falls on
    the way out there (w >= m/k on the right, w <= m/k on the left) and
    the mass beyond, at most g there times 1 + e^(-|z|), is within tol/10
    of the estimate.  A row whose g peaks at an end of the z range (within
    ``_EPS_BISEC``) or is -inf at its peak (D2 = inf) has its mass beyond
    the doubles' reach, and so has a row whose log g at its peak is spaced
    wider than the bracket's fall: it gets no nodes, an infinite error
    and, as its estimate, g's maximum plus the log of its brackets' width.
    At D2 = 0 the integral diverges when W has an atom at w = 0, or when g
    is still above the threshold at the lower end of the z range and no
    lower there than halfway to it (h grows at least like 1/u as u -> 0);
    either raises ``ValueError``.
    """
    cfg = RqmcConfig() if cfg is None else cfg
    pref, k, m = _row_arrays(D2, shift_k, prefactor)
    # An atom of W at 0 makes a D2 = 0 row diverge; the smallest u of the
    # z range meets it.
    if np.any(m == 0.0) and _quantile_z(w.spec, _Z_LO, w.nu) == 0.0:
        raise ValueError(_DIVERGES)

    pieces = w.pieces
    # Any tol >= 1 (inf included) gives k_th = 5.
    k_th = min(_K_TH_RULE, 5.0 + max(0.0, -math.log10(cfg.tol)))
    fall = k_th * _LN10
    z_l, z_r, z_g, tops, ends, curvs = _bracket_z(pref, k, m, pieces, k_th)
    top = tops.max(axis=0)
    level = top - fall
    # At D2 = 0, g above the threshold at z_lo and no lower there than at
    # z_lo / 2 means that h grows at least like 1/u as u -> 0: divergence.
    edge = np.flatnonzero((m == 0.0) & (ends[0] > level))
    if len(edge):
        z_edge = np.array([_Z_LO, 0.5 * _Z_LO])
        log_g = _log_g_w(pieces[0].read(_SEARCH_LOG_W_ERR)(z_edge), z_edge, pref[edge, None],
                         k[edge, None], m[edge, None])
        if np.any(log_g[:, 0] >= log_g[:, 1]):
            raise ValueError(_DIVERGES)
    # A row whose g peaks at an end of the z range, or is -inf at its
    # peak (D2 = inf), has its mass beyond the doubles' reach, which no
    # integration inside the range can find; so does a row whose log g is
    # spaced wider than the fall (|log g| past about 1.4e17 at tol 1e-3,
    # which a W bounded above reaches), where no node can resolve the
    # bracket's level.
    z_lo, z_hi = _z_range(w.spec)
    at_end = (z_g - z_lo <= _EPS_BISEC) | (z_hi - z_g <= _EPS_BISEC)
    coarse = np.spacing(np.abs(top)) > fall
    beyond = np.any(at_end & (tops == top), axis=0) | (top == -math.inf) | coarse
    widths = z_r - z_l
    # A bracket that rounds to a point (D2 = 1e300, where g falls k_th
    # decades within a rounding error of z) has log width -inf.
    with np.errstate(divide="ignore"):
        log_width = np.log(np.nansum(widths, axis=0))
    # The log-integral lies between g's threshold and maximum, plus log_width.
    high = top + log_width
    # The pairs of a row and a piece that the rule integrates, piece by piece.
    on = (widths > 0.0) & ~beyond
    piece, row = np.nonzero(on)
    z_a, z_b, width = z_l[on], z_r[on], widths[on]
    log_width_p = np.log(width)
    tables, reads = [], np.full(len(row), -1)
    for i, table in enumerate(pieces):
        at = np.flatnonzero(piece == i)
        r = row[at]
        budget = _table_budget(table, np.stack([z_a[at], z_b[at]]), k[r], m[r], cfg,
                               (high[r] - fall, high[r]))
        finer = np.any((budget > 0.0) & (budget < table.bound))
        own = [table, w.finer(i)] if finer else [table]
        # A pair reads the coarsest table within its budget, or the quantile.
        for j in reversed(range(len(own))):
            reads[at[own[j].bound <= budget]] = len(tables) + j
        tables += own
    # The bracket's width enters through the prefactor, so the estimate
    # that the tolerance tests is the reported one.
    pref_w, k_p, m_p = pref[row] + log_width_p, k[row], m[row]
    split = pieces[0].z_range != (z_lo, z_hi)
    s_max = fall + 5.0
    # On the z-map, two rules whose steps exceed g's width at its maximum,
    # sigma_z = (-(log g)'')^(-1/2), can agree by chance: a pair's change
    # counts from the first rule whose step is at most sigma_z on.
    with np.errstate(invalid="ignore"):
        need = np.zeros(len(row)) if split else np.nan_to_num(width * np.sqrt(-curvs[on]))

    def mid_log_g(v, rows):
        pref_v = pref_w[rows, None]
        if split:
            s = s_max * (2.0 * v - 1.0)
            v = expit(s)
            pref_v = pref_v + (math.log(2.0 * s_max) + log_expit(s) + log_expit(-s))
        # A node past a piece's end would read the other side of a jump.
        z = np.minimum(z_a[rows, None] + width[rows, None] * v, z_b[rows, None])
        return _rows_log_g(tables, reads[rows], z, pref_v, k_p[rows, None], m_p[rows, None])

    # Each pair's log-integral, error and nodes, and the row's sum of them.
    pairs = np.zeros((3,) + on.shape)
    pairs[0] = -math.inf
    est, err, nodes = _nested_trapezoid(mid_log_g, tops[on] + log_width_p, need, cfg)
    certified = np.array([t.bound <= _SEARCH_LOG_W_ERR for t in pieces])
    pairs[:, on] = est, np.where(certified[piece], err, math.inf), nodes
    runs = on.any(axis=0)
    with np.errstate(invalid="ignore"):
        total = np.logaddexp.reduce(pairs[0], axis=0)
        weighted = np.sum(np.exp(pairs[0] - total) * pairs[1], axis=0)
    # A row beyond the doubles' reach keeps ``high`` as its estimate.
    estimate = np.where(runs, total, high)
    error = np.where(runs & ~np.isnan(weighted), weighted, math.inf)
    n = pairs[2].sum(axis=0).astype(int)
    # An end of the z range where g is still above the threshold is open,
    # unless h falls on the way out and bounds the mass beyond.
    open_end = ~(ends <= level)
    if np.any(open_end):
        z_end = np.array([[z_lo], [z_hi]])
        with np.errstate(over="ignore", invalid="ignore"):
            w_k = np.exp([pieces[0].scan[1][0], pieces[-1].scan[1][-1]])[:, None] * k
            cut = np.exp(ends + np.log1p(np.exp(-np.abs(z_end))) - estimate)
        falls = np.stack([w_k[0] <= m, w_k[1] >= m])
        open_end &= ~(falls & _tolerance_met(10.0 * cut, estimate, cfg, True))
    # The rule's rows meet tol/10 on their error estimates.
    converged = ~beyond & ~open_end.any(axis=0) & _tolerance_met(10.0 * error, estimate, cfg,
                                                                  True)
    return RqmcResult(estimate, error, n, -(-n // cfg.n0), converged)


def log_density_batch(X, model: NvmModel, cfg: RqmcConfig | None = None,
                      seed: int | None = None) -> RqmcResult:
    """Estimate log f(x_i) for the rows of ``X`` under the mixture model,
    as one :class:`RqmcResult` of arrays, one entry per row.

    Constant mixtures short-circuit to the exact Gaussian log-density.
    The trapezoid rule of :func:`log_integral_batch` draws no points, so
    ``seed`` is ignored.
    """
    if not model.is_full_rank:
        raise ValueError("log-density requires a full-rank scale matrix")
    if model.spec.kind == "constant":
        v = np.atleast_1d(closed_log_density(model, X))
        n = np.zeros(len(v), dtype=np.int64)
        return RqmcResult(v, np.zeros(len(v)), n, n.copy(), np.ones(len(v), dtype=bool))

    d = model.dim
    d2 = np.atleast_1d(mahalanobis_sq(X, model.loc, model.factor))
    prefactor = -0.5 * d * _LOG_2PI - 0.5 * model.log_det
    return log_integral_batch(d2, d / 2.0, prefactor, model._w, cfg)


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
    return float(out[0]) if scalar else out


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

    return float(out[0]) if single else out
