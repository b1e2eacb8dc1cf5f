"""Log-density estimation for normal variance mixtures.

The log-density is a one-dimensional integral over the mixing variable's
probability scale u.  A crude log-space RQMC pass runs first on all
inputs at once, over shared mixing realizations (one row per input of a
single accumulator), and settles most small Mahalanobis distances.  Each
of its batches evaluates the quantile once for all inputs and reduces
the inputs' integrands block by block, a few dozen rows at a time, so
its memory does not grow with the number of inputs.  For
large ones the integrand collapses onto a narrow peak, which can sit
within 1e-17 of u = 0 or u = 1, where the integrand decays only
polynomially in u; at zero distance it is monotone with its peak at
u = 0.  The adaptive path therefore works in the logit coordinate
z = log(u / (1 - u)): there the integrand is
g(z) = h(expit(z)) expit(z) expit(-z), which decays exponentially toward
both ends whenever h is bounded, and the quantile receives u = expit(z)
and 1 - u = expit(-z), each computed directly.  The path locates the peak
of h by bisection in z (only quantile evaluations are available),
maximizes g between that peak and z = 0, brackets the region where g
exceeds a threshold ten orders below its maximum and integrates g over
that bracket by RQMC; the mass outside the bracket is negligible.  All
inputs the crude pass leaves unsettled take these steps together: each
bisection or maximization step evaluates the quantile once for every
input whose search still runs, and the RQMC runs as one block, each
input under its own digital shifts until it meets the tolerance.  The
number of quantile calls thus grows with the number of steps, not with
the number of inputs.  The same machinery integrates any integrand of
the form c * w^(-k) * exp(-m/w), which covers the posterior weights
needed for fitting and the Mahalanobis-distance density.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.special import expit, gammainc, gammaln, log_expit, logit

from .linalg import mahalanobis_sq
from .mixtures import MixtureSpec, quantile
from .model import NvmModel
# rqmc_log_estimate stays bound here for tools that trace this module's
# estimator by name.
from .rqmc import (_BLOCK_VALUES, RqmcAccumulator, RqmcConfig, RqmcResult, _run,  # noqa: F401
                   log_mean_exp, rqmc_log_estimate)

__all__ = [
    "peak",
    "region_bounds",
    "log_integral_batch",
    "log_density_batch",
    "closed_log_density",
    "log_lower_incomplete_gamma",
]

_LOG_2PI = math.log(2.0 * math.pi)
_LN10 = math.log(10.0)
_U_EPS = 1e-16
_DIVERGES = "integrand diverges at w = 0 when D2 = 0"
# The adaptive path's bracket ends where g falls _K_TH decades below its
# maximum; its searches stop at a z-width of _EPS_BISEC.
_K_TH = 10.0
_EPS_BISEC = 1e-6
# Batches of the crude pass that every input of log_integral_batch gets.
_PILOT_BATCHES = 4
# Range of the logit coordinate: expit(z) and expit(-z) are positive
# normal doubles for |z| <= -_Z_LO.  A black box only receives
# u = expit(z), which stays below 1 for z <= _Z_HI_BLACKBOX.
_Z_LO = math.log(np.finfo(float).tiny)
_Z_HI_BLACKBOX = -math.log(np.finfo(float).eps)


def _log_h_of_w(w, pref, k, m) -> np.ndarray:
    """log integrand from quantile values; broadcasts params against w."""
    w = np.asarray(w, dtype=float)
    safe = np.maximum(w, 1e-300)
    return np.where(w > 0.0, pref - k * np.log(safe) - m / safe, -np.inf)


def _crude_log_means(w, pref, k, m, B) -> np.ndarray:
    """Per-batch log-means of the integrands at the quantile values ``w``
    of one crude batch (``B`` randomizations of equal length, one after
    the other): row i of the ``(len(m), B)`` result equals
    ``log_mean_exp(_log_h_of_w(w, pref[i], k[i], m[i]).reshape(B, -1),
    axis=1)``.

    ``pref - k log w`` is formed once per distinct (``pref``, ``k``)
    pair; the rows sharing a pair are then walked in blocks of about
    ``_BLOCK_VALUES`` values, each completed by ``- m / w`` and reduced
    while it is still in cache.
    """
    positive = w > 0.0
    # Where w = 0 the integrand is 0 (log -inf); dividing by 1 there keeps
    # the block's arithmetic finite.
    safe = np.where(positive, np.maximum(w, 1e-300), 1.0)
    log_w = np.log(safe)
    step = max(1, _BLOCK_VALUES // len(w))
    out = np.empty((len(m), B))
    # Each (pref, k) pair as one complex number, pref + k i, which makes
    # the pairs one sortable array.
    pairs, pair_of_row, counts = np.unique(pref + 1j * k, return_inverse=True,
                                           return_counts=True)
    rows_of_pair = np.split(np.argsort(pair_of_row, kind="stable"), np.cumsum(counts)[:-1])
    for pair, rows in zip(pairs, rows_of_pair):
        base = np.where(positive, pair.real - pair.imag * log_w, -np.inf)
        for start in range(0, len(rows), step):
            r = rows[start:start + step]
            block = np.divide(m[r, None], safe)
            np.subtract(base, block, out=block)
            out[r] = log_mean_exp(block.reshape(len(r), B, -1), axis=2)
    return out


def _z_range(spec: MixtureSpec) -> tuple[float, float]:
    return _Z_LO, (_Z_HI_BLACKBOX if spec.kind == "blackbox" else -_Z_LO)


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


def _quantile_z(spec, z, nu):
    """Quantile at u = expit(z), with 1 - u = expit(-z), in one call for
    z of any shape."""
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    return quantile(spec, expit(flat), nu, expit(-flat)).reshape(z.shape)


def _log_h_z(z, spec, nu, pref, k, m):
    """log h at u = expit(z); the parameters broadcast against z."""
    return _log_h_of_w(_quantile_z(spec, z, nu), pref, k, m)


def _log_g(z, spec, nu, pref, k, m):
    """log of the integrand in the logit coordinate, h(u) du/dz."""
    return _log_h_z(z, spec, nu, pref, k, m) + log_expit(z) + log_expit(-z)


def _bisect(goes_up, a, b, eps_bisec, rows) -> tuple[np.ndarray, np.ndarray]:
    """Per-row bisection between ``a`` and ``b`` down to a width of
    ``eps_bisec``, of the given rows only.

    At each step the midpoint replaces ``a`` where ``goes_up(mid, rows)``
    holds and ``b`` elsewhere; one call serves all rows still wider than
    ``eps_bisec``.
    """
    a, b = a.copy(), b.copy()
    rows = rows[np.abs(b[rows] - a[rows]) > eps_bisec]
    while len(rows):
        mid = 0.5 * (a[rows] + b[rows])
        up = goes_up(mid, rows)
        a[rows] = np.where(up, mid, a[rows])
        b[rows] = np.where(up, b[rows], mid)
        rows = rows[np.abs(b[rows] - a[rows]) > eps_bisec]
    return a, b


def _level_crossings(f, level, z_in, z_out: float, eps_bisec) -> np.ndarray:
    """Per row, where ``f``, above ``level`` at ``z_in``, falls to it on the
    way to ``z_out``, by bisection down to a z-width of ``eps_bisec``; NaN
    where ``f`` is still above the level at ``z_out``.  ``f(z, rows)``
    evaluates the rows' integrands, one z each."""
    z_out = np.full(len(z_in), z_out)
    rows = np.arange(len(z_in))
    open_end = f(z_out, rows) > level
    a, b = _bisect(lambda z, r: f(z, r) > level[r], z_in, z_out, eps_bisec, rows[~open_end])
    return np.where(open_end, np.nan, 0.5 * (a + b))


def _peak_z(spec, nu, pref, k, m, eps_bisec, knots=None) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the logit of the peak location of h and the peak's log
    height.

    Bisection in z for ``quantile(expit(z)) = m / k`` down to a z-width of
    ``eps_bisec``, all rows together, each starting from the knots (sorted
    u and their quantiles) around its target when ``knots`` is given.
    When the quantile cannot reach the target (the mixing support is
    bounded on that side, or the target lies beyond the doubles' range)
    the peak collapses to that end of the z range and h is evaluated
    there; otherwise the height has a closed form that does not depend on
    the mixing distribution.  At D2 = 0 the target w* = 0 is unreachable
    unless W has an atom at 0, so h is monotone and its peak is at the
    left end.
    """
    z_lo, z_hi = _z_range(spec)
    w_star = m / k
    lo, hi = np.full(len(m), z_lo), np.full(len(m), z_hi)
    if knots is not None:
        us, ws = knots
        idx = np.searchsorted(ws, w_star)
        below, above = idx > 0, idx < len(us)
        lo[below] = np.clip(logit(us[idx[below] - 1]), z_lo, z_hi)
        hi[above] = np.clip(logit(us[idx[above]]), z_lo, z_hi)
    lo, hi = _bisect(lambda z, r: _quantile_z(spec, z, nu) <= w_star[r],
                     lo, hi, eps_bisec, np.arange(len(m)))
    at_lo = lo == z_lo
    at_hi = ~at_lo & (hi == z_hi)
    z = np.where(at_lo, lo, np.where(at_hi, hi, 0.5 * (lo + hi)))
    log_h_max = np.empty(len(m))
    edge = np.flatnonzero(at_lo | at_hi)
    if len(edge):
        log_h_max[edge] = _log_h_z(z[edge], spec, nu, pref[edge], k[edge], m[edge])
    inner = np.flatnonzero(~(at_lo | at_hi))
    if np.any(m[inner] == 0.0):  # quantile(expit(lo)) <= w* = 0
        raise ValueError(_DIVERGES)
    # math.log per row: numpy's array log may differ from it in the last
    # bit, and fixed-seed results pin these heights.
    log_h_max[inner] = [p - kk * (math.log(mm) - math.log(kk)) - kk
                        for p, kk, mm in zip(pref[inner], k[inner], m[inner])]
    return z, log_h_max


# Constants of scipy's bounded Brent (minimize_scalar(method="bounded")).
_BRENT_SQRT_EPS = math.sqrt(2.2e-16)
_BRENT_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_BRENT_MAXFUN = 500


def _brent_max(f, a, b, xatol, rows) -> tuple[np.ndarray, np.ndarray]:
    """Maximize ``f(z, rows)`` over ``[a, b]``, one interval per row.

    A row-masked mirror of scipy's bounded Brent minimizer applied to -f,
    with its constants and branch order, so each row ends where the scalar
    routine would; one call of ``f`` serves all rows still running.
    Returns the maximizers and the maxima.
    """
    xf = a + _BRENT_GOLDEN * (b - a)
    fx = -f(xf, rows)
    zero = np.zeros(len(rows))
    # Per row: bracket, best point, second and third best points, the
    # step before last and the last step.
    state = np.array([a, b, xf, fx, xf, fx, xf, fx, zero, zero])
    live = np.arange(len(rows))
    for _ in range(_BRENT_MAXFUN - 1):
        s = state[:, live]
        a, b, xf = s[0], s[1], s[2]
        xm = 0.5 * (a + b)
        tol1 = _BRENT_SQRT_EPS * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        go = np.abs(xf - xm) > (tol2 - 0.5 * (b - a))
        live, xm, tol1, tol2 = live[go], xm[go], tol1[go], tol2[go]
        if not len(live):
            break
        a, b, xf, fx, nfc, fnfc, fulc, ffulc, e, rat = s[:, go]
        with np.errstate(all="ignore"):
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p = np.where(q > 0.0, -p, p)
            q = np.abs(q)
            parabolic = ((np.abs(e) > tol1) & (np.abs(p) < np.abs(0.5 * q * e))
                         & (p > q * (a - xf)) & (p < q * (b - xf)))
            step = (p + 0.0) / q
        x = xf + step
        near_end = parabolic & (((x - a) < tol2) | ((b - x) < tol2))
        step = np.where(near_end, tol1 * (np.sign(xm - xf) + ((xm - xf) == 0)), step)
        e_golden = np.where(xf >= xm, a - xf, b - xf)
        e = np.where(parabolic, rat, e_golden)
        step = np.where(parabolic, step, _BRENT_GOLDEN * e_golden)
        x = xf + (np.sign(step) + (step == 0)) * np.maximum(np.abs(step), tol1)
        fu = -f(x, rows[live])

        better = fu <= fx
        to_a = np.where(better, x >= xf, x < xf)
        end = np.where(better, xf, x)
        second = ~better & ((fu <= fnfc) | (nfc == xf))
        third = ~better & ~second & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
        demote = better | second
        state[:, live] = (
            np.where(to_a, end, a), np.where(to_a, b, end),
            np.where(better, x, xf), np.where(better, fu, fx),
            np.where(better, xf, np.where(second, x, nfc)),
            np.where(better, fx, np.where(second, fu, fnfc)),
            np.where(demote, nfc, np.where(third, x, fulc)),
            np.where(demote, fnfc, np.where(third, fu, ffulc)),
            e, step,
        )
    return state[2], -state[3]


def peak(D2: float, shift_k: float, prefactor: float, spec: MixtureSpec, nu,
         eps_bisec: float = _EPS_BISEC) -> tuple[float, float]:
    """Location and height of the peak of one integrand of
    :func:`log_integral_batch`.

    Solves ``quantile(u) = D2 / (2 shift_k)`` by bisection in
    z = logit(u); this is the one-point case of the search that
    :func:`log_integral_batch` runs for all its inputs at once.
    ``eps_bisec`` bounds the final bracket's width in z, so u* is located
    to a relative precision of about ``eps_bisec`` near 0, 1 - u*
    likewise near 1, and u* to ``eps_bisec / 4`` in between.  u* is
    returned as the nearest double.  The interior peak height has a closed
    form independent of the mixing distribution; when the quantile cannot
    reach the target (the mixing support is bounded on that side) the peak
    collapses to the boundary and the integrand is evaluated there
    instead.
    """
    if D2 <= 0.0:
        raise ValueError("peak undefined for D2 = 0; use the crude path")
    z_star, log_h_max = _peak_z(spec, nu, *_row_arrays([D2], shift_k, prefactor), eps_bisec)
    return float(expit(z_star[0])), float(log_h_max[0])


def region_bounds(D2: float, shift_k: float, prefactor: float, spec: MixtureSpec, nu,
                  u_star: float, log_h_max: float, k_th: float = _K_TH,
                  eps_bisec: float = _EPS_BISEC) -> tuple[float, float]:
    """Bracket {u : log h(u) > log_h_max - k_th * log 10} of one integrand
    h of :func:`log_integral_batch`.

    Each end is found by bisection in z = logit(u) between u_star and that
    end of the z range, down to a z-width of ``eps_bisec`` (a relative
    precision in u near 0 and in 1 - u near 1).  Returns ``(u_l, u_r)``
    with ``u_l <= u_star <= u_r``; a side on which the integrand never
    falls below the threshold collapses to 0 or 1.
    """
    z_lo, z_hi = _z_range(spec)
    pref, k, m = _row_arrays([D2], shift_k, prefactor)
    level = np.array([log_h_max - k_th * _LN10])
    z_star = np.clip(logit(np.array([u_star], dtype=float)), z_lo, z_hi)

    def f(z, rows):
        return _log_h_z(z, spec, nu, pref[rows], k[rows], m[rows])

    z_l = _level_crossings(f, level, z_star, z_lo, eps_bisec)[0]
    z_r = _level_crossings(f, level, z_star, z_hi, eps_bisec)[0]
    return (0.0 if np.isnan(z_l) else float(expit(z_l)),
            1.0 if np.isnan(z_r) else float(expit(z_r)))


def _bracket_z(spec, nu, pref, k, m, knots):
    """``(z_l, z_r, closed)`` per row: the region where g exceeds its
    maximum less ``_K_TH`` decades.

    g peaks between the peak of h and z = 0 (outside, both h and the
    Jacobian fall away from it); there it is maximized by bounded Brent
    to an ``_EPS_BISEC`` z-tolerance, and each end of the region is found
    by bisection.  ``closed`` is False when g still exceeds the threshold
    at an end of the z range, i.e. mass lies beyond the doubles' reach.
    """
    z_lo, z_hi = _z_range(spec)
    z_h, _ = _peak_z(spec, nu, pref, k, m, _EPS_BISEC, knots)

    def f(z, rows):
        return _log_g(z, spec, nu, pref[rows], k[rows], m[rows])

    a, b = np.minimum(z_h, 0.0), np.maximum(z_h, 0.0)
    z_g, log_g_max = a.copy(), np.empty(len(m))
    wide = b - a > _EPS_BISEC
    rows = np.flatnonzero(wide)
    if len(rows):
        z_g[rows], log_g_max[rows] = _brent_max(f, a[rows], b[rows], _EPS_BISEC, rows)
    rows = np.flatnonzero(~wide)
    if len(rows):
        log_g_max[rows] = f(a[rows], rows)
    level = log_g_max - _K_TH * _LN10
    z_l = _level_crossings(f, level, z_g, z_lo, _EPS_BISEC)
    z_r = _level_crossings(f, level, z_g, z_hi, _EPS_BISEC)
    closed = ~np.isnan(z_l) & ~np.isnan(z_r)
    return np.where(np.isnan(z_l), z_lo, z_l), np.where(np.isnan(z_r), z_hi, z_r), closed


def log_integral_batch(D2, shift_k, prefactor, spec: MixtureSpec, nu,
                       cfg: RqmcConfig | None = None,
                       seed: int | None = None) -> list[RqmcResult]:
    """Estimate ``log int_0^1 h_i(u) du`` for a batch of mixing integrands.

    Row i integrates ``exp(prefactor) w^(-shift_k) exp(-D2/(2w))`` with
    ``w`` the mixing quantile at u: ``shift_k = d/2`` gives the density,
    ``d/2 + 1`` the numerator of E[1/W | x] used by the fitting algorithm.
    ``D2`` is 1-D and non-negative; ``shift_k`` (positive) and
    ``prefactor`` broadcast against it.

    A crude log-space RQMC pass of ``_PILOT_BATCHES`` batches runs on all
    inputs with shared mixing realizations (one accumulator row per
    input); inputs that meet the tolerance return immediately.  Per batch
    it forms ``prefactor - shift_k log w`` once per distinct
    (``prefactor``, ``shift_k``) pair and reduces the rows in blocks of
    about ``_BLOCK_VALUES`` values to their log-means per randomization.
    The rest,
    zero Mahalanobis distance included, go through the adaptive path in
    the logit coordinate z = logit(u) (see the module docstring), all
    together: the peak search starts from the crude pass's quantile
    knots, every bisection and the maximization of g stop at a z-width of
    ``_EPS_BISEC``, the bracket ends where g falls ``_K_TH`` decades below
    its maximum, and RQMC integrates g over the bracket, each input under
    its own shifts until it meets the tolerance.  Each step of these
    searches, and each RQMC batch, evaluates the quantile once for all
    inputs still running, so the number of quantile calls does not grow
    with the number of inputs.  The crude batches count against
    ``cfg.i_max``: the adaptive RQMC gets the rest of that budget, and an
    input the crude pass leaves unsettled with none left keeps its crude
    result, unconverged.  A result is unconverged when that RQMC misses
    the tolerance or when g is still above the threshold at an end of the
    z range.  A mixing distribution with an atom at w = 0 makes
    the integral diverge at D2 = 0, which raises ``ValueError``.
    """
    if cfg is None:
        cfg = RqmcConfig()
    prefs, ks, ms = _row_arrays(D2, shift_k, prefactor)
    N = len(ms)
    if N == 0:
        return []
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    # An atom of W at 0 may lie below every point of the crude pass; the
    # smallest u of the logit path meets it.
    if np.any(ms == 0.0) and _quantile_z(spec, _Z_LO, nu) == 0.0:
        raise ValueError(_DIVERGES)

    # Child i of the root seed, as SeedSequence(seed).spawn(N + 2)[i]
    # would give it, built only for the rows that need one.
    root = np.random.SeedSequence(seed)

    def child(i):
        return np.random.SeedSequence(root.entropy, spawn_key=(i,))

    crude = RqmcAccumulator(1, cfg, child(0), log=True)
    us, ws = [], []
    for _ in range(min(_PILOT_BATCHES, cfg.i_max)):
        u = np.clip(crude.draw()[:, 0], _U_EPS, 1.0 - _U_EPS)
        w = np.asarray(quantile(spec, u, nu), dtype=float)
        if np.any(w == 0.0) and np.any(ms == 0.0):
            raise ValueError(_DIVERGES)
        us.append(u)
        ws.append(w)
        crude.fold(_crude_log_means(w, prefs, ks, ms, cfg.B))

    results = crude.results()
    todo = np.flatnonzero(~crude.converged())
    # The adaptive path gets what the crude pass left of the i_max budget;
    # without any, an unsettled row keeps its unconverged crude result.
    budget = cfg.i_max - crude.batches
    if not len(todo) or budget < 1:
        return results
    us = np.concatenate(us)
    order = np.argsort(us, kind="stable")
    knots = us[order], np.concatenate(ws)[order]
    pref, k, m = prefs[todo], ks[todo], ms[todo]
    z_l, z_r, closed = _bracket_z(spec, nu, pref, k, m, knots)
    width = z_r - z_l

    def mid_log_g(v, rows):
        z = z_l[rows, None] + width[rows, None] * v[:, :, 0]
        return _log_g(z, spec, nu, pref[rows, None], k[rows, None], m[rows, None])

    mids = _run(mid_log_g, 1, replace(cfg, i_max=budget), [child(i + 2) for i in todo], log=True)
    for j, (i, mid) in enumerate(zip(todo, mids)):
        batches = crude.batches + mid.iterations_used
        results[i] = RqmcResult(
            estimate=math.log(width[j]) + mid.estimate,
            error_estimate=mid.error_estimate,
            n_per_randomization=batches * cfg.n0,
            iterations_used=batches,
            converged=mid.converged and bool(closed[j]),
        )
    return results


def log_density_batch(X, model: NvmModel, cfg: RqmcConfig | None = None,
                      seed: int | None = None) -> list[RqmcResult]:
    """Estimate log f(x_i) for the rows of ``X`` under the mixture model.

    Constant mixtures short-circuit to the exact Gaussian log-density.
    """
    if not model.is_full_rank:
        raise ValueError("log-density requires a full-rank scale matrix")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = model.dim
    if X.shape[1] != d:
        raise ValueError(f"points must have {d} columns")
    if model.spec.kind == "constant":
        return [RqmcResult(float(v), 0.0, 0, 0, True) for v in closed_log_density(model, X)]

    d2 = np.asarray(mahalanobis_sq(X, model.loc, model.factor), dtype=float)
    prefactor = -0.5 * d * _LOG_2PI - 0.5 * model.log_det
    return log_integral_batch(d2, d / 2.0, prefactor, model.spec, model.nu, cfg, seed)


def log_lower_incomplete_gamma(z: float, x) -> np.ndarray | float:
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
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    d = model.dim
    d2 = np.asarray(mahalanobis_sq(X, model.loc, model.factor), dtype=float)
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
            + log_lower_incomplete_gamma(z, half)
        )
    else:
        raise ValueError(f"no closed-form density for mixture kind {kind!r}")

    if single:
        return float(out[0])
    return out
