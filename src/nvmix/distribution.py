"""Box probabilities P(a < X <= b) for normal variance mixtures.

The d+1 dimensional probability is rewritten as an integral over
(0,1)^d: the first coordinate samples the mixing variable by inversion
and the rest drive a separation-of-variables recursion of conditional
normal probabilities; W is read from a table of its quantile where the
tolerance allows and a read costs less than the quantile
(:func:`_w_table`); the model's reader of W (``_WReader`` in
:mod:`nvmix.mixtures`) builds that table, and E(sqrt(W)) for the
reordering, once, on first use.  A greedy variable reordering is applied
first so that early variables have the smallest expected conditional
ranges, then the integral is estimated by antithetic RQMC.
Rank-deficient scale matrices are handled with a reduced r-dimensional
recursion whose blocks keep all d constraints active.  :func:`prob` and
:func:`prob_singular` share the steps from a factor to the estimate
(:func:`_box_estimate`): limits centered and in the original order, and
a ``_ScaleFactor`` whose ``perm`` carries the integration order
(:func:`reorder`'s, or the model's staircase factor).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.special import ndtr, ndtri

from .linalg import _ScaleFactor
from .mixtures import _MixtureSpec, _QuantileTable, _WReader, quantile
from .model import NvmModel
from .rqmc import RqmcConfig, RqmcResult, rqmc_estimate

__all__ = ["prob"]

# Probability clamps for quantile-transform arguments; the recursion can
# otherwise feed 0 or 1 into the normal quantile.
_P_LO = 1e-16
_P_HI = 1.0 - 1e-16
_U_LO = 1e-16
_U_HI = 1.0 - 1e-16

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def _checked_limits(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Fresh float vectors of the integration limits; non-finite entries
    mean the one-sided limit."""
    a = np.array(a, dtype=float, ndmin=1)
    b = np.array(b, dtype=float, ndmin=1)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("limits must be vectors of equal length")
    if not np.all(a < b):
        raise ValueError("lower limits must be strictly below upper limits")
    return a, b


def _phi(x: float) -> float:
    # Standard normal density; exp(-inf) = 0 gives phi(+-inf) = 0.
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def reorder(a, b, sigma, mu_sqrt_w: float) -> _ScaleFactor:
    """Greedy variable reordering for the box-probability integrand.

    ``a`` and ``b`` are the centered limits in the original order.  At
    stage j the candidate with the smallest expected conditional mass
    Phi(b_hat) - Phi(a_hat) is pivoted in, the Cholesky factor gains a
    column (one matrix-vector product), and the running conditional
    variances and means of the remaining candidates take one rank-1 step
    with the pivot's truncated-normal expectation, so pivot j costs that
    product plus O(d - j) work.  ``sigma`` is read through the order and
    never copied; where candidates tie in exact arithmetic, rounding picks
    the pivot.  Returns the factor with the order as its ``perm``, so its
    ``reconstruct()`` is ``sigma``: only the integration order changes.
    """
    a, b = _checked_limits(a, b)
    sigma = np.asarray(sigma, dtype=float)
    d = len(a)
    if sigma.shape != (d, d):
        raise ValueError("scale matrix does not match limit length")
    if not mu_sqrt_w > 0:
        raise ValueError("mu_sqrt_w must be positive")

    a, b = a / mu_sqrt_w, b / mu_sqrt_w
    var = np.diag(sigma).copy()
    mean = np.zeros(d)
    C = np.zeros((d, d))
    perm = np.arange(d)
    for j in range(d):
        denom = np.sqrt(np.maximum(var[j:], 1e-12))
        with np.errstate(invalid="ignore"):
            crit = ndtr((b[j:] - mean[j:]) / denom) - ndtr((a[j:] - mean[j:]) / denom)
        i = j + int(np.argmin(crit))
        if i != j:
            for arr in (a, b, var, mean, perm):
                arr[[i, j]] = arr[[j, i]]
            C[[i, j], :j] = C[[j, i], :j]

        p = perm[j]
        C[j, j] = np.sqrt(max(sigma[p, p] - C[j, :j] @ C[j, :j], 1e-12))
        col = C[j + 1 :, j] = (sigma[perm[j + 1 :], p] - C[j + 1 :, :j] @ C[j, :j]) / C[j, j]
        lo, hi = (a[j] - mean[j]) / C[j, j], (b[j] - mean[j]) / C[j, j]
        width = ndtr(hi) - ndtr(lo)
        if width > 1e-300:
            y = (_phi(lo) - _phi(hi)) / width
        else:
            # Numerically empty slice: fall back to a clamped midpoint.
            finite_lo = lo if np.isfinite(lo) else hi
            finite_hi = hi if np.isfinite(hi) else lo
            mid = 0.5 * (finite_lo + finite_hi)
            y = float(np.clip(mid if np.isfinite(mid) else 0.0, -37.0, 37.0))
        var[j + 1 :] -= col**2
        mean[j + 1 :] += col * y

    return _ScaleFactor(C=C, rank=d, perm=perm, block_heads=np.arange(d))


class BoxIntegrand:
    """Vectorized separation-of-variables integrand on (0,1)^r of the box
    ``a0 < X - loc <= b0`` (limits centered, in the original order) under
    ``factor``, whose ``perm`` gives the integration order.

    The box's rows of nonzero variance are read in that order, each
    divided by its entry in its block's column so that entry becomes one
    (a negative entry flips the row's limits).  A block of size one per
    pivot reproduces the full-rank recursion, larger blocks take the
    max/min over their rows so that all d constraints stay active when the
    scale matrix is singular.

    W comes from ``table``, if given, as exp(L(logit(u0))) with L its
    interpolant of log w (a few dozen ns per point, against several
    hundred for the inverse-gamma quantile), else from the quantile.

    Step l costs one BLAS product, the block's partial sums
    ``z[:, :l] @ coef[rows, :l].T`` over the conditional normal quantiles
    drawn so far, at most two ``ndtr`` and one ``ndtri``, all into a few
    length-n buffers made once per call (``ndtri`` into column l of the
    Fortran-ordered ``z``); a block's rows are reduced one by one with
    in-place ``np.maximum``/``np.minimum``, with no (n, k) temporary.  A
    block whose lower limits are all -inf (upper limits all +inf) skips
    ``ndtr`` for that side, which is exactly 0 (1) there; with the lower
    side open, the upper bound itself is the width.  Only blocks of
    several rows with a lower bound clamp their width at 0.
    """

    def __init__(self, a0, b0, factor: _ScaleFactor, spec: _MixtureSpec, nu,
                 table: _QuantileTable | None = None):
        self.rank = factor.rank
        sizes = factor.block_sizes()
        n_blocked = int(sizes.sum())
        rows = factor.perm[:n_blocked]
        pivot_entries = factor.C[np.arange(n_blocked), np.repeat(np.arange(self.rank), sizes)]
        with np.errstate(invalid="ignore"):
            self.lower = np.asarray(a0, dtype=float)[rows] / pivot_entries
            self.upper = np.asarray(b0, dtype=float)[rows] / pivot_entries
        neg = pivot_entries < 0
        self.lower[neg], self.upper[neg] = self.upper[neg], self.lower[neg]
        self.coef = factor.C[:n_blocked, : self.rank] / pivot_entries[:, None]
        heads = factor.block_heads.tolist()
        self.blocks = [slice(h, h + k) for h, k in zip(heads, sizes.tolist())]
        self.open_lower = [bool(np.all(self.lower[r] == -np.inf)) for r in self.blocks]
        self.open_upper = [bool(np.all(self.upper[r] == np.inf)) for r in self.blocks]
        self.spec = spec
        self.nu = np.atleast_1d(np.asarray(nu, dtype=float))
        self.table = table

    def __call__(self, u: np.ndarray) -> np.ndarray:
        u = np.asfortranarray(np.atleast_2d(u), dtype=float)
        if u.shape[1] != self.rank:
            raise ValueError(f"points must have {self.rank} coordinates")
        n = u.shape[0]
        u0 = np.clip(u[:, 0], _U_LO, _U_HI)
        if self.table is None:
            inv_sqrt_w = 1.0 / np.sqrt(np.maximum(quantile(self.spec, u0, self.nu), 1e-300))
        else:
            # logit(u0) by three ufuncs, which cost less than scipy's logit.
            z0 = np.divide(u0, 1.0 - u0)
            inv_sqrt_w = np.exp(-0.5 * self.table.log_w(np.log(z0, out=z0)))

        z = np.empty((n, self.rank), order="F")
        g = np.ones(n)
        d_buf, e_buf, w_buf, t = (np.empty(n) for _ in range(4))
        with np.errstate(invalid="ignore"):
            for l, rows in enumerate(self.blocks):
                partial = z[:, :l] @ self.coef[rows, :l].T
                open_lower = self.open_lower[l]
                d_l = 0.0 if open_lower else _ndtr_of_bound(
                    d_buf, self.lower[rows], partial, inv_sqrt_w, np.maximum, t)
                e_l = 1.0 if self.open_upper[l] else _ndtr_of_bound(
                    e_buf, self.upper[rows], partial, inv_sqrt_w, np.minimum, t)
                width = e_l if open_lower else np.subtract(e_l, d_l, out=w_buf)
                if l + 1 < self.rank:
                    np.multiply(u[:, l + 1], width, out=t)
                    if not open_lower:
                        t += d_l
                    # np.clip's own overhead is several times these two ufuncs'.
                    np.maximum(t, _P_LO, out=t)
                    np.minimum(t, _P_HI, out=t)
                    ndtri(t, out=z[:, l])
                if rows.stop - rows.start > 1 and not open_lower:
                    np.maximum(width, 0.0, out=width)  # lower max may pass upper min
                g *= width
        return g


def _ndtr_of_bound(out, limits, partial, inv_sqrt_w, reduce, scratch) -> np.ndarray:
    """``ndtr`` of ``reduce`` (which must propagate NaN) over a block's rows j
    of ``limits[j] * inv_sqrt_w - partial[:, j]``, into ``out``."""
    for j, limit in enumerate(limits):
        term = scratch if j else out
        np.multiply(inv_sqrt_w, limit, out=term)
        term -= partial[:, j]
        if j:
            reduce(out, term, out=out)
    return ndtr(out, out=out)


def _w_table(w: _WReader, cfg: RqmcConfig, rows: int) -> _QuantileTable | None:
    """``w``'s table if the integrand may read W from it.

    Given W = w, the probability of ``rows`` constraints on sqrt(w) Y, Y
    normal, moves by at most phi(1) < 0.25 per constraint and unit of
    log w (a face at x = limit / (sd(Y_i) sqrt(w)), by |x| phi(x) / 2), so
    a bound within tol / (2.5 rows) moves the estimate by at most tol/10.
    A relative tol gives no such budget.  A read of L with its logit costs
    20 to 60 ns per value: less than the inverse-gamma quantile (several
    hundred) or a black box's Python callback, but more than the constant,
    Pareto and inverse-Burr quantiles (6 to 44 ns), which are read instead.
    """
    if cfg.tol_type != "absolute" or w.spec.kind not in ("inverse_gamma", "blackbox"):
        return None
    return w.table if 0.25 * rows * w.table.bound <= 0.1 * cfg.tol else None


def _antithetic(f):
    """``u -> (f(u) + f(1 - u)) / 2`` by one call of ``f`` on ``u`` stacked
    over ``1 - u`` in one Fortran-ordered array."""
    def pair_mean(u):
        n = len(u)
        both = np.empty((2 * n, u.shape[1]), order="F")
        both[:n] = u
        np.subtract(1.0, both[:n], out=both[n:])
        v = f(both)
        return 0.5 * (v[:n] + v[n:])

    return pair_mean


def _centered(a, b, model: NvmModel) -> tuple[np.ndarray, np.ndarray]:
    """The box's limits, checked against the model, less its location."""
    a, b = _checked_limits(a, b)
    if len(a) != model.dim:
        raise ValueError("limit length does not match model dimension")
    return a - model.loc, b - model.loc


def _box_estimate(a0, b0, factor: _ScaleFactor, model: NvmModel, cfg: RqmcConfig | None,
                  seed) -> RqmcResult:
    """Antithetic RQMC estimate, clamped to [0, 1], of the box ``a0 < X -
    loc <= b0`` (limits centered and in the original order) under
    ``factor``, which carries the integration order, in the factor's
    rank, reading W as :func:`_w_table` allows for the rows of nonzero
    variance."""
    if cfg is None:
        cfg = RqmcConfig()
    rows = factor.dim - len(factor.degenerate_rows)
    g = BoxIntegrand(a0, b0, factor, model.spec, model.nu, _w_table(model._w, cfg, rows))
    result = rqmc_estimate(_antithetic(g), factor.rank, cfg, seed)
    return replace(result, estimate=min(max(result.estimate, 0.0), 1.0))


def prob(a, b, model: NvmModel, cfg: RqmcConfig | None = None,
         seed: int | None = None) -> RqmcResult:
    """Estimate P(a < X <= b) for X following the given mixture model.

    Limits are shifted by the location, variables are greedily reordered,
    and the antithetic integrand (g(u) + g(1-u))/2 is fed to the
    iterative RQMC driver in dimension d.  Point counts in the result
    refer to u-points; each costs two integrand evaluations.  W is read
    from the model's tabulated quantile where :func:`_w_table` allows.  A
    rank-deficient scale matrix goes to :func:`prob_singular` unreordered:
    ``reorder`` builds a full-rank Cholesky factor.
    """
    if not model.is_full_rank:
        return prob_singular(a, b, model, cfg, seed)
    a0, b0 = _centered(a, b, model)
    factor = reorder(a0, b0, model.scale, model._w.mean_sqrt_w)
    return _box_estimate(a0, b0, factor, model, cfg, seed)


def prob_singular(a, b, model: NvmModel, cfg: RqmcConfig | None = None,
                  seed: int | None = None) -> RqmcResult:
    """P(a < X <= b) when the scale matrix has rank r < d (also valid at
    full rank).

    The integration runs over (0,1)^r; within each pivot block the lower
    limits enter through a max and the upper limits through a min, so all
    d constraints remain active.  Zero-variance variables reduce to a
    feasibility check on their limits.  W is read as in :func:`prob`, the
    variables of nonzero variance being the constraints.
    """
    a0, b0 = _centered(a, b, model)
    # Point-mass variables: the box either contains them or the
    # probability is zero.
    point = model.factor.degenerate_rows
    if not np.all((a0[point] < 0.0) & (0.0 <= b0[point])):
        return RqmcResult(0.0, 0.0, 0, 0, True)
    return _box_estimate(a0, b0, model.factor, model, cfg, seed)
