"""Box probabilities P(a < X <= b) for normal variance mixtures.

The d+1 dimensional probability is rewritten as an integral over
(0,1)^d: the first coordinate samples the mixing variable by inversion
and the rest drive a separation-of-variables recursion of conditional
normal probabilities; W is read from a table of its quantile where the
tolerance allows (:func:`_w_table`).  A greedy variable reordering is
applied first so that early variables have the smallest expected
conditional ranges, then the integral is estimated by antithetic RQMC.
Rank-deficient scale matrices are handled with a reduced r-dimensional recursion whose blocks
keep all d constraints active.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr, ndtri

from .linalg import ScaleFactor
from .mixtures import MixtureSpec, _QuantileTable, mean_sqrt_w, quantile
from .model import NvmModel
from .rqmc import RqmcConfig, RqmcResult, rqmc_estimate

__all__ = [
    "Hyperrectangle",
    "ReorderedProblem",
    "reorder",
    "prob",
    "prob_singular",
]

# Probability clamps for quantile-transform arguments; the recursion can
# otherwise feed 0 or 1 into the normal quantile.
_P_LO = 1e-16
_P_HI = 1.0 - 1e-16
_U_LO = 1e-16
_U_HI = 1.0 - 1e-16

_SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class Hyperrectangle:
    """Integration limits; non-finite entries mean the one-sided limit."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("limits must be vectors of equal length")
        if not np.all(a < b):
            raise ValueError("lower limits must be strictly below upper limits")


@dataclass(frozen=True)
class ReorderedProblem:
    """Limits and Cholesky factor after greedy variable reordering."""

    a: np.ndarray
    b: np.ndarray
    factor: ScaleFactor
    perm: np.ndarray
    clamped_pivots: int = 0


def _phi(x: np.ndarray) -> np.ndarray:
    # Standard normal density with phi(+-inf) = 0.
    out = np.zeros_like(x)
    finite = np.isfinite(x)
    out[finite] = np.exp(-0.5 * x[finite] ** 2) / _SQRT_2PI
    return out


def reorder(a, b, sigma, mu_sqrt_w: float) -> ReorderedProblem:
    """Greedy variable reordering for the box-probability integrand.

    At stage j the variable with the smallest expected conditional
    probability mass Phi(b_hat) - Phi(a_hat) is selected, the partial
    Cholesky factor is extended, and the conditioned value of the chosen
    variable is replaced by its truncated-normal expectation.  The
    reordering changes only the integration order, never the value of
    the probability.
    """
    box = Hyperrectangle(a, b)
    a = box.a.copy()
    b = box.b.copy()
    sigma = np.asarray(sigma, dtype=float).copy()
    d = len(a)
    if sigma.shape != (d, d):
        raise ValueError("scale matrix does not match limit length")
    if not mu_sqrt_w > 0:
        raise ValueError("mu_sqrt_w must be positive")

    C = np.zeros((d, d))
    y = np.zeros(d)
    perm = np.arange(d)
    clamped = 0

    for j in range(d):
        # Expected conditional range for each remaining candidate.
        partial = C[j:, :j] @ y[:j]
        denom_sq = np.diag(sigma)[j:] - np.sum(C[j:, :j] ** 2, axis=1)
        denom = np.sqrt(np.clip(denom_sq, 1e-12, None))
        with np.errstate(invalid="ignore"):
            a_hat = (a[j:] / mu_sqrt_w - partial) / denom
            b_hat = (b[j:] / mu_sqrt_w - partial) / denom
        crit = ndtr(b_hat) - ndtr(a_hat)
        i = j + int(np.argmin(crit))

        if i != j:
            for arr in (a, b, y, perm):
                arr[[i, j]] = arr[[j, i]]
            sigma[[i, j], :] = sigma[[j, i], :]
            sigma[:, [i, j]] = sigma[:, [j, i]]
            C[[i, j], :] = C[[j, i], :]

        resid = sigma[j, j] - C[j, :j] @ C[j, :j]
        if resid <= 0.0:
            clamped += 1
        C[j, j] = np.sqrt(max(resid, 1e-12))
        if j + 1 < d:
            C[j + 1 :, j] = (sigma[j + 1 :, j] - C[j + 1 :, :j] @ C[j, :j]) / C[j, j]

        a_hat_j = (a[j] / mu_sqrt_w - C[j, :j] @ y[:j]) / C[j, j]
        b_hat_j = (b[j] / mu_sqrt_w - C[j, :j] @ y[:j]) / C[j, j]
        width = ndtr(b_hat_j) - ndtr(a_hat_j)
        if width > 1e-300:
            num = _phi(np.array([a_hat_j]))[0] - _phi(np.array([b_hat_j]))[0]
            y[j] = num / width
        else:
            # Numerically empty slice: fall back to a clamped midpoint.
            lo = a_hat_j if np.isfinite(a_hat_j) else b_hat_j
            hi = b_hat_j if np.isfinite(b_hat_j) else a_hat_j
            mid = 0.5 * (lo + hi)
            y[j] = float(np.clip(mid if np.isfinite(mid) else 0.0, -37.0, 37.0))

    factor = ScaleFactor(
        C=C,
        rank=d,
        perm=np.arange(d),
        row_scales=np.ones(d),
        block_heads=np.arange(d),
    )
    return ReorderedProblem(a=a, b=b, factor=factor, perm=perm, clamped_pivots=clamped)


class BoxIntegrand:
    """Vectorized separation-of-variables integrand on (0,1)^r.

    Rows are pre-scaled so each carries a unit coefficient on its block's
    pivot column; a block of size one per pivot reproduces the full-rank
    recursion, larger blocks take the max/min over their rows so that all
    d constraints stay active when the scale matrix is singular.

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
    ``ndtr`` for that side, which is exactly 0 (1) there.  Only blocks of
    several rows clamp their width at 0.
    """

    def __init__(self, lower, upper, coef, block_heads, spec: MixtureSpec, nu,
                 table: _QuantileTable | None = None):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        self.coef = np.asarray(coef, dtype=float)
        heads = [int(h) for h in block_heads]
        self.rank = len(heads)
        self.blocks = [slice(h, e) for h, e in zip(heads, heads[1:] + [len(self.coef)])]
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
        d_buf, e_buf, width, t = (np.empty(n) for _ in range(4))
        with np.errstate(invalid="ignore"):
            for l, rows in enumerate(self.blocks):
                partial = z[:, :l] @ self.coef[rows, :l].T
                d_l = 0.0 if self.open_lower[l] else _ndtr_of_bound(
                    d_buf, self.lower[rows], partial, inv_sqrt_w, np.maximum, t)
                e_l = 1.0 if self.open_upper[l] else _ndtr_of_bound(
                    e_buf, self.upper[rows], partial, inv_sqrt_w, np.minimum, t)
                np.subtract(e_l, d_l, out=width)
                if l + 1 < self.rank:
                    np.multiply(u[:, l + 1], width, out=t)
                    t += d_l
                    # np.clip's own overhead is several times these two ufuncs'.
                    np.maximum(t, _P_LO, out=t)
                    np.minimum(t, _P_HI, out=t)
                    ndtri(t, out=z[:, l])
                if rows.stop - rows.start > 1:  # lower max may pass upper min
                    np.maximum(width, 0.0, out=width)
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


def _w_table(spec: MixtureSpec, nu, cfg: RqmcConfig, rows: int) -> _QuantileTable | None:
    """The call's tabulated quantile if the integrand may read W from it.

    Given W = w, the probability of ``rows`` constraints on sqrt(w) Y, Y
    normal, moves by at most phi(1) < 0.25 per constraint and unit of
    log w (a face at x = limit / (sd(Y_i) sqrt(w)), by |x| phi(x) / 2), so
    a bound within tol / (2.5 rows) moves the estimate by at most tol/10.
    A relative tol gives no such budget; a constant W is cheaper to read.
    """
    if cfg.tol_type != "absolute" or spec.kind == "constant":
        return None
    table = _QuantileTable(spec, nu)
    return table if 0.25 * rows * table.bound <= 0.1 * cfg.tol else None


def _box_integrand(a0, b0, factor: ScaleFactor, spec: MixtureSpec, nu,
                   table: _QuantileTable | None = None) -> BoxIntegrand:
    """Integrand for the box ``a0 < C z <= b0`` (limits centered and in
    the factor's row order), reading W from ``table`` if one is given.

    Every row is divided by its entry in its block's column, so that entry
    becomes one (a staircase factor's rows already carry a unit entry but
    may have been scaled by a negative ``row_scales``, which flips the
    limits); zero-variance rows are left out.
    """
    n_blocked = factor.dim - len(factor.degenerate_rows)
    block_of_row = np.repeat(np.arange(factor.rank), factor.block_sizes())
    pivot_entries = factor.C[np.arange(n_blocked), block_of_row]
    divisors = factor.row_scales[:n_blocked] * pivot_entries
    with np.errstate(invalid="ignore"):
        lo = a0[:n_blocked] / divisors
        hi = b0[:n_blocked] / divisors
    neg = divisors < 0
    lo[neg], hi[neg] = hi[neg], lo[neg]
    return BoxIntegrand(
        lower=lo,
        upper=hi,
        coef=factor.C[:n_blocked, : factor.rank] / pivot_entries[:, None],
        block_heads=factor.block_heads,
        spec=spec,
        nu=nu,
        table=table,
    )


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


def _clamped(result: RqmcResult) -> RqmcResult:
    return replace(result, estimate=min(max(result.estimate, 0.0), 1.0))


def prob(a, b, model: NvmModel, cfg: RqmcConfig | None = None,
         seed: int | None = None) -> RqmcResult:
    """Estimate P(a < X <= b) for X following the given mixture model.

    Limits are shifted by the location, variables are greedily reordered,
    and the antithetic integrand (g(u) + g(1-u))/2 is fed to the
    iterative RQMC driver in dimension d.  Point counts in the result
    refer to u-points; each costs two integrand evaluations.  W is read
    from the call's tabulated quantile where :func:`_w_table` allows.  A
    rank-deficient scale matrix goes to :func:`prob_singular` unreordered:
    ``reorder`` builds a full-rank Cholesky factor.
    """
    if cfg is None:
        cfg = RqmcConfig()
    box = Hyperrectangle(a, b)
    if len(box.a) != model.dim:
        raise ValueError("limit length does not match model dimension")
    if not model.is_full_rank:
        return prob_singular(a, b, model, cfg, seed)

    a0 = box.a - model.loc
    b0 = box.b - model.loc
    msw = mean_sqrt_w(model.spec, model.nu, n_pilot=1024)
    problem = reorder(a0, b0, model.scale, msw)
    g = _box_integrand(problem.a, problem.b, problem.factor, model.spec, model.nu,
                       _w_table(model.spec, model.nu, cfg, model.dim))
    return _clamped(rqmc_estimate(_antithetic(g), model.dim, cfg, seed))


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
    if cfg is None:
        cfg = RqmcConfig()
    box = Hyperrectangle(a, b)
    if len(box.a) != model.dim:
        raise ValueError("limit length does not match model dimension")
    factor = model.factor

    a0 = (box.a - model.loc)[factor.perm]
    b0 = (box.b - model.loc)[factor.perm]
    n_blocked = model.dim - len(factor.degenerate_rows)

    # Point-mass variables: the box either contains them or the
    # probability is zero.
    for i in range(n_blocked, model.dim):
        if not (a0[i] < 0.0 <= b0[i]):
            return RqmcResult(0.0, 0.0, 0, 0, True)

    g = _box_integrand(a0, b0, factor, model.spec, model.nu,
                       _w_table(model.spec, model.nu, cfg, n_blocked))
    return _clamped(rqmc_estimate(_antithetic(g), factor.rank, cfg, seed))
