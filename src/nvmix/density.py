"""Log-density estimation for normal variance mixtures.

The log-density is a one-dimensional integral over the mixing variable's
probability scale u.  A crude log-space RQMC pass runs first on all
inputs at once, over shared mixing realizations (one row per input of a
single accumulator), and settles most small Mahalanobis distances.  For
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
that bracket by RQMC; the mass outside the bracket is negligible.  The
same machinery integrates any integrand of the form
c * w^(-k) * exp(-m/w), which covers the posterior weights needed for
fitting and the Mahalanobis-distance density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import expit, gammainc, gammaln, log_expit, logit

from .linalg import mahalanobis_sq
from .mixtures import MixtureSpec, quantile
from .model import NvmModel
from .rqmc import RqmcAccumulator, RqmcConfig, RqmcResult, rqmc_log_estimate

__all__ = [
    "DensityIntegrandParams",
    "QuantileCache",
    "log_h",
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
# Batches of the crude pass that every input of log_integral_batch gets.
_PILOT_BATCHES = 4
# Range of the logit coordinate: expit(z) and expit(-z) are positive
# normal doubles for |z| <= -_Z_LO.  A black box only receives
# u = expit(z), which stays below 1 for z <= _Z_HI_BLACKBOX.
_Z_LO = math.log(np.finfo(float).tiny)
_Z_HI_BLACKBOX = -math.log(np.finfo(float).eps)


@dataclass(frozen=True)
class DensityIntegrandParams:
    """Parameters of the one-dimensional mixing integrand.

    The integrand is ``exp(log_coeff) * w^(-shift_k) * exp(-D2/(2w))``
    with ``w`` the mixing quantile.  ``shift_k = d/2`` gives the density
    of the mixture; ``d/2 + 1`` gives the numerator of the posterior
    mean of 1/W used by the fitting algorithm.  When ``log_coeff`` is
    omitted it defaults to the Gaussian normalizing constant
    ``-(d/2) log(2 pi) - log_det/2``.
    """

    D2: float
    d: int
    log_det: float
    shift_k: float
    log_coeff: float | None = None

    def __post_init__(self):
        if self.D2 < 0:
            raise ValueError("D2 must be non-negative")
        if not self.shift_k > 0:
            raise ValueError("shift_k must be positive")

    @property
    def m(self) -> float:
        return 0.5 * self.D2

    @property
    def prefactor(self) -> float:
        if self.log_coeff is not None:
            return self.log_coeff
        return -0.5 * self.d * _LOG_2PI - 0.5 * self.log_det


def _log_h_of_w(w, pref, k, m) -> np.ndarray:
    """log integrand from quantile values; broadcasts params against w."""
    w = np.asarray(w, dtype=float)
    safe = np.maximum(w, 1e-300)
    return np.where(w > 0.0, pref - k * np.log(safe) - m / safe, -np.inf)


def log_h(u, params: DensityIntegrandParams, spec: MixtureSpec, nu) -> np.ndarray | float:
    """Log of the mixing integrand at ``u`` in (0,1)."""
    w = quantile(spec, u, nu)
    w_arr = np.atleast_1d(np.asarray(w, dtype=float))
    if params.D2 <= 0.0 and np.any(w_arr == 0.0):
        raise ValueError(_DIVERGES)
    out = _log_h_of_w(w_arr, params.prefactor, params.shift_k, params.m)
    if np.isscalar(w):
        return float(out[0])
    return out


def _z_range(spec: MixtureSpec) -> tuple[float, float]:
    return _Z_LO, (_Z_HI_BLACKBOX if spec.kind == "blackbox" else -_Z_LO)


def _quantile_z(spec, z, nu):
    """Quantile at u = expit(z), with 1 - u = expit(-z)."""
    return quantile(spec, expit(z), nu, expit(-z))


def _log_h_z(z, params: DensityIntegrandParams, spec, nu):
    """log_h at u = expit(z)."""
    return _log_h_of_w(_quantile_z(spec, z, nu), params.prefactor, params.shift_k, params.m)


def _log_g(z, params: DensityIntegrandParams, spec, nu):
    """log of the integrand in the logit coordinate, h(u) du/dz."""
    return _log_h_z(z, params, spec, nu) + log_expit(z) + log_expit(-z)


class QuantileCache:
    """Sorted store of (u, quantile(u)) pairs that seeds the peak search."""

    def __init__(self):
        self.us = np.empty(0)
        self.ws = np.empty(0)

    def add(self, us, ws) -> None:
        us = np.concatenate([self.us, np.atleast_1d(np.asarray(us, dtype=float))])
        ws = np.concatenate([self.ws, np.atleast_1d(np.asarray(ws, dtype=float))])
        order = np.argsort(us, kind="stable")
        self.us, self.ws = us[order], ws[order]

    def bracket_for_w(self, w_target: float) -> tuple[float | None, float | None]:
        """Cached u just below/above the u solving quantile(u) = w_target."""
        if len(self.us) == 0:
            return None, None
        idx = int(np.searchsorted(self.ws, w_target))
        lo = float(self.us[idx - 1]) if idx > 0 else None
        hi = float(self.us[idx]) if idx < len(self.us) else None
        return lo, hi


def _peak_z(params: DensityIntegrandParams, spec, nu, cache, eps_bisec) -> tuple[float, float]:
    """logit of the peak location of h and the peak's log height.

    Bisection in z for ``quantile(expit(z)) = D2 / (2 shift_k)`` down to a
    z-width of ``eps_bisec``, starting from the cached knots around the
    target.  When the quantile cannot reach the target (the mixing
    support is bounded on that side, or the target lies beyond the
    doubles' range) the peak collapses to that end of the z range and h
    is evaluated there; otherwise the height has a closed form that does
    not depend on the mixing distribution.  At D2 = 0 the target w* = 0
    is unreachable unless W has an atom at 0, so h is monotone and its
    peak is at the left end.
    """
    z_lo, z_hi = _z_range(spec)
    w_star = params.m / params.shift_k
    lo, hi = z_lo, z_hi
    if cache is not None:
        u_lo, u_hi = cache.bracket_for_w(w_star)
        if u_lo is not None:
            lo = max(float(logit(u_lo)), z_lo)
        if u_hi is not None:
            hi = min(float(logit(u_hi)), z_hi)
    while hi - lo > eps_bisec:
        mid = 0.5 * (lo + hi)
        if _quantile_z(spec, mid, nu) <= w_star:
            lo = mid
        else:
            hi = mid
    for end, z_end in ((lo, z_lo), (hi, z_hi)):
        if end == z_end:
            return end, float(_log_h_z(end, params, spec, nu))
    if params.m == 0.0:  # quantile(expit(lo)) <= w* = 0
        raise ValueError(_DIVERGES)
    k = params.shift_k
    log_h_max = params.prefactor - k * (math.log(params.m) - math.log(k)) - k
    return 0.5 * (lo + hi), log_h_max


def _crossing(f, level: float, z_in: float, z_out: float, eps_bisec: float) -> float | None:
    """Where ``f``, above ``level`` at ``z_in``, falls to it on the way to
    ``z_out``, by bisection down to a z-width of ``eps_bisec``; ``None``
    when ``f`` is still above the level at ``z_out``."""
    if f(z_out) > level:
        return None
    while abs(z_out - z_in) > eps_bisec:
        mid = 0.5 * (z_in + z_out)
        if f(mid) > level:
            z_in = mid
        else:
            z_out = mid
    return 0.5 * (z_in + z_out)


def peak(params: DensityIntegrandParams, spec: MixtureSpec, nu,
         cache: QuantileCache | None = None,
         eps_bisec: float = 1e-6) -> tuple[float, float]:
    """Location and height of the integrand's peak.

    Solves ``quantile(u) = D2 / (2 shift_k)`` by bisection in
    z = logit(u) seeded from the cache.  ``eps_bisec`` bounds the final
    bracket's width in z, so u* is located to a relative precision of
    about ``eps_bisec`` near 0, 1 - u* likewise near 1, and u* to
    ``eps_bisec / 4`` in between.  u* is returned as the nearest double.
    The interior peak height has a closed form independent of the mixing
    distribution; when the quantile cannot reach the target (the mixing
    support is bounded on that side) the peak collapses to the boundary
    and the integrand is evaluated there instead.
    """
    if params.D2 <= 0.0:
        raise ValueError("peak undefined for D2 = 0; use the crude path")
    z_star, log_h_max = _peak_z(params, spec, nu, cache, eps_bisec)
    return float(expit(z_star)), log_h_max


def region_bounds(params: DensityIntegrandParams, spec: MixtureSpec, nu,
                  u_star: float, log_h_max: float, k_th: float = 10.0,
                  eps_bisec: float = 1e-6) -> tuple[float, float]:
    """Bracket {u : log_h(u) > log_h_max - k_th * log 10}.

    Each end is found by bisection in z = logit(u) between u_star and that
    end of the z range, down to a z-width of ``eps_bisec`` (a relative
    precision in u near 0 and in 1 - u near 1).  Returns ``(u_l, u_r)``
    with ``u_l <= u_star <= u_r``; a side on which the integrand never
    falls below the threshold collapses to 0 or 1.
    """
    z_lo, z_hi = _z_range(spec)
    level = log_h_max - k_th * _LN10
    z_star = float(np.clip(logit(u_star), z_lo, z_hi))

    def f(z):
        return _log_h_z(z, params, spec, nu)

    z_l = _crossing(f, level, z_star, z_lo, eps_bisec)
    z_r = _crossing(f, level, z_star, z_hi, eps_bisec)
    return (0.0 if z_l is None else float(expit(z_l)),
            1.0 if z_r is None else float(expit(z_r)))


def _bracket_z(params: DensityIntegrandParams, spec, nu, cache, k_th, eps_bisec):
    """``(z_l, z_r, closed)``: the region where g exceeds its maximum less
    ``k_th`` decades.

    g peaks between the peak of h and z = 0 (outside, both h and the
    Jacobian fall away from it); there it is maximized by bounded Brent
    to an ``eps_bisec`` z-tolerance, and each end of the region is found
    by bisection.  ``closed`` is False when g still exceeds the threshold
    at an end of the z range, i.e. mass lies beyond the doubles' reach.
    """
    z_lo, z_hi = _z_range(spec)
    z_h, _ = _peak_z(params, spec, nu, cache, eps_bisec)

    def f(z):
        return float(_log_g(z, params, spec, nu))

    a, b = sorted((z_h, 0.0))
    if b - a > eps_bisec:
        opt = minimize_scalar(lambda z: -f(z), bounds=(a, b), method="bounded",
                              options={"xatol": eps_bisec})
        z_g, log_g_max = float(opt.x), -float(opt.fun)
    else:
        z_g, log_g_max = a, f(a)
    level = log_g_max - k_th * _LN10
    z_l = _crossing(f, level, z_g, z_lo, eps_bisec)
    z_r = _crossing(f, level, z_g, z_hi, eps_bisec)
    closed = z_l is not None and z_r is not None
    return (z_lo if z_l is None else z_l), (z_hi if z_r is None else z_r), closed


def log_integral_batch(params_list, spec: MixtureSpec, nu,
                       cfg: RqmcConfig | None = None, seed: int | None = None,
                       *, k_th: float = 10.0, eps_bisec: float = 1e-6) -> list[RqmcResult]:
    """Estimate ``log int_0^1 h_i(u) du`` for a batch of mixing integrands.

    A crude log-space RQMC pass of ``_PILOT_BATCHES`` batches runs on all
    inputs with shared mixing realizations (one accumulator row per
    input); inputs that meet the tolerance return immediately.  The rest,
    zero Mahalanobis distance included, go through the adaptive path in
    the logit coordinate z = logit(u) (see the module docstring): the peak
    search starts from the crude pass's quantile knots, every bisection
    and the maximization of g stop at a z-width of ``eps_bisec``, the
    bracket ends where g falls ``k_th`` decades below its maximum, and
    RQMC integrates g over the bracket.  A result is unconverged when that
    RQMC misses the tolerance or when g is still above the threshold at an
    end of the z range.  A mixing distribution with an atom at w = 0
    makes the integral diverge at D2 = 0, which raises ``ValueError``.
    """
    if cfg is None:
        cfg = RqmcConfig()
    params_list = list(params_list)
    N = len(params_list)
    if N == 0:
        return []
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    prefs = np.array([p.prefactor for p in params_list])
    ks = np.array([p.shift_k for p in params_list])
    ms = np.array([p.m for p in params_list])

    seeds = np.random.SeedSequence(seed).spawn(N + 2)
    crude = RqmcAccumulator(1, cfg, seeds[0], log=True)
    cache = QuantileCache()
    for _ in range(min(_PILOT_BATCHES, cfg.i_max)):
        u = np.clip(crude.draw()[:, 0], _U_EPS, 1.0 - _U_EPS)
        w = np.asarray(quantile(spec, u, nu), dtype=float)
        if np.any(w == 0.0) and np.any(ms == 0.0):
            raise ValueError(_DIVERGES)
        cache.add(u, w)
        crude.add(_log_h_of_w(w[None, :], prefs[:, None], ks[:, None], ms[:, None]))

    results = crude.results()
    for i, p in enumerate(params_list):
        if results[i].converged:
            continue
        z_l, z_r, closed = _bracket_z(p, spec, nu, cache, k_th, eps_bisec)
        width = z_r - z_l

        def mid_log_g(v, _p=p, _lo=z_l, _w=width):
            return _log_g(_lo + _w * v[:, 0], _p, spec, nu)

        mid = rqmc_log_estimate(mid_log_g, 1, cfg, seeds[i + 2])
        batches = crude.batches + mid.iterations_used
        results[i] = RqmcResult(
            estimate=math.log(width) + mid.estimate,
            error_estimate=mid.error_estimate,
            n_per_randomization=batches * cfg.n0,
            iterations_used=batches,
            converged=mid.converged and closed,
        )
    return results


def log_density_batch(X, model: NvmModel, cfg: RqmcConfig | None = None,
                      seed: int | None = None, *, k_th: float = 10.0,
                      eps_bisec: float = 1e-6) -> list[RqmcResult]:
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
    log_det = model.log_det
    params = [
        DensityIntegrandParams(D2=float(v), d=d, log_det=log_det, shift_k=d / 2.0)
        for v in d2
    ]
    return log_integral_batch(
        params, model.spec, model.nu, cfg, seed, k_th=k_th, eps_bisec=eps_bisec
    )


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
