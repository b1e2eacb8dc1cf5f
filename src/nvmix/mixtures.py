"""Mixing-variable families described through their quantile functions.

Every operation in this package touches the mixing variable W only through
its quantile function, so a family is a kind tag plus a vectorized
quantile callback.  Built-in families: ``constant``, ``inverse_gamma``
(yielding the multivariate t), ``pareto`` (minimum fixed at 1, the scale
being redundant with the scale matrix), ``inverse_burr``, and a black-box
escape hatch for user-supplied quantile functions.

A built-in quantile takes both ``u`` and ``1 - u``, each of which a caller
may compute directly (from a logit, say), and inverts each tail from the
probability that is small there, so it stays accurate at both ends of the
unit interval.  A black-box quantile only receives ``u``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammainccinv, gammaincinv

__all__ = [
    "MixtureSpec",
    "constant",
    "inverse_gamma",
    "pareto",
    "inverse_burr",
    "blackbox",
    "quantile",
    "mean_sqrt_w",
]

_EPS = float(np.finfo(float).eps)
# |u + uc - 1| stays below 2 eps max(u, uc) for u = expit(z) and
# uc = expit(-z); a given uc may be off by twice that.
_UC_ULPS = 4.0


class InvalidMixtureError(ValueError):
    """A quantile callback produced a negative or NaN value."""


@dataclass(frozen=True)
class MixtureSpec:
    """A mixing-variable family; parameters are passed separately.

    Attributes
    ----------
    kind : str
        One of ``constant``, ``inverse_gamma``, ``pareto``,
        ``inverse_burr``, ``blackbox``.
    n_params : int
        Length of the parameter vector the quantile expects.
    default_nu : tuple
        Fallback starting parameters for fitting.
    """

    kind: str
    n_params: int
    default_nu: tuple
    _quantile: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def _q_constant(u, uc, nu):
    return np.full_like(np.asarray(u, dtype=float), float(nu[0]))


def _q_inverse_gamma(u, uc, nu):
    # W = a / G with G ~ Gamma(a, 1) and P(G > g) = u; each tail is
    # inverted from the probability that is small on it.
    a = 0.5 * float(nu[0])
    lower = u < 0.5
    g = np.empty(u.shape)
    g[lower] = gammainccinv(a, u[lower])
    g[~lower] = gammaincinv(a, uc[~lower])
    return a / g


def _q_pareto(u, uc, nu):
    return uc ** (-1.0 / float(nu[0]))


def _q_inverse_burr(u, uc, nu):
    # W = (u^(-1/nu2) - 1)^(-1/nu1), with log u taken from 1 - u above 1/2.
    with np.errstate(divide="ignore"):
        log_u = np.where(u < 0.5, np.log(u), np.log1p(-uc))
    return np.expm1(-log_u / float(nu[1])) ** (-1.0 / float(nu[0]))


def constant() -> MixtureSpec:
    """W identically equal to nu[0]; the multivariate normal case."""
    return MixtureSpec("constant", 1, (1.0,), _q_constant)


def inverse_gamma() -> MixtureSpec:
    """W ~ IG(nu/2, nu/2): the multivariate t with nu degrees of freedom."""
    return MixtureSpec("inverse_gamma", 1, (5.0,), _q_inverse_gamma)


def pareto() -> MixtureSpec:
    """W ~ Par(alpha) with minimum 1; quantile (1-u)^(-1/alpha)."""
    return MixtureSpec("pareto", 1, (2.0,), _q_pareto)


def inverse_burr() -> MixtureSpec:
    """W with quantile (u^(-1/nu2) - 1)^(-1/nu1)."""
    return MixtureSpec("inverse_burr", 2, (2.0, 2.0), _q_inverse_burr)


def blackbox(quantile_fn, n_params: int, default_nu: tuple | None = None) -> MixtureSpec:
    """Wrap a user-supplied vectorized quantile function ``q(u, nu)``."""
    if default_nu is None:
        default_nu = (1.0,) * n_params
    return MixtureSpec("blackbox", n_params, tuple(default_nu),
                       lambda u, uc, nu: quantile_fn(u, nu))


def _check_params(spec: MixtureSpec, nu) -> np.ndarray:
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    if nu.shape[0] != spec.n_params:
        raise ValueError(
            f"{spec.kind} expects {spec.n_params} parameter(s), got {nu.shape[0]}"
        )
    if spec.kind != "blackbox" and not np.all(nu > 0):
        raise ValueError(f"{spec.kind} parameters must be positive, got {nu}")
    return nu


def quantile(spec: MixtureSpec, u, nu, uc=None) -> np.ndarray | float:
    """Quantile of W at ``u`` in (0,1) for parameter vector ``nu``.

    ``uc`` is ``1 - u`` computed by the caller (e.g. ``expit(-z)`` for
    ``u = expit(z)``), of the same shape; it defaults to the subtraction.
    Built-in families invert the right tail from ``uc``, so ``u`` may
    round to 1 as long as ``uc`` is positive.  A given ``uc`` must agree
    with ``1 - u`` to a few units in the last place of the larger of the
    two.  A black-box quantile only receives ``u``, which must then be
    below 1 itself.  A scalar ``u`` is evaluated as a one-element array,
    so it gives exactly the matching element of an array call (numpy's
    scalar arithmetic may round differently from its array loops).
    """
    nu = _check_params(spec, nu)
    scalar = np.ndim(u) == 0
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if uc is None:
        uc_arr = 1.0 - u_arr
    else:
        uc_arr = np.broadcast_to(np.asarray(uc, dtype=float), u_arr.shape)
        mismatch = np.abs(u_arr + uc_arr - 1.0) > _UC_ULPS * _EPS * np.maximum(u_arr, uc_arr)
        if np.any(mismatch):
            raise ValueError("uc must equal 1 - u")
    inside = (u_arr > 0.0) & (uc_arr > 0.0) & (u_arr <= 1.0) & (uc_arr <= 1.0)
    if spec.kind == "blackbox":
        inside &= u_arr < 1.0
    if not np.all(inside):
        raise ValueError("u must lie strictly inside (0, 1)")
    w = np.asarray(spec._quantile(u_arr, uc_arr, nu), dtype=float)
    if spec.kind == "blackbox":
        if np.any(np.isnan(w)) or np.any(w < 0.0):
            raise InvalidMixtureError(
                "black-box quantile returned a negative or NaN value"
            )
    if scalar:
        return float(w[0])
    return w


def mean_sqrt_w(spec: MixtureSpec, nu, n_pilot: int = 1024) -> float:
    """E(sqrt(W)), exactly for the constant family, otherwise by a
    midpoint rule on the quantile.

    The value only steers the variable-reordering heuristic, so a crude
    estimate is acceptable.
    """
    nu = _check_params(spec, nu)
    if spec.kind == "constant":
        return float(np.sqrt(nu[0]))
    if n_pilot < 1:
        raise ValueError("n_pilot must be >= 1")
    grid = (np.arange(n_pilot) + 0.5) / n_pilot
    w = quantile(spec, grid, nu)
    return float(np.mean(np.sqrt(w)))
