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

``_QuantileTable`` tabulates one quantile in z = logit(u), with a checked
error bound; box probabilities and log-densities read W from it where
their tolerance allows that bound.  ``_WReader`` builds each table of one
(family, nu) once, among them those of the z range's pieces between the
breaks of w (jumps, kinks, or where w leaves 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import expit, gammainccinv, gammaincinv

__all__ = ["constant", "inverse_gamma", "pareto", "inverse_burr", "blackbox",
           "InvalidMixtureError"]

_EPS = float(np.finfo(float).eps)
# |u + uc - 1| stays below 2 eps max(u, uc) for u = expit(z) and
# uc = expit(-z); a given uc may be off by twice that.
_UC_ULPS = 4.0
# Range of the logit coordinate z = log(u / (1 - u)): expit(z) and
# expit(-z) are positive normal doubles for |z| <= -_Z_LO.  A black box
# only receives u = expit(z), which stays below 1 for z <= _Z_HI_BLACKBOX.
_Z_LO = math.log(np.finfo(float).tiny)
_Z_HI_BLACKBOX = -math.log(np.finfo(float).eps)
# The tabulated quantile interpolates log w over _TABLE_INTERVALS
# intervals, and keeps L on every (intervals / _SCAN_INTERVALS)-th node
# for the density's search to scan.
_TABLE_INTERVALS = 512
_SCAN_INTERVALS = 64
# The log-density's search reads tables whose bound in log w is at most
# _SEARCH_LOG_W_ERR, on at most _MAX_PIECES pieces.  Above _Z_ROUND the
# doubles of u = expit(z) resolve 1 - u only to that budget, so a black
# box's w is a staircase of rounding there: its bound leaves out a miss
# within the change of w over _ROUND_ULPS doubles of u.
_SEARCH_LOG_W_ERR = 1e-6
_Z_ROUND = math.log(_SEARCH_LOG_W_ERR / _EPS)
_ROUND_ULPS = 4
_MAX_PIECES = 16
_LOG_MAX = math.log(np.finfo(float).max)
# Midpoints of the rule that estimates E(sqrt(W)) for the reordering.
_PILOT_POINTS = 1024


class InvalidMixtureError(ValueError):
    """A black-box quantile returned a negative or NaN value, or not one
    value per u."""


@dataclass(frozen=True)
class _MixtureSpec:
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
    y = -log_u / float(nu[1])
    with np.errstate(over="ignore"):
        e = np.expm1(y)
    w = e ** (-1.0 / float(nu[0]))
    # Where e^y - 1 overflows (nu2 below 1 and u below exp(-709.78 nu2)),
    # W = exp(-(y + log(1 - e^(-y))) / nu1) may still be a normal double.
    big = np.isinf(e)
    if np.any(big):
        y = y[big]
        w[big] = np.exp(-(y + np.log1p(-np.exp(-y))) / float(nu[0]))
    return w


def constant() -> _MixtureSpec:
    """W identically equal to nu[0]; the multivariate normal case."""
    return _MixtureSpec("constant", 1, (1.0,), _q_constant)


def inverse_gamma() -> _MixtureSpec:
    """W ~ IG(nu/2, nu/2): the multivariate t with nu degrees of freedom."""
    return _MixtureSpec("inverse_gamma", 1, (5.0,), _q_inverse_gamma)


def pareto() -> _MixtureSpec:
    """W ~ Par(alpha) with minimum 1; quantile (1-u)^(-1/alpha)."""
    return _MixtureSpec("pareto", 1, (2.0,), _q_pareto)


def inverse_burr() -> _MixtureSpec:
    """W with quantile (u^(-1/nu2) - 1)^(-1/nu1)."""
    return _MixtureSpec("inverse_burr", 2, (2.0, 2.0), _q_inverse_burr)


def blackbox(quantile_fn, n_params: int, default_nu: tuple | None = None) -> _MixtureSpec:
    """Wrap a user-supplied vectorized quantile function ``q(u, nu)``.

    ``q`` must return the same w for the same u: a model tabulates it, and
    estimates E(sqrt(W)) from it, once, and keeps what it read."""
    if default_nu is None:
        default_nu = (1.0,) * n_params
    return _MixtureSpec("blackbox", n_params, tuple(default_nu),
                        lambda u, uc, nu: quantile_fn(u, nu))


def _check_params(spec: _MixtureSpec, nu) -> np.ndarray:
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    if nu.shape[0] != spec.n_params:
        raise ValueError(
            f"{spec.kind} expects {spec.n_params} parameter(s), got {nu.shape[0]}"
        )
    if spec.kind != "blackbox" and not np.all((nu > 0) & (nu < np.inf)):
        raise ValueError(f"{spec.kind} parameters must be positive and finite, got {nu}")
    return nu


def quantile(spec: _MixtureSpec, u, nu, uc=None) -> np.ndarray | float:
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
        if w.shape != u_arr.shape:
            raise InvalidMixtureError("black-box quantile must return one value per u")
        if np.any(np.isnan(w)) or np.any(w < 0.0):
            raise InvalidMixtureError(
                "black-box quantile returned a negative or NaN value"
            )
    if scalar:
        return float(w[0])
    return w


def _edges(log_w):
    """log w where it is -inf (w = 0) or +inf (past the largest double),
    and 0 where it is finite."""
    return np.where(np.isfinite(log_w), 0.0, log_w)


def _z_range(spec: _MixtureSpec) -> tuple[float, float]:
    return _Z_LO, (_Z_HI_BLACKBOX if spec.kind == "blackbox" else -_Z_LO)


def _quantile_z(spec, z, nu):
    """Quantile at u = expit(z), with 1 - u = expit(-z), in one call for
    z of any shape."""
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    return quantile(spec, expit(flat), nu, expit(-flat)).reshape(z.shape)


class _QuantileTable:
    """The mixing quantile of one (family, nu) as a function of z, read
    from the quantile itself (``exact``) or from a cubic interpolant L of
    log w (``log_w``, or ``w`` = exp(L)).

    L is the not-a-knot cubic spline in z through log w at ``intervals``
    + 1 nodes evenly spaced in t = asinh(z / 2) over ``z_range`` (the whole
    z range by default).  ``bound`` is twice its largest error in log w at
    the midpoints in t between the nodes (on a grid of 1e5 points, the
    largest error of every built-in family was at most 1.1 times the
    largest at the midpoints), leaving out a black box's misses above
    ``_Z_ROUND`` that u's rounding explains; ``worst`` spans the interval
    of that midpoint and its neighbours.  One quantile call on the nodes
    and midpoints builds it, and for a black box one more on the midpoints
    above ``_Z_ROUND``, each moved ``_ROUND_ULPS`` doubles of u down.
    Where log w grows past the doubles' range (IG(1), say) L continues
    along its tangent from the last finite node.  A non-finite node below
    that (an atom of W at 0) leaves no interpolant, the bound inf, and
    ``worst`` the first interval where w at the nodes passes between 0,
    finite values and +inf.
    """

    def __init__(self, spec, nu, intervals=_TABLE_INTERVALS, z_range=None):
        self.spec, self.nu, self.intervals = spec, nu, intervals
        self.z_range = z_lo, z_hi = _z_range(spec) if z_range is None else z_range
        self._t_lo = math.asinh(0.5 * z_lo)
        self._t_span = math.asinh(0.5 * z_hi) - self._t_lo
        # The nodes, then the midpoints between them.
        t = self._t_lo + self._t_span * (np.arange(2 * intervals + 1) * (0.5 / intervals))
        z = np.clip(2.0 * np.sinh(t), z_lo, z_hi)
        with np.errstate(divide="ignore"):
            log_w = np.log(self.exact(z))
        nodes, at_nodes, at_mids = z[::2], log_w[::2], log_w[1::2]
        finite = np.isfinite(at_nodes)
        n = len(nodes) if finite.all() else int(np.argmin(finite))
        self._piece, self.bound = None, np.inf
        if n < 2 or np.any(at_nodes[n:] != np.inf):
            edge = _edges(at_nodes)
            i = int(np.argmax(edge[1:] != edge[:-1]))
            self.worst = nodes[i], nodes[i + 1]
            return
        spline = CubicSpline(nodes[:n], at_nodes[:n])
        # One more piece from the last finite node on: its tangent.
        c3, c2, c1, c0 = (np.append(c, tail) for c, tail in
                          zip(spline.c, (0.0, 0.0, spline(nodes[n - 1], 1), at_nodes[n - 1])))
        self._piece = (nodes[:n], c3, c2, c1, c0)
        err = np.abs(np.minimum(self._log_interp(z[1::2]), _LOG_MAX)
                     - np.minimum(at_mids, _LOG_MAX))
        # Above _Z_ROUND a black box's miss within the change of log w
        # over _ROUND_ULPS doubles of u is u's rounding.
        far = np.flatnonzero(z[1::2] > _Z_ROUND) if spec.kind == "blackbox" else []
        if len(far):
            u = expit(z[1::2][far])
            with np.errstate(divide="ignore"):
                step = np.abs(np.minimum(at_mids[far], _LOG_MAX) - np.minimum(
                    np.log(quantile(spec, u - _ROUND_ULPS * 0.5 * _EPS, nu)), _LOG_MAX))
            err[far[err[far] <= step]] = 0.0
        i = int(np.argmax(err))
        # A spline's error spills into the intervals next to a break.
        self.bound = 2.0 * float(err[i])
        self.worst = nodes[max(i - 1, 0)], nodes[min(i + 2, len(nodes) - 1)]
        # Every (intervals / _SCAN_INTERVALS)-th node, both ends included,
        # and L there.
        scan_z = nodes[::intervals // _SCAN_INTERVALS]
        self.scan = scan_z, self._log_interp(scan_z)

    def exact(self, z):
        # A quantile beyond the doubles' range is inf, as it should be.
        with np.errstate(over="ignore", divide="ignore"):
            return _quantile_z(self.spec, z, self.nu)

    def _locate(self, z):
        """Index of the piece of each z of the flat array ``z``, from its
        place on the t-grid, and z's offset from that piece's node."""
        z_nodes = self._piece[0]
        x = np.arcsinh(0.5 * z)
        x -= self._t_lo
        x *= self.intervals / self._t_span
        i = x.astype(np.intp)
        # np.clip's own overhead is several times these two ufuncs'.
        np.maximum(i, 0, out=i)
        np.minimum(i, len(z_nodes) - 1, out=i)
        np.subtract(z, z_nodes[i], out=x)
        return i, x

    def _log_interp(self, z):
        """L at the flat array ``z`` by Horner, gathering one coefficient
        at a time."""
        i, x = self._locate(z)
        _, *coef = self._piece
        out = coef[0][i]
        for c in coef[1:]:
            out *= x
            out += c[i]
        return out

    def log_w_slopes(self, z):
        """L, L' and L'' at the flat array ``z``, from one piece each."""
        i, x = self._locate(z)
        _, c3, c2, c1, c0 = self._piece
        c3x, c2, c1 = c3[i] * x, c2[i], c1[i]
        log_w = ((c3x + c2) * x + c1) * x + c0[i]
        return log_w, (3.0 * c3x + 2.0 * c2) * x + c1, 6.0 * c3x + 2.0 * c2

    def log_w(self, z):
        """L(z) at z of any shape."""
        z = np.asarray(z, dtype=float)
        return self._log_interp(z.ravel()).reshape(z.shape)

    def w(self, z):
        """w = exp(L(z)) at z of any shape."""
        log_w = self.log_w(z)
        with np.errstate(over="ignore"):
            return np.exp(log_w, out=log_w)

    def read(self, budget):
        """w(z) from L where its bound is within ``budget``, an error in
        log w, and from the quantile otherwise."""
        return self.w if self.bound <= budget else self.exact


def _break(table) -> tuple[float, float]:
    """``(a, b)``, at most eps max(1, |z|) apart, around the break of w in
    ``table``'s worst interval, by bisection on the quantile: each step
    keeps the half whose midpoint lies farther from the chord of log w,
    infinitely far where w is 0, or past the largest double, at one end
    only.  At a jump, a keeps w's value below it and b the one above.  The
    pieces leave out the mass between a and b: a gap of 1e-12 in z would
    leave 1e-12 of it out."""
    a, b = table.worst
    while b - a > _EPS * max(1.0, abs(a), abs(b)):
        z = np.linspace(a, b, 5)
        w = table.exact(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_w = np.log(w)
            chord = np.abs(log_w[[1, 3]] - 0.5 * (log_w[[0, 2]] + log_w[[2, 4]]))
        edge = _edges(log_w)
        chord = np.where(edge[[0, 2]] != edge[[2, 4]], np.inf, np.fmax(chord, 0.0))
        a, b = (z[0], z[2]) if chord[0] >= chord[1] else (z[2], z[4])
    return a, b


class _WReader:
    """W of one (family, nu), set up once and read many times: each of its
    tables and ``mean_sqrt_w`` is built on first use and kept.  So the
    quantile must give the same w for the same u."""

    def __init__(self, spec: _MixtureSpec, nu):
        self.spec, self.nu, self._finer = spec, _check_params(spec, nu), {}

    @cached_property
    def table(self) -> _QuantileTable:
        """The table of the whole z range."""
        return _QuantileTable(self.spec, self.nu)

    @cached_property
    def pieces(self) -> list[_QuantileTable]:
        """Tables of w on the pieces of the z range between its breaks, in
        order.  While the largest bound exceeds ``_SEARCH_LOG_W_ERR`` and
        there are fewer than ``_MAX_PIECES``, that piece is split at
        :func:`_break` into two with their own tables.  A side where w is 0
        throughout is dropped (g vanishes there when D2 > 0), and so is one
        where w is past the largest double (h <= w^(-k) is negligible);
        ``ValueError`` is raised when no side is left.  A smooth W stays
        one piece, ``table``.
        """
        pieces = [self.table]
        while len(pieces) < _MAX_PIECES:
            i = max(range(len(pieces)), key=lambda j: pieces[j].bound)
            table = pieces[i]
            if table.bound <= _SEARCH_LOG_W_ERR:
                break
            (lo, hi), (a, b) = table.z_range, _break(table)
            sides = (_QuantileTable(self.spec, self.nu, z_range=r) for r in ((lo, a), (b, hi)))
            pieces[i:i + 1] = [t for t in sides
                               if t.exact(t.z_range[1]) > 0.0 and t.exact(t.z_range[0]) < np.inf]
            if not pieces:
                raise ValueError("w is 0 on the whole z range, or past the largest double, "
                                 "so X has no density")
        return pieces

    def finer(self, i: int) -> _QuantileTable:
        """Piece i's table with four times the intervals."""
        if i not in self._finer:
            self._finer[i] = _QuantileTable(self.spec, self.nu, 4 * _TABLE_INTERVALS,
                                            self.pieces[i].z_range)
        return self._finer[i]

    @cached_property
    def mean_sqrt_w(self) -> float:
        """E(sqrt(W)) for the reordering: exactly for the constant family,
        inverse-gamma with nu > 1 (sqrt(nu/2) Gamma((nu-1)/2) / Gamma(nu/2))
        and Pareto with nu > 1/2 (nu / (nu - 1/2)), otherwise by a midpoint
        rule on the quantile, a crude value that only steers the heuristic.
        """
        kind, nu = self.spec.kind, self.nu
        if kind == "constant":
            return float(np.sqrt(nu[0]))
        if kind == "inverse_gamma" and nu[0] > 1.0:
            return math.sqrt(nu[0] / 2.0) * math.exp(math.lgamma((nu[0] - 1.0) / 2.0)
                                                     - math.lgamma(nu[0] / 2.0))
        if kind == "pareto" and nu[0] > 0.5:
            return float(nu[0] / (nu[0] - 0.5))
        grid = (np.arange(_PILOT_POINTS) + 0.5) / _PILOT_POINTS
        return float(np.mean(np.sqrt(quantile(self.spec, grid, nu))))
