import math
import tracemalloc
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar
from scipy.special import expit, gammaln, logsumexp

from nvmix import density, mixtures, rqmc
from nvmix.density import (
    _EPS_BISEC,
    _SEARCH_LOG_W_ERR,
    _bracket_z,
    _log_g_w,
    _log_lower_incomplete_gamma,
    _row_arrays,
    closed_log_density,
    log_density_batch,
    log_integral_batch,
)
from nvmix.mixtures import (
    _MAX_PIECES,
    _TABLE_INTERVALS,
    _QuantileTable,
    _quantile_z,
    _WReader,
    _z_range,
    blackbox,
    constant,
    inverse_burr,
    inverse_gamma,
    pareto,
    quantile,
)
from nvmix.model import NvmModel
from nvmix.rqmc import RqmcConfig, RqmcResult, rqmc_estimate
from nvmix.sampling import rnvmix

LOG_2PI = math.log(2.0 * math.pi)
LN10 = math.log(10.0)
# The decades below g's maximum at which the search tests bracket g.
K_TH = 10.0


def gaussian_prefactor(d, log_det=0.0):
    """Prefactor of the density's integrand: the Gaussian normalizing
    constant's log."""
    return -0.5 * d * LOG_2PI - 0.5 * log_det


def density_args(D2, d, log_det=0.0):
    """``(D2, shift_k, prefactor)`` of the log-density at distance D2 in
    d dimensions."""
    return D2, d / 2.0, gaussian_prefactor(d, log_det)


def adaptive_rows(monkeypatch):
    """A list to which each later call of ``log_integral_batch`` appends
    the halved distances m = D2/2 of the rows that its search brackets,
    in row order: every row of the call."""
    seen = []

    def spy(pref, k, m, *args):
        seen.append(list(m))
        return _bracket_z(pref, k, m, *args)

    monkeypatch.setattr(density, "_bracket_z", spy)
    return seen


def rule_results(monkeypatch):
    """A list to which each later call of ``log_integral_batch`` appends
    the trapezoid rule's own ``(estimates, error estimates, nodes)``, one
    entry per row that it integrates."""
    seen = []
    rule = density._nested_trapezoid

    def spy(*args):
        seen.append(rule(*args))
        return seen[-1]

    monkeypatch.setattr(density, "_nested_trapezoid", spy)
    return seen


def log_h(u, D2, shift_k, prefactor, spec, nu):
    """log of the mixing integrand at u: log g at z = 0, whose
    log-Jacobian log(expit(0) expit(-0)) is -2 log 2, with w read at u."""
    w = quantile(spec, u, nu)
    return _log_g_w(w, 0.0, prefactor, shift_k, 0.5 * D2) + 2.0 * math.log(2.0)


def _log_g(z, spec, nu, pref, k, m):
    """log of the integrand in the logit coordinate, h(u) du/dz, from the
    quantile itself."""
    return _log_g_w(_quantile_z(spec, z, nu), z, pref, k, m)


class TestLogH:
    def test_constant_center(self):
        for u in (0.1, 0.5, 0.9):
            got = log_h(u, *density_args(0.0, 4), constant(), [1.0])
            assert got == pytest.approx(-2.0 * LOG_2PI)

    def test_plugin_arithmetic(self):
        # d=2, |Sigma|=1, w=1, D2=2: log(exp(-1)/(2 pi)).
        got = log_h(0.5, *density_args(2.0, 2), constant(), [1.0])
        assert got == pytest.approx(-LOG_2PI - 1.0, abs=1e-14)
        assert got == pytest.approx(-2.8379, abs=1e-4)

    def test_decay_in_distance(self):
        vals = [
            log_h(0.3, *density_args(D2, 3), constant(), [1.0])
            for D2 in (1.0, 10.0, 100.0, 1000.0)
        ]
        assert np.all(np.diff(vals) < 0)

    def test_vectorized(self):
        u = np.linspace(0.05, 0.95, 9)
        out = log_h(u, *density_args(5.0, 3), inverse_gamma(), [4.0])
        assert out.shape == (9,)


class CountedTable(_QuantileTable):
    """A table that counts its reads of w, or of L and its derivatives,
    once it is built."""

    reads = 0

    def __init__(self, spec, nu):
        super().__init__(spec, nu)
        self.reads = 0

    def w(self, z):
        self.reads += 1
        return super().w(z)

    def log_w_slopes(self, z):
        self.reads += 1
        return super().log_w_slopes(z)

    def exact(self, z):
        self.reads += 1
        return super().exact(z)


def one_piece_bracket(pref, k, m, table, k_th):
    """``(z_l, z_r, closed, z_g, top)`` per row: ``_bracket_z`` on the one
    piece ``table``, with ``closed`` False where g is still above the
    level at an end of the z range."""
    z_l, z_r, z_g, tops, ends, _ = _bracket_z(pref, k, m, [table], k_th)
    return z_l[0], z_r[0], np.all(ends <= tops[0] - k_th * LN10, axis=0), z_g[0], tops[0]


def bisect(goes_up, a, b, rows) -> tuple[np.ndarray, np.ndarray]:
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


def peak_z(w_star, table) -> np.ndarray:
    """Per row, the logit of the peak of h, where w (``table`` read within
    ``_SEARCH_LOG_W_ERR``) reaches ``w_star`` = m / k, by bisection in z
    down to ``_EPS_BISEC``; where w cannot reach it (W bounded on that
    side, or the target beyond the doubles' range), that end of the z
    range."""
    z_lo, z_hi = _z_range(table.spec)
    w_z = table.read(_SEARCH_LOG_W_ERR)
    lo, hi = bisect(lambda z, r: w_z(z) <= w_star[r], np.full(len(w_star), z_lo),
                    np.full(len(w_star), z_hi), np.arange(len(w_star)))
    at_lo, at_hi = lo == z_lo, hi == z_hi
    if np.any(w_star[~at_lo & ~at_hi] == 0.0):  # quantile(expit(lo)) <= w* = 0
        raise ValueError(density._DIVERGES)
    return np.where(at_lo, lo, np.where(at_hi, hi, 0.5 * (lo + hi)))


def region_bounds(D2, shift_k, prefactor, spec, nu, k_th):
    """``(z_l, z_r, closed)`` of one integrand: the union of its pieces'
    brackets from ``_bracket_z`` at ``k_th`` decades, with ``closed``
    False where g is still above that level at an end of the z range."""
    z_l, z_r, _, tops, ends, _ = _bracket_z(*_row_arrays([D2], shift_k, prefactor),
                                            _WReader(spec, nu).pieces, k_th)
    closed = np.all(ends <= tops.max(axis=0) - k_th * LN10)
    return float(np.nanmin(z_l)), float(np.nanmax(z_r)), bool(closed)


def bisection_bracket(pref, k, m, w_z, z_range, k_th):
    """Reference for the search: ``(z_l, z_r, closed, z_g, top)`` per row
    by bisection on ``w_z`` over ``z_range``, down to a z-width of
    ``_EPS_BISEC``.

    g's maximum comes from one bisection on the sign of its slope (below
    min(z_h, 0), with z_h the peak of h, log h and the log-Jacobian both
    rise, and above max(z_h, 0) both fall), read from g 1e-4 either side of
    each midpoint: far enough that rounding in log g does not flip its
    sign where log g is flat.  Where w is 0 at a step's right point g
    counts as rising.  Both ends of the region then come from one
    bisection on the level; an end where g is still above it is the end of
    the range, and open.
    """
    z_lo, z_hi = z_range
    n = len(m)
    rows = np.arange(n)

    def f(z, rows):
        return _log_g_w(w_z(z), z, pref[rows], k[rows], m[rows])

    def rises(z, rows):
        zz = np.clip(z[:, None] + np.array([-1e-4, 1e-4]), z_lo, z_hi)
        w = w_z(zz)
        log_g = _log_g_w(w, zz, pref[rows, None], k[rows, None], m[rows, None])
        return (log_g[:, 1] > log_g[:, 0]) | (w[:, 1] == 0.0)

    _, z_g = bisect(rises, np.full(n, z_lo), np.full(n, z_hi), rows)
    top = f(z_g, rows)
    level, both = np.tile(top - k_th * LN10, 2), np.tile(rows, 2)
    z_end = np.repeat([z_lo, z_hi], n)
    open_end = f(z_end, both) > level
    a, b = bisect(lambda z, r: f(z, both[r]) > level[r], np.tile(z_g, 2), z_end,
                  np.flatnonzero(~open_end))
    z = np.where(open_end, z_end, 0.5 * (a + b))
    return z[:n], z[n:], ~open_end[:n] & ~open_end[n:], z_g, top


def reference_log_integral(D2, shift_k, prefactor, spec, nu):
    """Deterministic reference for ``log_integral_batch``: the trapezoid
    rule in z on the exact quantile, which converges exponentially for
    g, analytic in a strip and decaying exponentially (Trefethen &
    Weideman 2014, SIAM Review 56(3)).  Per row of ``D2``, the 256-point
    value and its difference from the 128-point one, over the bracket
    that bisection on the quantile finds at 16 decades, widened by 20% at
    each end within the z range.  For smooth quantiles only."""
    m = 0.5 * np.asarray(D2, dtype=float)
    pref, k = np.full(len(m), float(prefactor)), np.full(len(m), float(shift_k))
    z_lo, z_hi = _z_range(spec)
    z_l, z_r, *_ = bisection_bracket(pref, k, m, lambda z: _quantile_z(spec, z, nu),
                                     (z_lo, z_hi), 16.0)
    pad = 0.2 * (z_r - z_l)
    a, b = np.maximum(z_l - pad, z_lo), np.minimum(z_r + pad, z_hi)
    values = []
    for n in (128, 256):
        z = a[:, None] + (b - a)[:, None] * np.linspace(0.0, 1.0, n)
        log_g = _log_g(z, spec, nu, pref[:, None], k[:, None], m[:, None])
        weights = np.ones(n)
        weights[[0, -1]] = 0.5
        values.append(np.log((b - a) / (n - 1)) + logsumexp(log_g, b=weights, axis=1))
    return values[1], values[1] - values[0]


def test_reference_matches_the_closed_form():
    # 256 points put the reference within 1e-13 of the closed form for
    # IG(4) and Pareto(6), d = 10, from the center to the far tail; for
    # inverse-Burr(2, 2), which has none, 128 and 256 points agree as
    # closely (its D2 = 0 integral diverges at d = 10).
    D2 = np.array([0.0, 0.5, 2.0, 1e4, 1e10])
    d = 10
    for spec, nu in ((inverse_gamma(), [4.0]), (pareto(), [6.0])):
        X = np.zeros((len(D2), d))
        X[:, 0] = np.sqrt(D2)
        exact = closed_log_density(NvmModel.build(None, np.eye(d), spec, nu), X)
        ref, _ = reference_log_integral(D2, *density_args(0.0, d)[1:], spec, nu)
        assert np.max(np.abs(ref - exact)) <= 1e-13
    _, diff = reference_log_integral(D2[1:], *density_args(0.0, d)[1:], inverse_burr(),
                                     [2.0, 2.0])
    assert np.max(np.abs(diff)) <= 1e-13


@pytest.mark.parametrize("family", ["inverse_gamma", "pareto", "inverse_burr"])
def test_bracket_reads_do_not_grow_with_the_rows(family):
    # Each step of the search reads the table once for all rows still
    # running: Newton's method on g's slope, g at its maximum, then
    # Newton's method on both ends; the scan reads L at its nodes, stored
    # when the table is built.  So the reads follow the slowest row: one
    # D2 = 0 row costs no more reads than 200 rows that include it, which
    # took 14 or 15.
    spec, nu = {"inverse_gamma": (inverse_gamma(), [4.0]), "pareto": (pareto(), [6.0]),
                "inverse_burr": (inverse_burr(), [2.0, 2.0])}[family]
    reads = []
    for D2 in (np.zeros(1), np.concatenate([[0.0], np.logspace(-8, 10, 199)])):
        table = CountedTable(spec, nu)
        n = len(D2)
        _bracket_z(np.full(n, gaussian_prefactor(10)), np.full(n, 5.0), 0.5 * D2, [table], K_TH)
        reads.append(table.reads)
    assert reads[0] <= reads[1] <= 15


FAMILIES = {"ig1": (inverse_gamma(), [1.0]), "ig4": (inverse_gamma(), [4.0]),
            "pareto6": (pareto(), [6.0]), "inverse_burr22": (inverse_burr(), [2.0, 2.0]),
            "inverse_burr29": (inverse_burr(), [2.0, 0.9])}


@pytest.mark.parametrize("shift_k", [1.0, 5.0])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_table_search_matches_bisection_on_its_interpolant(family, shift_k):
    # Newton's method on the table's L finds what bisection on the same L
    # (bisection_bracket) finds: ends and maximum within _EPS_BISEC, the
    # same closed flags,
    # and log g at an interior maximum within 1e-9 (relative, past 1 in
    # size).  A maximum at an end of the z range (D2 = 1e300, where log g
    # is near -5e145 and the level is lost to rounding, and inverse-Burr
    # at D2 = 0 with shift_k = 5), where g's slope is not 0, is that end
    # itself: its log g is no lower than bisection's, which stops within
    # _EPS_BISEC of it.
    spec, nu = FAMILIES[family]
    D2 = np.array([0.0, 1e-50, 1e-40, 1e-30, 0.5, 3.0, 640.0, 1e8, 1e10, 1e49, 1e300])
    args = np.full(len(D2), gaussian_prefactor(10)), np.full(len(D2), shift_k), 0.5 * D2
    table = _QuantileTable(spec, nu)
    assert table.bound <= _SEARCH_LOG_W_ERR
    z_l, z_r, closed, z_g, top = one_piece_bracket(*args, table, K_TH)
    b_l, b_r, b_closed, b_g, b_top = bisection_bracket(*args, table.w, table.z_range, K_TH)
    for z, b in ((z_l, b_l), (z_r, b_r), (z_g, b_g)):
        assert np.max(np.abs(z - b)) <= _EPS_BISEC
    assert np.array_equal(closed, b_closed)
    scale = np.maximum(1.0, np.abs(b_top))
    end = np.isin(z_g, _z_range(spec))
    assert np.all(np.abs(top - b_top)[~end] <= 1e-9 * scale[~end])
    assert np.all(top[end] >= b_top[end] - 1e-9 * scale[end])


def test_inverse_burr_below_nu2_one_is_tabulated():
    # For nu2 < 1, e^y - 1 with y = -log(u) / nu2 overflows for u below
    # exp(-709.78 nu2), where W is still a normal double (1e-120 at (5, 0.5)
    # and u = 1e-300).  The quantile must give it there, so that the table
    # has an interpolant and the D2 = 0 row at d = 2, whose E[1/W] is
    # finite, converges rather than being rejected as divergent.  No
    # RuntimeWarning may be raised on the way.
    import mpmath

    spec = inverse_burr()
    with mpmath.workdps(50):
        for nu1, nu2 in ((5.0, 0.5), (2.0, 0.9)):
            u = mpmath.mpf(1e-300)
            want = float((u ** (-1 / mpmath.mpf(nu2)) - 1) ** (-1 / mpmath.mpf(nu1)))
            assert quantile(spec, 1e-300, [nu1, nu2]) == pytest.approx(want, rel=1e-12)
    nu = [2.0, 0.9]
    assert _QuantileTable(spec, nu).bound <= _SEARCH_LOG_W_ERR
    cfg = RqmcConfig(tol=1e-3)
    (res,) = log_integral_batch([0.0], *density_args(0.0, 2)[1:], _WReader(spec, nu), cfg)
    ref, _ = reference_log_integral([0.0], *density_args(0.0, 2)[1:], spec, nu)
    assert res.converged and abs(res.estimate - ref[0]) <= cfg.tol


def test_mass_beyond_a_jump_of_the_quantile_is_bracketed(monkeypatch):
    # w is 0 below u = 1 - 1e-9 and 1 above, so g is 0 left of the jump at
    # z = logit(1 - 1e-9) and h is constant right of it.  The piece where w
    # is 0 is dropped, and the bracket starts at the jump.  It stays open
    # on the right: a black box's z range ends at -log(eps) = 36.04, where
    # g is still above the threshold.  h falls on the way out there (w = 1
    # >= m/k = 0.1), so the mass beyond is at most g there times
    # 1 + e^(-36.04), 2.2e-7 of the estimate: within tol/10 at tol 1e-3,
    # where the row converges within tol of log(1e-9 exp(-1/2)), and not at
    # tol 1e-6, where it does not.
    spec = blackbox(lambda u, nu: np.where(u < 1 - 1e-9, 0.0, 1.0), 0)
    z_l, z_r, closed = region_bounds(1.0, 5.0, 0.0, spec, [], K_TH)
    assert z_l == pytest.approx(math.log((1 - 1e-9) / 1e-9), abs=_EPS_BISEC)
    assert (z_r, closed) == (_z_range(spec)[1], False)
    seen = adaptive_rows(monkeypatch)
    loose, tight = (log_integral_batch([1.0], 5.0, 0.0, _WReader(spec, []), RqmcConfig(tol=tol))[0]
                    for tol in (1e-3, 1e-6))
    assert seen == [[0.5]] * 2 and loose.converged
    assert not tight.converged and tight.n_per_randomization > 0
    assert loose.estimate == pytest.approx(math.log(1e-9) - 0.5, abs=1e-3)


@pytest.mark.parametrize("D2", [0.0, 0.5, 640.0, 1e8])
@pytest.mark.parametrize("family", ["inverse_gamma", "pareto", "inverse_burr"])
def test_bracket_ends_cross_the_level_of_a_reference_maximum(family, D2):
    # The bracket's ends must sit within _EPS_BISEC of where log g crosses
    # the level K_TH decades below its maximum on [a, b] = [min(z_h, 0),
    # max(z_h, 0)], the maximum here from scipy's bounded minimizer
    # rather than the bisection on g's slope.  That minimizer only
    # evaluates interior points, so g at a and b counts too: at
    # inverse-Burr D2 = 0, g rises toward z_lo = a, and scipy stops 2e-5
    # inside, 5e-6 nats below g(a).  An end that stays open must see g
    # above the level at the end of the z range.
    spec, nu = {"inverse_gamma": (inverse_gamma(), [4.0]), "pareto": (pareto(), [6.0]),
                "inverse_burr": (inverse_burr(), [2.0, 2.0])}[family]
    pref, k, m = np.array([gaussian_prefactor(10)]), np.array([5.0]), np.array([0.5 * D2])

    def log_g(z):
        return _log_g(np.asarray(z, dtype=float), spec, nu, pref, k, m)

    table = _QuantileTable(spec, nu)
    z_h = peak_z(m / k, table)
    a, b = min(z_h[0], 0.0), max(z_h[0], 0.0)
    opt = minimize_scalar(lambda z: -log_g(z)[0], method="bounded", bounds=(a, b),
                          options={"xatol": _EPS_BISEC})
    level = max(-opt.fun, *log_g([a, b])) - K_TH * math.log(10.0)
    (z_l,), (z_r,), (closed,), _, _ = one_piece_bracket(pref, k, m, table, K_TH)
    z_lo, z_hi = _z_range(spec)
    for z, outward, end in ((z_l, -1.0, z_lo), (z_r, 1.0, z_hi)):
        if z == end:
            assert not closed and log_g(z)[0] > level
        else:
            inside, outside = log_g([z - outward * _EPS_BISEC, z + outward * _EPS_BISEC])
            assert inside > level > outside


def symmetric_toy_quantile():
    """Black-box mixture whose log-integrand (with shift_k=1, D2=2) is
    symmetric about u = 1/2: solves log w + 1/w = 1 + 60 (u - 1/2)^2 on
    the branch matching the sign of u - 1/2."""

    def one(u):
        delta = u - 0.5
        if abs(delta) < 1e-12:
            return 1.0
        v = 1.0 + 60.0 * delta * delta
        f = lambda w: math.log(w) + 1.0 / w - v
        if delta < 0:
            return brentq(f, 1e-12, 1.0)
        return brentq(f, 1.0, 1e12)

    return blackbox(lambda u, nu: np.array([one(x) for x in np.atleast_1d(u)]), 0)


def log_g1(z, D2, shift_k, prefactor, spec, nu):
    """log of one integrand in the logit coordinate."""
    return _log_g(np.asarray(z, dtype=float), spec, nu, prefactor, shift_k, 0.5 * D2)


class TestRegionBounds:
    def test_symmetric_toy(self):
        # h is symmetric about u = 1/2 and the Jacobian u (1 - u) too, so
        # g is symmetric about z = 0.
        spec = symmetric_toy_quantile()
        p = 2.0, 1.0, gaussian_prefactor(2)  # m = 1, k = 1, w* = 1
        eps = _EPS_BISEC
        u_star = expit(peak_z(np.array([1.0]), _WReader(spec, []).table)[0])
        assert u_star == pytest.approx(0.5, abs=2 * eps)
        z_l, z_r, closed = region_bounds(*p, spec, [], 3.0)
        assert closed and z_l < 0.0 < z_r
        assert -z_l == pytest.approx(z_r, abs=2 * eps)

    def test_bounds_sit_at_threshold(self):
        p = density_args(35.0, 5)
        spec, nu = inverse_gamma(), [2.0]
        z_l, z_r, closed = region_bounds(*p, spec, nu, 6.0)
        assert closed
        g_max = float(np.max(log_g1(np.linspace(z_l, z_r, 200001), *p, spec, nu)))
        target = g_max - 6.0 * math.log(10.0)
        assert log_g1(z_l, *p, spec, nu) == pytest.approx(target, abs=1e-2)
        assert log_g1(z_r, *p, spec, nu) == pytest.approx(target, abs=1e-2)

    def test_huge_threshold_collapses_to_unit_interval(self):
        # g never falls 1e6 decades below its maximum: the bracket is the
        # whole z range, and open.
        spec = symmetric_toy_quantile()
        assert (region_bounds(2.0, 1.0, gaussian_prefactor(2), spec, [], 1e6)
                == (*_z_range(spec), False))


LOG_MAX = math.log(np.finfo(float).max)


@pytest.mark.parametrize(
    "family,n_points",
    [("ig1", 100_000), ("ig4", 100_000), ("pareto6", 100_000), ("inverse_burr22", 100_000),
     ("symmetric_toy", 10_000)])
def test_table_meets_its_bound(family, n_points):
    # The table's log w lies within its reported bound of the quantile's
    # on a grid evenly spaced in asinh(z / 2), like the nodes, with about
    # 200 points per interval, and both ends of the z range.  Under IG(1)
    # w overflows from z = 355 on: the table's w must overflow there too,
    # so both sides are compared up to log(max double).  The toy black box
    # solves for each u by brentq, so its grid is smaller.  The search
    # reads the table of every one of these.
    spec, nu = {"ig1": (inverse_gamma(), [1.0]), "ig4": (inverse_gamma(), [4.0]),
                "pareto6": (pareto(), [6.0]), "inverse_burr22": (inverse_burr(), [2.0, 2.0]),
                "symmetric_toy": (symmetric_toy_quantile(), [])}[family]
    table = _QuantileTable(spec, nu)
    z_lo, z_hi = _z_range(spec)
    t = np.linspace(math.asinh(0.5 * z_lo), math.asinh(0.5 * z_hi), n_points)
    z = np.concatenate([[z_lo, z_hi], np.clip(2.0 * np.sinh(t), z_lo, z_hi)])
    with np.errstate(over="ignore", divide="ignore"):
        exact = np.minimum(np.log(quantile(spec, expit(z), nu, uc=expit(-z))), LOG_MAX)
    assert np.all(np.isfinite(exact))
    if family == "ig1":
        assert np.sum(exact == LOG_MAX) > n_points / 50
    with np.errstate(divide="ignore"):
        tabulated = np.minimum(np.log(table.w(z)), LOG_MAX)
    assert 0.0 < table.bound <= _SEARCH_LOG_W_ERR
    assert np.max(np.abs(tabulated - exact)) <= table.bound
    assert table.read(_SEARCH_LOG_W_ERR) == table.w


def ig4_quantile(u):
    return quantile(inverse_gamma(), u, [4.0])


@pytest.mark.parametrize(
    "q,n_pieces", [(lambda u, nu: ig4_quantile(u) * np.where(u < 0.5, 1.0, 2.0), 2),
                   (lambda u, nu: np.where(u < 1e-200, 0.0, ig4_quantile(u)), 1)],
    ids=["jump", "atom-at-zero"])
def test_tableless_quantiles_are_read_exactly(monkeypatch, q, n_pieces):
    # The IG(4) quantile with a jump has a bound near the jump in log w
    # (log 2); with an atom of mass 1e-200 at 0 it has no interpolant: no
    # reader reads the table of the whole z range.  Split at the jump, and
    # where w leaves 0 (the piece below, where w is 0, dropped), the
    # pieces' tables meet the search's budget; above z = 22.2 the black
    # box's w is a staircase of u's rounding, which their bounds leave out.
    # Under tol = inf every row's budget is inf, and the call gives finite
    # estimates.  At the default tol the rows converge, each within tol/10
    # of what the same call gives when every row's integration reads the
    # quantile itself at the same nodes.
    spec = blackbox(q, 0)
    table = _QuantileTable(spec, [])
    assert table.bound > 1e-1
    assert table.read(1e-1) == table.exact
    pieces = _WReader(spec, []).pieces
    assert len(pieces) == n_pieces and all(p.bound <= _SEARCH_LOG_W_ERR for p in pieces)
    args = density_args([2e3, 2e5, 1e7], 10) + (_WReader(spec, []),)
    loose = log_integral_batch(*args, RqmcConfig(tol=math.inf))
    assert len(list(loose)) == 3 and all(math.isfinite(r.estimate) for r in loose)
    seen = adaptive_rows(monkeypatch)
    res = log_integral_batch(*args)
    assert seen == [[1e3, 1e5, 5e6]] and all(r.converged for r in res)
    monkeypatch.setattr(density, "_table_budget", lambda table, ends, k, *rest: np.zeros(len(k)))
    exact = log_integral_batch(*args)
    assert all(a.n_per_randomization == b.n_per_randomization
               and abs(a.estimate - b.estimate) <= 1e-4 for a, b in zip(res, exact))


# W whose quantiles break, as black boxes, and the logits of their breaks:
# a jump, three jumps, an atom at 0 below a uniform part (w leaves 0 at
# the break), and a kink between two uniform parts.
BREAKS = {
    "jump": (lambda u, nu: np.where(u < 0.3, 1.0, 4.0), [math.log(0.3 / 0.7)]),
    "staircase": (lambda u, nu: np.select([u < 0.2, u < 0.5, u < 0.9], [0.5, 1.0, 3.0], 10.0),
                  [math.log(0.2 / 0.8), 0.0, math.log(0.9 / 0.1)]),
    "atom-at-zero": (lambda u, nu: np.where(u < 0.1, 0.0, 1.0 + 2.0 * (u - 0.1) / 0.9),
                     [math.log(0.1 / 0.9)]),
    "kink": (lambda u, nu: np.where(u < 0.5, 1.0 + 2.0 * u, 2.0 + 8.0 * (u - 0.5)), [0.0]),
}


@pytest.mark.parametrize("family", sorted(BREAKS))
def test_pieces_split_w_at_its_breaks(family):
    # The pieces cover the z range in order, each meeting the search's
    # budget, and meet at each break, both sides within 1e-12 of its logit
    # relative to max(1, |z|).  Below the atom at 0 w is 0, and that piece
    # is dropped: the first piece starts at the break.
    q, breaks = BREAKS[family]
    spec = blackbox(q, 0)
    pieces = _WReader(spec, []).pieces
    assert all(p.bound <= _SEARCH_LOG_W_ERR for p in pieces)
    z_lo, z_hi = _z_range(spec)
    ends = np.ravel([p.z_range for p in pieces])
    if family == "atom-at-zero":
        ends = np.concatenate([[z_lo], ends[:1], ends])
    assert ends[0] == z_lo and ends[-1] == z_hi and len(ends) == 2 * len(breaks) + 2
    for z, at in zip(breaks, ends[1:-1].reshape(-1, 2)):
        assert np.all(np.abs(at - z) <= 1e-12 * max(1.0, abs(z)))


@pytest.mark.parametrize("family", ["ig4", "symmetric_toy"])
def test_a_smooth_w_is_one_piece(family):
    # A W without breaks is one piece, the table of the whole z range.
    spec, nu = {"ig4": (inverse_gamma(), [4.0]),
                "symmetric_toy": (symmetric_toy_quantile(), [])}[family]
    (piece,) = _WReader(spec, nu).pieces
    whole = _QuantileTable(spec, nu)
    z = np.linspace(*_z_range(spec), 1001)
    assert piece.z_range == whole.z_range == _z_range(spec)
    assert piece.bound == whole.bound and np.array_equal(piece.log_w(z), whole.log_w(z))


def test_a_heavy_tailed_black_box_is_one_piece():
    # A black box that wraps the IG(4) quantile sees u only, so above
    # z = 22.2 its w is a staircase of u's rounding, which its table's
    # bound leaves out: it is one piece, and its rows meet tol 1e-3 against
    # the closed form, out to D2 = 1e6, where h peaks at 1 - u near 2e-12.
    spec = blackbox(lambda u, nu: ig4_quantile(u), 0)
    assert len(_WReader(spec, []).pieces) == 1
    d = 10
    D2 = np.array([0.0, 0.5, 10.0, 640.0, 1.6e4, 1e6])
    X = np.zeros((len(D2), d))
    X[:, 0] = np.sqrt(D2)
    exact = closed_log_density(NvmModel.build(None, np.eye(d), inverse_gamma(), [4.0]), X)
    res = log_integral_batch(*density_args(D2, d), _WReader(spec, []), RqmcConfig(tol=1e-3))
    assert all(r.converged and abs(r.estimate - e) <= 1e-3 for r, e in zip(res, exact))


def test_a_rare_jump_in_the_rounding_zone_splits_w():
    # Above z = 22.2 a black box's table leaves out only the misses that a
    # change of u by a few doubles explains.  W = 1e4 with probability
    # 1e-13, and 1 otherwise, jumps at z = 29.9, where the doubles of u
    # resolve 1 - u to about 1e-3 of itself: W still splits there, between
    # two neighbouring doubles of u.  From D2 = 200 on the rare part
    # dominates f.  Every row is within 1e-2 of the exact mixture, a
    # converged row within tol, and the rows that the common part dominates
    # converge.  (The z range ends at u = 1 - eps, which cuts 2.2e-3 of the
    # rare part's mass, so the rows it dominates report unconverged.)
    u_jump = 1.0 - 1e-13
    spec = blackbox(lambda u, nu: np.where(u < u_jump, 1.0, 1e4), 0)
    lower, upper = _WReader(spec, []).pieces
    a, b = lower.z_range[1], upper.z_range[0]
    assert list(quantile(spec, expit([a, b]), [])) == [1.0, 1e4] and b - a <= 1e-12 * b
    p = 1.0 - u_jump
    D2 = np.array([0.5, 50.0, 200.0, 1e3, 1e4])
    for d in (3, 10):
        exact = np.logaddexp(math.log1p(-p) - 0.5 * d * LOG_2PI - 0.5 * D2,
                             math.log(p) - 0.5 * d * (LOG_2PI + math.log(1e4)) - D2 / 2e4)
        res = log_integral_batch(*density_args(D2, d), _WReader(spec, []), RqmcConfig(tol=1e-3))
        assert all(abs(r.estimate - e) <= 1e-2 for r, e in zip(res, exact))
        assert all(abs(r.estimate - e) <= 1e-3 for r, e in zip(res, exact) if r.converged)
        assert res[0].converged and res[1].converged


def test_a_bounded_w_far_out_meets_a_tolerance_below_its_ulp():
    # At D2 = 1e10 the staircase's mass sits on its top piece, where w = 10
    # and |log f| is near 5e8, whose doubles lie 6e-8 apart.  That piece's
    # table is exact up to rounding (bound 0), but a read of L forms m/w =
    # 5e8 as e^(log m - L), 20 ulp off; the budget leaves room for that, so
    # the rows read w itself and give the double nearest log f.
    spec = blackbox(BREAKS["staircase"][0], 0)
    assert _WReader(spec, []).pieces[-1].bound == 0.0
    for d in (3, 10):
        exact = math.log(0.1) - 0.5 * d * (LOG_2PI + math.log(10.0)) - 5e8
        (res,) = log_integral_batch(*density_args([1e10], d), _WReader(spec, []),
                                    RqmcConfig(tol=1e-8))
        assert res.converged and res.estimate == exact


def test_a_w_with_more_breaks_than_pieces_is_not_certified():
    # W uniform on the atoms 1, ..., 20 jumps 19 times, more often than
    # _MAX_PIECES pieces can split.  A piece at the cap still holds a jump
    # and misses the search's budget, so the rows that reach it are
    # unconverged with an infinite error.
    spec = blackbox(lambda u, nu: np.floor(20.0 * u) + 1.0, 0)
    pieces = _WReader(spec, []).pieces
    assert len(pieces) == _MAX_PIECES and max(p.bound for p in pieces) > _SEARCH_LOG_W_ERR
    res = log_integral_batch(*density_args([0.5, 30.0], 3), _WReader(spec, []))
    assert all(not r.converged and r.error_estimate == math.inf for r in res)


@pytest.mark.parametrize(
    "spec,nu",
    [
        (inverse_gamma(), [2.0]),
        (pareto(), [2.5]),
        (inverse_burr(), [2.0, 3.0]),
    ],
)
def test_unimodal_on_grid(spec, nu):
    # No ascent after the first descent, up to floating-point noise.
    grid = np.linspace(1e-5, 1 - 1e-5, 10000)
    lh = log_h(grid, *density_args(18.0, 4), spec, nu)
    imax = int(np.argmax(lh))
    tol = 1e-9 * np.maximum(1.0, np.abs(lh))
    assert np.all(np.diff(lh[: imax + 1]) >= -tol[: imax])
    assert np.all(np.diff(lh[imax:]) <= tol[imax + 1 :])


class TestClosedLogDensity:
    def test_cauchy_at_origin(self):
        model = NvmModel.build(None, np.eye(1), inverse_gamma(), [1.0])
        assert closed_log_density(model, np.zeros(1)) == pytest.approx(
            math.log(1.0 / math.pi), rel=1e-12
        )

    def test_standard_normal_origin(self):
        model = NvmModel.build(None, np.eye(2), constant(), [1.0])
        assert closed_log_density(model, np.zeros(2)) == pytest.approx(-LOG_2PI)

    def test_mvt_center_value(self):
        model = NvmModel.build(None, np.eye(10), inverse_gamma(), [4.0])
        expected = gammaln(7.0) - gammaln(2.0) - 5.0 * math.log(4.0 * math.pi)
        assert closed_log_density(model, np.zeros(10)) == pytest.approx(expected, rel=1e-12)

    def test_mvt_matches_scipy(self):
        from scipy.stats import multivariate_t

        rng = np.random.default_rng(3)
        G = rng.standard_normal((4, 4))
        sigma = G @ G.T + np.eye(4)
        mu = rng.standard_normal(4)
        model = NvmModel.build(mu, sigma, inverse_gamma(), [3.5])
        X = rng.standard_normal((6, 4)) * 3
        want = multivariate_t(loc=mu, shape=sigma, df=3.5).logpdf(X)
        assert np.allclose(closed_log_density(model, X), want, rtol=1e-10)

    def test_pareto_quadrature_oracle(self):
        # Direct 1-D quadrature of the conditional-density mixture over
        # the Pareto support.
        d, alpha, D2 = 10, 6.0, 30.0

        def integrand(w):
            return (
                (2 * math.pi * w) ** (-d / 2)
                * math.exp(-D2 / (2 * w))
                * alpha
                * w ** (-alpha - 1.0)
            )

        oracle, err = quad(integrand, 1.0, np.inf, epsabs=1e-14, epsrel=1e-11)
        model = NvmModel.build(None, np.eye(d), pareto(), [alpha])
        x = np.zeros(d)
        x[0] = math.sqrt(D2)
        got = closed_log_density(model, x)
        assert got == pytest.approx(math.log(oracle), rel=1e-8)

    def test_pareto_center_limit(self):
        d, alpha = 6, 2.0
        model = NvmModel.build(None, np.eye(d), pareto(), [alpha])
        want = math.log(alpha / (alpha + d / 2)) - 0.5 * d * LOG_2PI
        assert closed_log_density(model, np.zeros(d)) == pytest.approx(want, rel=1e-12)

    def test_unsupported_kind(self):
        model = NvmModel.build(None, np.eye(2), inverse_burr(), [2.0, 2.0])
        with pytest.raises(ValueError, match="closed-form"):
            closed_log_density(model, np.zeros(2))


def test_log_lower_incomplete_gamma_small_x():
    import mpmath

    z = 11.0
    for x in (1e-40, 1e-12, 0.3, 5.0, 50.0):
        want = float(mpmath.log(mpmath.gammainc(z, 0, x)))
        assert _log_lower_incomplete_gamma(z, x) == pytest.approx(want, rel=1e-6)


class TestLogDensityBatch:
    def test_constant_shortcut_exact(self):
        model = NvmModel.build(None, np.eye(3), constant(), [1.0])
        rng = np.random.default_rng(1)
        X = rng.standard_normal((5, 3))
        res = log_density_batch(X, model)
        want = closed_log_density(model, X)
        for r, w in zip(res, want):
            assert r.estimate == pytest.approx(w, rel=1e-14)
            assert r.error_estimate == 0.0
            assert r.converged

    def test_mvt_adaptive_matches_closed_form(self):
        d = 10
        model = NvmModel.build(None, np.eye(d), inverse_gamma(), [4.0])
        heavy = NvmModel.build(None, np.eye(d), inverse_gamma(), [1.0])
        X = rnvmix(60, heavy, seed=42)
        truth = closed_log_density(model, X)
        res = log_density_batch(X, model, RqmcConfig(tol=1e-3))
        errs = np.array([r.estimate for r in res]) - truth
        assert np.all([r.converged for r in res])
        assert np.max(np.abs(errs)) <= 1e-3
        # The sweep must include genuinely hard points.
        assert truth.min() < -60

    def test_pareto_adaptive_matches_closed_form(self):
        d = 10
        model = NvmModel.build(None, np.eye(d), pareto(), [6.0])
        heavy = NvmModel.build(None, np.eye(d), pareto(), [2.0])
        X = rnvmix(60, heavy, seed=43)
        truth = closed_log_density(model, X)
        res = log_density_batch(X, model, RqmcConfig(tol=1e-3))
        errs = np.array([r.estimate for r in res]) - truth
        assert np.all([r.converged for r in res])
        assert np.max(np.abs(errs)) <= 1e-3

    def test_crude_path_is_biased_where_adaptive_is_not(self):
        # At D2 = 16000 (log f ~ -64) the integrand peaks at 1 - u ~ 8e-7
        # in a spike about 2e-6 wide, which the 512 points per
        # randomization of a 4-batch crude pass seldom come near: over 300
        # randomizations 93% fall more than 1 below the truth and every
        # 8-seed mean is below -15.  (At D2 = 640 the crude pass is only
        # noisy, with mean error -0.01 and sd 0.12.)
        d = 10
        model = NvmModel.build(None, np.eye(d), inverse_gamma(), [4.0])
        x = np.full(d, 40.0)  # D2 = 16000: far tail
        truth = float(closed_log_density(model, x))

        p = density_args(float(x @ x), d)

        def crude_g(v):
            return np.exp(log_h(np.clip(v[:, 0], 1e-16, 1 - 1e-16), *p, inverse_gamma(), [4.0]))

        # A relative tol of 1e-3 on the integral is the absolute tol 1e-3
        # of a log-estimate whose error is the CI over the mean.
        cfg = RqmcConfig(i_max=4, tol_type="relative")
        crude = [rqmc_estimate(crude_g, 1, cfg, seed=s) for s in range(8)]
        crude_log = [math.log(c.estimate) for c in crude]
        adaptive = log_density_batch(x[None, :], model, RqmcConfig(tol=1e-3))[0]
        assert np.mean(crude_log) - truth < -1.0
        assert not any(c.converged for c in crude)
        assert abs(adaptive.estimate - truth) <= 1e-3
        assert all(adaptive.estimate != c for c in crude_log)

    def test_center_point_matches_closed_form(self):
        model = NvmModel.build(None, np.eye(10), inverse_gamma(), [4.0])
        res = log_density_batch(np.zeros((1, 10)), model, RqmcConfig(i_max=256))[0]
        expected = gammaln(7.0) - gammaln(2.0) - 5.0 * math.log(4.0 * math.pi)
        assert res.estimate == pytest.approx(expected, abs=max(3 * res.error_estimate, 1e-3))

    def test_inverse_burr_against_quadrature(self):
        d = 5
        nu = [2.15, 3.61]
        model = NvmModel.build(None, np.eye(d), inverse_burr(), nu)
        x = np.full(d, 2.0)
        D2 = float(np.dot(x, x))

        def integrand(u):
            w = quantile(inverse_burr(), u, nu)
            return (2 * math.pi * w) ** (-d / 2) * math.exp(-D2 / (2 * w))

        oracle, _ = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-11, limit=200)
        res = log_density_batch(x[None, :], model, RqmcConfig(tol=1e-3))[0]
        assert res.estimate == pytest.approx(math.log(oracle), abs=2e-3)

    def test_requires_full_rank(self):
        model = NvmModel.build(None, np.ones((2, 2)), inverse_gamma(), [3.0])
        with pytest.raises(ValueError, match="full-rank"):
            log_density_batch(np.zeros((1, 2)), model)


@pytest.mark.parametrize("D2", [0.0, 1e-8, 0.5, 640.0, 1.6e4, 2e5, 1e8, 1e10])
@pytest.mark.parametrize(
    "spec,nu", [(inverse_gamma(), 4.0), (pareto(), 6.0)], ids=["inverse_gamma", "pareto"]
)
def test_adaptive_across_distances(spec, nu, D2):
    # Small D2 puts the IG peak near u = 0 (u* ~ 2e-16 at D2 = 0.5, below
    # the smallest double at D2 = 1e-8, and at u = 0 itself at the center,
    # where h is monotone); large D2 puts both peaks near
    # u = 1 (1 - u* from 5e-4 for IG at D2 = 640 down to 1e-54 for Pareto
    # at D2 = 1e10).
    d = 10
    model = NvmModel.build(None, np.eye(d), spec, [nu])
    x = np.zeros(d)
    x[0] = math.sqrt(D2)
    res = log_density_batch(x[None, :], model, RqmcConfig(tol=1e-3))[0]
    assert res.converged
    assert abs(res.estimate - closed_log_density(model, x)) <= 1e-3


# (family, D2, estimate, iterations_used, n_per_randomization, converged)
# of log_density_batch at x = sqrt(D2) e_1 in d = 10, tol 1e-3, seed 17.
# Re-recorded when the rows of a call whose search reads the table came
# to take the nested trapezoid rule: the estimates moved by at most
# 3e-5 (IG(4) at D2 = 0.5 by 2.2e-4, where the RQMC had been that far
# off) and lie within 2.3e-8 of the trapezoid reference; each row stops
# after 31 or 63 nodes, reported as one batch of n0.  Re-recorded again
# when a row's first value that may stop it came to need a step of at
# most g's width at its maximum: IG(4) at D2 = 0.5 and 10 now stop after
# 63 nodes, not 31, and moved by -2.2e-8 and +1.5e-9, each nearer the
# closed form.  Earlier moves are in CHANGES.md.
# Estimates pinned to 1e-14, everything else exactly.
DENSITY_GOLDEN_D2 = [0.5, 3.0, 10.0, 25.0, 80.0, 640.0, 1.6e4]
DENSITY_GOLDEN = {
    "inverse_gamma": [
        (-6.900351271148672, 1, 63, True),
        (-9.993180542877907, 1, 63, True),
        (-14.84521080597359, 1, 63, True),
        (-19.94288030921217, 1, 31, True),
        (-27.387527092575667, 1, 31, True),
        (-41.64570058143899, 1, 31, True),
        (-64.13596728659512, 1, 31, True),
    ],
    "pareto": [
        (-10.024502342309656, 1, 63, True),
        (-11.163494411862754, 1, 63, True),
        (-14.287735195795129, 1, 63, True),
        (-20.428733090990757, 1, 63, True),
        (-32.87088730898832, 1, 31, True),
        (-55.7447442474086, 1, 31, True),
        (-91.15237832095826, 1, 31, True),
    ],
    "inverse_burr": [
        (-6.9809707865149, 1, 31, True),
        (-10.586991503639828, 1, 31, True),
        (-14.879609160756358, 1, 31, True),
        (-19.64716488344565, 1, 31, True),
        (-27.145353744370006, 1, 31, True),
        (-41.60372582435973, 1, 31, True),
        (-64.13422013283189, 1, 31, True),
    ],
}


@pytest.mark.parametrize("family", sorted(DENSITY_GOLDEN))
def test_log_density_golden_values(family):
    spec, nu = {"inverse_gamma": (inverse_gamma(), [4.0]), "pareto": (pareto(), [6.0]),
                "inverse_burr": (inverse_burr(), [2.0, 2.0])}[family]
    d = 10
    X = np.zeros((len(DENSITY_GOLDEN_D2), d))
    X[:, 0] = np.sqrt(DENSITY_GOLDEN_D2)
    model = NvmModel.build(None, np.eye(d), spec, nu)
    cfg = RqmcConfig(tol=1e-3)
    res = log_density_batch(X, model, cfg)
    reference, _ = reference_log_integral(DENSITY_GOLDEN_D2, *density_args(0.0, d)[1:], spec, nu)
    for r, ref, (estimate, iterations, n, converged) in zip(res, reference,
                                                            DENSITY_GOLDEN[family]):
        assert r.estimate == pytest.approx(estimate, rel=0.0, abs=1e-14)
        assert (r.iterations_used, r.n_per_randomization, r.converged) == (
            iterations, n, converged)
        assert abs(estimate - ref) <= 1e-6


def test_rows_honour_relative_tolerance(monkeypatch):
    # An estimate near 0.02 needs an error below 2e-5 in relative mode.
    # The tolerance must be tested against the reported estimate, the
    # log-mean over the bracket plus the log of its width: against the
    # log-mean alone, near -3.6 here, tol 1e-4 passed an error estimate of
    # 6.1e-6.  The search's bounds on the log-integral enclose 0, so no
    # table error is small enough against the estimate: the row reads the
    # quantile itself.
    seen = adaptive_rows(monkeypatch)
    reads = []
    rows_log_g = density._rows_log_g

    def spy(tables, rows_reads, *args):
        reads.append(list(rows_reads))
        return rows_log_g(tables, rows_reads, *args)

    monkeypatch.setattr(density, "_rows_log_g", spy)
    for tol in (1e-3, 1e-4, 1e-5):
        cfg = RqmcConfig(tol=tol, tol_type="relative")
        res = log_integral_batch([1.0], 1.0, math.log(2.0), _WReader(inverse_gamma(), [4.0]),
                                 cfg)[0]
        assert res.converged
        assert res.error_estimate <= cfg.tol * abs(res.estimate)
    assert seen == [[0.5]] * 3
    assert all(r == [-1] for r in reads)


@pytest.mark.parametrize(
    "D2,shift_k,prefactor,match",
    [([1.0, -1e-300], 5.0, 0.0, "D2 must be non-negative"),
     ([1.0, np.nan], 5.0, 0.0, "D2 must be non-negative"),
     ([1.0, 2.0], 0.0, 0.0, "shift_k must be positive"),
     ([1.0, 2.0], [5.0, -1.0], 0.0, "shift_k must be positive"),
     ([1.0, 2.0], [5.0, 5.0, 5.0], 0.0, "broadcast"),
     ([1.0, 2.0], 5.0, [0.0, 0.0, 0.0], "broadcast")],
    ids=["negative-D2", "nan-D2", "zero-shift", "negative-shift", "shift-length",
         "prefactor-length"])
def test_log_integral_batch_rejects_bad_rows(D2, shift_k, prefactor, match):
    with pytest.raises(ValueError, match=match):
        log_integral_batch(D2, shift_k, prefactor, _WReader(inverse_gamma(), [4.0]))


def test_log_integral_batch_broadcasts_scalar_parameters():
    # Scalar shift_k and prefactor stand for full rows; an empty D2 gives
    # no results.
    D2, k, pref = density_args([0.5, 640.0, 1.6e4], 10)
    spec, nu = inverse_gamma(), [4.0]
    full = log_integral_batch(D2, np.full(3, k), np.full(3, pref), _WReader(spec, nu))
    assert list(log_integral_batch(D2, k, pref, _WReader(spec, nu))) == list(full)
    assert list(log_integral_batch(np.zeros(0), k, pref, _WReader(spec, nu))) == []


def test_batch_result_reads_as_the_benchmark_reads_it(monkeypatch):
    # A call builds one RqmcResult whose fields are arrays, one entry per
    # row.  The benchmark zips a log_density_batch result with the exact
    # values, unpacks a one-point result as (r,), and reads each row's
    # estimate and converged flag, which are Python scalars.
    built = []
    monkeypatch.setattr(density, "RqmcResult", lambda *a: built.append(a) or RqmcResult(*a))
    d = 10
    model = NvmModel.build(None, np.eye(d), inverse_gamma(), [4.0])
    X = np.zeros((5, d))
    X[:, 0] = np.sqrt([0.0, 0.5, 640.0, 1.6e4, 1e8])
    res = log_density_batch(X, model)
    assert len(built) == 1
    assert [v.dtype for v in astuple(res)] == [np.float64, np.float64, np.int64, np.int64, bool]
    assert all(v.shape == (5,) for v in astuple(res))
    rows = list(zip(res, closed_log_density(model, X)))
    assert len(rows) == 5
    for r, e in rows:
        assert [type(v) for v in astuple(r)] == [float, float, int, int, bool]
        assert r.converged and abs(r.estimate - e) <= 1e-3
    (r,) = log_density_batch(X[2:3], model)
    assert len(built) == 2 and r == rows[2][0]


def test_call_memory_stays_below_one_block():
    # 2000 rows at D2 in [10, 100] or in [0.5, 2], where the search and the
    # rule of each row end well inside the z range: the rule evaluates and
    # reduces them block by block, so the call's traced peak stays far
    # below one (2000, B n0) float64 block of log-integrands (30.7 MB).
    cfg = RqmcConfig()
    spec, nu = inverse_gamma(), [4.0]
    for lo, hi in ((10.0, 100.0), (0.5, 2.0)):
        D2, k, pref = density_args(np.linspace(lo, hi, 2000), 10)
        log_integral_batch(D2[:10], k, pref, _WReader(spec, nu), cfg)  # lazy imports
        tracemalloc.start()
        try:
            res = log_integral_batch(D2, k, pref, _WReader(spec, nu), cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(r.iterations_used <= 4 and r.converged for r in res)
        assert peak < len(D2) * cfg.B * cfg.n0 * 8 / 4


@pytest.mark.parametrize(
    "u_atom,flat",
    [(0.1, False), (1e-12, False), (1e-9, True)],
    ids=["mass-0.1", "found-by-peak-search", "flat-above-mass-1e-9"],
)
def test_atom_at_zero_diverges_at_center(u_atom, flat):
    # P(W = 0) > 0 makes the density at x = loc infinite, for an atom of
    # mass 0.1 as for atoms of 1e-12 and 1e-9, below which an RQMC in u
    # would rarely sample.  Above the 1e-12 atom h = 1/w = 1/(10 u) is not
    # integrable; above the 1e-9 atom h is constant, which an RQMC would
    # settle with zero spread.  Every atom is met by the quantile at the
    # smallest u of the z range.
    def q(u, nu):
        return np.where(u < u_atom, 0.0, 1.0 if flat else np.minimum(u / 0.1, 1.0))

    model = NvmModel.build(None, np.eye(2), blackbox(q, 0), [])
    with pytest.raises(ValueError, match="diverges at w = 0"):
        log_density_batch(np.zeros((1, 2)), model)


def test_w_zero_everywhere_is_rejected():
    # A black box whose w is 0 on the whole z range leaves no piece to
    # integrate: X sits at loc and has no density.
    model = NvmModel.build(None, np.eye(2), blackbox(lambda u, nu: np.zeros_like(u), 1), [1.0])
    with pytest.raises(ValueError, match="w is 0 on the whole z range"):
        log_density_batch(np.ones((1, 2)), model)


@pytest.mark.parametrize("nu", [0.02, 0.001])
def test_w_past_the_largest_double_is_dropped(nu):
    # Under IG(0.02) and IG(0.001), w passes the largest double inside the
    # z range.  The piece beyond is dropped, since h <= w^(-1) < 1e-308
    # there, and the last piece ends where w is still finite.  Near the
    # overflow the tables keep missing the search's budget, so the pieces
    # reach the cap and the rows report themselves unconverged, yet every
    # estimate is within tol of the closed form.
    model = NvmModel.build(None, np.eye(2), inverse_gamma(), [nu])
    X = np.zeros((5, 2))
    X[:, 0] = np.sqrt([0.0, 0.5, 100.0, 1e6, 1e12])
    tol = 1e-3
    res = log_density_batch(X, model, RqmcConfig(tol=tol))
    within = np.abs(res.estimate - closed_log_density(model, X)) <= tol
    assert np.all(within) and np.all(within | ~res.converged)
    last = model._w.pieces[-1]
    assert last.z_range[1] < _z_range(inverse_gamma())[1]
    assert math.isfinite(last.exact(last.z_range[1]))


def test_w_past_the_largest_double_on_half_the_range():
    # W = 1 below u = 0.5 and +inf above: the upper half is dropped, and
    # the density is half the standard normal's.
    model = NvmModel.build(
        None, np.eye(2), blackbox(lambda u, nu: np.where(u < 0.5, 1.0, np.inf), 0), [])
    D2 = np.array([0.0, 0.5, 100.0, 1e4])
    X = np.zeros((4, 2))
    X[:, 0] = np.sqrt(D2)
    res = log_density_batch(X, model)
    assert np.all(res.converged)
    assert np.allclose(res.estimate, math.log(0.5) - LOG_2PI - 0.5 * D2, rtol=0.0, atol=1e-3)


@pytest.mark.parametrize("q", [lambda u, nu: np.full(np.shape(u), np.inf),
                               lambda u, nu: np.where(u < 0.5, 0.0, np.inf)],
                         ids=["inf", "zero-then-inf"])
def test_w_never_finite_is_rejected(q):
    # With w never finite and positive, no piece is left to integrate.
    # The break between w = 0 and w = inf is found as one.
    model = NvmModel.build(None, np.eye(2), blackbox(q, 0), [])
    with pytest.raises(ValueError, match="or past the largest double"):
        log_density_batch(np.ones((1, 2)), model)


@pytest.mark.parametrize("swap", [1e14, 0.0], ids=["far-tail", "center"])
@pytest.mark.parametrize(
    "cfg", [RqmcConfig(tol=1e-3), RqmcConfig(tol=8.5e-14, i_max=3),
            RqmcConfig(tol=1e-13, i_max=2), RqmcConfig(tol=1e-13, n0=64, i_max=2)],
    ids=["default", "capped", "two-batches", "cap-binds"])
def test_batch_rows_are_independent(cfg, swap):
    # Rows share the trapezoid rule's halvings and its table reads but
    # nothing else: replacing one row leaves every other row's result
    # exactly as it was.  The rows stop after different numbers of
    # halvings, so a row that stops early or runs on must not shift the
    # others: at tol 1e-3 after 31 or 63 nodes; at tols 8.5e-14 and 1e-13,
    # within budgets of 384 and 256 intervals, after 127 nodes (D2 >= 10
    # and the far-tail swap, where two successive values agree exactly) or
    # 255 (D2 <= 3 and the center swap).  The budget of 128 intervals of
    # cap-binds stops those near rows at 127 nodes, unconverged.
    D2s = [0.5, 3.0, 10.0, 640.0, 1e16, 2e5, 1e6]
    spec, nu = inverse_gamma(), [4.0]
    ref = list(log_integral_batch(*density_args(D2s, 10), _WReader(spec, nu), cfg))
    got = list(log_integral_batch(*density_args(D2s[:4] + [swap] + D2s[5:], 10),
                                  _WReader(spec, nu), cfg))
    assert [r for i, r in enumerate(got) if i != 4] == [r for i, r in enumerate(ref) if i != 4]
    assert got[4] != ref[4]
    # iterations_used counts nodes in batches of n0, the last one partly
    # used.
    assert all(r.iterations_used == -(-r.n_per_randomization // cfg.n0) <= cfg.i_max
               for r in ref + got)
    near = [r for d2, r in zip(D2s + [swap], ref + got[4:5]) if d2 <= 3.0]
    far = [r for d2, r in zip(D2s + [swap], ref + got[4:5]) if d2 > 3.0]
    if cfg.tol == 1e-3:
        assert {r.n_per_randomization for r in ref + got} == {31, 63}
        assert all(r.converged for r in ref + got)
    else:
        assert all(r.n_per_randomization == 127 and r.converged and r.error_estimate == 0.0
                   for r in far)
        capped = cfg.i_max * cfg.n0 == 128
        assert all(r.n_per_randomization == (127 if capped else 255) and r.converged != capped
                   for r in near)


@pytest.mark.parametrize(
    "cfg", [RqmcConfig(), RqmcConfig(tol=1e-13, i_max=7), RqmcConfig(tol=1e-13, i_max=2)],
    ids=["default", "tight", "two-batches"])
@pytest.mark.parametrize("family", ["inverse_gamma", "pareto", "inverse_burr"])
def test_rows_do_not_depend_on_their_batch(family, cfg):
    # Rows share the rule's halvings but nothing else, so a row's result is
    # what the row gives alone, wherever it sits in the batch: rows in the E-step shape
    # (shift_k = d/2 and d/2 + 1), permuted, and each called by itself.
    spec, nu = {"inverse_gamma": (inverse_gamma(), [4.0]), "pareto": (pareto(), [6.0]),
                "inverse_burr": (inverse_burr(), [2.0, 2.0])}[family]
    D2s = np.array([0.0, 0.5, 3.0, 640.0, 1.6e4, 2e5, 1e10])
    D2, k = np.concatenate([D2s, D2s]), np.repeat([5.0, 6.0], len(D2s))
    pref = gaussian_prefactor(10)
    if family == "inverse_burr":
        # E[W^(-k)] is infinite for k >= nu1 nu2 = 4, so the search rejects
        # the rows at D2 = 0; the others are checked without them.
        with pytest.raises(ValueError, match="diverges at w = 0"):
            log_integral_batch(D2, k, pref, _WReader(spec, nu), cfg)
        D2, k = D2[D2 > 0.0], k[D2 > 0.0]
    ref = log_integral_batch(D2, k, pref, _WReader(spec, nu), cfg)
    perm = np.random.default_rng(0).permutation(len(D2))
    got = log_integral_batch(D2[perm], k[perm], pref, _WReader(spec, nu), cfg)
    assert list(got) == [ref[i] for i in perm]
    alone = [log_integral_batch(D2[i:i + 1], k[i], pref, _WReader(spec, nu), cfg)[0]
             for i in range(len(D2))]
    assert alone == list(ref)


def test_quantile_calls_do_not_grow_with_pending_points(monkeypatch):
    # Each search step and each step of the rule reads w once for all
    # far-tail rows, from the table: building it makes the call's only quantile
    # call.
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.size(args[1]))
        return quantile(*args, **kwargs)

    monkeypatch.setattr(mixtures, "quantile", counted)
    seen = adaptive_rows(monkeypatch)
    counts = {}
    for n in (10, 200):
        calls.clear()
        D2 = np.logspace(5, 9, n)
        res = log_integral_batch(*density_args(D2, 10), _WReader(inverse_gamma(), [4.0]),
                                 RqmcConfig())
        assert seen[-1] == list(0.5 * D2) and all(r.converged for r in res)
        counts[n] = len(calls)
    assert counts[200] == counts[10] == 1


def test_rows_on_the_table_and_on_the_quantile_share_a_call(monkeypatch):
    # At tol 3e-5 under IG(4), tol/10 over max |m/w - k| on the bracket
    # covers the 513-node table's bound (1.3e-7) only at the smallest
    # distances, and the far rows read the call's finer table (5.1e-10);
    # at tol 1e-7 the near rows read the finer table and the far rows the
    # quantile.  The trapezoid rule's first two values read w for rows of
    # both kinds in one block, and each row gives what it gives alone.
    picks = []
    rows_log_g = density._rows_log_g

    def spy(tables, reads, *args):
        picks.append(list(reads))
        return rows_log_g(tables, reads, *args)

    monkeypatch.setattr(density, "_rows_log_g", spy)
    seen = adaptive_rows(monkeypatch)
    for tol, D2, reads in ((3e-5, [10 ** 0.5, 10 ** 0.6, 1e3, 1e5], [0, 0, 1, 1]),
                           (1e-7, [0.1, 1.0, 1e3, 1e5], [1, 1, -1, -1])):
        cfg = RqmcConfig(tol=tol)
        picks.clear()
        res = log_integral_batch(*density_args(D2, 10), _WReader(inverse_gamma(), [4.0]), cfg)
        assert seen[-1] == list(0.5 * np.array(D2)) and all(r.converged for r in res)
        assert picks[0] == picks[1] == reads
        for d2, r in zip(D2, res):
            alone = log_integral_batch(*density_args([d2], 10), _WReader(inverse_gamma(), [4.0]),
                                       cfg)
            assert list(alone) == [r]


def test_a_finer_table_is_built_only_when_the_tolerance_needs_it(monkeypatch):
    # At tol 1e-3 every IG(4) row's budget covers the 513-node table's
    # bound, and the first call on the model builds that table alone.  At
    # tol 1e-6 none does, and the next call on the same model builds only
    # the table four times finer, which every row reads; they all still
    # meet tol against the closed form.
    tables, picks = [], []
    rows_log_g = density._rows_log_g

    class Recorded(_QuantileTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    def spy(tables, reads, *args):
        picks.append(list(reads))
        return rows_log_g(tables, reads, *args)

    monkeypatch.setattr(mixtures, "_QuantileTable", Recorded)
    monkeypatch.setattr(density, "_rows_log_g", spy)
    d = 10
    model = NvmModel.build(None, np.eye(d), inverse_gamma(), [4.0])
    X = np.zeros((21, d))
    X[:, 0] = np.sqrt(np.logspace(-1, 9, 21))
    exact = closed_log_density(model, X)
    for tol, intervals, read in ((1e-3, [_TABLE_INTERVALS], 0),
                                 (1e-6, [4 * _TABLE_INTERVALS], 1)):
        tables.clear()
        picks.clear()
        res = log_density_batch(X, model, RqmcConfig(tol=tol))
        assert [t.intervals for t in tables] == intervals
        assert picks[0] == [read] * len(X)
        assert all(r.converged and abs(r.estimate - e) <= tol for r, e in zip(res, exact))


def test_a_second_call_on_one_model_builds_no_table(monkeypatch):
    # The model's reader of W keeps its tables: a second call on the same
    # IG(4) model, at the same tolerance, builds none and gives the same
    # results.  At tol 1e-6 the first call builds the finer table too.
    tables = []

    class Recorded(_QuantileTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(mixtures, "_QuantileTable", Recorded)
    d = 10
    model = NvmModel.build(None, np.eye(d), inverse_gamma(), [4.0])
    X = np.zeros((30, d))
    X[:, 0] = np.sqrt(np.logspace(-1, 9, 30))
    cfg = RqmcConfig(tol=1e-6)
    first = log_density_batch(X, model, cfg)
    assert [t.intervals for t in tables] == [_TABLE_INTERVALS, 4 * _TABLE_INTERVALS]
    tables.clear()
    assert list(log_density_batch(X, model, cfg)) == list(first)
    assert tables == []


def test_quantile_work_does_not_depend_on_the_number_of_points(monkeypatch):
    # The u-values a call passes to the quantile are the table's nodes and
    # midpoints: the search and the trapezoid rule read the table, however
    # many points the call has.  Each row reports the rule's nodes.
    u_values, tables = [], []

    def counted(*args, **kwargs):
        u_values.append(np.size(args[1]))
        return quantile(*args, **kwargs)

    class Recorded(_QuantileTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(mixtures, "quantile", counted)
    monkeypatch.setattr(mixtures, "_QuantileTable", Recorded)
    rules = rule_results(monkeypatch)
    cfg = RqmcConfig()
    for n in (10, 200):
        u_values.clear()
        tables.clear()
        res = log_integral_batch(*density_args(np.logspace(5, 9, n), 10),
                                 _WReader(inverse_gamma(), [4.0]), cfg)
        (table,) = tables
        assert u_values == [2 * table.intervals + 1] == [1025]
        _, _, nodes = rules[-1]
        assert len(nodes) == n and all(r.converged for r in res)
        assert [r.n_per_randomization for r in res] == list(nodes)


def test_search_finds_mass_that_lies_only_near_u_1(monkeypatch):
    # This black box has w = 0 below u = 1 - 1e-9, where an RQMC in u
    # would rarely sample; under the default configuration the search finds
    # the mass above.  The bracket stays open at the end of the black box's
    # z range, but the mass beyond it is within tol/10 of the estimate, so
    # the result converges.
    spec = blackbox(lambda u, nu: np.where(u < 1 - 1e-9, 0.0, 1.0), 0)
    seen = adaptive_rows(monkeypatch)
    (res,) = log_integral_batch([1.0], 5.0, 0.0, _WReader(spec, []))
    assert seen == [[0.5]] and res.converged
    assert res.estimate == pytest.approx(math.log(1e-9) - 0.5, abs=1e-3)


def test_adaptive_rows_stop_at_the_first_step_that_meets_tol(monkeypatch):
    # The trapezoid rule tests the tolerance at every halving of its step,
    # from 16 intervals (15 nodes, the ends counting as 0), once the
    # coarser of the two values has a step of at most sigma_z, g's width
    # at its maximum.  At tol 1e-3 each row stops at the first such value
    # within tol/10 of the one before: after 31 nodes, or after 63 where
    # the bracket is wider than 16 sigma_z (D2 below about 22 here), so
    # that a budget of 32 intervals leaves the row unconverged with an
    # infinite error.  Either is reported as one iteration of n0 = 128,
    # partly used.  The same rows at tol 1e-12 run on to 127 nodes, and
    # the two nearest to 255.
    D2, k, pref = density_args(np.linspace(0.5, 80.0, 20), 10)
    rules = rule_results(monkeypatch)
    res = log_integral_batch(D2, k, pref, _WReader(inverse_gamma(), [4.0]), RqmcConfig(tol=1e-3))
    ((estimate, error, nodes),) = rules
    assert list(nodes) == [63] * 6 + [31] * 14 and np.all(error <= 1e-4)
    assert [r.estimate for r in res] == list(estimate)
    assert all(r.converged and r.iterations_used == 1 for r in res)
    short = log_integral_batch(D2, k, pref, _WReader(inverse_gamma(), [4.0]),
                               RqmcConfig(tol=1e-3, n0=32, i_max=1))
    for r, s in zip(res, short):
        assert s.n_per_randomization == 31 and s.converged == (r.n_per_randomization == 31)
        assert s == r if s.converged else s.error_estimate == math.inf
    tight = log_integral_batch(D2, k, pref, _WReader(inverse_gamma(), [4.0]),
                               RqmcConfig(tol=1e-12))
    assert all(r.converged for r in tight)
    assert [r.n_per_randomization for r in tight] == [255] * 2 + [127] * 18


def test_a_rule_coarser_than_g_does_not_stop_the_row():
    # At D2 = 0.19 in d = 10 the IG(4) bracket is [-37.3, 6.4] at tol 1e-6,
    # and the rules of 16 and 32 intervals (steps 2.7 and 1.4, wider than
    # g's peak) agree to 6.9e-9 while both are 7.1e-6 off; the first value
    # that may stop the row has a step of at most sigma_z.
    d, D2 = 10, 0.19063190915945122
    model = NvmModel.build(None, np.eye(d), inverse_gamma(), [4.0])
    (res,) = log_integral_batch([D2], d / 2.0, gaussian_prefactor(d),
                                _WReader(inverse_gamma(), [4.0]), RqmcConfig(tol=1e-6))
    exact = closed_log_density(model, np.sqrt(D2) * np.eye(d)[0])
    assert res.converged and abs(res.estimate - exact) <= 1e-6


# W = 1 below u = 0.3 and 4 above: the quantile jumps, so the table of the
# whole z range misses the search's budget (bound 1.38), and the rule
# integrates its rows on the pieces either side of the jump.
JUMP = blackbox(lambda u, nu: np.where(u < 0.3, 1.0, 4.0), 0)


@pytest.mark.parametrize("tol,k_th", [(1e-13, 16.0), (1e-8, 13.0), (1e-5, 10.0), (1e-4, 9.0),
                                      (1e-3, 8.0), (1.0, 5.0), (100.0, 5.0)])
def test_bracket_threshold_follows_tol(monkeypatch, tol, k_th):
    # The bracket ends 5 + log10(1/tol) decades below g's maximum, and 5
    # decades for any tol >= 1, at most 16, on a smooth W (IG(4)) as on a
    # W that jumps.
    levels, rows = [], []

    def spy(*args):
        levels.append(args[-1])
        rows.append(list(args[2]))
        return _bracket_z(*args)

    monkeypatch.setattr(density, "_bracket_z", spy)
    res = log_integral_batch(*density_args([1e8, 1e10], 10), _WReader(inverse_gamma(), [4.0]),
                             RqmcConfig(tol=tol))
    assert rows == [[5e7, 5e9]] and all(r.converged for r in res)
    log_integral_batch([1.0], 1.5, 0.0, _WReader(JUMP, []), RqmcConfig(tol=tol, i_max=1))
    assert levels == [pytest.approx(k_th, abs=1e-12)] * 2


def test_infinite_tolerance_is_met_at_the_first_step():
    # RqmcConfig accepts tol = inf; every row then settles at its first
    # step, the trapezoid rule's first value.
    res = log_integral_batch(*density_args([0.5, 1.6e4, 1e10], 10),
                             _WReader(inverse_gamma(), [4.0]), RqmcConfig(tol=math.inf))
    assert all(r.converged and r.iterations_used == 1 for r in res)


def test_adaptive_rows_meet_their_tolerance(monkeypatch):
    # Calibration of the early stop: of the converged rows, at most 1% may
    # miss tol against the closed form, and none by more than 3 tol.  The
    # rule does not depend on the seed, so the rows come from a grid of D2
    # as large as two seeds' calls on half of it gave.
    cfg = RqmcConfig(tol=1e-3)
    D2 = np.concatenate([[0.0], np.logspace(-8, 10, 73)])
    errors = []
    for spec, nu in [(inverse_gamma(), 4.0), (pareto(), 6.0)]:
        for d in (2, 10):
            model = NvmModel.build(None, np.eye(d), spec, [nu])
            X = np.zeros((len(D2), d))
            X[:, 0] = np.sqrt(D2)
            exact = closed_log_density(model, X)
            res = log_density_batch(X, model, cfg)
            errors += [abs(r.estimate - e) for r, e in zip(res, exact) if r.converged]
    errors = np.array(errors)
    assert len(errors) >= 200
    assert np.mean(errors > cfg.tol) <= 0.01
    assert np.max(errors) <= 3 * cfg.tol


@pytest.mark.parametrize(
    "cfg", [RqmcConfig(tol=1e-2), RqmcConfig(tol=1e-3), RqmcConfig(tol=1e-4),
            RqmcConfig(tol=1e-3, tol_type="relative")],
    ids=["abs-1e-2", "abs-1e-3", "abs-1e-4", "rel-1e-3"])
def test_settled_rows_meet_their_tolerance(cfg):
    # Calibration of the early stop and of the bracket, which ends
    # 5 + log10(1/tol) decades below g's maximum: of all converged rows at
    # most 1% may miss tol against the closed form, none by more than
    # 3 tol.  The rule does not depend on the seed, so the rows come from a
    # grid of D2 as large as three seeds' calls on a third of it gave.
    D2 = np.concatenate([[0.0], np.logspace(-8, 10, 109)])
    misses = []
    for spec, nu in [(inverse_gamma(), 4.0), (pareto(), 6.0)]:
        for d in (2, 10):
            model = NvmModel.build(None, np.eye(d), spec, [nu])
            X = np.zeros((len(D2), d))
            X[:, 0] = np.sqrt(D2)
            exact = closed_log_density(model, X)
            tol = cfg.tol * (np.abs(exact) if cfg.tol_type == "relative" else 1.0)
            res = log_density_batch(X, model, cfg)
            misses += [abs(r.estimate - e) / t
                       for r, e, t in zip(res, exact, np.broadcast_to(tol, exact.shape))
                       if r.converged]
    misses = np.array(misses)
    assert len(misses) >= 400
    assert np.mean(misses > 1.0) <= 0.01
    assert np.max(misses) <= 3.0


def test_zero_distance_divergence_is_raised():
    # At D2 = 0 inverse-Burr(2, 2) gives E[W^(-k)] = 2 B(2 - k/2, 1 + k/2)
    # for k = d/2 < 4 and infinity from d = 8 on: near u = 0, g in the
    # logit coordinate tends to a constant at d = 8 and grows at d = 10.
    # These raise before any integration instead of returning unconverged
    # estimates (169.3 at d = 10 and -0.79 at d = 8 on an earlier RQMC).
    spec, nu = inverse_burr(), [2.0, 2.0]
    for d in (8, 10):
        with pytest.raises(ValueError, match="diverges at w = 0"):
            log_integral_batch([0.0], d / 2.0, gaussian_prefactor(d), _WReader(spec, nu))
    for d in (6, 7):
        k = d / 2.0
        exact = gaussian_prefactor(d) + math.log(2.0) + gammaln(2.0 - k / 2) + gammaln(
            1.0 + k / 2) - gammaln(3.0)
        res = log_integral_batch([0.0], k, gaussian_prefactor(d), _WReader(spec, nu))[0]
        assert res.converged
        assert abs(res.estimate - exact) <= 1e-3


def test_remark_shift_generalization():
    # shift_k = d/2 + 1 integrates w^(-d/2-1) exp(-D2/2w): quadrature oracle.
    d, nu_ig, D2 = 6, 3.0, 25.0
    spec = inverse_gamma()

    def integrand(u):
        w = quantile(spec, u, [nu_ig])
        return w ** (-(d / 2.0 + 1.0)) * math.exp(-D2 / (2 * w))

    oracle, _ = quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-11, limit=400)
    res = log_integral_batch([D2], d / 2.0 + 1.0, 0.0, _WReader(spec, [nu_ig]),
                             RqmcConfig(tol=1e-3))[0]
    assert res.estimate == pytest.approx(math.log(oracle), abs=2e-3)


def test_rows_that_read_the_table_stay_within_a_tenth_of_tol(monkeypatch):
    # A row's integration reads the table where its tol/10 covers the
    # table's bound times the largest |m/w - k| on its bracket.  Such a
    # row is within tol/10 of what the same call gives when no row's
    # budget covers any table, so that the trapezoid rule reads the
    # quantile at the same nodes while the search still reads the table
    # (100 rows each of IG(4), Pareto(6) and inverse-Burr(2, 2), all at
    # the same nodes: moved by at most 2.8e-9).
    D2, k, pref = density_args(np.linspace(3.0, 300.0, 100), 10)
    cfg = RqmcConfig(tol=1e-3)
    budget = density._table_budget
    for spec, nu in ((inverse_gamma(), [4.0]), (pareto(), [6.0]), (inverse_burr(), [2.0, 2.0])):
        monkeypatch.setattr(density, "_table_budget", budget)
        tabled = log_integral_batch(D2, k, pref, _WReader(spec, nu), cfg)
        monkeypatch.setattr(density, "_table_budget", lambda *args: np.zeros(len(D2)))
        exact = log_integral_batch(D2, k, pref, _WReader(spec, nu), cfg)
        moved = [abs(a.estimate - b.estimate) for a, b in zip(tabled, exact)
                 if a.n_per_randomization == b.n_per_randomization]
        assert len(moved) == len(D2)
        assert 0.0 < max(moved) <= cfg.tol / 10


@pytest.mark.parametrize("spec, nu", [(inverse_gamma(), [4.0]), (pareto(), [2.5])],
                         ids=["inverse_gamma", "pareto"])
@pytest.mark.parametrize("D2", [1e300, math.inf])
def test_log_means_spread_past_the_doubles_range_meet_no_tolerance(spec, nu, D2):
    # At D2 = 1e300 g peaks beyond the upper end of the z range, where the
    # log-integrand lies near -5e145; at D2 = inf g is -inf everywhere.
    # Either row gets no points, estimate -inf and an infinite error,
    # without a warning, and stays unconverged; the other rows of the call
    # are those of a call without it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = log_integral_batch([1.0, D2, 30.0], 5.0, 0.0, _WReader(spec, nu))
    assert astuple(res[1]) == (-math.inf, math.inf, 0, 0, False)
    assert [res[0], res[2]] == list(log_integral_batch([1.0, 30.0], 5.0, 0.0,
                                                       _WReader(spec, nu)))


def test_a_point_whose_distance_overflows_has_no_density_estimate():
    # The D2 of [1e200, 0, 0] overflows to inf.
    model = NvmModel.build(None, np.eye(3), inverse_gamma(), [4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = log_density_batch([[1e200, 0.0, 0.0], [1.0, 0.0, 0.0]], model)
    assert astuple(res[0]) == (-math.inf, math.inf, 0, 0, False)
    assert res[1] == log_density_batch([[1.0, 0.0, 0.0]], model)[0]


def test_smooth_rows_meet_tight_tolerances():
    # Where the trapezoid rule integrates, the bracket ends up to 16
    # decades below g's maximum, so every row meets tol 1e-12 against the
    # closed form; at 10 decades the mass dropped beyond the bracket left
    # such rows 1.3e-11 to 4.9e-11 off while they reported converged.
    # Inverse-Burr(2, 2), which has no closed form, is held to the
    # trapezoid reference (its D2 = 0 integral diverges from d = 8 on).
    D2s = np.array([0.0, 0.5, 2.0, 30.0, 1e4, 1e6, 1e8, 1e10])
    for spec, nu in ((inverse_gamma(), [4.0]), (pareto(), [6.0]), (inverse_gamma(), [1.0]),
                     (inverse_burr(), [2.0, 2.0])):
        for d in (2, 10, 50):
            if spec.kind == "inverse_burr":
                D2 = D2s if d < 8 else D2s[1:]
                exact, _ = reference_log_integral(D2, *density_args(0.0, d)[1:], spec, nu)
            else:
                D2, X = D2s, np.zeros((len(D2s), d))
                X[:, 0] = np.sqrt(D2s)
                exact = closed_log_density(NvmModel.build(None, np.eye(d), spec, nu), X)
            for tol in (1e-3, 1e-8, 1e-12):
                res = log_integral_batch(*density_args(D2, d), _WReader(spec, nu),
                                         RqmcConfig(tol=tol))
                assert all(r.converged and abs(r.estimate - e) <= tol
                           for r, e in zip(res, exact))


def test_rule_rows_do_not_depend_on_the_seed(monkeypatch):
    # The trapezoid rule draws no points: log_density_batch gives the same
    # rows under seeds 1, 2 and None, each equal to the row alone, and no
    # W, smooth or with a jump, builds a Sobol' engine or runs the RQMC
    # loop.
    calls = []

    def spy(name, fn):
        def traced(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return traced

    monkeypatch.setattr(rqmc, "_new_engine", spy("engine", rqmc._new_engine))
    monkeypatch.setattr(rqmc, "rqmc_estimate", spy("run", rqmc.rqmc_estimate))
    d = 10
    X = np.zeros((6, d))
    X[:, 0] = np.sqrt([0.0, 0.5, 3.0, 640.0, 1.6e4, 1e10])
    for spec, nu in ((inverse_gamma(), [4.0]), (pareto(), [6.0]), (JUMP, [])):
        model = NvmModel.build(None, np.eye(d), spec, nu)
        by_seed = [list(log_density_batch(X, model, None, s)) for s in (1, 2, None)]
        assert by_seed[0] == by_seed[1] == by_seed[2]
        assert all(log_density_batch(X[i:i + 1], model)[0] == r
                   for i, r in enumerate(by_seed[0]))
    assert calls == []


# log_integral_batch's results for JUMP at d = 3, tol 1e-3, which the rule
# gives on the pieces either side of the jump.
JUMP_D2 = [0.1, 1.0, 5.0, 20.0, 80.0]
JUMP_RESULTS = [
    (-3.746263538883621, 4.413693622362632e-08, 382, 3, True),
    (-4.107057051648156, 4.048114127799155e-08, 382, 3, True),
    (-5.395420792372767, 5.602587795131402e-05, 254, 2, True),
    (-7.691037598608804, 8.35816704718359e-05, 254, 2, True),
    (-15.192932088631443, 8.373850510956515e-05, 127, 1, True),
]


def test_a_jump_of_w_is_split_at_the_jump():
    # The table of the whole z range cannot be read near the jump, so W is
    # split there into two pieces, on which the rule integrates these rows
    # in s, bit for bit as recorded, each within tol of
    # log(0.3 N_3(x; 0, I) + 0.7 N_3(x; 0, 4 I)).
    d = 3
    assert _QuantileTable(JUMP, np.array([])).bound == pytest.approx(1.38, abs=5e-3)
    assert len(_WReader(JUMP, []).pieces) == 2
    res = log_integral_batch(JUMP_D2, d / 2.0, gaussian_prefactor(d), _WReader(JUMP, []),
                             RqmcConfig(tol=1e-3))
    D2 = np.array(JUMP_D2)
    exact = np.log(0.3 * np.exp(-D2 / 2.0) / (2.0 * np.pi) ** 1.5
                   + 0.7 * np.exp(-D2 / 8.0) / (8.0 * np.pi) ** 1.5)
    assert [astuple(r) for r in res] == JUMP_RESULTS
    assert all(abs(r.estimate - e) <= 1e-3 for r, e in zip(res, exact))


@pytest.mark.parametrize("tol", [1e-3, 1e-8])
def test_a_row_whose_log_g_is_spaced_wider_than_its_fall_is_finite(tol):
    # From D2 = 3e18 on, log g near -D2/8 on JUMP's upper piece has doubles
    # 64 or more apart, wider than the bracket's fall (18.4 at tol 1e-3,
    # 29.9 at 1e-8), so no node can resolve the bracket's level.  Such a
    # row gets no nodes and an infinite error, and its estimate, g's
    # maximum plus the log of its bracket's width, lies within 5e-14 of
    # the exact value relative, with no warning.
    D2 = np.array([3e18, 1e20, 1e50, 1e300])
    res = log_integral_batch(D2, 1.5, 0.0, _WReader(JUMP, []), RqmcConfig(tol=tol))
    exact = np.logaddexp(math.log(0.3) - D2 / 2.0, math.log(0.7 / 8.0) - D2 / 8.0)
    assert np.all(np.abs(res.estimate - exact) <= 5e-14 * np.abs(exact))
    assert not np.any(res.converged) and np.all(res.error_estimate == math.inf)
    assert np.all(res.n_per_randomization == 0)
