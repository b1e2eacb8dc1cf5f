import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar
from scipy.special import expit, gammaincc, gammaln

from nvmix import density
from nvmix.density import (
    _BLOCK_VALUES,
    _EPS_BISEC,
    _K_TH,
    _bracket_z,
    _crude_log_means,
    _log_g,
    _log_h_of_w,
    _peak_z,
    _z_range,
    closed_log_density,
    log_density_batch,
    log_integral_batch,
    log_lower_incomplete_gamma,
    peak,
    region_bounds,
)
from nvmix.mixtures import blackbox, constant, inverse_burr, inverse_gamma, pareto, quantile
from nvmix.model import NvmModel
from nvmix.rqmc import RqmcConfig, log_mean_exp, rqmc_log_estimate
from nvmix.sampling import rnvmix

LOG_2PI = math.log(2.0 * math.pi)


def gaussian_prefactor(d, log_det=0.0):
    """Prefactor of the density's integrand: the Gaussian normalizing
    constant's log."""
    return -0.5 * d * LOG_2PI - 0.5 * log_det


def density_args(D2, d, log_det=0.0):
    """``(D2, shift_k, prefactor)`` of the log-density at distance D2 in
    d dimensions."""
    return D2, d / 2.0, gaussian_prefactor(d, log_det)


def log_h(u, D2, shift_k, prefactor, spec, nu):
    """log of the mixing integrand at u."""
    return _log_h_of_w(quantile(spec, u, nu), prefactor, shift_k, 0.5 * D2)


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


class TestPeak:
    def test_inverse_gamma_location_oracle(self, monkeypatch):
        # u* = F_W(D2/d); independent CDF via the regularized upper
        # incomplete gamma: F_IG(w; a, a) = Q(a, a/w).
        monkeypatch.setattr(density, "_EPS_BISEC", 1e-9)
        nu, d, D2 = 3.0, 5, 12.0
        u_star, _ = peak(*density_args(D2, d), inverse_gamma(), [nu])
        a = nu / 2.0
        oracle = float(gammaincc(a, a / (D2 / d)))
        assert u_star == pytest.approx(oracle, abs=1e-8)

    def test_height_arithmetic(self):
        _, lh_max = peak(*density_args(2.0, 2), inverse_gamma(), [4.0])
        assert lh_max == pytest.approx(math.log(math.exp(-1.0) / (2.0 * math.pi)), abs=1e-12)
        assert math.exp(lh_max) == pytest.approx(0.05855, abs=1e-5)

    def test_height_matches_grid_maximum(self):
        p = density_args(30.0, 4)
        for spec, nu in ((inverse_gamma(), [2.5]), (pareto(), [3.0])):
            _, lh_max = peak(*p, spec, nu)
            coarse = np.linspace(1e-6, 1 - 1e-6, 10001)
            vals = log_h(coarse, *p, spec, nu)
            u0 = coarse[int(np.argmax(vals))]
            fine = np.linspace(max(u0 - 1e-3, 1e-9), min(u0 + 1e-3, 1 - 1e-9), 20001)
            grid_max = float(np.max(log_h(fine, *p, spec, nu)))
            # A true maximum: never below the brute-force value, and tight.
            assert lh_max >= grid_max - 1e-12
            assert lh_max == pytest.approx(grid_max, rel=1e-6)

    def test_distribution_independence(self):
        # Same (D2, d, log_det) gives the same interior peak height for
        # any mixing distribution reaching it.
        p = density_args(40.0, 6, log_det=1.3)
        _, h_ig = peak(*p, inverse_gamma(), [1.7])
        _, h_par = peak(*p, pareto(), [2.2])
        assert h_ig == h_par

    def test_pareto_boundary_branch(self):
        # D2/d < 1 puts the target below the Pareto support; the peak
        # collapses to the left boundary where w -> 1.
        d, D2 = 4, 2.0
        u_star, lh_max = peak(*density_args(D2, d), pareto(), [2.0])
        assert u_star < 1e-8
        boundary = -0.5 * d * LOG_2PI - 0.5 * D2  # w = 1
        assert lh_max == pytest.approx(boundary, abs=1e-6)

    def test_far_tail_peak_is_interior(self):
        # The peak sits at 1 - u* ~ 1e-18 (IG) and 1e-78 (Pareto), where
        # 1 - u underflows but the logit does not: the height is the
        # interior closed form, not a boundary value.
        p = D2, k, pref = density_args(1e14, 10)
        closed = pref - k * (math.log(0.5 * D2) - math.log(k)) - k
        for spec, nu in ((inverse_gamma(), [4.0]), (pareto(), [6.0])):
            u_star, lh_max = peak(*p, spec, nu)
            assert u_star == 1.0
            assert lh_max == closed

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError, match="crude"):
            peak(*density_args(0.0, 3), inverse_gamma(), [4.0])

    def test_cache_reuse(self):
        # Seeding the search from quantile knots, as log_integral_batch
        # does with its crude pass's, lands on the unseeded search's peak.
        D2, k, pref = density_args(25.0, 5)
        spec, nu = inverse_gamma(), [3.0]
        u = np.linspace(0.01, 0.99, 99)
        knots = (u, quantile(spec, u, nu))
        z1 = _peak_z(spec, nu, np.array([0.5 * D2 / k]), knots)
        u2, _ = peak(D2, k, pref, spec, nu)
        assert expit(z1[0]) == pytest.approx(u2, abs=2e-6)

    def test_edge_peak_costs_no_extra_quantile_call(self, monkeypatch):
        # A D2 = 0 row's peak sits at the left end of the z range; finding
        # it costs no quantile call beyond those of the bisection steps
        # the other rows need anyway.
        calls = []

        def counted(*args):
            calls.append(1)
            return quantile(*args)

        monkeypatch.setattr(density, "quantile", counted)
        spec, nu = inverse_gamma(), [4.0]
        counts = []
        for D2 in ([0.0, 50.0, 60.0], [40.0, 50.0, 60.0]):
            calls.clear()
            _peak_z(spec, nu, 0.5 * np.array(D2) / 5.0)
            counts.append(len(calls))
        assert counts[0] == counts[1]


@pytest.mark.parametrize("D2", [0.0, 0.5, 640.0, 1e8])
@pytest.mark.parametrize("family", ["inverse_gamma", "pareto", "inverse_burr"])
def test_bracket_ends_cross_the_level_of_a_reference_maximum(family, D2):
    # The bracket's ends must sit within _EPS_BISEC of where log g crosses
    # the level _K_TH decades below its maximum on [a, b] = [min(z_h, 0),
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

    z_h = _peak_z(spec, nu, m / k)
    a, b = min(z_h[0], 0.0), max(z_h[0], 0.0)
    opt = minimize_scalar(lambda z: -log_g(z)[0], method="bounded", bounds=(a, b),
                          options={"xatol": _EPS_BISEC})
    level = max(-opt.fun, *log_g([a, b])) - _K_TH * math.log(10.0)
    (z_l,), (z_r,), (closed,) = _bracket_z(spec, nu, pref, k, m, None)
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
    def test_symmetric_toy(self, monkeypatch):
        # h is symmetric about u = 1/2 and the Jacobian u (1 - u) too, so
        # g is symmetric about z = 0.
        monkeypatch.setattr(density, "_K_TH", 3.0)
        spec = symmetric_toy_quantile()
        p = 2.0, 1.0, gaussian_prefactor(2)  # m = 1, k = 1, w* = 1
        eps = _EPS_BISEC
        u_star, _ = peak(*p, spec, [])
        assert u_star == pytest.approx(0.5, abs=2 * eps)
        z_l, z_r, closed = region_bounds(*p, spec, [])
        assert closed and z_l < 0.0 < z_r
        assert -z_l == pytest.approx(z_r, abs=2 * eps)

    def test_bounds_sit_at_threshold(self, monkeypatch):
        monkeypatch.setattr(density, "_K_TH", 6.0)
        p = density_args(35.0, 5)
        spec, nu = inverse_gamma(), [2.0]
        z_l, z_r, closed = region_bounds(*p, spec, nu)
        assert closed
        g_max = float(np.max(log_g1(np.linspace(z_l, z_r, 200001), *p, spec, nu)))
        target = g_max - 6.0 * math.log(10.0)
        assert log_g1(z_l, *p, spec, nu) == pytest.approx(target, abs=1e-2)
        assert log_g1(z_r, *p, spec, nu) == pytest.approx(target, abs=1e-2)

    def test_huge_threshold_collapses_to_unit_interval(self, monkeypatch):
        # g never falls 1e6 decades below its maximum: the bracket is the
        # whole z range, and open.
        monkeypatch.setattr(density, "_K_TH", 1e6)
        spec = symmetric_toy_quantile()
        assert region_bounds(2.0, 1.0, gaussian_prefactor(2), spec, []) == (*_z_range(spec), False)


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
        assert log_lower_incomplete_gamma(z, x) == pytest.approx(want, rel=1e-6)


class TestLogDensityBatch:
    def test_constant_shortcut_exact(self):
        model = NvmModel.build(None, np.eye(3), constant(), [1.0])
        rng = np.random.default_rng(1)
        X = rng.standard_normal((5, 3))
        res = log_density_batch(X, model, seed=0)
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
        res = log_density_batch(X, model, RqmcConfig(tol=1e-3), seed=7)
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
        res = log_density_batch(X, model, RqmcConfig(tol=1e-3), seed=8)
        errs = np.array([r.estimate for r in res]) - truth
        assert np.all([r.converged for r in res])
        assert np.max(np.abs(errs)) <= 1e-3

    def test_crude_path_is_biased_where_adaptive_is_not(self):
        # At D2 = 16000 (log f ~ -64) the integrand peaks at 1 - u ~ 8e-7
        # in a spike about 2e-6 wide, which the 512 points per
        # randomization of a 4-batch crude pass seldom come near: over 300
        # randomizations 93% fall more than 1 below the truth and every
        # 8-seed mean is below -15.  (At D2 = 640 the crude pass is only
        # noisy, with mean error -0.01 and sd 0.12.)  scripts/crude_bias.py
        # reproduces these numbers.
        d = 10
        model = NvmModel.build(None, np.eye(d), inverse_gamma(), [4.0])
        x = np.full(d, 40.0)  # D2 = 16000: far tail
        truth = float(closed_log_density(model, x))

        p = density_args(float(x @ x), d)

        def crude_log_g(v):
            return log_h(np.clip(v[:, 0], 1e-16, 1 - 1e-16), *p, inverse_gamma(), [4.0])

        crude = [rqmc_log_estimate(crude_log_g, 1, RqmcConfig(i_max=4), seed=s) for s in range(8)]
        adaptive = log_density_batch(x[None, :], model, RqmcConfig(tol=1e-3), seed=3)[0]
        assert np.mean([c.estimate for c in crude]) - truth < -1.0
        assert not any(c.converged for c in crude)
        assert abs(adaptive.estimate - truth) <= 1e-3
        assert all(adaptive.estimate != c.estimate for c in crude)

    def test_center_point_crude_branch(self):
        model = NvmModel.build(None, np.eye(10), inverse_gamma(), [4.0])
        res = log_density_batch(np.zeros((1, 10)), model, RqmcConfig(i_max=256), seed=5)[0]
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
        res = log_density_batch(x[None, :], model, RqmcConfig(tol=1e-3), seed=11)[0]
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
    res = log_density_batch(x[None, :], model, RqmcConfig(tol=1e-3), seed=1)[0]
    assert res.converged
    assert abs(res.estimate - closed_log_density(model, x)) <= 1e-3


# (family, D2, estimate, iterations_used, n_per_randomization, converged)
# of log_density_batch at x = sqrt(D2) e_1 in d = 10, tol 1e-3, seed 17,
# recorded before the crude pass moved onto the shared RQMC accumulator;
# the adaptive rows that moved by more than 1e-14 when all adaptive rows
# came to share one seed's shifts were re-recorded then, each as the
# row's one-row result, which that change kept.  The adaptive rows were
# re-recorded again when the adaptive RQMC came to check its tolerance
# every 32 points, and four of them (IG at D2 = 0.5 and 3, Pareto at 0.5
# and 25, by at most 5.2e-12) when bisection on g's slope replaced the
# bounded Brent search for g's maximum: each new value lies within its
# error estimate of the old one.  512 points (four iterations) is a row
# the crude pass settled, 544 one that took the adaptive path and met
# the tolerance after its first 32 points.  Estimates pinned to 1e-14,
# everything else exactly.
DENSITY_GOLDEN_D2 = [0.5, 3.0, 10.0, 25.0, 80.0, 640.0, 1.6e4]
DENSITY_GOLDEN = {
    "inverse_gamma": [
        (-6.9003521514980255, 5, 544, True),
        (-9.993180547517637, 5, 544, True),
        (-14.84521080150147, 4, 512, True),
        (-19.942880305070958, 4, 512, True),
        (-27.38752886871452, 4, 512, True),
        (-41.64570057774504, 5, 544, True),
        (-64.13596728485433, 5, 544, True),
    ],
    "pareto": [
        (-10.024497222126035, 5, 544, True),
        (-11.163566972730544, 4, 512, True),
        (-14.287787057903234, 4, 512, True),
        (-20.42873319152216, 5, 544, True),
        (-32.870887301231456, 5, 544, True),
        (-55.74474424348961, 5, 544, True),
        (-91.15237831703982, 5, 544, True),
    ],
    "inverse_burr": [
        (-6.980970787223541, 5, 544, True),
        (-10.586991500348633, 5, 544, True),
        (-14.879609156675409, 4, 512, True),
        (-19.64716487936917, 4, 512, True),
        (-27.145355151234654, 4, 512, True),
        (-41.603725819332915, 5, 544, True),
        (-64.13422012856394, 5, 544, True),
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
    res = log_density_batch(X, model, RqmcConfig(tol=1e-3), seed=17)
    for r, (estimate, iterations, n, converged) in zip(res, DENSITY_GOLDEN[family]):
        assert r.estimate == pytest.approx(estimate, rel=0.0, abs=1e-14)
        assert (r.iterations_used, r.n_per_randomization, r.converged) == (
            iterations, n, converged)


def test_crude_pass_honours_relative_tolerance():
    # An estimate near 0.02 needs an error below 2e-5 in relative mode; a
    # 4-batch crude pass reaches about 4e-4, which only meets the absolute
    # bound, so this row must go on to the adaptive path.  There the
    # tolerance must be tested against the reported estimate, the log-mean
    # over the bracket plus the log of its width: against the log-mean
    # alone, near -3.6 here, tol 1e-4 passed an error estimate of 6.1e-6.
    for tol in (1e-3, 1e-4, 1e-5):
        cfg = RqmcConfig(tol=tol, tol_type="relative")
        res = log_integral_batch([1.0], 1.0, math.log(2.0), inverse_gamma(), [4.0], cfg,
                                 seed=0)[0]
        assert res.converged
        assert res.error_estimate <= cfg.tol * abs(res.estimate)
        assert res.iterations_used > 4


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
        log_integral_batch(D2, shift_k, prefactor, inverse_gamma(), [4.0], seed=0)


def test_log_integral_batch_broadcasts_scalar_parameters():
    # Scalar shift_k and prefactor stand for full rows; an empty D2 gives
    # no results.
    D2, k, pref = density_args([0.5, 640.0, 1.6e4], 10)
    spec, nu = inverse_gamma(), [4.0]
    full = log_integral_batch(D2, np.full(3, k), np.full(3, pref), spec, nu, seed=4)
    assert log_integral_batch(D2, k, pref, spec, nu, seed=4) == full
    assert log_integral_batch(np.zeros(0), k, pref, spec, nu, seed=4) == []


# Rows per block of the crude pass under the default configuration.
_BLOCK_ROWS = _BLOCK_VALUES // (RqmcConfig().B * RqmcConfig().n0)


@pytest.mark.parametrize(
    "n,e_step,center,zero_w",
    [(1, False, False, False), (_BLOCK_ROWS - 1, False, False, False),
     (_BLOCK_ROWS, False, False, False), (_BLOCK_ROWS + 1, False, False, False),
     (3 * _BLOCK_ROWS + 5, False, False, False), (_BLOCK_ROWS + 3, True, False, False),
     (_BLOCK_ROWS + 3, True, True, False), (_BLOCK_ROWS + 3, True, True, True)],
    ids=["one-row", "block-minus-one", "one-block", "block-plus-one", "several-blocks",
         "e-step", "e-step-center", "zero-w"])
def test_crude_log_means_match_whole_block(n, e_step, center, zero_w):
    # The blocked crude pass gives the log-means of the whole (rows, B n0)
    # block of log-integrands bit for bit: one or two (prefactor, shift_k)
    # pairs, rows at D2 = 0 and quantile values w = 0 included.
    cfg, d = RqmcConfig(), 10
    rng = np.random.default_rng(n)
    D2 = 10.0 ** rng.uniform(-3.0, 6.0, n)
    if center:
        D2[::5] = 0.0
    k = np.full(n, d / 2.0)
    if e_step:
        D2, k = np.concatenate([D2, D2]), np.concatenate([k, k + 1.0])
    pref, m = np.full(len(D2), gaussian_prefactor(d)), 0.5 * D2
    w = quantile(inverse_gamma(), rng.uniform(size=cfg.B * cfg.n0), [4.0])
    if zero_w:
        w[[0, 700, -1]] = 0.0
    # The whole-block form divides by 1e-300 where w = 0, which overflows
    # for large D2 before np.where discards it.
    with np.errstate(over="ignore"):
        whole = _log_h_of_w(w[None], pref[:, None], k[:, None], m[:, None])
    expected = log_mean_exp(whole.reshape(len(m), cfg.B, cfg.n0), axis=2)
    assert np.array_equal(_crude_log_means(w, pref, k, m, cfg.B), expected)


def test_crude_pass_memory_stays_below_one_block():
    # 2000 rows that the crude pass settles: it reduces them block by
    # block, so the call's traced peak stays far below one (2000, B n0)
    # float64 block of log-integrands (30.7 MB).
    cfg = RqmcConfig()
    D2, k, pref = density_args(np.linspace(10.0, 100.0, 2000), 10)
    spec, nu = inverse_gamma(), [4.0]
    log_integral_batch(D2[:10], k, pref, spec, nu, cfg, seed=3)  # lazy imports and tables
    tracemalloc.start()
    try:
        res = log_integral_batch(D2, k, pref, spec, nu, cfg, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.iterations_used == 4 and r.converged for r in res)
    assert peak < len(D2) * cfg.B * cfg.n0 * 8 / 4


@pytest.mark.parametrize(
    "u_atom,flat",
    [(0.1, False), (1e-12, False), (1e-9, True)],
    ids=["seen-by-crude-pass", "found-by-peak-search", "below-crude-resolution"],
)
def test_atom_at_zero_diverges_at_center(u_atom, flat):
    # P(W = 0) > 0 makes the density at x = loc infinite.  An atom of mass
    # 0.1 shows up among the crude pass's points; atoms of mass 1e-12 and
    # 1e-9 do not.  Above the 1e-12 atom h = 1/w = 1/(10 u) is not
    # integrable, so the crude pass cannot settle that row; above the 1e-9
    # atom h is constant, which the crude pass would settle with zero
    # spread.  Both are met by the quantile at the smallest u of the logit
    # path.
    def q(u, nu):
        return np.where(u < u_atom, 0.0, 1.0 if flat else np.minimum(u / 0.1, 1.0))

    model = NvmModel.build(None, np.eye(2), blackbox(q, 0), [])
    with pytest.raises(ValueError, match="diverges at w = 0"):
        log_density_batch(np.zeros((1, 2)), model, seed=0)


@pytest.mark.parametrize("swap", [1e14, 0.0], ids=["far-tail", "center"])
@pytest.mark.parametrize(
    "cfg", [RqmcConfig(tol=1e-3), RqmcConfig(tol=1e-13, i_max=7),
            RqmcConfig(tol=1e-13, i_max=2)], ids=["default", "capped", "crude-only"])
def test_batch_rows_are_independent(cfg, swap):
    # Rows share the crude pass's points, the adaptive path's points and
    # its quantile calls but nothing else: replacing one row leaves every
    # other row's result exactly as it was.  Under the capped
    # configuration the crude pass's four batches leave the adaptive RQMC
    # three, checked every 32 points, and the rows stop at different
    # steps (at 768 points, or the cap of 896 unconverged), so a row that
    # stops early or runs on must not shift the others' points.  All
    # rows' errors then sit near the rounding floor of the folded
    # 32-point log-means, which is lowest at dyadic point counts: at 768
    # points 4e-14 to 8.3e-14 (7.0e-14 at D2 = 0, 8.3e-14 at 1e14), while
    # the replaced row, D2 = 1e16, reads 1.02e-13 there and 1.25e-13 at
    # the cap.  The tolerance lies between.  The two far rows had the
    # opposite roles while g's maximum came from a bounded Brent search
    # (1e14 read 1.1e-13 at 768 points, 1e16 8.9e-14): the bisection on
    # g's slope moves the bracket by a few 1e-7 in z, and with it these
    # last bits.  A nearer row such as D2 = 1.6e4 reads 8.0e-14 at 768
    # points, so only a far-tail row sits above the tolerance.  Under
    # crude-only the crude pass uses up the whole budget.
    D2s = [0.5, 3.0, 10.0, 640.0, 1e16, 2e5, 1e6]
    spec, nu = inverse_gamma(), [4.0]
    ref = log_integral_batch(*density_args(D2s, 10), spec, nu, cfg, seed=2)
    got = log_integral_batch(*density_args(D2s[:4] + [swap] + D2s[5:], 10), spec, nu, cfg,
                             seed=2)
    assert [r for i, r in enumerate(got) if i != 4] == [r for i, r in enumerate(ref) if i != 4]
    assert got[4] != ref[4]
    # iterations_used counts n0-point batches, the last one partly used.
    assert all(r.iterations_used == -(-r.n_per_randomization // cfg.n0) <= cfg.i_max
               for r in ref + got)
    if cfg.i_max == 7:
        assert {r.iterations_used for r in ref} == {6, 7}
        assert not ref[4].converged and got[4].converged
    if cfg.i_max == 2:
        assert {r.iterations_used for r in ref + got} == {2}
        assert not any(r.converged for r in ref + got)


@pytest.mark.parametrize(
    "cfg", [RqmcConfig(), RqmcConfig(tol=1e-13, i_max=7), RqmcConfig(tol=1e-13, i_max=2)],
    ids=["default", "tight", "crude-only"])
@pytest.mark.parametrize("family", ["inverse_gamma", "pareto", "inverse_burr"])
def test_rows_do_not_depend_on_their_batch(family, cfg):
    # All rows share one seed's shifts, so a row's result is what the row
    # gives alone, wherever it sits in the batch: rows in the E-step shape
    # (shift_k = d/2 and d/2 + 1), permuted, and each called by itself.
    spec, nu = {"inverse_gamma": (inverse_gamma(), [4.0]), "pareto": (pareto(), [6.0]),
                "inverse_burr": (inverse_burr(), [2.0, 2.0])}[family]
    D2s = np.array([0.0, 0.5, 3.0, 640.0, 1.6e4, 2e5, 1e10])
    D2, k = np.concatenate([D2s, D2s]), np.repeat([5.0, 6.0], len(D2s))
    pref = gaussian_prefactor(10)
    ref = log_integral_batch(D2, k, pref, spec, nu, cfg, seed=5)
    perm = np.random.default_rng(0).permutation(len(D2))
    got = log_integral_batch(D2[perm], k[perm], pref, spec, nu, cfg, seed=5)
    assert got == [ref[i] for i in perm]
    alone = [log_integral_batch(D2[i:i + 1], k[i], pref, spec, nu, cfg, seed=5)[0]
             for i in range(len(D2))]
    assert alone == ref


def test_quantile_calls_do_not_grow_with_pending_points(monkeypatch):
    # Far-tail points all take the adaptive path; each search step and
    # each RQMC batch makes one quantile call for all of them.
    import nvmix.density as density

    calls = []

    def counted(*args, **kwargs):
        calls.append(np.size(args[1]))
        return quantile(*args, **kwargs)

    monkeypatch.setattr(density, "quantile", counted)
    counts = {}
    for n in (10, 200):
        calls.clear()
        res = log_integral_batch(*density_args(np.logspace(5, 9, n), 10), inverse_gamma(), [4.0],
                                 RqmcConfig(), seed=1)
        assert all(r.iterations_used > 4 and r.converged for r in res)
        counts[n] = len(calls)
    assert counts[200] == counts[10]
    assert counts[10] < 200


def test_adaptive_rows_stop_at_the_first_step_that_meets_tol():
    # Every row here takes the adaptive path, and the RQMC tests the
    # tolerance every 32 points per randomization: at tol 1e-3 the first
    # 32 points settle each row, on top of the crude pass's four batches.
    cfg = RqmcConfig(tol=1e-3)
    res = log_integral_batch(*density_args(np.linspace(0.5, 2.0, 20), 10), inverse_gamma(),
                             [4.0], cfg, seed=1)
    assert all(r.converged and r.n_per_randomization == 4 * cfg.n0 + 32
               and r.iterations_used == 5 for r in res)


def test_adaptive_rows_meet_their_tolerance():
    # Calibration of the early stop: of the converged rows that take the
    # adaptive path, at most 1% may miss tol against the closed form (the
    # 3.5-sd CI's own miss rate), and none by more than 3 tol.
    cfg = RqmcConfig(tol=1e-3)
    D2 = np.concatenate([[0.0], np.logspace(-8, 10, 37)])
    errors = []
    for spec, nu in [(inverse_gamma(), 4.0), (pareto(), 6.0)]:
        for d in (2, 10):
            model = NvmModel.build(None, np.eye(d), spec, [nu])
            X = np.zeros((len(D2), d))
            X[:, 0] = np.sqrt(D2)
            exact = closed_log_density(model, X)
            for seed in (1, 2):
                res = log_density_batch(X, model, cfg, seed=seed)
                errors += [abs(r.estimate - e) for r, e in zip(res, exact)
                           if r.converged and r.n_per_randomization > 4 * cfg.n0]
    errors = np.array(errors)
    assert len(errors) >= 200
    assert np.mean(errors > cfg.tol) <= 0.01
    assert np.max(errors) <= 3 * cfg.tol


def test_remark_shift_generalization():
    # shift_k = d/2 + 1 integrates w^(-d/2-1) exp(-D2/2w): quadrature oracle.
    d, nu_ig, D2 = 6, 3.0, 25.0
    spec = inverse_gamma()

    def integrand(u):
        w = quantile(spec, u, [nu_ig])
        return w ** (-(d / 2.0 + 1.0)) * math.exp(-D2 / (2 * w))

    oracle, _ = quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-11, limit=400)
    res = log_integral_batch([D2], d / 2.0 + 1.0, 0.0, spec, [nu_ig], RqmcConfig(tol=1e-3),
                             seed=2)[0]
    assert res.estimate == pytest.approx(math.log(oracle), abs=2e-3)
