import math
from dataclasses import replace

import numpy as np
import pytest

from nvmix.rqmc import (
    IntegrandNaNError,
    RqmcConfig,
    _draw_raw,
    _errors,
    _new_engine,
    _SobolStream,
    _tolerance_met,
    rqmc_estimate,
)


def reference_sobol_1d(n):
    """Independent 1-D Sobol' oracle: van der Corput base 2, Gray-code order."""
    bits = 32
    x = 0
    out = [0.0]
    for i in range(1, n):
        c = 1
        val = i - 1
        while val & 1:
            val >>= 1
            c += 1
        x ^= 1 << (bits - c)
        out.append(x / 2.0 ** bits)
    return np.array(out[:n])


def raw_points(dimension, n):
    """First n unshifted Sobol' points on the 2^-32 grid."""
    return _draw_raw(_new_engine(dimension), n) * 2.0 ** -32


class TestSobolStream:
    def test_first_points_match_reference(self):
        pts = raw_points(1, 4)[:, 0]
        assert np.array_equal(pts, reference_sobol_1d(4))
        assert np.array_equal(pts, [0.0, 0.5, 0.75, 0.25])

    def test_reference_oracle_longer_run(self):
        pts = raw_points(1, 64)[:, 0]
        assert np.array_equal(pts, reference_sobol_1d(64))

    def test_extensible(self):
        s1 = _SobolStream(5, seed=7)
        a = np.vstack([s1.take(4)[0], s1.take(4)[0]])
        b = _SobolStream(5, seed=7).take(8)[0]
        assert np.array_equal(a, b)

    @pytest.mark.filterwarnings("ignore:The balance properties")
    @pytest.mark.parametrize("d", [1, 11, 50])
    def test_raw_draw_is_exact_without_rounding(self, d):
        # The engine's points are multiples of 2^-32, so scaling and
        # casting them equals the rounded form, also after a fast-forward.
        got, ref = _new_engine(d), _new_engine(d)
        for skip, n in ((0, 37), (1000, 64), (3, 5)):
            if skip:
                got.fast_forward(skip)
                ref.fast_forward(skip)
            want = np.round(ref.random(n) * 2.0 ** 32).astype(np.uint64)
            assert np.array_equal(_draw_raw(got, n), want)

    def test_same_seed_same_points(self):
        a = _SobolStream(4, seed=123).take(32)[0]
        b = _SobolStream(4, seed=123).take(32)[0]
        assert np.array_equal(a, b)

    def test_no_seed_draws_fresh_shifts(self):
        # seed=None randomizes as numpy.random.default_rng(None) does: two
        # streams differ, and neither is the unshifted sequence.
        a, b = _SobolStream(3, n_random=2).take(8), _SobolStream(3, n_random=2).take(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a[0], raw_points(3, 8))

    def test_range_and_stratification(self):
        # One point per dyadic interval [k/1024, (k+1)/1024) in every
        # 1-D projection: a digital shift preserves the net property.
        pts = _SobolStream(5, seed=99).take(1024)[0]
        assert pts.min() >= 0.0 and pts.max() < 1.0
        for j in range(5):
            cells = np.floor(pts[:, j] * 1024).astype(int)
            assert len(np.unique(cells)) == 1024

    def test_different_seeds_uniform_chisq(self):
        # Per-coordinate chi-square GOF against U(0,1), 20 cells.
        for seed in (1, 2, 3):
            pts = _SobolStream(3, seed=seed).take(4096)[0]
            for j in range(3):
                counts = np.bincount(
                    np.floor(pts[:, j] * 20).astype(int), minlength=20
                )
                chi2 = ((counts - 4096 / 20) ** 2 / (4096 / 20)).sum()
                # 0.999 quantile of chi2(19) ~ 43.8
                assert chi2 < 43.8

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            _SobolStream(30000)


class TestRqmcEstimate:
    def test_constant(self):
        res = rqmc_estimate(lambda u: np.full(len(u), 0.7), 2, RqmcConfig(), seed=1)
        assert res.estimate == pytest.approx(0.7, abs=1e-15)
        assert res.error_estimate == 0.0
        assert res.converged
        assert res.iterations_used == 1

    def test_linear(self):
        cfg = RqmcConfig(tol=1e-4, i_max=64)
        res = rqmc_estimate(lambda u: u[:, 0], 1, cfg, seed=5)
        assert res.converged
        assert res.estimate == pytest.approx(0.5, abs=1e-4)

    def test_triangle_area(self):
        # Oracle: midpoint-grid enumeration of {u1 + u2 <= 1}.
        m = 2000
        grid = (np.arange(m) + 0.5) / m
        inside = grid[None, :] + grid[:, None] <= 1.0
        oracle = inside.mean()
        assert oracle == pytest.approx(0.5, abs=1e-3)

        cfg = RqmcConfig(tol=1e-3, i_max=64)
        res = rqmc_estimate(
            lambda u: (u[:, 0] + u[:, 1] <= 1.0).astype(float), 2, cfg, seed=3
        )
        assert res.converged
        assert res.estimate == pytest.approx(oracle, abs=2e-3)

    def test_nan_fails_fast(self):
        def bad(u):
            vals = u[:, 0].copy()
            vals[5] = np.nan
            return vals

        with pytest.raises(IntegrandNaNError, match="u ="):
            rqmc_estimate(bad, 1, RqmcConfig(), seed=1)

    def test_relative_tolerance(self):
        cfg = RqmcConfig(tol=1e-3, tol_type="relative", i_max=128)
        res = rqmc_estimate(lambda u: 10.0 + u[:, 0], 1, cfg, seed=2)
        assert res.converged
        assert res.error_estimate <= 1e-3 * abs(res.estimate)


    def test_zero_estimate_never_meets_relative_tolerance(self):
        cfg = RqmcConfig(tol=1e-3, tol_type="relative", i_max=3)
        res = rqmc_estimate(lambda u: np.zeros(len(u)), 1, cfg, seed=2)
        assert res.estimate == 0.0 and res.error_estimate == 0.0
        assert not res.converged and res.iterations_used == 3


class TestRun:
    def test_one_call_per_batch(self):
        # The integrand sees each batch's B * n0 points at once, one call
        # per batch, randomization by randomization: the shifted points of
        # the same stream drawn one batch at a time.
        cfg = RqmcConfig(B=3, n0=16, i_max=4, tol=1e-300)
        seen = []

        def g(pts):
            seen.append(pts.copy())
            return pts[:, 0] * pts[:, 1]

        res = rqmc_estimate(g, 2, cfg, seed=8)
        stream = _SobolStream(2, seed=8, n_random=cfg.B)
        assert len(seen) == res.iterations_used == cfg.i_max
        for pts in seen:
            assert np.array_equal(pts, stream.take(cfg.n0).reshape(-1, 2))

    def test_nan_names_its_point(self):
        # A NaN in the second batch aborts the run and names the point
        # where the integrand returned it.
        cfg = RqmcConfig(B=3, n0=8, tol=1e-300)
        seen = []

        def g(pts):
            seen.append(pts.copy())
            vals = pts[:, 0].copy()
            if len(seen) == 2:
                vals[13] = np.nan
            return vals

        with pytest.raises(IntegrandNaNError) as info:
            rqmc_estimate(g, 2, cfg, seed=1)
        assert len(seen) == 2 and seen[1].shape == (cfg.B * cfg.n0, 2)
        assert np.array_equal(info.value.point, seen[1][13])

    @pytest.mark.parametrize("size", [0, 1, 23, 25, 48])
    def test_one_value_per_point(self, size):
        with pytest.raises(ValueError, match="one value per point"):
            rqmc_estimate(lambda pts: np.zeros(size), 1, RqmcConfig(B=3, n0=8), seed=1)


class TestToleranceMet:
    """The RQMC loop tests its estimates, and the log-density's rule its
    log-estimates, by these rules."""

    @pytest.mark.parametrize("tol_type", ["absolute", "relative"])
    @pytest.mark.parametrize("log", [False, True])
    def test_an_infinite_error_meets_no_tolerance(self, log, tol_type):
        # inf <= tol * |-inf| holds, yet an infinite error meets no
        # tolerance, relative ones included.
        cfg = RqmcConfig(tol=1e-3, tol_type=tol_type)
        estimate = np.array([-np.inf, -1.0, 0.0, 2.0, np.inf])
        assert not np.any(_tolerance_met(np.full(5, np.inf), estimate, cfg, log))

    def test_a_log_estimate_near_zero_is_held_to_the_absolute_tolerance(self):
        # A log-estimate within 1e-16 of 0 is an integral near 1, where
        # tol * |estimate| vanishes: the relative test falls back to the
        # absolute one.  A plain estimate of 0 meets no relative tolerance.
        cfg = RqmcConfig(tol=1e-3, tol_type="relative")
        estimate = np.array([0.0, 5e-17, -9.9e-17, 1e-16, -0.1, -2.0])
        err = np.full(len(estimate), 5e-4)
        assert list(_tolerance_met(err, estimate, cfg, True)) == [True, True, True, False,
                                                                  False, True]
        assert list(_tolerance_met(err, estimate, cfg, False)) == [False] * 5 + [True]


def test_rows_with_neg_inf_log_means_have_infinite_errors():
    # Log-estimates from B = 5 per-randomization means of exp(log g): means
    # all 0 give estimate -inf and an infinite error (not NaN); one mean 0
    # among ones gives the CI over the means relative to their mean, which
    # the zero makes large.  Either meets no tight tolerance, nor do
    # spread finite means; equal means of 1 do.
    cfg = RqmcConfig(B=5, tol=1e-3)
    some, finite = np.r_[0.0, np.ones(cfg.B - 1)], np.exp(np.linspace(-1.0, 1.0, cfg.B))
    estimate = np.array([-np.inf, math.log(some.mean()), math.log(finite.mean()), 0.0])
    err = np.array([np.inf, _errors(some) / some.mean(), _errors(finite) / finite.mean(), 0.0])
    assert 0.2 < err[1] < np.inf
    assert list(_tolerance_met(err, estimate, cfg, True)) == [False, False, False, True]


class TestInvariants:
    def test_extensible_iteration(self):
        # Each iteration folds the next batch of the same extensible
        # stream: after 3 and after 7 batches, the estimate and error are
        # those of the means folded from the stream's batches drawn one by
        # one.
        cfg = RqmcConfig(B=5, n0=64, tol=1e-300)
        g = lambda u: np.cos(u[:, 0] * u[:, 1])
        stream = _SobolStream(2, seed=77, n_random=cfg.B)
        expected = np.zeros(cfg.B)
        for n in range(7):
            batch = g(stream.take(cfg.n0).reshape(-1, 2)).reshape(cfg.B, cfg.n0).mean(axis=1)
            expected = (n * expected + batch) / (n + 1)
            if n + 1 in (3, 7):
                got = rqmc_estimate(g, 2, replace(cfg, i_max=n + 1), 77)
                want = (expected.mean(), _errors(expected), n + 1)
                assert (got.estimate, got.error_estimate, got.iterations_used) == want

    def test_ci_validity(self):
        # True error must exceed the CI half width in at most 2% of runs.
        cfg = RqmcConfig(B=15, n0=128, i_max=1, tol=1e-300)
        g = lambda u: np.prod(1.0 + (u - 0.5), axis=1)  # integral = 1
        exceed = 0
        n_runs = 200
        for seed in range(n_runs):
            res = rqmc_estimate(g, 3, cfg, seed=seed)
            if abs(res.estimate - 1.0) > res.error_estimate:
                exceed += 1
        assert exceed <= 0.02 * n_runs

    def test_convergence_rate(self):
        # Smooth product integrand in d=5: RQMC error should decay clearly
        # faster than the MC rate n^-0.5.
        g = lambda u: np.prod(1.0 + (u - 0.5), axis=1)
        cfg = RqmcConfig(B=15, n0=256, i_max=1, tol=1e-300)
        ns = 2 ** np.arange(8, 15)
        errors = []
        for n in ns:
            errs = []
            for seed in range(10):
                cfg_n = RqmcConfig(B=15, n0=int(n), i_max=1, tol=1e-300)
                res = rqmc_estimate(g, 5, cfg_n, seed=seed)
                errs.append(abs(res.estimate - 1.0))
            errors.append(np.mean(errs))
        slope = np.polyfit(np.log(ns), np.log(errors), 1)[0]
        assert slope <= -0.7


class TestConfigValidation:
    def test_numpy_integers_accepted(self):
        cfg = RqmcConfig(B=np.int64(4), n0=np.int32(64), i_max=np.int64(3))
        assert (cfg.B, cfg.n0, cfg.i_max) == (4, 64, 3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"B": 1},
            {"n0": 0},
            {"n0": 100},
            {"tol": 0.0},
            {"tol_type": "weird"},
            {"i_max": 0},
            {"tol": float("nan")},
            {"i_max": 1.5},
            {"B": 2.5},
            {"n0": 128.0},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            RqmcConfig(**kwargs)


def _golden_g(u):
    return np.exp(0.4 * np.sum(u, axis=1)) * np.cos(u[:, 0] - u[:, 2])


# (seed, estimate, iterations_used, n_per_randomization, converged) of
# rqmc_estimate in d = 3, recorded before the plain and log accumulators
# were merged; estimates pinned to 1e-14, everything else exactly.
GOLDEN = [
    (1, 1.71019387263893, 32, 4096, True),
    (2, 1.7102304558892807, 32, 4096, True),
    (3, 1.710239975132964, 32, 4096, True),
]


@pytest.mark.parametrize("seed, estimate, iterations, n, converged", GOLDEN,
                         ids=[f"plain-{g[0]}" for g in GOLDEN])
def test_golden_values(seed, estimate, iterations, n, converged):
    res = rqmc_estimate(_golden_g, 3, RqmcConfig(tol=1e-4), seed)
    assert res.estimate == pytest.approx(estimate, rel=0.0, abs=1e-14)
    assert (res.iterations_used, res.n_per_randomization, res.converged) == (
        iterations, n, converged)
