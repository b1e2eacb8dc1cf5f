import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvmix import rqmc
from nvmix.rqmc import (
    IntegrandNaNError,
    RqmcConfig,
    _batch_means,
    _draw_raw,
    _errors,
    _new_engine,
    _run,
    _SobolStream,
    _tolerance_met,
    rqmc_estimate,
    rqmc_log_estimate,
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


class TestLse:
    """Log-sum-exp properties of the log loop: plain means of exp(value -
    c), c the largest finite value a row has seen, make the log-estimate
    exact for constants and equivariant under a shift, at any magnitude."""

    @pytest.mark.parametrize("c", [0.0, -1000.0, 3.7, 700.0, -5000.0])
    def test_exact_for_constant_input(self, c):
        res = rqmc_log_estimate(lambda u: np.full(len(u), c), 1, RqmcConfig(), seed=1)
        assert (res.estimate, res.error_estimate) == (c, 0.0)
        assert res.converged and res.iterations_used == 1

    def test_log2(self):
        # Each randomization puts half of every batch's points below u =
        # 0.5, so its mean of exp is (1 + 3) / 2 exactly.
        res = rqmc_log_estimate(lambda u: np.where(u[:, 0] < 0.5, 0.0, math.log(3.0)), 1,
                                RqmcConfig(), seed=1)
        assert res.estimate == pytest.approx(math.log(2.0), abs=1e-15)
        assert res.error_estimate <= 1e-15 and res.iterations_used == 1

    def test_axis_matches_row_by_row(self):
        # Rows of one log run, some partly or wholly -inf, give what each
        # gives run alone.
        cfg = RqmcConfig(B=5, n0=32, tol=1e-4, i_max=8)
        scales = np.array([300.0, 1.0, 0.0, -700.0])

        def g(pts, rows):
            vals = scales[rows, None] * np.sin(9.0 * pts[None, :, 0])
            vals[rows == 1, ::3] = -np.inf
            vals[rows == 2] = -np.inf
            return vals

        rows = _run(g, 1, cfg, seed=5, n_rows=4, log=True)
        alone = [_run(lambda p, r, s=s: g(p, np.array([s])), 1, cfg, 5, 1, True)
                 for s in range(4)]
        for got, want in zip(rows, zip(*alone)):
            assert np.array_equal(got, np.concatenate(want))
        assert rows[0][2] == -np.inf and rows[1][2] == np.inf

    def test_all_neg_inf(self):
        # No point reaches any mass: the estimate is log 0 and meets no
        # tolerance, however many batches are spent.
        cfg = RqmcConfig(i_max=3)
        res = rqmc_log_estimate(lambda u: np.full(len(u), -np.inf), 1, cfg, seed=1)
        assert (res.estimate, res.error_estimate) == (-np.inf, np.inf)
        assert not res.converged and res.iterations_used == 3

    @given(st.floats(min_value=-1e6, max_value=1e6))
    @settings(max_examples=25, deadline=None)
    def test_shift_identity(self, shift):
        cfg = RqmcConfig(B=5, n0=32, tol=1e-4)
        base = rqmc_log_estimate(_golden_log_g, 3, cfg, seed=2)
        moved = rqmc_log_estimate(lambda u: _golden_log_g(u) + shift, 3, cfg, seed=2)
        assert moved.estimate == pytest.approx(base.estimate + shift, rel=1e-12, abs=1e-9)
        assert moved.n_per_randomization == base.n_per_randomization

    def test_first_batch_of_neg_inf_counts_as_zeros(self):
        # A row sees only -inf in its first batch and log(1 + u) after:
        # its estimate is the log of the means folded by hand, with the
        # first batch's means 0.  (A plain run is no oracle: its all-zero
        # first batch has zero spread and stops at once.)
        cfg = RqmcConfig(B=5, n0=32, i_max=4, tol=1e-300)
        calls = []

        def log_g(u):
            calls.append(len(u))
            return np.full(len(u), -np.inf) if len(calls) == 1 else np.log1p(u[:, 0])

        res = rqmc_log_estimate(log_g, 1, cfg, seed=6)
        stream = _SobolStream(1, seed=6, n_random=cfg.B)
        means = np.zeros(cfg.B)
        stream.take(cfg.n0)
        for n in range(1, cfg.i_max):
            batch = _batch_means(1.0 + stream.take(cfg.n0).reshape(-1), cfg.B)[0]
            means = (n * means + batch) / (n + 1)
        assert res.estimate == pytest.approx(math.log(means.mean()), rel=1e-14)
        assert res.error_estimate == pytest.approx(_errors(means[None])[0] / means.mean(),
                                                   rel=1e-12)
        assert res.iterations_used == cfg.i_max

    def test_a_scale_that_rises_rescales_the_means(self):
        # Values that rise 800 above the first batch's, beyond exp's
        # range, leave the first batch's means 0 against the later ones:
        # after 25 batches the estimate is about 800 + log(24/25) and its
        # error finite, where a scale fixed by the first batch overflows.
        cfg = RqmcConfig(B=5, n0=32, i_max=25, tol=1e-300)
        calls = []

        def log_g(u):
            calls.append(len(u))
            return np.log(2.0 * u[:, 0]) + (800.0 if len(calls) > 1 else 0.0)

        res = rqmc_log_estimate(log_g, 1, cfg, seed=6)
        assert res.estimate == pytest.approx(800.0 + math.log(24 / 25), abs=1e-3)
        assert 0.0 < res.error_estimate < 1.0 and res.iterations_used == 25


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


class TestRqmcLogEstimate:
    def test_constant_log(self):
        res = rqmc_log_estimate(
            lambda u: np.full(len(u), math.log(0.7)), 1, RqmcConfig(), seed=1
        )
        assert res.estimate == math.log(0.7)
        assert res.error_estimate == 0.0

    def test_log_of_one_meets_relative_tolerance(self):
        # In log space an estimate of 0 is an integral of 1: the relative
        # test falls back to the absolute one there.
        cfg = RqmcConfig(tol=1e-3, tol_type="relative")
        res = rqmc_log_estimate(lambda u: np.zeros(len(u)), 1, cfg, seed=2)
        assert res.estimate == 0.0 and res.converged and res.iterations_used == 1

    def test_tiny_constant_exact(self):
        cfg = RqmcConfig(i_max=3, tol=1e-6)
        res = rqmc_log_estimate(lambda u: np.full(len(u), -5000.0), 1, cfg, seed=9)
        assert res.estimate == -5000.0
        assert res.error_estimate == 0.0

    def test_normalized_linear(self):
        cfg = RqmcConfig(tol=1e-3, i_max=128)
        res = rqmc_log_estimate(lambda u: np.log(2.0 * u[:, 0]), 1, cfg, seed=4)
        assert res.converged
        assert res.estimate == pytest.approx(0.0, abs=1e-3)

    def test_neg_inf_values_allowed(self):
        def log_g(u):
            with np.errstate(divide="ignore"):
                return np.log(np.maximum(u[:, 0] - 0.5, 0.0))  # -inf on half the domain

        cfg = RqmcConfig(tol=1e-3, i_max=128)
        res = rqmc_log_estimate(log_g, 1, cfg, seed=4)
        assert res.estimate == pytest.approx(math.log(0.125), abs=5e-3)


class TestRowBatchedRun:
    def test_nan_in_second_row_reports_shared_point(self):
        # Rows share the batch's points: a NaN in row 1 aborts the run and
        # names the point where that row returned it.
        cfg = RqmcConfig(B=3, n0=8)
        seen = []

        def g(pts, rows):
            seen.append(pts.copy())
            vals = np.tile(pts[:, 0], (len(rows), 1))
            vals[1, 5] = np.nan
            return vals

        with pytest.raises(IntegrandNaNError) as info:
            _run(g, 2, cfg, seed=1, n_rows=3, log=False)
        assert len(seen) == 1 and seen[0].shape == (cfg.B * cfg.n0, 2)
        assert np.array_equal(info.value.point, seen[0][5])

    def test_rows_equal_their_one_row_runs(self):
        # Each row's result depends on that row alone: rows that stop at
        # different batches give what each gives run alone.
        cfg = RqmcConfig(B=5, n0=32, tol=1e-5, i_max=12)
        scales = np.array([0.0, 1.0, 3.0, 0.2])

        def g(pts, rows):
            return 1.0 + scales[rows, None] * np.sin(7.0 * pts[None, :, 0])

        rows = _run(g, 1, cfg, seed=3, n_rows=4, log=False)
        alone = [_run(lambda p, r, s=s: g(p, np.array([s])), 1, cfg, 3, 1, False)
                 for s in range(4)]
        for got, want in zip(rows, zip(*alone)):
            assert np.array_equal(got, np.concatenate(want))
        assert len(set(rows[2])) > 1

    @pytest.mark.parametrize("log", [False, True])
    def test_row_blocks_match_one_block(self, monkeypatch, log):
        # The rows are walked in blocks of about _BLOCK_VALUES values, each
        # reduced, folded and tested at once: 50 rows in blocks of 7, some
        # stopping early, give bit for bit what one block of all 50 gives,
        # and the integrand never sees more rows than a block holds.
        cfg = RqmcConfig(B=5, n0=32, tol=1e-5, i_max=12)
        scales = np.linspace(0.0, 3.0, 50)
        sizes = []

        def g(pts, rows):
            sizes.append(len(rows))
            return (0.0 if log else 4.0) + scales[rows, None] * np.sin(7.0 * pts[None, :, 0])

        monkeypatch.setattr(rqmc, "_BLOCK_VALUES", 7 * cfg.B * cfg.n0)
        blocks = _run(g, 1, cfg, seed=3, n_rows=50, log=log)
        assert max(sizes) == 7 and len(sizes) > 8
        monkeypatch.setattr(rqmc, "_BLOCK_VALUES", 50 * cfg.B * cfg.n0)
        one = _run(g, 1, cfg, seed=3, n_rows=50, log=log)
        assert all(np.array_equal(a, b) for a, b in zip(one, blocks))
        assert len(set(blocks[2])) > 1

    def test_nan_in_a_later_block_names_its_point(self, monkeypatch):
        cfg = RqmcConfig(B=3, n0=8)
        seen = []

        def g(pts, rows):
            seen.append(pts.copy())
            vals = np.tile(pts[:, 0], (len(rows), 1))
            vals[rows == 8, 5] = np.nan
            return vals

        monkeypatch.setattr(rqmc, "_BLOCK_VALUES", 3 * cfg.B * cfg.n0)
        with pytest.raises(IntegrandNaNError) as info:
            _run(g, 2, cfg, seed=1, n_rows=10, log=True)
        assert len(seen) == 3
        assert np.array_equal(info.value.point, seen[0][5])


def test_rows_with_neg_inf_log_means_have_infinite_errors():
    # A randomization whose points all miss a log row's mass has mean 0.
    # A row whose means are all 0 gets estimate -inf and an infinite
    # error (not NaN); a row with some means 0 gets the plain CI over its
    # means, relative to their mean, which a zero among positive means
    # makes large.  Either meets no tight tolerance; the finite rows are
    # as before.
    cfg = RqmcConfig(B=5, n0=8, i_max=1, tol=1e-3)
    finite = np.linspace(-1.0, 1.0, cfg.B)

    def g(pts, rows):
        # Points come randomization by randomization, n0 each.
        randomization = np.arange(len(pts)) // cfg.n0
        return np.array([np.full(len(pts), -np.inf),
                         np.where(randomization == 0, -np.inf, 0.0),
                         finite[randomization],
                         np.zeros(len(pts))])[rows]

    estimate, err, _ = _run(g, 1, cfg, seed=1, n_rows=4, log=True)
    some = np.r_[0.0, np.ones(cfg.B - 1)]
    assert estimate[0] == -np.inf and err[0] == np.inf
    assert estimate[1] == math.log(some.mean())
    assert err[1] == _errors(some[None])[0] / some.mean() and 0.2 < err[1] < np.inf
    assert estimate[2] == pytest.approx(math.log(np.exp(finite).mean()), rel=1e-14)
    assert err[2] == pytest.approx(_errors(np.exp(finite - 1.0)[None])[0]
                                   / np.exp(finite - 1.0).mean(), rel=1e-14)
    assert (estimate[3], err[3]) == (0.0, 0.0)
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
            batch = _batch_means(g(stream.take(cfg.n0).reshape(-1, 2)), cfg.B)[0]
            expected = (n * expected + batch) / (n + 1)
            if n + 1 in (3, 7):
                got = _run(lambda pts, rows: g(pts), 2, replace(cfg, i_max=n + 1), 77, 1, False)
                want = ([expected.mean()], _errors(expected[None]), [n + 1])
                assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_plain_and_log_agree(self):
        cfg = RqmcConfig(B=10, n0=128, i_max=6, tol=1e-300)
        g = lambda u: 1.0 + 0.5 * np.sin(2 * np.pi * u[:, 0]) * u[:, 1]
        plain = rqmc_estimate(g, 2, cfg, seed=13)
        logv = rqmc_log_estimate(lambda u: np.log(g(u)), 2, cfg, seed=13)
        assert plain.n_per_randomization == logv.n_per_randomization
        assert math.exp(logv.estimate) == pytest.approx(plain.estimate, rel=1e-12)

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


def _golden_log_g(u):
    return -8.0 * u[:, 0] + np.log1p(u[:, 1] * u[:, 2])


# (estimator, seed, estimate, iterations_used, n_per_randomization,
# converged) in d = 3, recorded before the plain and log accumulators were
# merged; estimates pinned to 1e-14, everything else exactly.
GOLDEN = [
    ("plain", 1, 1.71019387263893, 32, 4096, True),
    ("plain", 2, 1.7102304558892807, 32, 4096, True),
    ("plain", 3, 1.710239975132964, 32, 4096, True),
    ("log", 1, -1.8563558674118332, 32, 4096, True),
    ("log", 2, -1.8567503497816322, 48, 6144, True),
    ("log", 3, -1.856840754136861, 44, 5632, True),
]


@pytest.mark.parametrize("kind, seed, estimate, iterations, n, converged", GOLDEN,
                         ids=[f"{g[0]}-{g[1]}" for g in GOLDEN])
def test_golden_values(kind, seed, estimate, iterations, n, converged):
    if kind == "plain":
        res = rqmc_estimate(_golden_g, 3, RqmcConfig(tol=1e-4), seed)
    else:
        res = rqmc_log_estimate(_golden_log_g, 3, RqmcConfig(tol=5e-4), seed)
    assert res.estimate == pytest.approx(estimate, rel=0.0, abs=1e-14)
    assert (res.iterations_used, res.n_per_randomization, res.converged) == (
        iterations, n, converged)
