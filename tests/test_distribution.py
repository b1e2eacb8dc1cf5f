import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy.special import ndtr

from nvmix import distribution
from nvmix.distribution import (
    BoxIntegrand,
    _antithetic,
    _checked_limits,
    _w_table,
    prob,
    prob_singular,
    reorder,
)
from nvmix.linalg import _singular_cholesky
from nvmix.mixtures import (
    _QuantileTable,
    blackbox,
    constant,
    inverse_burr,
    inverse_gamma,
    pareto,
    quantile,
)
from nvmix.model import NvmModel
from nvmix.rqmc import IntegrandNaNError, RqmcConfig, RqmcResult

INF = float("inf")


def normal_model(sigma, loc=None):
    sigma = np.asarray(sigma, dtype=float)
    return NvmModel.build(loc, sigma, constant(), [1.0])


def mvt_model(nu, sigma, loc=None):
    return NvmModel.build(loc, sigma, inverse_gamma(), [nu])


def orthant_2d(rho):
    """Centered bivariate elliptical orthant probability P(X1<=0, X2<=0)."""
    return 0.25 + math.asin(rho) / (2.0 * math.pi)


class TestHyperrectangle:
    def test_valid(self):
        _checked_limits([-INF, 0.0], [0.0, 1.0])

    def test_rejects_touching(self):
        with pytest.raises(ValueError):
            _checked_limits([0.0, 0.0], [1.0, 0.0])


class TestReorder:
    def test_smallest_range_first(self):
        # Phi(0.1) ~ 0.540 < Phi(5) ~ 1, so the 0.1-limit variable leads.
        b = np.array([5.0, 0.1])
        factor = reorder([-INF, -INF], b, np.eye(2), mu_sqrt_w=1.0)
        assert list(factor.perm) == [1, 0]
        assert np.allclose(b[factor.perm], [0.1, 5.0])
        # The caller's limits stay in the original order.
        assert np.array_equal(b, [5.0, 0.1])

        factor2 = reorder([-INF, -INF], [0.1, 5.0], np.eye(2), mu_sqrt_w=1.0)
        assert list(factor2.perm) == [0, 1]

    def test_d1_identity(self):
        factor = reorder([-1.0], [1.0], np.array([[2.0]]), mu_sqrt_w=1.3)
        assert list(factor.perm) == [0]
        assert factor.C[0, 0] == pytest.approx(math.sqrt(2.0))

    def test_factor_matches_permuted_cholesky(self):
        rng = np.random.default_rng(5)
        G = rng.standard_normal((4, 6))
        sigma = G @ G.T
        b = rng.uniform(0.5, 3.0, size=4)
        factor = reorder(np.full(4, -INF), b, sigma, mu_sqrt_w=1.0)
        sig_perm = sigma[np.ix_(factor.perm, factor.perm)]
        assert np.allclose(factor.C @ factor.C.T, sig_perm, atol=1e-10)

    @pytest.mark.parametrize("d", [1, 5, 20])
    def test_factor_in_original_order(self, d):
        # The factor carries the order it chose, so it reads as a factor
        # of sigma itself.
        rng = np.random.default_rng(40 + d)
        G = rng.standard_normal((d, d + 2))
        sigma = G @ G.T
        factor = reorder(*_limits("mixed", rng, d), sigma, mu_sqrt_w=1.3)
        assert sorted(factor.perm) == list(range(d))
        np.testing.assert_allclose(factor.reconstruct(), sigma, rtol=0.0, atol=1e-10)
        assert factor.log_det == pytest.approx(np.linalg.slogdet(sigma)[1], rel=1e-12)

    def test_finite_limits(self):
        factor = reorder([-1.0, -2.0], [1.0, 2.0], np.eye(2), mu_sqrt_w=1.0)
        assert sorted(factor.perm) == [0, 1]

    def test_matches_the_reference_up_to_ties(self):
        # The running vectors round differently from the reference's
        # recomputed sums, so the orders may part only at a pivot whose
        # two smallest criteria agree to rounding; the factor of an order
        # is the same arithmetic in both.
        parted = 0
        for sigma, a, b, msw in _reorder_problems():
            factor = reorder(a, b, sigma, msw)
            C_ref, perm_ref, ties = _reference_reorder(a, b, sigma, msw)
            differ = np.flatnonzero(factor.perm != perm_ref)
            if len(differ):
                parted += 1
                assert ties[differ[0]]
            else:
                assert np.array_equal(factor.C, C_ref)
            np.testing.assert_allclose(factor.reconstruct(), sigma, rtol=0.0, atol=1e-12)
        # Most orders agree, so the bitwise comparison is not vacuous.
        assert parted <= 10


def _reference_reorder(a, b, sigma, mu_sqrt_w):
    """``reorder`` as first written, the reference for its running form:
    every pivot recomputes the candidates' partial means and conditional
    variances from the factor so far, and swaps whole rows and columns of
    a copy of sigma.  Returns the factor, the order and, for each pivot,
    whether its two smallest criteria agree to 1e-12 relative."""
    a, b = _checked_limits(a, b)
    sigma = np.array(sigma, dtype=float)
    d = len(a)
    C, y, perm, ties = np.zeros((d, d)), np.zeros(d), np.arange(d), []
    for j in range(d):
        partial = C[j:, :j] @ y[:j]
        denom_sq = np.diag(sigma)[j:] - np.sum(C[j:, :j] ** 2, axis=1)
        denom = np.sqrt(np.clip(denom_sq, 1e-12, None))
        with np.errstate(invalid="ignore"):
            a_hat = (a[j:] / mu_sqrt_w - partial) / denom
            b_hat = (b[j:] / mu_sqrt_w - partial) / denom
        crit = ndtr(b_hat) - ndtr(a_hat)
        two = np.sort(crit)[:2]
        ties.append(len(two) == 2 and two[1] - two[0] <= 1e-12 * abs(two[0]))
        i = j + int(np.argmin(crit))
        if i != j:
            for arr in (a, b, y, perm):
                arr[[i, j]] = arr[[j, i]]
            sigma[[i, j], :] = sigma[[j, i], :]
            sigma[:, [i, j]] = sigma[:, [j, i]]
            C[[i, j], :] = C[[j, i], :]

        C[j, j] = np.sqrt(max(sigma[j, j] - C[j, :j] @ C[j, :j], 1e-12))
        if j + 1 < d:
            C[j + 1 :, j] = (sigma[j + 1 :, j] - C[j + 1 :, :j] @ C[j, :j]) / C[j, j]
        a_hat_j = (a[j] / mu_sqrt_w - C[j, :j] @ y[:j]) / C[j, j]
        b_hat_j = (b[j] / mu_sqrt_w - C[j, :j] @ y[:j]) / C[j, j]
        width = ndtr(b_hat_j) - ndtr(a_hat_j)
        if width > 1e-300:
            phi = [math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) if np.isfinite(x) else 0.0
                   for x in (a_hat_j, b_hat_j)]
            y[j] = (phi[0] - phi[1]) / width
        else:
            lo = a_hat_j if np.isfinite(a_hat_j) else b_hat_j
            hi = b_hat_j if np.isfinite(b_hat_j) else a_hat_j
            mid = 0.5 * (lo + hi)
            y[j] = float(np.clip(mid if np.isfinite(mid) else 0.0, -37.0, 37.0))
    return C, perm, ties


def _reorder_problems():
    """Seeded random correlation matrices at d from 2 to 60 with orthant
    (upper limits 0), lower-open, finite, mixed and far limits (beyond 38
    sd, where slices are numerically empty), then the equicorrelated
    orthants at d = 20 and 50, whose candidates all tie in exact
    arithmetic."""
    rng = np.random.default_rng(2030)
    for k in range(125):
        d = int(rng.integers(2, 61))
        G = rng.standard_normal((d, d + 2))
        S = G @ G.T
        s = np.sqrt(np.diag(S))
        kind = ("orthant", "lower", "finite", "mixed", "far")[k % 5]
        if kind == "orthant":
            a, b = np.full(d, -INF), np.zeros(d)
        elif kind == "far":
            a = rng.uniform(38.0, 45.0, d)
            a, b = a, a + rng.uniform(0.5, 2.0, d)
        else:
            a, b = _limits(kind, rng, d)
        yield S / np.outer(s, s), a, b, rng.uniform(0.8, 1.6)
    for d in (20, 50):
        yield _equicorrelation(d), np.full(d, -INF), np.zeros(d), 1.38


class TestIntegrandG:
    def test_d1_half(self):
        factor = reorder([-INF], [0.0], np.eye(1), 1.0)
        for u in ([0.3], [0.7]):
            f = BoxIntegrand([-INF], [0.0], factor, constant(), [1.0])
            assert f(np.array([u]))[0] == pytest.approx(0.5)

    def test_d2_independent(self):
        factor = reorder([-INF, -INF], [0.0, 0.0], np.eye(2), 1.0)
        rng = np.random.default_rng(0)
        u = rng.random((50, 2))
        vals = BoxIntegrand([-INF, -INF], [0.0, 0.0], factor, constant(), [1.0])(u)
        assert np.allclose(vals, 0.25, atol=1e-14)

    def test_correlated_matches_scalar_recursion(self):
        # Independent scalar oracle using the stdlib normal distribution.
        nd = NormalDist()
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        a, b = np.full(2, -INF), np.array([0.4, -0.3])
        factor = reorder(a, b, sigma, 1.0)

        def scalar_oracle(u1):
            b1, b2 = b[factor.perm]
            C = factor.C
            e1 = nd.cdf(b1 / C[0, 0])
            z = nd.inv_cdf(u1 * e1)
            e2 = nd.cdf((b2 - C[1, 0] * z) / C[1, 1])
            return e1 * e2

        f = BoxIntegrand(a, b, factor, constant(), [1.0])
        for u1 in (0.2, 0.5, 0.9):
            got = f(np.array([[0.5, u1]]))[0]
            assert got == pytest.approx(scalar_oracle(u1), rel=1e-9)

    def test_mixing_coordinate_changes_value(self):
        factor = reorder([-INF, -INF], [0.0, 1.0], np.eye(2), 1.0)
        f = BoxIntegrand([-INF, -INF], [0.0, 1.0], factor, inverse_gamma(), [3.0])
        v1, v2 = f(np.array([[0.1, 0.5], [0.9, 0.5]]))
        assert v1 != v2


def _std_normal_cdf(x):
    # erfc keeps relative accuracy in the lower tail, where 1 + erf cancels.
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def scalar_recursion(u, A, a, b, spec, nu, table=None):
    """Separation-of-variables integrand at one point, one scalar at a time.

    Row i of the box reads a_i < sqrt(W) * A[i] @ z <= b_i.  Its last
    nonzero loading A[i, l] names its block l and bounds z_l, from below
    through a_i when positive and through b_i when negative.  W is the
    quantile at the clamped u[0], or, given a ``_QuantileTable``, exp(L)
    at its logit.
    """
    nd = NormalDist()
    u0 = min(max(u[0], 1e-16), 1.0 - 1e-16)
    if table is None:
        isw = 1.0 / math.sqrt(max(quantile(spec, u0, nu), 1e-300))
    else:
        isw = math.exp(-0.5 * float(table.log_w(math.log(u0 / (1.0 - u0)))))
    block = [int(np.flatnonzero(row)[-1]) for row in A]
    r = len(u)
    z = [0.0] * r
    g = 1.0
    for l in range(r):
        lo, hi = -INF, INF
        for i in [i for i in range(len(a)) if block[i] == l]:
            s = sum(A[i][k] * z[k] for k in range(l))
            x_a = (a[i] * isw - s) / A[i][l]
            x_b = (b[i] * isw - s) / A[i][l]
            if A[i][l] < 0:
                x_a, x_b = x_b, x_a
            lo, hi = max(lo, x_a), min(hi, x_b)
        d_l, e_l = _std_normal_cdf(lo), _std_normal_cdf(hi)
        g *= min(max(e_l - d_l, 0.0), 1.0)
        if l + 1 < r:
            p = min(max(d_l + u[l + 1] * (e_l - d_l), 1e-16), 1.0 - 1e-16)
            z[l] = nd.inv_cdf(p)
    return g


def _limits(kind, rng, d):
    """Box limits: 'whole' space, 'lower'-open, 'upper'-open, 'finite', or
    'mixed' (one-sided, two-sided and unbounded rows together)."""
    lo = -rng.uniform(0.2, 2.5, d)
    hi = rng.uniform(0.2, 2.5, d)
    if kind == "whole":
        return np.full(d, -INF), np.full(d, INF)
    if kind == "lower":
        return np.full(d, -INF), hi
    if kind == "upper":
        return lo, np.full(d, INF)
    if kind == "mixed":
        side = np.arange(d) % 4
        lo[(side == 1) | (side == 3)] = -INF
        hi[(side == 2) | (side == 3)] = INF
    return lo, hi


def _points(rng, n, r):
    u = rng.random((n, r))
    u[0, 0], u[1, 0] = 1e-12, 1.0 - 1e-12  # extreme mixing draws
    return u


_FAMILIES = [(inverse_gamma(), [3.0]), (inverse_burr(), [2.0, 2.0])]
_KINDS = ["whole", "lower", "upper", "finite", "mixed"]


class TestScalarRecursion:
    """BoxIntegrand against the per-point scalar recursion above."""

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("d", [1, 5, 20, 50])
    def test_reordered_full_rank(self, d, kind):
        rng = np.random.default_rng(1000 + d)
        G = rng.standard_normal((d, d + 2))
        sigma = G @ G.T
        a, b = _limits(kind, rng, d)
        factor = reorder(a, b, sigma, mu_sqrt_w=1.3)
        spec, nu = _FAMILIES[d % 2]
        u = _points(rng, 24, d)
        got = BoxIntegrand(a, b, factor, spec, nu)(u)
        want = [scalar_recursion(p, factor.C, a[factor.perm], b[factor.perm], spec, nu)
                for p in u]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        if kind == "whole":
            assert np.all(got == 1.0)

    @pytest.mark.parametrize("kind", _KINDS)
    def test_staircase_with_negative_loadings(self, kind, monkeypatch):
        # Six constraints on three factors: variable 3 is -0.8 times
        # variable 0, and variables 4 and 5 load on two factors each, so
        # every block has two rows and two of them flip orientation.
        T = np.array([
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [-0.8, 0.0, 0.0],
            [0.4, 1.5, 0.0],
            [0.0, 0.3, -1.1],
        ])
        R = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.4], [0.2, 0.4, 1.0]])
        model = NvmModel.build(None, T @ R @ T.T, inverse_gamma(), [3.0])
        factor = model.factor
        assert factor.rank == 3 and list(factor.block_sizes()) == [2, 2, 2]
        cols = np.repeat(np.arange(3), factor.block_sizes())
        assert np.sum(factor.C[np.arange(6), cols] < 0) == 2

        rng = np.random.default_rng(7)
        a, b = _limits(kind, rng, 6)
        captured = []

        def fake_estimate(g, dimension, cfg, seed):
            captured.append(g)
            return RqmcResult(0.5, 0.0, 0, 0, True)

        monkeypatch.setattr(distribution, "rqmc_estimate", fake_estimate)
        prob_singular(a, b, model, seed=1)
        (pair_mean,) = captured

        # At the default tol the integrand reads W from the table.
        table = _w_table(model.spec, model.nu, RqmcConfig(), 6)
        assert table is not None
        A = factor.mixing_matrix()
        u = _points(rng, 32, 3)
        want = [
            0.5 * (scalar_recursion(p, A, a, b, model.spec, model.nu, table)
                   + scalar_recursion(1.0 - p, A, a, b, model.spec, model.nu, table))
            for p in u
        ]
        np.testing.assert_allclose(pair_mean(u), want, rtol=1e-12, atol=0.0)

    def test_antithetic_pairs_u_with_one_minus_u(self):
        rng = np.random.default_rng(3)
        G = rng.standard_normal((5, 7))
        a, b = np.full(5, -INF), rng.uniform(0.0, 2.0, 5)
        f = BoxIntegrand(a, b, reorder(a, b, G @ G.T, 1.0), inverse_gamma(), [3.0])
        u = rng.random((40, 5))
        np.testing.assert_allclose(
            _antithetic(f)(u), 0.5 * (f(u) + f(1.0 - u)), rtol=1e-15, atol=0.0
        )


def _staircase_model(spec, nu):
    """The rank-3 model of ``test_staircase_with_negative_loadings``: six
    variables in three 2-row blocks, two of them with negative loadings."""
    T = np.array([
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [-0.8, 0.0, 0.0],
        [0.4, 1.5, 0.0],
        [0.0, 0.3, -1.1],
    ])
    R = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.4], [0.2, 0.4, 1.0]])
    return NvmModel.build(None, T @ R @ T.T, spec, nu)


class TestPointLayout:
    """The integrand reads its points' columns whatever their memory
    layout: C-ordered, Fortran-ordered and strided points give equal
    values."""

    @staticmethod
    def _assert_layout_free(f, u):
        strided = np.zeros((2 * u.shape[0], 3 * u.shape[1]))[::2, 1::3]
        strided[...] = u
        assert not strided.flags.c_contiguous and not strided.flags.f_contiguous
        want = f(u)
        assert np.array_equal(f(np.asfortranarray(u)), want)
        assert np.array_equal(f(strided), want)

    @pytest.mark.parametrize("kind", _KINDS)
    def test_full_rank(self, kind):
        rng = np.random.default_rng(20)
        G = rng.standard_normal((20, 22))
        a, b = _limits(kind, rng, 20)
        factor = reorder(a, b, G @ G.T, mu_sqrt_w=1.3)
        f = BoxIntegrand(a, b, factor, inverse_gamma(), [3.0])
        self._assert_layout_free(f, _points(rng, 64, 20))

    @pytest.mark.parametrize("kind", _KINDS)
    def test_staircase(self, kind):
        model = _staircase_model(inverse_gamma(), [3.0])
        factor = model.factor
        rng = np.random.default_rng(7)
        a, b = _limits(kind, rng, 6)
        f = BoxIntegrand(a, b, factor, model.spec, model.nu)
        self._assert_layout_free(f, _points(rng, 64, 3))


class TestNaNInMultiRowBlocks:
    """W = inf makes a -inf limit's term -inf * 0 = NaN; the block's
    max/min must carry the NaN on (as ``np.maximum`` does and ``np.fmax``
    does not) so that the driver reports it."""

    SPEC = blackbox(lambda u, nu: np.where(u > 0.9, np.inf, 1 / (1 - u)), 1)

    def test_mixed_block_raises(self):
        model = _staircase_model(self.SPEC, [1.0])
        lower = [-1.0, -INF, -1.0, -INF, -1.0, -1.0]
        with pytest.raises(IntegrandNaNError) as err:
            prob_singular(lower, np.ones(6), model, seed=1)
        np.testing.assert_allclose(
            err.value.point, [0.9731887, 0.01182162, 0.25516751], rtol=1e-6)

    def test_finite_limits_are_finite(self):
        model = _staircase_model(self.SPEC, [1.0])
        res = prob_singular(-np.ones(6), np.ones(6), model, seed=1)
        assert res.estimate == 0.10686578015041026
        assert res.converged


class TestProb:
    def test_normal_quadrant(self):
        res = prob([-INF, -INF], [0.0, 0.0], normal_model(np.eye(2)), seed=1)
        assert res.converged
        assert res.estimate == pytest.approx(0.25, abs=1e-3)

    @pytest.mark.parametrize("nu", [1.0, 4.0])
    def test_mvt_orthant_oracle(self, nu):
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        res = prob([-INF, -INF], [0.0, 0.0], mvt_model(nu, sigma), seed=2)
        assert res.converged
        assert res.estimate == pytest.approx(orthant_2d(0.5), abs=1e-3)
        assert res.estimate == pytest.approx(1.0 / 3.0, abs=1.5e-3)

    def test_mvt_d1_median(self):
        res = prob([-INF], [0.0], mvt_model(2.0, np.eye(1)), seed=3)
        assert res.estimate == pytest.approx(0.5, abs=1e-3)

    def test_pareto_mixture_orthant(self):
        # The orthant probability is mixing-free for centered ellipticals.
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        model = NvmModel.build(None, sigma, pareto(), [1.5])
        res = prob([-INF, -INF], [0.0, 0.0], model, seed=4)
        assert res.estimate == pytest.approx(1.0 / 3.0, abs=1.5e-3)

    def test_location_shift(self):
        mu = np.array([5.0, -3.0])
        res = prob(mu - 10, mu, normal_model(np.eye(2), loc=mu), seed=5)
        assert res.estimate == pytest.approx(0.25, abs=1e-3)

    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            prob([0.0, 0.0], [1.0, -1.0], normal_model(np.eye(2)), seed=1)

    def test_complement_d1(self):
        model = mvt_model(3.0, np.eye(1))
        left = prob([-INF], [0.7], model, seed=6)
        right = prob([0.7], [INF], model, seed=7)
        assert left.estimate + right.estimate == pytest.approx(1.0, abs=2e-3)

    def test_monotone_in_box(self):
        model = mvt_model(2.5, np.array([[1.0, 0.3], [0.3, 1.0]]))
        small = prob([-1.0, -1.0], [0.5, 0.5], model, seed=8)
        large = prob([-2.0, -1.5], [1.0, 0.8], model, seed=9)
        assert large.estimate >= small.estimate - 2e-3

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        G = rng.standard_normal((4, 6))
        sigma = G @ G.T
        b = rng.uniform(0.0, 2.0, size=4)
        a = b - rng.uniform(1.0, 3.0, size=4)
        model = mvt_model(3.0, sigma)
        base = prob(a, b, model, seed=12)
        p = rng.permutation(4)
        modelp = mvt_model(3.0, sigma[np.ix_(p, p)])
        perm = prob(a[p], b[p], modelp, seed=13)
        assert perm.estimate == pytest.approx(base.estimate, abs=2e-3)

    def test_deterministic_given_seed(self):
        model = mvt_model(2.0, np.eye(3))
        r1 = prob([-INF] * 3, [0.5] * 3, model, seed=42)
        r2 = prob([-INF] * 3, [0.5] * 3, model, seed=42)
        assert r1 == r2

    def test_whole_space_is_one(self):
        model = mvt_model(1.5, np.eye(2))
        res = prob([-INF, -INF], [INF, INF], model, seed=1)
        assert res.estimate == 1.0


# P(X <= -a 1) = P(X > a 1) for the bivariate t_3 with identity scale, by
# quadrature of E[Phi(-a / sqrt(W))^2].
T3_ORTHANT = {20.0: 1.5943e-5, 200.0: 1.600e-8}


@pytest.mark.parametrize("a", sorted(T3_ORTHANT))
@pytest.mark.parametrize("side", ["lower", "upper"])
def test_far_tail_box_is_never_converged_while_wrong(a, side):
    # A relative request is met only by a nonzero estimate within its
    # error bound; at a = 200 the estimate is 0 or about 1e-12, and it
    # used to be reported converged after one batch.
    cfg = RqmcConfig(tol=1e-3, tol_type="relative")
    lo, hi = ([-INF, -INF], [-a, -a]) if side == "lower" else ([a, a], [INF, INF])
    res = prob(lo, hi, mvt_model(3.0, np.eye(2)), cfg, seed=1)
    exact = T3_ORTHANT[a]
    assert not res.converged or abs(res.estimate - exact) <= cfg.tol * exact
    if a == 200.0:
        assert not res.converged


class TestProbSingular:
    def test_rank1_collapse_half(self):
        model = NvmModel.build(None, np.ones((2, 2)), constant(), [1.0])
        assert not model.is_full_rank
        res = prob([-INF, -INF], [0.0, 0.0], model, seed=1)
        assert res.estimate == pytest.approx(0.5, abs=1e-3)

    def test_rank1_min_of_uppers(self):
        model = NvmModel.build(None, np.ones((2, 2)), constant(), [1.0])
        res = prob([-INF, -INF], [0.0, -1.0], model, seed=2)
        oracle = NormalDist().cdf(-1.0)
        assert res.estimate == pytest.approx(oracle, abs=1e-3)

    def test_full_rank_forced_matches_prob(self):
        sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
        model = mvt_model(3.0, sigma)
        direct = prob([-1.0, -INF], [1.0, 0.5], model, seed=3)
        forced = prob_singular([-1.0, -INF], [1.0, 0.5], model, RqmcConfig(), seed=4)
        assert forced.estimate == pytest.approx(direct.estimate, abs=2e-3)

    def test_rank1_mvt(self):
        # X1 = X2 = sqrt(W) Z: P(X <= (0,-1)) = P(T <= -1) for t_nu.
        from scipy.stats import t as t_dist

        model = NvmModel.build(None, np.ones((2, 2)), inverse_gamma(), [3.0])
        res = prob([-INF, -INF], [0.0, -1.0], model, seed=5)
        assert res.estimate == pytest.approx(t_dist(3.0).cdf(-1.0), abs=1.5e-3)

    def test_degenerate_variable_feasible(self):
        model = NvmModel.build(None, np.diag([1.0, 0.0, 1.0]), constant(), [1.0])
        res = prob([-INF, -1.0, -INF], [0.0, 1.0, 0.0], model, seed=6)
        assert res.estimate == pytest.approx(0.25, abs=1e-3)

    def test_degenerate_variable_infeasible(self):
        model = NvmModel.build(None, np.diag([1.0, 0.0, 1.0]), constant(), [1.0])
        res = prob([-INF, 0.5, -INF], [0.0, 1.0, 0.0], model, seed=7)
        assert res.estimate == 0.0
        assert res.error_estimate == 0.0
        assert res.converged

    def test_singular_with_negative_loading(self):
        # X2 = -X1: P(X1 <= 0, X2 <= 0) = P(X1 = 0) boundary -> here
        # P(X1 <= 0, -X1 <= 0) = P(X1 = 0) = 0... use strictly negative
        # uppers for a nontrivial value: P(X1 <= -1, -X1 <= -1) = 0.
        sigma = np.array([[1.0, -1.0], [-1.0, 1.0]])
        model = NvmModel.build(None, sigma, constant(), [1.0])
        res = prob([-INF, -INF], [-1.0, -1.0], model, seed=8)
        assert res.estimate == pytest.approx(0.0, abs=1e-3)
        # And a feasible band: P(-2 < X1 <= 2, -2 < -X1 <= 2) = P(|X1| < 2).
        res2 = prob([-2.0, -2.0], [2.0, 2.0], model, seed=9)
        oracle = NormalDist().cdf(2.0) - NormalDist().cdf(-2.0)
        assert res2.estimate == pytest.approx(oracle, abs=1.5e-3)


class TestVarianceReduction:
    def test_reordering_reduces_variance_mostly(self):
        # Desk-scale version of the randomized reordering experiment.
        from nvmix.mixtures import _mean_sqrt_w

        rng = np.random.default_rng(100)
        wins = 0
        trials = 40
        for _ in range(trials):
            d = int(rng.integers(5, 25))
            nu = rng.uniform(0.5, 5.0)
            G = rng.standard_normal((d, d))
            S = G @ G.T
            Dx = np.sqrt(np.diag(S))
            sigma = S / np.outer(Dx, Dx)
            b = rng.uniform(0.0, 3.0 * math.sqrt(d), size=d)
            a = np.full(d, -INF)
            spec = inverse_gamma()
            msw = _mean_sqrt_w(spec, [nu])

            reordered = reorder(a, b, sigma, msw)
            # Variance without reordering: the identity-order factor.
            from nvmix.linalg import cholesky

            u = rng.random((4000, d))
            v_plain = np.var(BoxIntegrand(a, b, cholesky(sigma), spec, [nu])(u))
            v_reord = np.var(BoxIntegrand(a, b, reordered, spec, [nu])(u))
            if v_reord < v_plain:
                wins += 1
        assert wins >= 0.8 * trials


def _equicorrelation(d, rho=0.5):
    R = np.full((d, d), rho)
    np.fill_diagonal(R, 1.0)
    return R


def _golden_problems():
    """Scale and limits of each golden case, drawn from one fixed stream."""
    rng = np.random.default_rng(2024)
    G = rng.standard_normal((20, 22))
    S = G @ G.T
    s = np.sqrt(np.diag(S))
    box20 = (S / np.outer(s, s), -rng.uniform(0.5, 3.0, 20), rng.uniform(0.5, 3.0, 20))
    T = np.vstack([np.eye(5), np.diag([0.7, 1.3, 1.9, 0.6, 0.8])])
    T_neg = np.vstack([np.eye(5), np.diag([0.7, -1.3, 1.9, 0.6, -0.8])])
    problems = {
        f"orthant-{d}": (_equicorrelation(d), np.full(d, -INF), np.zeros(d))
        for d in (5, 20, 50)
    }
    problems["box-20"] = box20
    problems["singular-orthant-5"] = (
        T @ _equicorrelation(5) @ T.T, np.full(10, -INF), np.zeros(10))
    problems["singular-box-5"] = (
        T_neg @ _equicorrelation(5) @ T_neg.T,
        -rng.uniform(0.5, 3.0, 10), rng.uniform(0.5, 3.0, 10))
    return problems


# (family, problem, seed, estimate, iterations_used, n_per_randomization,
# converged) at tol 1e-4, recorded before the integrand's partial sums
# moved to BLAS products; the summation order changed, so estimates are
# pinned to 1e-14 and everything else exactly.  The box rows were
# re-recorded when W came to be read from the tabulated quantile; the
# orthant rows, whose limits are 0, do not depend on W.  Inverse-Burr
# reads its quantile, cheaper than the table, so its box rows are those
# recorded before the table.
GOLDEN = [
    ("inverse_gamma", "orthant-5", 100, 0.16667616906168617, 2, 256, True),
    ("inverse_gamma", "orthant-20", 101, 0.04762441689286098, 8, 1024, True),
    ("inverse_gamma", "orthant-50", 102, 0.019624374319914338, 19, 2432, True),
    ("inverse_gamma", "box-20", 103, 0.08719800848972531, 27, 3456, True),
    ("inverse_gamma", "singular-orthant-5", 104, 0.16667979634100397, 2, 256, True),
    ("inverse_gamma", "singular-box-5", 105, 0.3047322970151419, 4, 512, True),
    ("inverse_burr", "orthant-5", 106, 0.16664917555983597, 2, 256, True),
    ("inverse_burr", "orthant-20", 107, 0.04756069986926436, 11, 1408, True),
    ("inverse_burr", "orthant-50", 108, 0.019576323180289255, 24, 3072, True),
    ("inverse_burr", "box-20", 109, 0.04886889055144044, 29, 3712, True),
    ("inverse_burr", "singular-orthant-5", 110, 0.1667002644134861, 2, 256, True),
    ("inverse_burr", "singular-box-5", 111, 0.24951711970413204, 8, 1024, True),
]


class TestGoldenValues:
    @pytest.mark.parametrize(
        "family, problem, seed, estimate, iterations, n, converged", GOLDEN,
        ids=[f"{g[0]}-{g[1]}" for g in GOLDEN])
    def test_fixed_seed_result(self, family, problem, seed, estimate, iterations,
                               n, converged):
        spec, nu = {"inverse_gamma": (inverse_gamma(), [3.0]),
                    "inverse_burr": (inverse_burr(), [2.0, 2.0])}[family]
        sigma, a, b = _golden_problems()[problem]
        model = NvmModel.build(None, sigma, spec, nu)
        estimator = prob_singular if problem.startswith("singular") else prob
        res = estimator(a, b, model, RqmcConfig(tol=1e-4), seed=seed)
        assert res.estimate == pytest.approx(estimate, rel=0.0, abs=1e-14)
        assert (res.iterations_used, res.n_per_randomization, res.converged) == (
            iterations, n, converged)


class UntabulatedTable(_QuantileTable):
    """A table whose bound is inf, so that the integrand reads the quantile."""

    def __init__(self, *args):
        super().__init__(*args)
        self.bound = math.inf


# Results of prob calls that read the quantile, as before W was ever read
# from a table (for inverse-Burr and Pareto, with the table's bound set to
# inf): (case, estimate, n_per_randomization, converged).
UNTABULATED = [
    ("relative", 0.16214399147161906, 128, True),
    ("below-budget", 0.16211449130788894, 512, False),
    ("jump", 0.09701968920854141, 128, True),
    ("inverse_burr-5", 0.604313749021687, 128, True),
    ("inverse_burr-20", 0.06521502405549615, 128, True),
    ("inverse_burr-50", 0.0019877882234340632, 128, True),
    ("pareto-5", 0.6467471437288111, 128, True),
    ("pareto-20", 0.050867155726305076, 128, True),
    ("pareto-50", 0.00022739349058881677, 128, True),
]


class TestTabulatedW:
    """Under an absolute tol the integrand reads W from the call's table
    where 0.25 d bound <= tol/10, for the families whose quantile costs
    more than a read, and from the quantile otherwise."""

    @pytest.mark.parametrize("d", [5, 20, 50])
    @pytest.mark.parametrize("spec, nu", [(inverse_gamma(), [3.0])], ids=["inverse_gamma"])
    def test_table_moves_the_estimate_within_its_budget(self, spec, nu, d, monkeypatch):
        # |dp/d log w| <= phi(1) d < 0.25 d, so at the same points an error
        # of at most bound in log w moves the estimate by 0.25 d bound.
        a, b = _limits("mixed", np.random.default_rng(40 + d), d)
        model = NvmModel.build(None, _equicorrelation(d), spec, nu)
        cfg = RqmcConfig()
        budget = 0.25 * d * _QuantileTable(spec, nu).bound
        assert budget <= 0.1 * cfg.tol
        tabulated = prob(a, b, model, cfg, seed=d)
        monkeypatch.setattr(distribution, "_QuantileTable", UntabulatedTable)
        exact = prob(a, b, model, cfg, seed=d)
        assert tabulated.estimate != exact.estimate
        assert abs(tabulated.estimate - exact.estimate) <= budget
        assert (tabulated.n_per_randomization, tabulated.converged) == (
            exact.n_per_randomization, exact.converged)

    @pytest.mark.parametrize("case, estimate, n, converged", UNTABULATED,
                             ids=[c[0] for c in UNTABULATED])
    def test_the_quantile_is_read_where_the_table_is_not(self, case, estimate, n, converged):
        family, _, d = case.rpartition("-")
        if family in ("inverse_burr", "pareto"):
            # The cases of the test above, whose quantiles cost less than
            # a read of the table.
            spec, nu = {"inverse_burr": (inverse_burr(), [2.0, 2.0]),
                        "pareto": (pareto(), [2.5])}[family]
            d, cfg = int(d), RqmcConfig()
            (a, b), seed = _limits("mixed", np.random.default_rng(40 + d), d), d
        else:
            spec, nu, cfg = {
                "relative": (inverse_gamma(), [3.0], RqmcConfig(tol=1e-2, tol_type="relative")),
                # 0.25 * 5 * 1.35e-7 exceeds tol/10.
                "below-budget": (inverse_gamma(), [3.0], RqmcConfig(tol=1e-6, i_max=4)),
                "jump": (blackbox(lambda u, nu: np.where(u < 0.5, 1.0, 4.0), 1), [1.0],
                         RqmcConfig()),
            }[case]
            d, (a, b), seed = 5, _limits("finite", np.random.default_rng(30), 5), 11
        assert _w_table(spec, nu, cfg, d) is None
        res = prob(a, b, NvmModel.build(None, _equicorrelation(d), spec, nu), cfg, seed=seed)
        assert res.estimate == pytest.approx(estimate, rel=0.0, abs=1e-14)
        assert (res.n_per_randomization, res.converged) == (n, converged)
