import numpy as np
import pytest

from scipy.linalg import solve_triangular

from nvmix.density import closed_log_density, log_density_batch
from nvmix.distribution import prob
from nvmix.linalg import _singular_cholesky, cholesky, mahalanobis_sq
from nvmix.mixtures import inverse_gamma
from nvmix.model import NvmModel


def random_wishart(d, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((d, d + 2))
    return G @ G.T / (d + 2)


class TestCholesky:
    def test_identity(self):
        f = cholesky(np.eye(3))
        assert np.array_equal(f.C, np.eye(3))
        assert f.rank == 3
        assert np.array_equal(f.perm, [0, 1, 2])

    def test_hand_2x2(self):
        # [[4,2],[2,5]] = LL^T with L = [[2,0],[1,2]].
        f = cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert np.allclose(f.C, [[2.0, 0.0], [1.0, 2.0]])
        assert np.allclose(f.C @ f.C.T, [[4.0, 2.0], [2.0, 5.0]])

    def test_wishart_reconstruction(self):
        sigma = random_wishart(10, seed=1)
        f = cholesky(sigma)
        assert np.allclose(f.C @ f.C.T, sigma, rtol=1e-10, atol=1e-12)
        assert f.log_det == pytest.approx(np.linalg.slogdet(sigma)[1], rel=1e-10)

    def test_non_pd_routes_to_singular(self):
        f = cholesky(np.ones((2, 2)))
        assert f.rank == 1

    @pytest.mark.parametrize(
        "scale",
        [[[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]]],
        ids=["negative-pivot-residual", "negative-diagonal"],
    )
    def test_indefinite_scale_rejected(self, scale):
        # Neither matrix is a covariance: a factor of either would
        # reconstruct some other matrix.
        with pytest.raises(ValueError, match="not positive semidefinite"):
            NvmModel.build(None, scale, inverse_gamma(), [3.0])

    def test_low_rank_with_near_dependent_rows_accepted(self):
        # Rows 0 and 1 of this rank-2 scale nearly coincide: after the
        # small but real pivot of row 1, rounding leaves the residuals of
        # rows 2 and 3 below minus the zero tolerance, though no
        # eigenvalue is below -2e-16.
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 2))
        A[1] = A[0] + 1e-3 * rng.standard_normal(2)
        sigma = A @ A.T
        model = NvmModel.build(None, sigma, inverse_gamma(), [3.0])
        assert model.factor.rank == 2
        err = np.abs(model.factor.reconstruct() - sigma).max()
        assert err <= 1e-8 * np.abs(sigma).max()

    def test_a_rounding_pivot_is_not_full_rank(self):
        # Rows 0 and 1 of this rank-2 scale nearly coincide, and
        # np.linalg.cholesky succeeds on rounding: its smallest squared
        # pivot is 2.2e-16 of the largest diagonal entry.
        rng = np.random.default_rng(1)
        A = rng.standard_normal((4, 2))
        A[1] = A[0] + 1e-2 * rng.standard_normal(2)
        sigma = A @ A.T
        np.linalg.cholesky(sigma)
        f = cholesky(sigma)
        assert not f.is_full_rank
        assert f.rank == 2
        assert np.abs(f.reconstruct() - sigma).max() <= 1e-8 * np.abs(sigma).max()

    @pytest.mark.parametrize("variances", [[1.0, 1e-11], [1e6, 1e-5]])
    def test_variables_of_very_different_size_stay_full_rank(self, variances):
        # Each pivot is its variable's whole standard deviation, far below
        # the zero tolerance of the largest variance but not of its own.
        model = NvmModel.build(None, np.diag(variances), inverse_gamma(), [3.0])
        assert model.is_full_rank
        assert np.array_equal(model.factor.reconstruct(), np.diag(variances))
        res = prob([-np.inf, 0.0], [np.inf, np.inf], model, seed=1)
        assert abs(res.estimate - 0.5) <= 1e-3
        x = np.sqrt(variances)[None, :]
        assert np.isfinite(closed_log_density(model, x)).all()

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            cholesky(np.array([[1.0, 0.5], [0.2, 1.0]]))

    @pytest.mark.parametrize(
        "scale",
        [[[np.inf]], [[1.0, np.inf], [np.inf, 1.0]], [[np.nan]]],
        ids=["inf-diagonal", "inf-off-diagonal", "nan-diagonal"],
    )
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="scale matrix must be finite"):
            NvmModel.build(None, scale, inverse_gamma(), [3.0])


class TestSingularCholesky:
    def test_all_ones(self):
        f = _singular_cholesky(np.ones((3, 3)))
        assert f.rank == 1
        assert np.array_equal(f.block_heads, [0])
        assert np.array_equal(f.block_sizes(), [3])
        # Single column of ones: every row's block-column entry is one.
        assert np.allclose(f.C[:, 0], 1.0)
        assert not f.C[:, 1:].any()
        assert np.allclose(f.reconstruct(), np.ones((3, 3)), atol=1e-8)

    def test_full_rank_consistency(self):
        sigma = random_wishart(6, seed=3)
        f = _singular_cholesky(sigma)
        plain = cholesky(sigma)
        assert f.rank == 6
        assert np.array_equal(f.perm, np.arange(6))
        assert np.allclose(f.C, plain.C, rtol=1e-9, atol=1e-12)
        assert np.allclose(f.reconstruct(), sigma, atol=1e-8)

    def test_full_rank_log_det_and_distances_match_cholesky(self):
        # A full-rank staircase is a factor of sigma itself, so the
        # quantities read from it agree with the plain factor's.
        sigma = random_wishart(6, seed=3)
        f = _singular_cholesky(sigma)
        plain = cholesky(sigma)
        assert f.is_full_rank
        assert f.log_det == pytest.approx(plain.log_det, rel=1e-12)
        X = np.random.default_rng(4).standard_normal((4, 6))
        mu = np.zeros(6)
        np.testing.assert_allclose(mahalanobis_sq(X, mu, f), mahalanobis_sq(X, mu, plain),
                                   rtol=1e-10)

    def test_zero_variance_row_moved_last(self):
        f = _singular_cholesky(np.diag([1.0, 0.0, 1.0]))
        assert f.rank == 2
        assert np.array_equal(f.perm, [0, 2, 1])
        assert np.array_equal(f.degenerate_rows, [1])
        assert np.allclose(f.reconstruct(), np.diag([1.0, 0.0, 1.0]), atol=1e-10)

    def test_a_small_independent_row_is_a_pivot(self):
        # Row 2 has variance 1.3e-10, of which its load of 5.5e-6 on the
        # first pivot explains 3e-11: its residual, 1e-10, is most of its
        # own variance, so it is a variable of its own, however small next
        # to the others.
        a = np.sqrt(3e-11)
        sigma = np.array([[1.0, 1.0, a], [1.0, 1.0, a], [a, a, 1.3e-10]])
        f = cholesky(sigma)
        assert f.rank == 2 and len(f.degenerate_rows) == 0
        assert np.array_equal(f.perm, [0, 1, 2])
        assert np.array_equal(f.block_sizes(), [2, 1])
        assert np.abs(f.reconstruct() - sigma).max() <= 1e-20

    def test_a_small_variable_in_a_singular_scale_stays_a_variable(self):
        # X3's variance, 1e-11, is far below the others' but not rounding:
        # X3 is its own pivot, not a point mass, and P(X3 > 0) = 1/2.
        model = NvmModel.build(None, [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1e-11]],
                               inverse_gamma(), [4.0])
        assert model.factor.rank == 2 and len(model.factor.degenerate_rows) == 0
        res = prob([-np.inf, -np.inf, 0.0], [np.inf, np.inf, np.inf], model, seed=1)
        assert abs(res.estimate - 0.5) <= 1e-3

    def test_negative_scale_handled(self):
        sigma = np.array([[1.0, -1.0], [-1.0, 1.0]])
        f = _singular_cholesky(sigma)
        assert f.rank == 1
        # Row 1 loads on the pivot with entry -1, which flips its limits.
        assert f.C[1, 0] == pytest.approx(-1.0)
        assert f.C[0, 0] == pytest.approx(1.0)
        assert np.allclose(f.reconstruct(), sigma, atol=1e-10)

    def test_random_low_rank_reconstruction(self):
        rng = np.random.default_rng(7)
        for r in (1, 2, 4):
            A = rng.standard_normal((6, r))
            sigma = A @ A.T
            f = _singular_cholesky(sigma)
            assert f.rank == r
            assert np.allclose(f.reconstruct(), sigma, atol=1e-8)
            assert f.block_sizes().sum() == 6

    def test_rank0_rejected(self):
        with pytest.raises(ValueError, match="rank 0"):
            _singular_cholesky(np.zeros((3, 3)))

    def test_permutation_consistency(self):
        # Factorizing the permuted matrix reproduces the permuted factor.
        sigma = np.ones((3, 3))
        sigma[2, 2] = 2.0
        sigma[0, 2] = sigma[2, 0] = 1.0
        f = _singular_cholesky(sigma)
        sig_perm = sigma[np.ix_(f.perm, f.perm)]
        f2 = _singular_cholesky(sig_perm)
        assert np.allclose(f2.C, f.C, atol=1e-12)


    def test_matches_the_reference(self):
        # The staircase keeps each row's coefficients, where the reference
        # divided each row by its block-column entry and kept that entry
        # as a row scale: the same pass otherwise, so rank, order, blocks,
        # entries and scaled rows agree bit for bit.
        for sigma in _staircase_problems():
            f = _singular_cholesky(sigma)
            C_ref, rank, perm, scales, heads, zero_rows = _reference_staircase(sigma)
            assert f.rank == rank
            assert np.array_equal(f.perm, perm)
            assert np.array_equal(f.block_heads, heads)
            assert np.array_equal(f.degenerate_rows, zero_rows)
            n = f.dim - len(zero_rows)
            entries = f.C[np.arange(n), np.repeat(np.arange(rank), f.block_sizes())]
            assert np.array_equal(entries, scales[:n])
            assert np.array_equal(f.C[:n] / entries[:, None], C_ref[:n])
            assert not f.C[n:].any()


def _staircase_problems():
    """Seeded PSD matrices at d from 2 to 39 and random rank, with zero
    rows and rows that are a negative multiple of an earlier row."""
    rng = np.random.default_rng(33)
    for _ in range(150):
        d = int(rng.integers(2, 40))
        A = rng.standard_normal((d, int(rng.integers(1, d + 1))))
        for i in range(1, d):
            u = rng.random()
            if u < 0.1:
                A[i] = 0.0
            elif u < 0.3:
                A[i] = -rng.uniform(0.2, 3.0) * A[rng.integers(0, i)]
        yield A @ A.T


def _reference_staircase(sigma):
    """``_singular_cholesky`` as first written, with a Python loop per
    step: every row divided by its block-column entry, which it returns
    as that row's scale.  Returns the scaled factor, the rank, the order,
    the scales, the block heads and the zero rows."""
    sigma = np.asarray(sigma, dtype=float)
    d = sigma.shape[0]
    diag = np.diag(sigma).astype(float)
    tol_zero = 1e-10 * float(np.abs(diag).max(initial=0.0))
    zero_rows = np.flatnonzero(np.abs(diag) <= tol_zero)
    active = np.flatnonzero(np.abs(diag) > tol_zero)
    m = len(active)
    sub = sigma[np.ix_(active, active)]
    pivots, coeffs, is_pivot = [], np.zeros((m, m)), np.zeros(m, dtype=bool)
    for i in range(m):
        r = len(pivots)
        if r:
            c = solve_triangular(coeffs[np.ix_(pivots, range(r))], sub[pivots, i], lower=True)
        else:
            c = np.zeros(0)
        resid = sub[i, i] - float(c @ c)
        assert resid >= -tol_zero
        coeffs[i, :r] = c
        if resid > tol_zero:
            coeffs[i, r] = np.sqrt(resid)
            is_pivot[i] = True
            pivots.append(i)
    rank = len(pivots)
    tol_col = np.sqrt(tol_zero / max(d, 1))
    last_col = np.empty(m, dtype=int)
    for i in range(m):
        if is_pivot[i]:
            last_col[i] = pivots.index(i)
        else:
            last_col[i] = np.flatnonzero(np.abs(coeffs[i, :rank]) > tol_col)[-1]
            coeffs[i, last_col[i] + 1:] = 0.0
    order, heads = [], []
    for l in range(rank):
        heads.append(len(order))
        order.append(pivots[l])
        order.extend(i for i in range(m) if not is_pivot[i] and last_col[i] == l)
    scales, C = np.ones(d), np.zeros((d, d))
    for pos, i in enumerate(order):
        scales[pos] = coeffs[i, last_col[i]]
        C[pos, :last_col[i] + 1] = coeffs[i, :last_col[i] + 1] / scales[pos]
    return C, rank, np.concatenate([active[order], zero_rows]), scales, heads, zero_rows


class TestMahalanobis:
    def test_zero_at_center(self):
        f = cholesky(random_wishart(4, seed=9))
        mu = np.array([1.0, -2.0, 0.5, 3.0])
        assert mahalanobis_sq(mu, mu, f) == 0.0

    def test_euclidean(self):
        f = cholesky(np.eye(2))
        assert mahalanobis_sq(np.array([3.0, 4.0]), np.zeros(2), f) == pytest.approx(25.0)

    def test_hand_2x2(self):
        # Direct inverse oracle: Sigma = [[4,2],[2,5]], x - mu = (1,1):
        # Sigma^-1 = [[5,-2],[-2,4]]/16, quadratic form = 5/16.
        sigma = np.array([[4.0, 2.0], [2.0, 5.0]])
        f = cholesky(sigma)
        got = mahalanobis_sq(np.ones(2), np.zeros(2), f)
        assert got == pytest.approx(5.0 / 16.0, rel=1e-14)

    def test_matches_direct_inverse(self):
        sigma = random_wishart(8, seed=11)
        f = cholesky(sigma)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((20, 8))
        mu = rng.standard_normal(8)
        direct = np.einsum("ij,jk,ik->i", X - mu, np.linalg.inv(sigma), X - mu)
        assert np.allclose(mahalanobis_sq(X, mu, f), direct, rtol=1e-12)

    def test_permutation_invariance(self):
        sigma = random_wishart(5, seed=13)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(5)
        mu = rng.standard_normal(5)
        p = rng.permutation(5)
        d2 = mahalanobis_sq(x, mu, cholesky(sigma))
        d2p = mahalanobis_sq(x[p], mu[p], cholesky(sigma[np.ix_(p, p)]))
        assert d2p == pytest.approx(d2, rel=1e-12)

    def test_singular_rejected(self):
        f = _singular_cholesky(np.ones((2, 2)))
        with pytest.raises(ValueError, match="full-rank"):
            mahalanobis_sq(np.zeros(2), np.zeros(2), f)

    @pytest.mark.parametrize("shape", [(), (3, 2), (2, 1, 1)])
    def test_points_of_the_wrong_shape_rejected(self, shape):
        f = cholesky(np.eye(1))
        with pytest.raises(ValueError, match=r"points must be a 1-vector or an \(n, 1\) array"):
            mahalanobis_sq(np.zeros(shape), np.zeros(1), f)

    @pytest.mark.parametrize("caller", [
        log_density_batch,
        lambda X, model: closed_log_density(model, X),
    ], ids=["log_density_batch", "closed_log_density"])
    def test_callers_reject_points_of_rank_three(self, caller):
        # A 0-d x is not a point either, not even at d = 1.
        model = NvmModel.build(None, [[1.0]], inverse_gamma(), [3.0])
        for shape in ((2, 1, 1), ()):
            with pytest.raises(ValueError, match=r"points must be a 1-vector or an \(n, 1\) arr"):
                caller(np.zeros(shape), model)
