import numpy as np
import pytest

from nvmix.density import closed_log_density, log_density_batch
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
        # Single column of ones (unit scaling leaves it unchanged).
        assert np.allclose(f.C[:, 0], 1.0)
        assert np.allclose(f.row_scales, 1.0)
        assert np.allclose(f.reconstruct(), np.ones((3, 3)), atol=1e-8)

    def test_full_rank_consistency(self):
        sigma = random_wishart(6, seed=3)
        f = _singular_cholesky(sigma)
        plain = cholesky(sigma)
        assert f.rank == 6
        assert np.array_equal(f.perm, np.arange(6))
        # Identical up to the unit-pivot row scaling.
        assert np.allclose(f.C * f.row_scales[:, None], plain.C, rtol=1e-9, atol=1e-12)
        assert np.allclose(f.reconstruct(), sigma, atol=1e-8)

    def test_zero_variance_row_moved_last(self):
        f = _singular_cholesky(np.diag([1.0, 0.0, 1.0]))
        assert f.rank == 2
        assert np.array_equal(f.perm, [0, 2, 1])
        assert np.array_equal(f.degenerate_rows, [1])
        assert np.allclose(f.reconstruct(), np.diag([1.0, 0.0, 1.0]), atol=1e-10)

    def test_negative_scale_handled(self):
        sigma = np.array([[1.0, -1.0], [-1.0, 1.0]])
        f = _singular_cholesky(sigma)
        assert f.rank == 1
        assert f.row_scales[1] == pytest.approx(-1.0)
        assert np.allclose(f.C[:, 0], 1.0)  # scaled pivots are unit
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
