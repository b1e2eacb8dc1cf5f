"""Cholesky factorizations (full-rank and rank-deficient) and Mahalanobis
distances.

The rank-deficient path produces the permuted staircase form needed by
the singular box-probability integrand: rows are grouped into blocks by
the last pivot column they load on.  Variables of zero variance, to the
tolerance, carry no pivot at all and are reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

__all__ = []

# The staircase factorization takes a residual variance of at most this
# times the largest absolute diagonal entry as zero; a full Cholesky
# factor is kept only while every squared pivot exceeds this times its
# own row's variance.
_REL_TOL_ZERO = 1e-10


@dataclass(frozen=True)
class _ScaleFactor:
    """Lower-triangular factor of a scale matrix, possibly rank-deficient.

    Attributes
    ----------
    C : ndarray, shape (d, d)
        Lower-triangular factor: ``C @ C.T`` is the scale matrix in
        ``perm`` order.  In the singular case its rows are in staircase
        form: each row's last nonzero entry lies in its block's column
        (that entry may be negative), and only the first ``rank`` columns
        are nonzero.
    rank : int
        Number of pivot columns r (= d when full rank).
    perm : ndarray
        ``perm[i]`` is the original index of permuted row ``i``.
    block_heads : ndarray, shape (rank,)
        First (permuted) row index of each pivot block.
    degenerate_rows : ndarray
        Original indices, in increasing order, of the variables taken as
        of zero variance: a variance at most the zero tolerance, or a
        dependent row that loads on no pivot above the floor, whose
        variance is at most about twice that tolerance.  Empty unless
        the input had such rows; they sit as zero rows at the bottom of
        ``C`` outside any block.
    """

    C: np.ndarray
    rank: int
    perm: np.ndarray
    block_heads: np.ndarray
    degenerate_rows: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))

    @property
    def dim(self) -> int:
        return self.C.shape[0]

    @property
    def is_full_rank(self) -> bool:
        return self.rank == self.dim and len(self.degenerate_rows) == 0

    @property
    def log_det(self) -> float:
        """log |Sigma| (full rank only)."""
        if not self.is_full_rank:
            raise ValueError("log_det requires a full-rank factor")
        return float(2.0 * np.sum(np.log(np.diag(self.C))))

    def block_sizes(self) -> np.ndarray:
        n_blocked = self.dim - len(self.degenerate_rows)
        ends = np.append(self.block_heads[1:], n_blocked)
        return ends - self.block_heads

    def mixing_matrix(self) -> np.ndarray:
        """d x rank matrix A with A A^T equal to the scale matrix, rows in
        original order (the sampling factor)."""
        return self.C[np.argsort(self.perm), : self.rank]

    def reconstruct(self) -> np.ndarray:
        """Rebuild the scale matrix from the factor."""
        A = self.mixing_matrix()
        return A @ A.T


def _check_square_symmetric(sigma: np.ndarray) -> None:
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError("scale matrix must be square")
    if not np.all(np.isfinite(sigma)):
        raise ValueError("scale matrix must be finite")
    if not np.allclose(sigma, sigma.T, rtol=1e-10, atol=1e-12):
        raise ValueError("scale matrix must be symmetric")


def cholesky(sigma: np.ndarray) -> _ScaleFactor:
    """Cholesky factor of a symmetric positive-semidefinite matrix: a
    matrix that is not positive definite goes to
    :func:`_singular_cholesky`, and so does one whose factor has a
    squared pivot at most ``_REL_TOL_ZERO`` times its row's variance.
    Such a pivot, the share of a variable the earlier ones leave
    unexplained, is rounding: the scale is singular.  The test does not
    depend on the variables' units, and a pivot it rejects is also below
    the staircase's zero tolerance."""
    sigma = np.asarray(sigma, dtype=float)
    _check_square_symmetric(sigma)
    d = sigma.shape[0]
    try:
        C = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        return _singular_cholesky(sigma)
    if np.any(np.diag(C) ** 2 <= _REL_TOL_ZERO * np.diag(sigma)):
        return _singular_cholesky(sigma)
    return _ScaleFactor(
        C=C,
        rank=d,
        perm=np.arange(d),
        block_heads=np.arange(d),
    )


def _singular_cholesky(sigma: np.ndarray) -> _ScaleFactor:
    """Staircase factorization of a positive-semidefinite matrix.

    A matrix with an eigenvalue below minus 1e-10 times its largest
    absolute diagonal entry raises ``ValueError``: it is not positive
    semidefinite.  Rows are then processed in natural order; a row whose
    residual variance is at most that tolerance is dependent and is filed
    behind the pivot of the last column it loads on, its block column,
    with its entries after that column set to zero.  A dependent row that
    loads on no pivot joins the degenerate rows.  Full-rank inputs come
    out unpermuted, a factor of the matrix as :func:`cholesky` makes it.
    """
    sigma = np.asarray(sigma, dtype=float)
    _check_square_symmetric(sigma)
    d = sigma.shape[0]
    diag = np.diag(sigma)
    diag_max = float(np.abs(diag).max(initial=0.0))
    if diag_max <= 0.0:
        raise ValueError("scale matrix has rank 0")
    tol_zero = _REL_TOL_ZERO * diag_max
    if np.linalg.eigvalsh(sigma)[0] < -tol_zero:
        raise ValueError("scale matrix is not positive semidefinite")

    zero_rows = np.flatnonzero(np.abs(diag) <= tol_zero)
    active = np.flatnonzero(np.abs(diag) > tol_zero)
    m = len(active)
    sub = sigma[np.ix_(active, active)]

    # One pass in natural order: each row's coefficients on the pivots
    # found so far come from a triangular solve; residual variance above
    # the tolerance creates a new pivot.
    pivots: list[int] = []
    coeffs = np.zeros((m, m))
    for i in range(m):
        r = len(pivots)
        c = solve_triangular(coeffs[np.ix_(pivots, range(r))], sub[pivots, i], lower=True)
        resid = sub[i, i] - float(c @ c)
        coeffs[i, :r] = c
        if resid > tol_zero:
            coeffs[i, r] = np.sqrt(resid)
            pivots.append(i)
    rank = len(pivots)

    # A row's block column is the last whose entry clears the floor; a
    # pivot's own entry, above sqrt(tol_zero), always does.  A dependent
    # row that clears it on no pivot is degenerate: its residual is at
    # most tol_zero and its squared entries sum to less, so its variance
    # is at most about 2 tol_zero.
    loads = np.abs(coeffs[:, :rank]) > np.sqrt(tol_zero / d)
    blocked = loads.any(axis=1)
    last_col = rank - 1 - np.argmax(loads[:, ::-1], axis=1)
    coeffs[np.arange(m) > last_col[:, None]] = 0.0
    degenerate = np.union1d(zero_rows, active[~blocked])

    # Staircase order: a block's pivot precedes the rows that load on it,
    # since a row loads only on pivots found before it.
    rows = np.flatnonzero(blocked)
    order = rows[np.argsort(last_col[rows], kind="stable")]
    C = np.zeros((d, d))
    C[:len(order), :m] = coeffs[order]
    return _ScaleFactor(
        C=C,
        rank=rank,
        perm=np.concatenate([active[order], degenerate]),
        block_heads=np.searchsorted(last_col[order], np.arange(rank)),
        degenerate_rows=degenerate,
    )


def mahalanobis_sq(x: np.ndarray, mu: np.ndarray, factor: _ScaleFactor) -> np.ndarray | float:
    """Squared Mahalanobis distance via a triangular solve.

    ``x`` may be a single d-vector or an (n, d) batch; any other shape
    raises ``ValueError``.  Requires a full-rank factor: the quadratic
    form does not exist otherwise.
    """
    if not factor.is_full_rank:
        raise ValueError("mahalanobis_sq requires a full-rank scale factor")
    x = np.asarray(x, dtype=float)
    d = factor.dim
    if x.ndim not in (1, 2) or x.shape[-1] != d:
        raise ValueError(f"points must be a {d}-vector or an (n, {d}) array, not shape {x.shape}")
    mu = np.asarray(mu, dtype=float)
    single = x.ndim == 1
    diff = np.atleast_2d(x) - mu[None, :]
    z = solve_triangular(factor.C, diff.T, lower=True)
    d2 = np.einsum("ij,ij->j", z, z)
    if single:
        return float(d2[0])
    return d2
