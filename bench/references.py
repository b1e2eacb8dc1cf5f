"""Exact references computed without nvmix, and their start-up check.

- Lower orthant at 0 under equicorrelation 1/2: 1/(d+1) for every normal
  variance mixture (the orthant probability does not depend on W).
- d = 1 inverse-gamma boxes: ``scipy.stats.t.cdf``.
- Inverse-gamma log-density: ``scipy.stats.multivariate_t.logpdf``.
- Pareto(alpha) log-density (W >= 1, P(W > w) = w^-alpha): with
  z = alpha + d/2 and m = D2/2,
  log f = -(d/2) log 2 pi - log|S|/2 + log alpha - z log m
          + log Gamma(z) + log P(z, m),
  P being the regularized lower incomplete gamma function.
- P(D2 <= t) for Pareto draws: one-dimensional quadrature of the chi^2
  CDF against the Pareto law.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, stats
from scipy.special import gammainc, gammaln


def orthant_equicorr(d: int) -> float:
    return 1.0 / (d + 1.0)


def t_box(a: float, b: float, scale_sd: float, df: float) -> float:
    return float(stats.t.cdf(b / scale_sd, df) - stats.t.cdf(a / scale_sd, df))


def t_logpdf(X, loc, scale, df: float) -> np.ndarray:
    return np.atleast_1d(stats.multivariate_t.logpdf(X, loc, scale, df=df))


def pareto_logpdf(X, loc, scale, alpha: float) -> np.ndarray:
    X = np.atleast_2d(X)
    d = X.shape[1]
    L = np.linalg.cholesky(scale)
    z = np.linalg.solve(L, (X - loc).T)
    m = 0.5 * np.einsum("ij,ij->j", z, z)
    shape = alpha + 0.5 * d
    log_det = 2.0 * np.sum(np.log(np.diag(L)))
    return (-0.5 * d * math.log(2.0 * math.pi) - 0.5 * log_det + math.log(alpha)
            - shape * np.log(m) + gammaln(shape) + np.log(gammainc(shape, m)))


def pareto_d2_cdf(t: float, d: int, alpha: float) -> float:
    """P(D2 <= t) where D2 = W chi^2_d and W ~ Pareto(alpha) on [1, inf)."""
    val, _ = integrate.quad(
        lambda w: stats.chi2.cdf(t / w, d) * alpha * w ** (-alpha - 1.0),
        1.0, np.inf, epsabs=1e-12, epsrel=1e-10, limit=200)
    return float(val)


def check_against_nvmix(nv) -> list[str]:
    """Compare each reference with nvmix's closed forms on a few points;
    returns the disagreements (empty when all agree)."""
    problems = []
    rng = np.random.default_rng(20191107)

    def expect(label, got, want, tol):
        err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
        if not err <= tol:
            problems.append(f"{label}: max deviation {err:.3g} > {tol:g}")

    # Equicorrelation orthant: Sheppard's d = 2 and d = 3 closed forms,
    # and the d = 2 quadrant integral of nvmix's closed t density.
    expect("orthant d=2", orthant_equicorr(2), 0.25 + math.asin(0.5) / (2 * math.pi), 1e-15)
    expect("orthant d=3", orthant_equicorr(3), 0.125 + 3 * math.asin(0.5) / (4 * math.pi), 1e-15)
    R2 = np.array([[1.0, 0.5], [0.5, 1.0]])
    t2 = nv.NvmModel.build(None, R2, nv.mixtures.inverse_gamma(), [3.0])
    quad2, _ = integrate.dblquad(
        lambda y, x: math.exp(nv.density.closed_log_density(t2, np.array([x, y]))),
        -np.inf, 0.0, -np.inf, 0.0, epsabs=1e-10)
    expect("orthant d=2 vs closed t density", orthant_equicorr(2), quad2, 1e-7)

    # d = 1 t box against the integral of nvmix's closed density.
    t1 = nv.NvmModel.build(None, [[2.25]], nv.mixtures.inverse_gamma(), [3.0])
    quad1, _ = integrate.quad(
        lambda x: math.exp(nv.density.closed_log_density(t1, np.array([x]))),
        -0.7, 2.1, epsabs=1e-13)
    expect("t.cdf box", t_box(-0.7, 2.1, 1.5, 3.0), quad1, 1e-10)

    d = 6
    A = rng.standard_normal((d, d + 2))
    S = A @ A.T / d
    loc = rng.standard_normal(d)
    X = loc + rng.standard_normal((5, d)) * np.array([[0.1], [1.0], [3.0], [10.0], [100.0]])
    ig = nv.NvmModel.build(loc, S, nv.mixtures.inverse_gamma(), [4.0])
    expect("multivariate_t.logpdf", t_logpdf(X, loc, S, 4.0),
           nv.density.closed_log_density(ig, X), 1e-11)
    par = nv.NvmModel.build(loc, S, nv.mixtures.pareto(), [2.5])
    expect("Pareto closed form", pareto_logpdf(X, loc, S, 2.5),
           nv.density.closed_log_density(par, X), 1e-11)
    return problems
