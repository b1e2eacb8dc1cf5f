import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from nvmix import mixtures
from nvmix.mixtures import (
    InvalidMixtureError,
    blackbox,
    constant,
    inverse_burr,
    inverse_gamma,
    _mean_sqrt_w,
    pareto,
    quantile,
)


class TestQuantile:
    def test_constant(self):
        spec = constant()
        for u in (0.01, 0.5, 0.99):
            assert quantile(spec, u, [1.0]) == 1.0

    def test_inverse_burr_half(self):
        # Direct plug-in: (0.5^-1 - 1)^-1 = 1.
        assert quantile(inverse_burr(), 0.5, [1.0, 1.0]) == pytest.approx(1.0, rel=1e-14)

    def test_inverse_gamma_median(self):
        # Oracle: gamma quantile from scipy.stats; W = (nu/2)/Gamma_q(1-u).
        from scipy.stats import gamma as gamma_dist

        oracle = 1.0 / gamma_dist(a=1.0, scale=1.0).ppf(0.5)
        got = quantile(inverse_gamma(), 0.5, [2.0])
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(1.0 / math.log(2.0), rel=1e-12)

    def test_vectorized(self):
        u = np.linspace(0.01, 0.99, 11)
        w = quantile(pareto(), u, [1.6])
        assert w.shape == u.shape
        assert np.all(w >= 1.0)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.2, 1.5])
    def test_domain_errors(self, u):
        with pytest.raises(ValueError):
            quantile(inverse_gamma(), u, [2.0])

    def test_blackbox_negative_rejected(self):
        spec = blackbox(lambda u, nu: u - 0.5, n_params=0)
        with pytest.raises(InvalidMixtureError):
            quantile(spec, 0.25, [])

    def test_blackbox_matches_builtin(self):
        spec = blackbox(lambda u, nu: (u ** (-1 / nu[1]) - 1) ** (-1 / nu[0]), n_params=2)
        u = np.linspace(0.05, 0.95, 7)
        got = quantile(spec, u, [2.15, 3.61])
        want = quantile(inverse_burr(), u, [2.15, 3.61])
        assert np.allclose(got, want, rtol=1e-14)

    def test_wrong_param_count(self):
        with pytest.raises(ValueError, match="parameter"):
            quantile(inverse_burr(), 0.5, [1.0])


@pytest.mark.parametrize(
    "spec,nu_draw",
    [
        (inverse_gamma(), lambda rng: [rng.uniform(0.3, 10.0)]),
        (pareto(), lambda rng: [rng.uniform(0.3, 10.0)]),
        (inverse_burr(), lambda rng: [rng.uniform(0.3, 6.0), rng.uniform(0.3, 6.0)]),
        (constant(), lambda rng: [rng.uniform(0.1, 5.0)]),
    ],
)
def test_monotone_on_grid(spec, nu_draw):
    rng = np.random.default_rng(2024)
    grid = np.linspace(1e-4, 1.0 - 1e-4, 1000)
    for _ in range(5):
        w = quantile(spec, grid, nu_draw(rng))
        assert np.all(np.diff(w) >= 0.0)
        assert np.all(w >= 0.0)


def test_inverse_gamma_round_trip():
    # Independent CDF: F_IG(w; a, b) = Q(a, b / w) via mpmath's regularized
    # upper incomplete gamma.
    nu = 3.7
    a = b = nu / 2.0
    for u in (1e-6, 0.01, 0.3, 0.5, 0.9, 0.999):
        w = quantile(inverse_gamma(), u, [nu])
        back = float(mpmath.gammainc(a, b / w, mpmath.inf, regularized=True))
        assert back == pytest.approx(u, abs=1e-10)


def test_tails_inverted_from_the_small_probability():
    # u = 1e-20 and 1 - u = 1e-20 are both far below the spacing of
    # doubles near 1, so each tail must be inverted from its own
    # probability; oracles by mpmath at 50 digits.
    a = 2.0
    nu1, nu2 = 2.15, 3.61
    with mpmath.workdps(50):
        w = quantile(inverse_gamma(), 1e-20, [2 * a])
        back = mpmath.gammainc(a, a / w, mpmath.inf, regularized=True)
        assert float(back) == pytest.approx(1e-20, rel=1e-10)
        w = quantile(inverse_gamma(), 1.0, [2 * a], 1e-20)
        back = mpmath.gammainc(a, 0, a / w, regularized=True)
        assert float(back) == pytest.approx(1e-20, rel=1e-10)
        for u, uc in ((1e-300, None), (1 - mpmath.mpf("1e-30"), 1e-30)):
            want = float((mpmath.mpf(u) ** (-1 / mpmath.mpf(nu2)) - 1) ** (-1 / mpmath.mpf(nu1)))
            got = quantile(inverse_burr(), float(u), [nu1, nu2], uc)
            assert got == pytest.approx(want, rel=1e-12)
    assert quantile(pareto(), 1.0, [6.0], 1e-78) == pytest.approx(1e13, rel=1e-12)


@pytest.mark.parametrize(
    "spec,nu",
    [(constant(), [2.0]), (inverse_gamma(), [4.0]), (pareto(), [6.0]),
     (inverse_burr(), [2.0, 2.0])],
    ids=["constant", "inverse_gamma", "pareto", "inverse_burr"],
)
def test_scalar_call_matches_array_element(spec, nu):
    # A batched search and its one-point view must see the same quantile
    # to the last bit, at the listed probabilities and at random logits.
    listed = np.array([1e-300, 1e-17, 0.3, 0.5, 1 - 1e-12])
    rng = np.random.default_rng(5)
    z = np.concatenate([np.log(listed) - np.log1p(-listed), rng.uniform(-40.0, 40.0, 2000)])
    u, uc = expit(z), expit(-z)
    w = quantile(spec, u, nu, uc)
    for i in range(len(z)):
        assert quantile(spec, float(u[i]), nu, float(uc[i])) == w[i]


def test_blackbox_needs_u_below_one():
    spec = blackbox(lambda u, nu: u, n_params=0)
    with pytest.raises(ValueError, match="strictly inside"):
        quantile(spec, 1.0, [], 1e-20)


def test_uc_must_be_one_minus_u():
    for u, uc in ((0.3, 0.3), (0.5, 2.0), (1e-300, np.nextafter(1.0, 2.0))):
        with pytest.raises(ValueError):
            quantile(pareto(), u, [6.0], uc)
    z = np.linspace(-700.0, 700.0, 10001)
    w = quantile(pareto(), expit(z), [6.0], expit(-z))
    assert np.all(np.diff(w) >= 0.0)


class TestMeanSqrtW:
    def test_constant(self):
        assert _mean_sqrt_w(constant(), [4.0]) == 2.0

    def test_inverse_gamma_moment(self):
        # Closed-form moment oracle: E(W^0.5) = sqrt(nu/2) G((nu-1)/2)/G(nu/2).
        nu = 4.0
        oracle = math.sqrt(nu / 2.0) * math.gamma((nu - 1) / 2.0) / math.gamma(nu / 2.0)
        assert oracle == pytest.approx(1.2533, abs=1e-4)
        got = _mean_sqrt_w(inverse_gamma(), [nu], n_pilot=10 ** 5)
        assert got == pytest.approx(oracle, rel=5e-3)

    def test_pareto_moment(self):
        # E(W^k) = alpha/(alpha-k) for k < alpha; k = 1/2, alpha = 2.
        got = _mean_sqrt_w(pareto(), [2.0], n_pilot=10 ** 5)
        assert got == pytest.approx(4.0 / 3.0, rel=5e-3)

    def test_rejects_bad_pilot(self):
        with pytest.raises(ValueError):
            _mean_sqrt_w(pareto(), [2.0], n_pilot=0)


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6), st.floats(min_value=0.2, max_value=20))
@settings(max_examples=200, deadline=None)
def test_pareto_quantile_inverts_cdf(u, alpha):
    # F(w) = 1 - w^-alpha on [1, inf).
    w = quantile(pareto(), u, [alpha])
    assert 1.0 - w ** -alpha == pytest.approx(u, abs=1e-9)
