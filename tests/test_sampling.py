import tracemalloc

import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.special import fdtr, ndtri

from nvmix.mixtures import inverse_gamma, pareto, quantile
from nvmix.model import NvmModel
from nvmix.rqmc import _BLOCK_VALUES, SobolStream
from nvmix.sampling import _U_EPS, rnvmix

# Inversion-Sobol' draws recorded before the Sobol' stream became a bank
# of B randomizations; pinned exactly.  seed=None is the unshifted
# sequence: its second point is 1/2 in every coordinate, so z = 0 and the
# draw is the location.
GOLDEN = {
    7: [[2.2717881804571167, 0.5119873331183267, 4.751779826664859],
        [-0.7229152333959672, -2.1898048897342344, 0.2703519286310261],
        [2.299887324857939, 0.3717557665733884, 0.910909144865012],
        [0.35133143588052107, -1.3306387542130036, -1.1882522627601537]],
    None: [[-1.286145719756398, -2.922679980370538, -1.3505760402734879],
           [1.0, -1.0, 0.5],
           [-0.5003901811003897, -2.2618487697510528, -0.7145271826775075],
           [1.815112455819249, -0.3144792184457388, 1.1598125254361809]],
}


def golden_model():
    S = np.array([[2.0, 0.3, -0.4], [0.3, 1.0, 0.2], [-0.4, 0.2, 1.5]])
    return NvmModel.build([1.0, -1.0, 0.5], S, inverse_gamma(), [3.0])


def test_inversion_sobol_golden_values():
    for seed, want in GOLDEN.items():
        got = rnvmix(4, golden_model(), seed=seed, method="inversion-sobol")
        assert np.array_equal(got, np.array(want)), seed


# Pseudo-random draws recorded before rnvmix was blocked; pinned exactly.
GOLDEN_PSEUDO = {
    7: [[3.3414981736383145, 0.31973185180485264, -0.8512722422123797],
        [2.463208708553706, -3.0425432211689545, 0.5586093454233505],
        [0.8045910801521254, -1.8947511955595875, -0.8684769517168931],
        [0.8321405096790231, -1.0156037087796412, 0.6704468936126523]],
    11: [[0.9981386644817484, -0.8175035395458048, -1.054920983577308],
         [2.5489796912897065, -1.845388696835741, -1.0839378986361174],
         [2.266915225064377, -1.753354603238586, 0.08549244363639891],
         [-0.16129789122538507, -2.6390709210961787, 1.6113783437597176]],
}


def test_pseudo_golden_values():
    for seed, want in GOLDEN_PSEUDO.items():
        got = rnvmix(4, golden_model(), seed=seed, method="pseudo")
        assert np.array_equal(got, np.array(want)), seed


def random_scale(d, rank, seed):
    B = np.random.default_rng(seed).standard_normal((d, rank))
    return B @ B.T + (0.5 * np.eye(d) if rank == d else 0.0)


MODELS = {
    "full-d10": lambda: NvmModel.build(np.linspace(-1.0, 2.0, 10), random_scale(10, 10, 1),
                                       pareto(), [2.5]),
    "rank3-d7": lambda: NvmModel.build(np.linspace(-1.0, 1.0, 7), random_scale(7, 3, 2),
                                       inverse_gamma(), [3.0]),
}
METHODS = ("pseudo", "inversion-sobol")


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", MODELS)
def test_blocks_equal_whole_array_pass(name, method):
    # Every n around the block boundaries gives exactly the draws of one
    # whole-array pass over the same uniforms.
    model = MODELS[name]()
    A = model.factor.mixing_matrix()
    r = A.shape[1]
    step = _BLOCK_VALUES // (r + 1)
    for n in (1, step - 1, step, step + 1, 3 * step + 5):
        if method == "pseudo":
            u = np.random.default_rng(5).random((n, r + 1))
        else:
            u = SobolStream(r + 1, seed=5).take(n)[0]
        u = np.clip(u, _U_EPS, 1.0 - _U_EPS)
        w = quantile(model.spec, u[:, 0], model.nu)
        want = model.loc + np.sqrt(w)[:, None] * (ndtri(u[:, 1:]) @ A.T)
        assert np.array_equal(rnvmix(n, model, seed=5, method=method), want), n


@pytest.mark.parametrize("method", METHODS)
def test_memory_is_output_plus_one_block(method):
    # The traced peak of a call is its (n, d) output plus a few blocks of
    # uniforms and normals (15.3 MiB and about 1 MiB); one whole-array
    # pass over the same draws peaks at 65.7 MiB.
    model, n = MODELS["full-d10"](), 200_000
    rnvmix(10, model, seed=1, method=method)  # lazy imports and tables
    tracemalloc.start()
    try:
        rnvmix(n, model, seed=1, method=method)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * model.dim * 8 + 8 * 2 ** 20


@pytest.mark.parametrize("method", METHODS)
def test_t3_draws_follow_the_f_law(method):
    # Under a t_3 model D2 / d is F(d, 3): the empirical P(D2 <= t) of
    # the draws is within 10 binomial standard errors at every t.
    d, n, nu = 4, 20_000, 3.0
    S = random_scale(d, d, 3)
    loc = np.arange(d, dtype=float)
    x = rnvmix(n, NvmModel.build(loc, S, inverse_gamma(), [nu]), seed=8, method=method)
    y = x - loc
    d2 = np.einsum("ij,ij->i", y, np.linalg.solve(S, y.T).T)
    for t in (0.5, 2.0, 5.0, 10.0, 30.0, 100.0):
        p = fdtr(d, nu, t / d)
        assert abs(np.mean(d2 <= t) - p) <= 10.0 * np.sqrt(p * (1.0 - p) / n), t


@pytest.mark.parametrize("method", METHODS)
def test_rank_deficient_draws_lie_in_the_column_space(method):
    # For a rank-3 scale in d = 7, x - loc has no component in the null
    # space of the scale, up to rounding.
    model = MODELS["rank3-d7"]()
    N = null_space(model.scale)
    assert N.shape == (7, 4)
    y = rnvmix(5000, model, seed=9, method=method) - model.loc
    size = np.linalg.norm(y, axis=1) + np.linalg.norm(model.loc)
    assert np.all(np.abs(y @ N).max(axis=1) <= 64 * np.finfo(float).eps * size)
