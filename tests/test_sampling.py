import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.special import fdtr, ndtri

from nvmix import sampling
from nvmix.mixtures import inverse_gamma, pareto, quantile
from nvmix.model import NvmModel
from nvmix.rqmc import _BLOCK_VALUES, _SobolStream
from nvmix.sampling import _U_EPS, rnvmix

# Inversion-Sobol' draws recorded before the Sobol' stream became a bank
# of B randomizations; pinned exactly.
GOLDEN = {
    7: [[2.2717881804571167, 0.5119873331183267, 4.751779826664859],
        [-0.7229152333959672, -2.1898048897342344, 0.2703519286310261],
        [2.299887324857939, 0.3717557665733884, 0.910909144865012],
        [0.35133143588052107, -1.3306387542130036, -1.1882522627601537]],
}


def golden_model():
    S = np.array([[2.0, 0.3, -0.4], [0.3, 1.0, 0.2], [-0.4, 0.2, 1.5]])
    return NvmModel.build([1.0, -1.0, 0.5], S, inverse_gamma(), [3.0])


def test_inversion_sobol_golden_values():
    for seed, want in GOLDEN.items():
        got = rnvmix(4, golden_model(), seed=seed, method="inversion-sobol")
        assert np.array_equal(got, np.array(want)), seed


@pytest.mark.parametrize("method", ["pseudo", "inversion-sobol"])
def test_no_seed_draws_afresh(method):
    # seed=None means fresh randomness under both drivers, as in
    # numpy.random.default_rng(None): two calls differ, and no Sobol' draw
    # is the unshifted sequence's, whose second point is the location.
    a, b = (rnvmix(4, golden_model(), seed=None, method=method) for _ in range(2))
    assert not np.any(a == b)
    assert not np.any(np.all(a == golden_model().loc, axis=1))


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


@pytest.mark.parametrize("n", [0, -1, 2.5, 3.0, True, "4"])
def test_n_must_be_an_integer_of_at_least_one(n):
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        rnvmix(n, golden_model(), seed=7)


def test_a_numpy_integer_n_is_accepted():
    assert np.array_equal(rnvmix(np.int64(4), golden_model(), seed=7),
                          rnvmix(4, golden_model(), seed=7))


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
            u = _SobolStream(r + 1, seed=5).take(n)[0]
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


def cpus(monkeypatch, k):
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: k)


CPU_COUNT_CASES = {
    # About 17 blocks.
    "full-d10": lambda: (MODELS["full-d10"](), 100_003),
    # Three blocks of rows whose products, 5957 rows at a time, OpenBLAS
    # rounds otherwise than in slices of 87 rows.
    "rank10-d300": lambda: (NvmModel.build(None, random_scale(300, 10, 3), pareto(), [2.5]),
                            11_919),
}


def test_usable_cpus_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(sampling.os, "sched_getaffinity", raising=False)
    assert sampling._usable_cpus() == (sampling.os.cpu_count() or 1)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("case", CPU_COUNT_CASES)
def test_draws_do_not_depend_on_the_cpu_count(monkeypatch, case, method):
    # One CPU finishes the blocks on the calling thread, two or more on a
    # pool; both multiply in the same slices.
    model, n = CPU_COUNT_CASES[case]()
    draws = []
    for k in (1, 2, 5):
        cpus(monkeypatch, k)
        draws.append(rnvmix(n, model, seed=3, method=method))
    assert np.array_equal(draws[0], draws[1])
    assert np.array_equal(draws[0], draws[2])


def test_the_pool_lives_for_the_call_and_quantile_stays_on_the_caller(monkeypatch):
    # The mixing draws come from the calling thread while the pool's
    # threads are up; after the call every pool thread has been joined.
    cpus(monkeypatch, 2)
    seen = []

    def traced_quantile(*args, **kwargs):
        seen.append((threading.get_ident(), threading.active_count()))
        return quantile(*args, **kwargs)

    monkeypatch.setattr(sampling, "quantile", traced_quantile)
    before = threading.active_count()
    rnvmix(100_000, MODELS["full-d10"](), seed=4)
    assert threading.active_count() == before
    assert {ident for ident, _ in seen} == {threading.get_ident()}
    assert max(count for _, count in seen) > before


def test_concurrent_calls_return_the_draws_of_sequential_calls(monkeypatch):
    # More calling threads than CPUs, each with its own pool, switching
    # often: every call returns exactly its sequential draws.
    cpus(monkeypatch, 2)
    model, n = MODELS["full-d10"](), 40_000
    jobs = [(seed, method) for seed in (1, 2) for method in METHODS]
    want = [rnvmix(n, model, seed=seed, method=method) for seed, method in jobs]
    got = [None] * len(jobs)

    def run(i):
        seed, method = jobs[i]
        got[i] = rnvmix(n, model, seed=seed, method=method)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(len(jobs)):
        assert np.array_equal(got[i], want[i]), jobs[i]
