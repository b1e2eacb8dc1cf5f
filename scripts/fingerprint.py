"""SHA-256 fingerprints of nvmix's fixed-seed results over a fixed sweep.

Prints one digest each for ``prob``, ``prob_singular``,
``log_integral_batch`` (twice: on smooth mixtures, one piece each, and on
a mixture whose quantile jumps, which is split into two pieces) and
``rnvmix``.  A result digest hashes the bytes of ``estimate``,
``error_estimate``, ``n_per_randomization``, ``iterations_used`` and
``converged`` of every call, row by row for a batch call; the
``rnvmix`` digest hashes the raw bytes of every draw.  Two checkouts
whose digests agree computed bit-identical numbers over the sweep:

* ``prob``: constant, IG(3), Pareto(2.5) and inverse-Burr(2, 2) mixtures
  with equicorrelation-0.5 scale at d in {1, 2, 5, 20, 50}, over orthant,
  upper-open, finite, mixed and far boxes, seeds 1 and 17;
* ``prob_singular``: rank 3, 5 and 8 staircases with negative loadings,
  IG(3) and inverse-Burr(2, 2), the same boxes and seeds;
* ``log_integral_batch``: IG(4), Pareto(6) and inverse-Burr(2, 2) at
  d in {2, 10} over D2 in [0, 1e10] (a call that raises counts with its
  message, and its rows at D2 > 0 count as one call);
* ``log_integral_pieces``: ``log_integral_batch`` for a black box whose W
  jumps from 1 to 4 at u = 0.3, whose pieces meet at the jump, at d in
  {3, 10} over the same D2;
* ``rnvmix``: both drivers on a full-rank and a singular model.

Run from the root of a checkout (under a minute)::

    PYTHONPATH=src python3 scripts/fingerprint.py

To compare with another commit, check it out next to this one and run
this script against its sources::

    git worktree add ../nvmix-base <commit>
    PYTHONPATH=../nvmix-base/src python3 scripts/fingerprint.py
    git worktree remove ../nvmix-base
"""

import hashlib
import struct

import numpy as np

from nvmix import (NvmModel, RqmcConfig, blackbox, constant, inverse_burr, inverse_gamma, pareto,
                   prob, rnvmix)
from nvmix.density import log_integral_batch
from nvmix.distribution import prob_singular
from nvmix.mixtures import _WReader

INF = float("inf")
SEEDS = (1, 17)
KINDS = ("orthant", "upper", "finite", "mixed", "far")
# Tight enough that most calls take several batches; far boxes ask for a
# relative error, as their probabilities are small.
CFG = {kind: RqmcConfig(tol=1e-4) for kind in KINDS}
CFG["far"] = RqmcConfig(tol=1e-2, tol_type="relative")
D2 = np.array([0.0, 1e-8, 0.5, 640.0, 1.6e4, 2e5, 1e8, 1e10])
# W = 1 below u = 0.3 and 4 above: a quantile that jumps, so that the
# density's rows are integrated on two pieces.
JUMP = blackbox(lambda u, nu: np.where(u < 0.3, 1.0, 4.0), 0)


def _equicorrelation(d, rho=0.5):
    R = np.full((d, d), rho)
    np.fill_diagonal(R, 1.0)
    return R


def _staircase(r):
    # r factors and r more variables, each loading on two neighbouring
    # factors with alternating signs.
    L = np.diag([(-1.0) ** i * (0.6 + 0.1 * i) for i in range(r)])
    L[np.arange(1, r), np.arange(r - 1)] = 0.4
    T = np.vstack([np.eye(r), L])
    return T @ _equicorrelation(r, 0.3) @ T.T


def _box(kind, d):
    rng = np.random.default_rng(100 + d)
    lo, hi = -rng.uniform(0.2, 2.5, d), rng.uniform(0.2, 2.5, d)
    if kind == "orthant":
        return np.full(d, -INF), np.zeros(d)
    if kind == "upper":
        return lo, np.full(d, INF)
    if kind == "far":
        return np.full(d, 2.0), np.full(d, INF)
    if kind == "mixed":
        side = np.arange(d) % 4
        lo[(side == 1) | (side == 3)] = -INF
        hi[(side == 2) | (side == 3)] = INF
    return lo, hi


def _update(h, result):
    h.update(struct.pack("<ddqq?", result.estimate, result.error_estimate,
                         result.n_per_randomization, result.iterations_used,
                         result.converged))


def prob_digest():
    h = hashlib.sha256()
    families = [(constant(), [1.0]), (inverse_gamma(), [3.0]), (pareto(), [2.5]),
                (inverse_burr(), [2.0, 2.0])]
    for spec, nu in families:
        for d in (1, 2, 5, 20, 50):
            model = NvmModel.build(None, _equicorrelation(d), spec, nu)
            for kind in KINDS:
                for seed in SEEDS:
                    _update(h, prob(*_box(kind, d), model, CFG[kind], seed))
    return h.hexdigest()


def prob_singular_digest():
    h = hashlib.sha256()
    for spec, nu in ((inverse_gamma(), [3.0]), (inverse_burr(), [2.0, 2.0])):
        for r in (3, 5, 8):
            model = NvmModel.build(None, _staircase(r), spec, nu)
            assert model.factor.rank == r
            for kind in KINDS:
                for seed in SEEDS:
                    _update(h, prob_singular(*_box(kind, 2 * r), model, CFG[kind], seed))
    return h.hexdigest()


def _log_integral_update(h, w, d):
    pref = -0.5 * d * np.log(2.0 * np.pi)
    try:
        results = log_integral_batch(D2, d / 2.0, pref, w)
    except ValueError as exc:  # inverse-Burr diverges at D2 = 0, d = 10
        h.update(str(exc).encode())
        results = log_integral_batch(D2[1:], d / 2.0, pref, w)
    for res in results:
        _update(h, res)


def log_integral_digest():
    h = hashlib.sha256()
    for spec, nu in ((inverse_gamma(), [4.0]), (pareto(), [6.0]),
                     (inverse_burr(), [2.0, 2.0])):
        for d in (2, 10):
            _log_integral_update(h, _WReader(spec, nu), d)
    return h.hexdigest()


def log_integral_pieces_digest():
    h = hashlib.sha256()
    for d in (3, 10):
        _log_integral_update(h, _WReader(JUMP, []), d)
    return h.hexdigest()


def rnvmix_digest():
    h = hashlib.sha256()
    models = [NvmModel.build(np.arange(6.0), _equicorrelation(6), pareto(), [2.5]),
              NvmModel.build(None, _staircase(3), inverse_gamma(), [3.0])]
    for model in models:
        for method in ("pseudo", "inversion-sobol"):
            for seed in SEEDS:
                h.update(rnvmix(20000, model, seed=seed, method=method).tobytes())
    return h.hexdigest()


def main():
    for name, digest in (("prob", prob_digest), ("prob_singular", prob_singular_digest),
                         ("log_integral_batch", log_integral_digest),
                         ("log_integral_pieces", log_integral_pieces_digest),
                         ("rnvmix", rnvmix_digest)):
        print(f"{name:20s} {digest()}", flush=True)


if __name__ == "__main__":
    main()
