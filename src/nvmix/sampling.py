"""Sampling from normal variance mixtures via the stochastic
representation: X = loc + sqrt(W) A Z."""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .mixtures import quantile
from .model import NvmModel
from .rqmc import SobolStream

__all__ = ["rnvmix"]

_U_EPS = 1e-16


def rnvmix(n: int, model: NvmModel, seed: int | None = None,
           method: str = "pseudo") -> np.ndarray:
    """Draw ``n`` variates from the mixture model as an (n, d) array.

    Both drivers share one inversion code path: a uniform block of shape
    (n, rank+1) is generated (pseudo-random or digitally-shifted Sobol'),
    the first column is inverted to the mixing variable and the rest to
    standard normals.  Deterministic for a fixed seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if method not in ("pseudo", "inversion-sobol"):
        raise ValueError("method must be 'pseudo' or 'inversion-sobol'")
    A = model.factor.mixing_matrix()
    r = A.shape[1]

    if method == "pseudo":
        u = np.random.default_rng(seed).random((n, r + 1))
    else:
        u = SobolStream(r + 1, seed=seed).take(n)[0]

    u = np.clip(u, _U_EPS, 1.0 - _U_EPS)
    w = np.asarray(quantile(model.spec, u[:, 0], model.nu), dtype=float)
    z = ndtri(u[:, 1:])
    return model.loc[None, :] + np.sqrt(w)[:, None] * (z @ A.T)
