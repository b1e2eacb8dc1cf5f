"""Sampling from normal variance mixtures via the stochastic
representation: X = loc + sqrt(W) A Z.

The draws are formed in blocks of rows whose uniforms fit in cache: each
block draws its uniforms, inverts them and writes its rows of the output,
so a call needs the output plus one block of memory.  Both drivers
continue one stream from block to block, so the draws do not depend on
the block size.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .mixtures import quantile
from .model import NvmModel
from .rqmc import _BLOCK_VALUES, _SobolStream

__all__ = ["rnvmix"]

_U_EPS = 1e-16


def rnvmix(n: int, model: NvmModel, seed: int | None = None,
           method: str = "pseudo") -> np.ndarray:
    """Draw ``n`` variates from the mixture model as an (n, d) array.

    Both drivers share one inversion code path: uniforms of shape
    (rows, rank+1) are generated block by block (pseudo-random or
    digitally-shifted Sobol'), the first column is inverted to the mixing
    variable and the rest to standard normals.  The blocks continue one
    stream, so the draws equal those of a single whole-array pass, and
    memory is the output plus one block.  Deterministic for a fixed seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if method not in ("pseudo", "inversion-sobol"):
        raise ValueError("method must be 'pseudo' or 'inversion-sobol'")
    A = model.factor.mixing_matrix()
    r = A.shape[1]

    if method == "pseudo":
        rng = np.random.default_rng(seed)
        draw = lambda k: rng.random((k, r + 1))
    else:
        stream = _SobolStream(r + 1, seed=seed)
        draw = lambda k: stream.take(k)[0]

    x = np.empty((n, model.dim))
    # Blocks of equal size: BLAS takes another path for a one-row product,
    # which may round differently, so no block is tiny unless n is.
    blocks = -(-n // max(1, _BLOCK_VALUES // (r + 1)))
    bounds = [i * n // blocks for i in range(blocks + 1)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        u = draw(hi - lo)
        np.clip(u, _U_EPS, 1.0 - _U_EPS, out=u)
        w = quantile(model.spec, u[:, 0], model.nu)
        out = x[lo:hi]
        np.matmul(ndtri(u[:, 1:]), A.T, out=out)
        out *= np.sqrt(w)[:, None]
        out += model.loc
    return x
