"""Sampling from normal variance mixtures via the stochastic
representation: X = loc + sqrt(W) A Z.

The draws are formed in blocks of rows whose uniforms fit in cache.  The
calling thread draws each block in stream order, clips it and inverts its
first column to the mixing variable W.  Both drivers continue one stream
from block to block, so the draws do not depend on the block size.  The
rest of a block turns it into its rows of the output: ``ndtri`` of the
other columns, the product with ``A.T``, the sqrt(W) scale and the
location.

When a row's product has at most ``_POOL_MAX_MACS_PER_ROW``
multiply-adds, that step runs on a thread pool created for the call and
sized by the CPUs the process may use, with at most two blocks per
worker in flight: a call needs the output plus about 2 MB per worker.
The product is taken in equal row slices small enough that OpenBLAS
keeps each to one thread.  With one block or one CPU the calling thread
finishes the blocks itself, in the same slices, so the draws do not
depend on the CPU count.  Larger rows take one product per block on the
calling thread, which OpenBLAS spreads over the cores.
"""

from __future__ import annotations

import numbers
import os
from collections import deque

import numpy as np
from scipy.special import ndtri

from .mixtures import quantile
from .model import NvmModel
from .rqmc import _BLOCK_VALUES, _SobolStream

__all__ = ["rnvmix"]

_U_EPS = 1e-16
# The OpenBLAS in numpy's wheels runs a product of at most this many
# multiply-adds on one thread.  Another BLAS may thread it inside each
# worker and oversubscribe the CPUs; that the draws do not depend on the
# CPU count is checked on OpenBLAS only.
_SLICE_MACS = 2 ** 18
# Above this many multiply-adds per row the product dominates a block,
# and OpenBLAS spreads one product per block over the cores faster than
# the pool runs its slices (measured on two cores: the pool gained at
# d <= 128 and lost at d = 176).
_POOL_MAX_MACS_PER_ROW = 2 ** 14


def _spans(n: int, size: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` bounds of the fewest equal spans of at most ``size``
    covering ``range(n)``.  Equal spans keep every one large: BLAS takes
    another path for a one-row product, which may round differently."""
    k = -(-n // size)
    bounds = [i * n // k for i in range(k + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _usable_cpus() -> int:
    """The CPUs this process may run on, or all of them where the
    platform does not say.  A CPU quota is not seen."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _finish(out: np.ndarray, u: np.ndarray, w: np.ndarray, A: np.ndarray,
            loc: np.ndarray, rows: int) -> None:
    """Write a block's rows of the draws into ``out`` from its clipped
    uniforms ``u`` and mixing draws ``w``, multiplying ``rows`` rows at a
    time."""
    z = ndtri(u[:, 1:])
    for lo, hi in _spans(len(z), rows):
        np.matmul(z[lo:hi], A.T, out=out[lo:hi])
    out *= np.sqrt(w)[:, None]
    out += loc


def rnvmix(n: int, model: NvmModel, seed: int | None = None,
           method: str = "pseudo") -> np.ndarray:
    """Draw ``n`` variates from the mixture model as an (n, d) array.

    Both drivers share one inversion code path: uniforms of shape
    (rows, rank+1) are generated block by block (pseudo-random or
    digitally-shifted Sobol'), the first column is inverted to the mixing
    variable and the rest to standard normals.  The blocks continue one
    stream, so the draws equal those of a single whole-array pass.

    The calling thread draws the blocks in order and computes their
    mixing draws.  Their normals, products, scales and locations run on
    a pool of threads, one per usable CPU, that lives for the call, with
    at most two blocks per thread in flight: memory is the output plus
    about 2 MB per thread.  With one block, one CPU or a rank times
    dimension above ``_POOL_MAX_MACS_PER_ROW``, the calling thread does
    it all.  The draws do not depend on the CPU count and are
    deterministic for a fixed seed.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
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

    def block(lo: int, hi: int):
        u = draw(hi - lo)
        np.clip(u, _U_EPS, 1.0 - _U_EPS, out=u)
        return x[lo:hi], u, quantile(model.spec, u[:, 0], model.nu)

    blocks = _spans(n, max(1, _BLOCK_VALUES // (r + 1)))
    # The slicing follows from the shape alone, never from the CPU count:
    # BLAS may round a slice's rows otherwise than a whole block's.
    macs_per_row = r * model.dim
    sliced = macs_per_row <= _POOL_MAX_MACS_PER_ROW
    rows = _SLICE_MACS // macs_per_row if sliced else n
    workers = _usable_cpus()
    if not sliced or len(blocks) < 2 or workers < 2:
        for lo, hi in blocks:
            _finish(*block(lo, hi), A, model.loc, rows)
        return x

    # Imported here: it takes about 1 ms, which callers that never sample
    # need not pay when they import nvmix.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        pending = deque()
        for lo, hi in blocks:
            if len(pending) == 2 * workers:
                pending.popleft().result()
            pending.append(pool.submit(_finish, *block(lo, hi), A, model.loc, rows))
        for future in pending:
            future.result()
    return x
