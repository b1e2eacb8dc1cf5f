"""Digitally-shifted Sobol' streams and iterative RQMC estimation.

The estimators here exploit extensibility of the Sobol' sequence: every
iteration appends a fresh batch of points to each randomized stream and
folds it into a running per-randomization mean, so no function evaluation
is ever discarded.  One loop, ``_run``, serves the box probabilities and
``rqmc_log_estimate`` (log-densities take a trapezoid rule): it keeps
plain running means over the B digital shifts of one Sobol' stream for
one or several integrands, each with its own error and tolerance test,
and returns each integrand's estimate, error and batch count.  An
integrand that returns logs keeps its means under a running scale, its
largest value so far (a "proper logarithm", so that integrals as small as
exp(-5000) are handled without underflow).  A run has one randomization:
the B shifts derived from its one seed, shared by all its integrands,
which are thus evaluated at the same points (common random numbers), so
each integrand's result depends on that integrand alone.  Each integrand
runs until it meets the tolerance or the batch cap; ``rqmc_estimate`` and
``rqmc_log_estimate`` are the loop's one-integrand case.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.stats import qmc

__all__ = ["RqmcConfig", "RqmcResult", "IntegrandNaNError"]

# Resolution of the digital shift; Sobol' integers live on a 2^-32 grid,
# which float64 represents exactly.
_BITS = 32
_SCALE = 2.0 ** -_BITS
# Whole-array passes are walked in blocks of whole rows of about this many
# values, so that a block's temporaries stay in cache and memory does not
# grow with the rows (the integrand rows of ``_run``, sampling).
_BLOCK_VALUES = 2 ** 16
# Multiple of the standard error over the randomizations that makes the
# CI half width.
_CI_MULT = 3.5


class IntegrandNaNError(ValueError):
    """An integrand returned NaN; carries the offending point."""

    def __init__(self, point: np.ndarray):
        self.point = np.asarray(point)
        super().__init__(
            f"integrand returned NaN at u = {np.array2string(self.point, precision=17)}"
        )


def _new_engine(dimension: int) -> qmc.Sobol:
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    try:
        return qmc.Sobol(d=dimension, scramble=False, bits=_BITS)
    except ValueError as exc:
        raise ValueError(
            f"unsupported dimension {dimension} for the Sobol' direction-number table"
        ) from exc


def _draw_raw(engine: qmc.Sobol, n: int) -> np.ndarray:
    """Next n raw Sobol' points as uint32 on the 2^bits grid."""
    with warnings.catch_warnings():
        # Arbitrary n is part of the extensibility contract; the balance
        # warning for non-power-of-2 draws is expected and harmless here.
        warnings.filterwarnings("ignore", message="The balance properties")
        pts = engine.random(n)
    # The points are exact multiples of 2^-bits, so the product is an
    # exact integer below 2^32 and the cast loses nothing.
    pts *= 2.0 ** _BITS
    return pts.astype(np.uint32)


class _SobolStream:
    """Extensible Sobol' stream in ``[0,1)^dimension`` under ``n_random``
    independent digital shifts.

    Parameters
    ----------
    dimension : int
        Number of coordinates (limited by the direction-number table).
    seed : int, SeedSequence or None
        Seed from which the digital shifts are derived, as by
        ``numpy.random.default_rng``: ``None`` draws fresh shifts.
    n_random : int
        Number of randomizations; all advance in lockstep, so one raw draw
        serves all of them.

    Requesting ``n`` points and then ``m`` points returns exactly the
    same values as requesting ``n + m`` points at once.
    """

    def __init__(self, dimension: int, seed=None, n_random: int = 1):
        self._engine = _new_engine(int(dimension))
        # Drawn as uint64, which fixes a seed's values, and XORed as uint32.
        shifts = np.random.default_rng(seed).integers(
            0, 2 ** _BITS, size=(int(n_random), int(dimension)), dtype=np.uint64)
        self.shifts = shifts.astype(np.uint32)

    def take(self, n: int) -> np.ndarray:
        """Next ``n`` points under every shift, as a ``(n_random, n,
        dimension)`` array; advances the stream.  The shift XORs 32-bit
        words, which are then scaled once into float64."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        ints = _draw_raw(self._engine, n)
        return (ints[None, :, :] ^ self.shifts[:, None, :]) * _SCALE


@dataclass(frozen=True)
class RqmcConfig:
    """Error-control parameters for the iterative RQMC loops.

    A batch of ``n0`` points per randomization is the budget's unit:
    ``i_max`` caps the total number of batches per randomization, so at
    most ``B * n0 * i_max`` integrand evaluations are spent.  The
    tolerance is tested after every batch.  A log-density's rows take the
    trapezoid rule instead, at most ``n0 * i_max`` intervals on each piece
    of W, over a bracket that ends ``5 + log10(1/tol)`` decades below the
    integrand's maximum (at least 5, at most 16); the rule stops at tol/10
    and ignores ``B``.  A relative tolerance is met only by a nonzero
    estimate (in log space, where the estimate is a log, a vanishing one
    falls back to the absolute test).
    """

    B: int = 15
    n0: int = 128
    i_max: int = 64
    tol: float = 1e-3
    tol_type: str = "absolute"

    def __post_init__(self):
        if not all(isinstance(v, (int, np.integer)) for v in (self.B, self.n0, self.i_max)):
            raise ValueError("B, n0 and i_max must be integers")
        if self.B < 2:
            raise ValueError("B must be >= 2 (sample sd over randomizations needs it)")
        if self.n0 < 1 or (self.n0 & (self.n0 - 1)) != 0:
            raise ValueError("n0 must be a positive power of 2")
        if self.i_max < 1:
            raise ValueError("i_max must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.tol_type not in ("absolute", "relative"):
            raise ValueError("tol_type must be 'absolute' or 'relative'")


@dataclass(frozen=True)
class RqmcResult:
    """Outcome of an iterative RQMC estimation: ``n_per_randomization`` is
    the exact number of points spent per randomization, ``iterations_used``
    that number in batches of ``RqmcConfig.n0``, rounded up.  Every
    log-density row counts the trapezoid rule's nodes instead, summed over
    the pieces of W."""

    estimate: float
    error_estimate: float
    n_per_randomization: int
    iterations_used: int
    converged: bool


def _errors(means: np.ndarray) -> np.ndarray:
    """CI half widths over the randomizations of each row of ``(rows, B)``
    plain means.  A row whose means include a non-finite value, or spread
    so far (past about 1e154) that their variance overflows, gets an
    infinite error: it meets no tolerance."""
    finite = np.all(np.isfinite(means), axis=1)
    means = np.where(finite[:, None], means, 0.0)
    with np.errstate(over="ignore"):
        err = _CI_MULT * means.std(axis=1, ddof=1) / math.sqrt(means.shape[1])
    return np.where(finite, np.where(np.ptp(means, axis=1) == 0.0, 0.0, err), np.inf)


def _batch_means(vals: np.ndarray, B: int) -> np.ndarray:
    """``(rows, B)`` means per randomization of the ``(rows, B * n0)`` or
    ``(B * n0,)`` values of one batch."""
    return vals.reshape(-1, B, vals.shape[-1] // B).mean(axis=2)


def _summary(means: np.ndarray, scale, log: bool) -> tuple[np.ndarray, np.ndarray]:
    """Each row's estimate and error from its ``(rows, B)`` means: their
    mean and ``_errors``, or for a log row, whose means are of exp(value -
    scale), scale + log(mean) and ``_errors`` / mean, inf where the mean
    is 0 or that ratio is not finite."""
    mean, err = means.mean(axis=1), _errors(means)
    if not log:
        return mean, err
    with np.errstate(divide="ignore", invalid="ignore"):
        err = err / mean
        return scale + np.log(mean), np.where((mean > 0.0) & np.isfinite(err), err, np.inf)


def _tolerance_met(err: np.ndarray, estimate: np.ndarray, cfg: RqmcConfig,
                   log: bool) -> np.ndarray:
    if cfg.tol_type == "absolute":
        return err <= cfg.tol
    scale = np.abs(estimate)
    if not log:
        # A zero estimate meets no relative tolerance: it is what a far
        # tail returns when no point has reached its mass.
        return (err <= cfg.tol * scale) & (scale > 0.0)
    # A log-estimate near 0 (an integral near 1) falls back to the
    # absolute check.
    return err <= np.where(scale >= 1e-16, cfg.tol * scale, cfg.tol)


def _run(g, dimension: int, cfg: RqmcConfig, seed, n_rows: int,
         log: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-batched RQMC: ``n_rows`` integrands at the same points, under
    the ``B`` shifts of ``seed``, each until it meets the tolerance or
    ``i_max`` batches are spent.  Returns each row's estimate and error
    and the number of batches it took.

    Each iteration draws the ``(B * n0, dimension)`` points of a batch and
    walks the rows still running in blocks of about ``_BLOCK_VALUES``
    values, each reduced, folded and tested at once: ``g(pts, rows)``
    gets one block's row indices and returns a ``(len(rows), B * n0)``
    array, one value per row and point (NaN aborts with the offending
    point).  A row still running has seen every batch so far, so each
    fold weighs the running means by the number of batches before it.

    Every row keeps plain ``(rows, B)`` means.  When ``log`` is set, ``g``
    returns logs and a row's means are of exp(value - c), c its running
    scale: the largest finite value it has seen, the most negative double
    before any (its means are then 0).  A batch that raises c first
    multiplies the row's means by exp(c_old - c_new).
    """
    stream = _SobolStream(dimension, seed, n_random=cfg.B)
    means, scale = np.zeros((n_rows, cfg.B)), np.full(n_rows, -np.finfo(float).max)
    estimate, error = np.zeros(n_rows), np.zeros(n_rows)
    batches = np.zeros(n_rows, dtype=int)
    rows = np.arange(n_rows)
    for n in range(cfg.i_max):
        if not len(rows):
            break
        pts = stream.take(cfg.n0).reshape(-1, dimension)
        step = max(1, _BLOCK_VALUES // len(pts))
        keep = np.zeros(len(rows), dtype=bool)
        for start in range(0, len(rows), step):
            block = rows[start:start + step]
            vals = np.asarray(g(pts, block), dtype=float)
            if vals.size != len(block) * len(pts):
                raise ValueError("integrand must return one value per point")
            vals = vals.reshape(len(block), len(pts))
            bad = np.argwhere(np.isnan(vals))
            if len(bad):
                raise IntegrandNaNError(pts[bad[0, 1]])
            old = means[block]
            if log:
                c = np.maximum(scale[block],
                               vals.max(axis=1, initial=-np.inf, where=np.isfinite(vals)))
                old *= np.exp(scale[block] - c)[:, None]
                scale[block] = c
                vals = np.exp(vals - c[:, None])
            means[block] = old = (n * old + _batch_means(vals, cfg.B)) / (n + 1)
            estimate[block], error[block] = _summary(old, scale[block], log)
            keep[start:start + step] = ~_tolerance_met(error[block], estimate[block], cfg, log)
        batches[rows] = n + 1
        rows = rows[keep]
    return estimate, error, batches


def _one_row(g, dimension: int, cfg: RqmcConfig, seed, log: bool) -> RqmcResult:
    est, err, (batches,) = _run(lambda pts, rows: g(pts), dimension, cfg, seed, 1, log)
    return RqmcResult(float(est[0]), float(err[0]), int(batches) * cfg.n0, int(batches),
                      bool(_tolerance_met(err, est, cfg, log)[0]))


def rqmc_estimate(
    g: Callable[[np.ndarray], np.ndarray],
    dimension: int,
    cfg: RqmcConfig,
    seed: int | None,
) -> RqmcResult:
    """Estimate ``int g(u) du`` over ``(0,1)^dimension``.

    ``g`` is called with an ``(n, dimension)`` array and must return one
    finite value per row (NaN aborts with the offending point).  ``B``
    digitally-shifted streams derived from ``seed`` are advanced in
    batches of ``n0`` until the CI half width meets the tolerance or
    ``i_max`` batches are spent.
    """
    return _one_row(g, dimension, cfg, seed, log=False)


def rqmc_log_estimate(
    log_g: Callable[[np.ndarray], np.ndarray],
    dimension: int,
    cfg: RqmcConfig,
    seed: int | None,
) -> RqmcResult:
    """Estimate ``log int exp(log_g(u)) du`` via a proper logarithm.

    Same iteration scheme as :func:`rqmc_estimate`, but the running
    means are of exp(log_g - c), c the largest value of ``log_g`` seen so
    far, so integrands as small as exp(-5000) are estimated without
    underflow.  The estimate is c plus the log of the means' mean, and the
    error estimate is the means' CI half width over their mean, infinite
    where that mean is 0.
    """
    return _one_row(log_g, dimension, cfg, seed, log=True)
