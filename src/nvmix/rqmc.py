"""Digitally-shifted Sobol' streams and iterative RQMC estimation.

The estimators here exploit extensibility of the Sobol' sequence: every
iteration appends a fresh batch of points to each randomized stream and
folds it into a running per-randomization mean, so no function evaluation
is ever discarded.  One loop, ``_run``, estimates one integrand per run:
it keeps plain running means over the B digital shifts of one Sobol'
stream, derived from the run's seed, and stops once their CI half width
meets the tolerance or the batch cap is reached.  ``rqmc_estimate`` runs
it on plain values; ``rqmc_log_estimate`` on logs, whose means are kept
under a running scale, the largest value so far (a "proper logarithm", so
that integrals as small as exp(-5000) are handled without underflow).
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
# grow with the rows (the log-density rule's rows, sampling).
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


def _errors(means: np.ndarray) -> float:
    """CI half width over the randomizations of the ``(B,)`` plain means.
    Means that include a non-finite value, or spread so far (past about
    1e154) that their variance overflows, get an infinite error: it meets
    no tolerance."""
    if not np.all(np.isfinite(means)):
        return math.inf
    if np.ptp(means) == 0.0:
        return 0.0
    with np.errstate(over="ignore"):
        return _CI_MULT * means.std(ddof=1) / math.sqrt(len(means))


def _tolerance_met(err, estimate, cfg: RqmcConfig, log: bool):
    """Whether each error meets ``cfg``'s tolerance at its estimate, which
    is a log when ``log`` is set.  Three rules: an infinite error meets no
    tolerance; a plain estimate of 0 meets no relative tolerance (it is
    what a far tail returns when no point has reached its mass); and a
    log-estimate within 1e-16 of 0 (an integral near 1) is held to the
    absolute tolerance instead of the relative one."""
    scale = np.abs(estimate)
    if cfg.tol_type == "absolute":
        met = err <= cfg.tol
    elif not log:
        met = (err <= cfg.tol * scale) & (scale > 0.0)
    else:
        met = err <= np.where(scale >= 1e-16, cfg.tol * scale, cfg.tol)
    return np.isfinite(err) & met


def _run(g, dimension: int, cfg: RqmcConfig, seed, log: bool) -> RqmcResult:
    """RQMC for one integrand under the ``B`` shifts of ``seed``, until it
    meets the tolerance or ``i_max`` batches are spent.

    Each iteration draws the ``(B * n0, dimension)`` points of a batch,
    randomization by randomization, and calls ``g`` on them once; ``g``
    returns one value per point (NaN aborts with the offending point).
    The batch's mean under each shift is folded into the ``(B,)`` running
    means, weighed by the number of batches before it.

    When ``log`` is set, ``g`` returns logs and the means are of exp(value
    - c), c the running scale: the largest finite value seen so far, the
    most negative double before any (the means are then 0).  A batch that
    raises c first multiplies the means by exp(c_old - c_new).  The
    estimate is then c + log(mean) and the error the CI half width over
    the mean, infinite where the mean is 0.
    """
    stream = _SobolStream(dimension, seed, n_random=cfg.B)
    means, scale = np.zeros(cfg.B), -np.finfo(float).max
    for n in range(cfg.i_max):
        pts = stream.take(cfg.n0).reshape(-1, dimension)
        vals = np.asarray(g(pts), dtype=float)
        if vals.size != len(pts):
            raise ValueError("integrand must return one value per point")
        vals = vals.reshape(cfg.B, cfg.n0)
        bad = np.flatnonzero(np.isnan(vals))
        if len(bad):
            raise IntegrandNaNError(pts[bad[0]])
        if log:
            c = np.maximum(scale, vals.max(initial=-np.inf, where=np.isfinite(vals)))
            means *= np.exp(scale - c)
            scale = c
            vals = np.exp(vals - c)
        means = (n * means + vals.mean(axis=1)) / (n + 1)
        estimate, error = means.mean(), _errors(means)
        if log:
            error = error / estimate if estimate > 0.0 else math.inf
            with np.errstate(divide="ignore"):
                estimate = scale + np.log(estimate)
        converged = bool(_tolerance_met(error, estimate, cfg, log))
        if converged:
            break
    return RqmcResult(float(estimate), float(error), (n + 1) * cfg.n0, n + 1, converged)


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
    return _run(g, dimension, cfg, seed, log=False)


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
    return _run(log_g, dimension, cfg, seed, log=True)
