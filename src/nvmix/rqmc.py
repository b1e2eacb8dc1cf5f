"""Digitally-shifted Sobol' streams and iterative RQMC estimation.

The estimators here exploit extensibility of the Sobol' sequence: every
iteration appends a fresh batch of points to each randomized stream and
folds it into a running per-randomization mean, so no function evaluation
is ever discarded.  One accumulator serves every integral in the package:
B digital shifts of one Sobol' stream, running means kept either plainly
or in logarithmic space (a "proper logarithm", so that integrals as small
as exp(-5000) are handled without underflow), over one or several
integrands, each with its own error and tolerance test.  A run has one
randomization: the B shifts derived from its one seed, shared by all its
integrands, which are thus evaluated at the same points (common random
numbers), so each integrand's result depends on that integrand alone and
not on the others in its batch.  One loop runs a batch of integrands,
each until it meets the tolerance or the batch cap; ``rqmc_estimate``
and ``rqmc_log_estimate`` are its one-integrand case.
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
    tolerance is tested after every batch, or for a log-density every
    ``min(n0, 16)`` points, over a bracket that ends ``5 + log10(1/tol)``
    decades below the integrand's maximum (at least 5, at most 10).  A
    relative tolerance is met only by a nonzero estimate (in log space,
    where the estimate is a log, a vanishing one falls back to the
    absolute test).
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
    that number in batches of ``RqmcConfig.n0``, rounded up."""

    estimate: float
    error_estimate: float
    n_per_randomization: int
    iterations_used: int
    converged: bool


def _log_mean_exp(values: np.ndarray, axis=None) -> np.ndarray | float:
    """log of the arithmetic mean of exp(values), stable and exact for
    constant input."""
    values = np.asarray(values, dtype=float)
    m = np.max(values, axis=axis, keepdims=True)
    safe_m = np.where(np.isfinite(m), m, 0.0)
    scaled = np.asarray(values - safe_m)
    np.exp(scaled, out=scaled)
    with np.errstate(divide="ignore"):
        out = np.log(np.mean(scaled, axis=axis)) + np.squeeze(safe_m, axis=axis)
    out = np.where(np.isfinite(np.squeeze(m, axis=axis)), out, np.squeeze(m, axis=axis))
    if out.ndim == 0:
        return float(out)
    return out


def _combine_log_means(old: np.ndarray, n_old, batch: np.ndarray) -> np.ndarray:
    """Running log-mean update: log((n*e^old + e^batch)/(n+1)) elementwise,
    ``n_old`` broadcasting against the means; ``batch`` itself when
    ``n = 0``."""
    m = np.maximum(old, batch)
    safe_m = np.where(np.isfinite(m), m, 0.0)
    mixed = (n_old * np.exp(old - safe_m) + np.exp(batch - safe_m)) / (n_old + 1)
    with np.errstate(divide="ignore"):
        out = safe_m + np.log(mixed)
    return np.where(np.isfinite(m), out, m)


class _RqmcAccumulator:
    """Running per-randomization means of iterative RQMC for one or more
    integrands (rows).

    Each :meth:`draw` appends ``n0`` fresh points to each of the ``B``
    randomizations of one Sobol' stream, whose ``B`` digital shifts come
    from the one ``seed`` and are shared by all rows: every row is
    evaluated at the same points, so a row's result depends on that row
    alone.  :meth:`fold` folds a batch's means per randomization
    (``_batch_means`` of the values there) into the running means of the
    given rows with equal batch weights, plainly or, with
    ``log=True``, as log-means (a "proper logarithm"), so that integrals
    as small as exp(-5000) are handled without underflow.  Errors,
    estimates, the tolerance test and the batch count are per row;
    ``batches`` counts the draws.
    """

    def __init__(self, dimension: int, cfg: RqmcConfig, seed, log: bool = False):
        self.cfg = cfg
        self.log = log
        self._stream = _SobolStream(dimension, seed, n_random=cfg.B)
        # (rows, B) means and per-row batch counts, set up by the first fold.
        self.means = self.counts = None
        self.batches = 0

    def _start(self, n_rows: int) -> None:
        self.means = np.full((n_rows, self.cfg.B), -np.inf if self.log else 0.0)
        self.counts = np.zeros(n_rows, dtype=int)

    def draw(self) -> np.ndarray:
        """Next batch of all randomizations, randomization-major, as a
        ``(B * n0, dimension)`` array."""
        pts = self._stream.take(self.cfg.n0)
        self.batches += 1
        return pts.reshape(-1, pts.shape[-1])

    def fold(self, batch_means: np.ndarray, rows=None) -> None:
        """Fold one batch, given as its ``(len(rows), B)`` means per
        randomization (log-means when ``log``), into the given rows (all by
        default).  A caller that reduces its values block by block folds
        them here without forming the whole batch."""
        if self.means is None:
            self._start(len(batch_means))
        if rows is None:
            rows = slice(None)
        n = self.counts[rows][:, None]
        if self.log:
            self.means[rows] = _combine_log_means(self.means[rows], n, batch_means)
        else:
            self.means[rows] = (n * self.means[rows] + batch_means) / (n + 1)
        self.counts[rows] += 1

    def estimates(self) -> np.ndarray:
        return _estimates(self.means, self.log)

    def errors(self) -> np.ndarray:
        """CI half widths over the randomizations (of the log-means when
        ``log``).  A row whose means include a non-finite value, such as
        a log-mean of -inf where no point of a randomization has reached
        the integrand's mass, gets an infinite error: it meets no
        tolerance.  So does a row whose means spread so far (past about
        1e154) that their variance overflows."""
        return _errors(self.means)

    def results(self) -> list[RqmcResult]:
        """One result per row; ``converged`` is the tolerance test."""
        est, err = self.estimates(), self.errors()
        return [
            RqmcResult(float(e), float(x), int(c) * self.cfg.n0, int(c), bool(ok))
            for e, x, c, ok in zip(est, err, self.counts,
                                   _tolerance_met(err, est, self.cfg, self.log))
        ]


def _estimates(means: np.ndarray, log: bool) -> np.ndarray:
    return _log_mean_exp(means, axis=1) if log else means.mean(axis=1)


def _errors(means: np.ndarray) -> np.ndarray:
    finite = np.all(np.isfinite(means), axis=1)
    means = np.where(finite[:, None], means, 0.0)
    with np.errstate(over="ignore"):
        err = _CI_MULT * means.std(axis=1, ddof=1) / math.sqrt(means.shape[1])
    return np.where(finite, np.where(np.ptp(means, axis=1) == 0.0, 0.0, err), np.inf)


def _converged(means: np.ndarray, cfg: RqmcConfig, log: bool) -> np.ndarray:
    return _tolerance_met(_errors(means), _estimates(means, log), cfg, log)


def _batch_means(vals: np.ndarray, B: int, log: bool) -> np.ndarray:
    """``(rows, B)`` means (log-means when ``log``) per randomization of
    the ``(rows, B * n0)`` or ``(B * n0,)`` values of one batch."""
    vals = np.asarray(vals, dtype=float)
    batch = vals.reshape(-1, B, vals.shape[-1] // B)
    return _log_mean_exp(batch, axis=2) if log else batch.mean(axis=2)


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
         log: bool) -> _RqmcAccumulator:
    """Row-batched RQMC: ``n_rows`` integrands at the same points, under
    the ``B`` shifts of ``seed``, each until it meets the tolerance or
    ``i_max`` batches are spent.  Returns the accumulator, whose
    :meth:`~_RqmcAccumulator.results` are the rows' results.

    Each iteration draws the ``(B * n0, dimension)`` points of a batch and
    walks the rows still running in blocks of about ``_BLOCK_VALUES``
    values, each reduced, folded and tested at once: ``g(pts, rows)``
    gets one block's row indices and returns a ``(len(rows), B * n0)``
    array, one value per row and point (NaN aborts with the offending
    point).
    """
    acc = _RqmcAccumulator(dimension, cfg, seed, log)
    acc._start(n_rows)
    rows = np.arange(n_rows)
    while len(rows):
        pts = acc.draw()
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
            acc.fold(_batch_means(vals, cfg.B, log), block)
            if acc.batches < cfg.i_max:
                keep[start:start + step] = ~_converged(acc.means[block], cfg, log)
        rows = rows[keep]
    return acc


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
    return _run(lambda pts, rows: g(pts), dimension, cfg, seed, 1, log=False).results()[0]


def rqmc_log_estimate(
    log_g: Callable[[np.ndarray], np.ndarray],
    dimension: int,
    cfg: RqmcConfig,
    seed: int | None,
) -> RqmcResult:
    """Estimate ``log int exp(log_g(u)) du`` via a proper logarithm.

    Same iteration scheme as :func:`rqmc_estimate` but every running mean
    is maintained in log space, so integrands as small as exp(-5000) are
    estimated without underflow.  The error estimate is the CI half width
    of the per-randomization log means.
    """
    return _run(lambda pts, rows: log_g(pts), dimension, cfg, seed, 1,
                log=True).results()[0]
