"""Digitally-shifted Sobol' streams and iterative RQMC estimation.

The estimators here exploit extensibility of the Sobol' sequence: every
iteration appends a fresh batch of points to each randomized stream and
folds it into a running per-randomization mean, so no function evaluation
is ever discarded.  One accumulator serves every integral in the package:
B digital shifts of one Sobol' stream, running means kept either plainly
or in logarithmic space (a "proper logarithm", so that integrals as small
as exp(-5000) are handled without underflow), over one or several
integrands evaluated at the same points or each under its own shifts,
each with its own error and tolerance test.  One loop runs a batch of
integrands, each until it meets the tolerance or the batch cap;
``rqmc_estimate`` and ``rqmc_log_estimate`` are its one-integrand case.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.stats import qmc

__all__ = [
    "SobolStream",
    "RqmcConfig",
    "RqmcResult",
    "IntegrandNaNError",
    "rqmc_estimate",
    "rqmc_log_estimate",
    "RqmcAccumulator",
]

# Resolution of the digital shift; Sobol' integers live on a 2^-32 grid,
# which float64 represents exactly.
_BITS = 32
_SCALE = 2.0 ** -_BITS
# Whole-array passes are walked in blocks of whole rows of about this many
# values, so that a block's temporaries stay in cache (the crude density
# pass, sampling).
_BLOCK_VALUES = 2 ** 16

NEG_INF = -np.inf


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
    """Next n raw Sobol' points as uint64 on the 2^bits grid."""
    with warnings.catch_warnings():
        # Arbitrary n is part of the extensibility contract; the balance
        # warning for non-power-of-2 draws is expected and harmless here.
        warnings.filterwarnings("ignore", message="The balance properties")
        pts = engine.random(n)
    # The points are exact multiples of 2^-bits, so the product is an
    # exact integer and the cast loses nothing.
    pts *= 2.0 ** _BITS
    return pts.astype(np.uint64)


def derive_shift(seed, shape) -> np.ndarray:
    """Digital-shift words of the given shape derived from ``seed`` (an int
    or a ``SeedSequence``).

    ``seed=None`` yields the zero shift, i.e. the unrandomized sequence.
    """
    if seed is None:
        return np.zeros(shape, dtype=np.uint64)
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2 ** _BITS, size=shape, dtype=np.uint64)


class SobolStream:
    """Extensible Sobol' stream in ``[0,1)^dimension`` under ``n_random``
    independent digital shifts.

    Parameters
    ----------
    dimension : int
        Number of coordinates (limited by the direction-number table).
    seed : int, SeedSequence, None, or a list of these
        Seed from which the digital shifts are derived; ``None`` gives the
        raw (unrandomized) sequence.  A list derives ``n_random`` shifts
        from each of its seeds, one seed's after the other.
    skip : int
        Number of leading points to discard.
    n_random : int
        Number of randomizations (per seed); all advance in lockstep, so
        one raw draw serves all of them.

    Requesting ``n`` points and then ``m`` points returns exactly the
    same values as requesting ``n + m`` points at once.
    """

    def __init__(self, dimension: int, seed=None, skip: int = 0, n_random: int = 1):
        self.dimension = int(dimension)
        seeds = seed if isinstance(seed, list) else [seed]
        self.shifts = np.concatenate(
            [derive_shift(s, (int(n_random), self.dimension)) for s in seeds])
        self._engine = _new_engine(self.dimension)
        self.skip = 0
        if skip:
            self.fast_forward(int(skip))

    def fast_forward(self, n: int) -> "SobolStream":
        self._engine.fast_forward(n)
        self.skip += n
        return self

    def take(self, n: int, which=None) -> np.ndarray:
        """Next ``n`` points under every shift, as a ``(len(shifts), n,
        dimension)`` array, or under the shifts indexed by ``which`` only;
        advances the stream."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        ints = _draw_raw(self._engine, n)
        self.skip += n
        shifts = self.shifts if which is None else self.shifts[which]
        return (ints[None, :, :] ^ shifts[:, None, :]) * _SCALE


@dataclass(frozen=True)
class RqmcConfig:
    """Error-control parameters for the iterative RQMC loops.

    ``i_max`` caps the total number of batches per randomization, so at
    most ``B * n0 * i_max`` integrand evaluations are spent; for a
    log-density the crude pass's batches count against it too.  A
    relative tolerance is met only by a nonzero estimate (in log space,
    where the estimate is a log, a vanishing one falls back to the
    absolute test).
    """

    B: int = 15
    n0: int = 128
    i_max: int = 64
    tol: float = 1e-3
    tol_type: str = "absolute"
    ci_mult: float = 3.5

    def __post_init__(self):
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
        if not self.ci_mult > 0:
            raise ValueError("ci_mult must be positive")


@dataclass(frozen=True)
class RqmcResult:
    """Outcome of an iterative RQMC estimation."""

    estimate: float
    error_estimate: float
    n_per_randomization: int
    iterations_used: int
    converged: bool


def log_mean_exp(values: np.ndarray, axis=None) -> np.ndarray | float:
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


class RqmcAccumulator:
    """Running per-randomization means of iterative RQMC for one or more
    integrands (rows).

    Each :meth:`draw` appends ``n0`` fresh points to each of the ``B``
    randomizations of one raw Sobol' stream; :meth:`add` reduces the
    values there to one mean per randomization and :meth:`fold` folds
    such batch means into the running means of the given rows with equal
    batch weights, plainly or, with ``log=True``, as log-means (a "proper
    logarithm"), so that integrals as small as exp(-5000) are handled
    without underflow.  ``seed`` is either one seed, whose ``B`` digital
    shifts every row shares (all rows are evaluated at the same points),
    or a list with one seed per row, each giving its row its own ``B``
    shifts of the same raw stream; ``None`` draws fresh random shifts.
    Errors, estimates, the tolerance test and the batch count are per row.
    """

    def __init__(self, dimension: int, cfg: RqmcConfig, seed, log: bool = False):
        self.cfg = cfg
        self.log = log
        self._per_row = isinstance(seed, list)
        seeds = [np.random.SeedSequence() if s is None else s
                 for s in (seed if self._per_row else [seed])]
        self._stream = SobolStream(dimension, seeds, n_random=cfg.B)
        # (rows, B) means and per-row batch counts, set up by the first add
        # under shared shifts.
        self.means = self.counts = None
        if self._per_row:
            self._start(len(seeds))
        self.batches = 0

    def _start(self, rows: int) -> None:
        self.means = np.full((rows, self.cfg.B), NEG_INF if self.log else 0.0)
        self.counts = np.zeros(rows, dtype=int)

    def draw(self, rows=None) -> np.ndarray:
        """Next batch of all randomizations, randomization-major: a
        ``(B * n0, dimension)`` array under shared shifts, a ``(len(rows),
        B * n0, dimension)`` array for the given rows (all by default)
        under per-row shifts."""
        B, n0, dim = self.cfg.B, self.cfg.n0, self._stream.dimension
        if not self._per_row:
            return self._stream.take(n0).reshape(-1, dim)
        which = None if rows is None else (np.asarray(rows)[:, None] * B + np.arange(B)).ravel()
        return self._stream.take(n0, which).reshape(-1, B * n0, dim)

    def add(self, vals: np.ndarray, rows=None) -> None:
        """Fold values at the last :meth:`draw` into the given rows (all by
        default), shape ``(len(rows), B * n0)``."""
        batch = np.asarray(vals, dtype=float).reshape(-1, self.cfg.B, self.cfg.n0)
        self.fold(log_mean_exp(batch, axis=2) if self.log else batch.mean(axis=2), rows)

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
        self.batches += 1

    def estimates(self) -> np.ndarray:
        if self.log:
            return log_mean_exp(self.means, axis=1)
        return self.means.mean(axis=1)

    def errors(self) -> np.ndarray:
        """CI half widths over the randomizations (of the log-means when
        ``log``)."""
        sd = self.means.std(axis=1, ddof=1)
        err = self.cfg.ci_mult * sd / math.sqrt(self.cfg.B)
        return np.where(np.ptp(self.means, axis=1) == 0.0, 0.0, err)

    def converged(self) -> np.ndarray:
        """Per-row tolerance test."""
        return _tolerance_met(self.errors(), self.estimates(), self.cfg, self.log)

    def results(self) -> list[RqmcResult]:
        """One result per row; ``converged`` is the tolerance test."""
        est, err = self.estimates(), self.errors()
        return [
            RqmcResult(float(e), float(x), int(c) * self.cfg.n0, int(c), bool(ok))
            for e, x, c, ok in zip(est, err, self.counts,
                                   _tolerance_met(err, est, self.cfg, self.log))
        ]


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


def _run(g, dimension: int, cfg: RqmcConfig, seeds: list, log: bool) -> list[RqmcResult]:
    """Row-batched RQMC: row ``i`` runs on the shifts of ``seeds[i]`` until it
    meets the tolerance or ``i_max`` batches are spent.

    All rows advance through one raw Sobol' stream; each iteration calls
    ``g(pts, rows)`` once with the ``(len(rows), B * n0, dimension)`` points
    of the rows still running, and it must return one value per point
    (NaN aborts with the offending point).
    """
    acc = RqmcAccumulator(dimension, cfg, list(seeds), log)
    rows = np.arange(len(seeds))
    while len(rows):
        pts = acc.draw(rows)
        vals = np.asarray(g(pts, rows), dtype=float)
        if vals.size != pts.shape[0] * pts.shape[1]:
            raise ValueError("integrand must return one value per point")
        vals = vals.reshape(pts.shape[:2])
        bad = np.argwhere(np.isnan(vals))
        if len(bad):
            raise IntegrandNaNError(pts[tuple(bad[0])])
        acc.add(vals, rows)
        rows = rows[~acc.converged()[rows]] if acc.batches < cfg.i_max else rows[:0]
    return acc.results()


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
    return _run(lambda pts, rows: g(pts[0]), dimension, cfg, [seed], log=False)[0]


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
    return _run(lambda pts, rows: log_g(pts[0]), dimension, cfg, [seed], log=True)[0]
