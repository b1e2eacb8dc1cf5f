"""Digitally-shifted Sobol' streams and iterative RQMC estimation.

The estimators here exploit extensibility of the Sobol' sequence: every
iteration appends a fresh batch of points to each randomized stream and
folds it into a running per-randomization mean, so no function evaluation
is ever discarded.  Two drivers are provided, one for plain integrals and
one that maintains all running means in logarithmic space (a "proper
logarithm") so that integrals as small as exp(-5000) are handled without
underflow.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import logsumexp
from scipy.stats import qmc

__all__ = [
    "SobolStream",
    "RqmcConfig",
    "RqmcResult",
    "IntegrandNaNError",
    "sobol_points",
    "lse",
    "rqmc_estimate",
    "rqmc_log_estimate",
    "RqmcAccumulator",
    "LogRqmcAccumulator",
]

# Resolution of the digital shift; Sobol' integers live on a 2^-32 grid,
# which float64 represents exactly.
_BITS = 32
_SCALE = 2.0 ** -_BITS

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
    return np.round(pts * 2.0 ** _BITS).astype(np.uint64)


def derive_shift(seed: int | None, dimension: int) -> np.ndarray:
    """Per-dimension digital-shift words derived from a 64-bit seed.

    ``seed=None`` yields the zero shift, i.e. the unrandomized sequence.
    """
    if seed is None:
        return np.zeros(dimension, dtype=np.uint64)
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2 ** _BITS, size=dimension, dtype=np.uint64)


class SobolStream:
    """Extensible digitally-shifted Sobol' stream in ``[0,1)^dimension``.

    Parameters
    ----------
    dimension : int
        Number of coordinates (limited by the direction-number table).
    seed : int or None
        Seed from which the digital shift is derived; ``None`` gives the
        raw (unrandomized) sequence.
    skip : int
        Number of leading points to discard.

    Requesting ``n`` points and then ``m`` points returns exactly the
    same values as requesting ``n + m`` points at once.
    """

    def __init__(self, dimension: int, seed: int | None = None, skip: int = 0):
        self.dimension = int(dimension)
        self.shift = derive_shift(seed, self.dimension)
        self._engine = _new_engine(self.dimension)
        self.skip = 0
        if skip:
            self.fast_forward(int(skip))

    def fast_forward(self, n: int) -> "SobolStream":
        self._engine.fast_forward(n)
        self.skip += n
        return self

    def take(self, n: int) -> np.ndarray:
        """Next ``n`` points; advances the stream."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        ints = _draw_raw(self._engine, n)
        self.skip += n
        return (ints ^ self.shift[None, :]) * _SCALE


def sobol_points(stream: SobolStream, n: int) -> np.ndarray:
    """Next ``n`` points of ``stream`` as an ``(n, dimension)`` array."""
    return stream.take(n)


class _ShiftedSobolBank:
    """One raw Sobol' stream viewed through B independent digital shifts.

    All B randomizations advance in lockstep, so one raw draw serves all
    of them; this is equivalent to B separate ``SobolStream`` objects but
    much cheaper.
    """

    def __init__(self, dimension: int, n_random: int, seed: int | None):
        self.dimension = int(dimension)
        rng = np.random.default_rng(seed)
        self.shifts = rng.integers(
            0, 2 ** _BITS, size=(n_random, self.dimension), dtype=np.uint64
        )
        self._engine = _new_engine(self.dimension)

    def take(self, n: int) -> np.ndarray:
        """Next batch as a ``(B, n, dimension)`` array."""
        ints = _draw_raw(self._engine, n)
        return (ints[None, :, :] ^ self.shifts[:, None, :]) * _SCALE


@dataclass(frozen=True)
class RqmcConfig:
    """Error-control parameters for the iterative RQMC loops.

    ``i_max`` caps the total number of batches per randomization, so at
    most ``B * n0 * i_max`` integrand evaluations are spent.
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


def lse(values: Sequence[float] | np.ndarray) -> float:
    """log(sum(exp(values))) without overflow; -inf entries are allowed."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("lse requires at least one value")
    return float(logsumexp(values))


def log_mean_exp(values: np.ndarray, axis=None) -> np.ndarray | float:
    """log of the arithmetic mean of exp(values), stable and exact for
    constant input."""
    values = np.asarray(values, dtype=float)
    m = np.max(values, axis=axis, keepdims=True)
    safe_m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.mean(np.exp(values - safe_m), axis=axis)) + np.squeeze(safe_m, axis=axis)
    out = np.where(np.isfinite(np.squeeze(m, axis=axis)), out, np.squeeze(m, axis=axis))
    if out.ndim == 0:
        return float(out)
    return out


def _combine_log_means(old: np.ndarray, n_old: int, batch: np.ndarray) -> np.ndarray:
    """Running log-mean update: log((n*e^old + e^batch)/(n+1)) elementwise."""
    old = np.asarray(old, dtype=float)
    batch = np.asarray(batch, dtype=float)
    m = np.maximum(old, batch)
    safe_m = np.where(np.isfinite(m), m, 0.0)
    mixed = (n_old * np.exp(old - safe_m) + np.exp(batch - safe_m)) / (n_old + 1)
    with np.errstate(divide="ignore"):
        out = safe_m + np.log(mixed)
    return np.where(np.isfinite(m), out, m)


def _check_nan(values: np.ndarray, points: np.ndarray) -> None:
    bad = np.isnan(values)
    if bad.any():
        idx = int(np.flatnonzero(bad)[0])
        raise IntegrandNaNError(points[idx])


class RqmcAccumulator:
    """State of Algorithm-style iterative RQMC estimation (plain space).

    Each call to :meth:`add_batch` appends ``n0`` fresh points to every
    randomization and folds the batch means into the per-randomization
    running means with equal batch weights.
    """

    def __init__(
        self,
        g: Callable[[np.ndarray], np.ndarray],
        dimension: int,
        cfg: RqmcConfig,
        seed: int | None,
    ):
        self.g = g
        self.dimension = int(dimension)
        self.cfg = cfg
        self._bank = _ShiftedSobolBank(self.dimension, cfg.B, seed)
        self.means = np.zeros(cfg.B)
        self.batches = 0

    def add_batch(self) -> None:
        cfg = self.cfg
        pts = self._bank.take(cfg.n0)
        flat = pts.reshape(-1, self.dimension)
        vals = np.asarray(self.g(flat), dtype=float).reshape(-1)
        if vals.shape[0] != flat.shape[0]:
            raise ValueError("integrand must return one value per point")
        _check_nan(vals, flat)
        batch_means = vals.reshape(cfg.B, cfg.n0).mean(axis=1)
        i = self.batches
        self.means = (i * self.means + batch_means) / (i + 1)
        self.batches += 1

    @property
    def estimate(self) -> float:
        return float(self.means.mean())

    @property
    def n_per_randomization(self) -> int:
        return self.batches * self.cfg.n0

    def error_estimate(self) -> float:
        if np.ptp(self.means) == 0.0:
            return 0.0
        sd = float(self.means.std(ddof=1))
        return self.cfg.ci_mult * sd / math.sqrt(self.cfg.B)

    def result(self, converged: bool) -> RqmcResult:
        return RqmcResult(
            estimate=self.estimate,
            error_estimate=self.error_estimate(),
            n_per_randomization=self.n_per_randomization,
            iterations_used=self.batches,
            converged=converged,
        )


class LogRqmcAccumulator(RqmcAccumulator):
    """Iterative RQMC with all running means kept in log space.

    ``g`` must return log-integrand values (finite or -inf); the final
    estimate is ``log`` of the integral.
    """

    def __init__(self, log_g, dimension, cfg, seed):
        super().__init__(log_g, dimension, cfg, seed)
        self.means = np.full(cfg.B, NEG_INF)

    def add_batch(self) -> None:
        cfg = self.cfg
        pts = self._bank.take(cfg.n0)
        flat = pts.reshape(-1, self.dimension)
        vals = np.asarray(self.g(flat), dtype=float).reshape(-1)
        if vals.shape[0] != flat.shape[0]:
            raise ValueError("log-integrand must return one value per point")
        _check_nan(vals, flat)
        batch_means = log_mean_exp(vals.reshape(cfg.B, cfg.n0), axis=1)
        if self.batches == 0:
            self.means = np.asarray(batch_means, dtype=float)
        else:
            self.means = _combine_log_means(self.means, self.batches, batch_means)
        self.batches += 1

    @property
    def estimate(self) -> float:
        return float(log_mean_exp(self.means))


def _tolerance_met(err: float, estimate: float, cfg: RqmcConfig) -> bool:
    if cfg.tol_type == "relative" and abs(estimate) >= 1e-16:
        return err <= cfg.tol * abs(estimate)
    # Relative mode falls back to an absolute check when the running
    # estimate is numerically indistinguishable from zero.
    return err <= cfg.tol


def _run(acc: RqmcAccumulator) -> RqmcResult:
    cfg = acc.cfg
    acc.add_batch()
    while True:
        if _tolerance_met(acc.error_estimate(), acc.estimate, cfg):
            return acc.result(converged=True)
        if acc.batches >= cfg.i_max:
            return acc.result(converged=False)
        acc.add_batch()


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
    return _run(RqmcAccumulator(g, dimension, cfg, seed))


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
    return _run(LogRqmcAccumulator(log_g, dimension, cfg, seed))
