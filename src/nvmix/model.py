"""Container tying together location, scale and mixing specification."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import _ScaleFactor, cholesky
from .mixtures import _MixtureSpec, _WReader, _check_params

__all__ = ["NvmModel"]


@dataclass(frozen=True)
class NvmModel:
    """A normal variance mixture: location, scale (with cached factor) and
    the mixing variable family plus its parameters."""

    loc: np.ndarray
    scale: np.ndarray
    spec: _MixtureSpec
    nu: np.ndarray
    factor: _ScaleFactor

    @classmethod
    def build(cls, loc, scale, spec: _MixtureSpec, nu) -> "NvmModel":
        """Model from a finite location (zeros when None), a scale matrix
        and the family's parameters ``nu``, checked as its quantile checks
        them; raises ``ValueError`` for any of these it cannot use."""
        scale = np.asarray(scale, dtype=float)
        if scale.ndim == 0:
            scale = scale.reshape(1, 1)
        d = scale.shape[0]
        if loc is None:
            loc = np.zeros(d)
        loc = np.atleast_1d(np.asarray(loc, dtype=float))
        if loc.shape != (d,):
            raise ValueError(f"location must have length {d}, got {loc.shape}")
        if not np.all(np.isfinite(loc)):
            raise ValueError("location must be finite")
        nu = _check_params(spec, nu)
        factor = cholesky(scale)
        return cls(loc=loc, scale=scale, spec=spec, nu=nu, factor=factor)

    @cached_property
    def _w(self) -> _WReader:
        # Built on first use; not a field, so == does not look at it.
        return _WReader(self.spec, self.nu)

    @property
    def dim(self) -> int:
        return self.scale.shape[0]

    @property
    def is_full_rank(self) -> bool:
        return self.factor.is_full_rank

    @property
    def log_det(self) -> float:
        return self.factor.log_det
