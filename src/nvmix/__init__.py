"""Multivariate normal variance mixtures via randomized quasi-Monte Carlo.

Usage::

    from nvmix import NvmModel, RqmcConfig, inverse_gamma, prob
    t4 = NvmModel.build(None, [[1.0, 0.5], [0.5, 1.0]], inverse_gamma(), [4.0])
    p = prob([-1.0, -1.0], [1.0, 1.0], t4, RqmcConfig(tol=1e-4), seed=1).estimate

The submodules' other names are machinery and may change.
"""

from .density import closed_log_density, log_density_batch
from .distribution import prob
from .mixtures import InvalidMixtureError, blackbox, constant, inverse_burr, inverse_gamma, pareto
from .model import NvmModel
from .rqmc import IntegrandNaNError, RqmcConfig, RqmcResult
from .sampling import rnvmix

__version__ = "0.1.0"

__all__ = [
    "NvmModel", "constant", "inverse_gamma", "pareto", "inverse_burr", "blackbox",
    "RqmcConfig", "RqmcResult", "IntegrandNaNError", "InvalidMixtureError",
    "prob", "log_density_batch", "closed_log_density", "rnvmix",
]
