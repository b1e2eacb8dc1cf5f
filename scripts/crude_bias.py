"""Error of the crude log-density pass over many randomizations.

Reproduces the numbers quoted in
``tests/test_density.py::TestLogDensityBatch::test_crude_path_is_biased_where_adaptive_is_not``:
for the IG(4) model in d = 10 at x = c * 1 (c = 8 and 40), the error
against the closed form of a 4-batch crude pass (the test's integrand,
u clamped to [1e-16, 1 - 1e-16]) over randomization seeds 0..n-1, and
where the integrand's peak sits.

    PYTHONPATH=src python3 scripts/crude_bias.py [n_seeds]
"""

import math
import sys

import numpy as np
from scipy.special import expit

from nvmix.density import _QuantileTable, _log_g, _log_h_of_w, _peak_z, closed_log_density
from nvmix.mixtures import inverse_gamma, quantile
from nvmix.model import NvmModel
from nvmix.rqmc import RqmcConfig, rqmc_log_estimate


def main(n_seeds: int = 300) -> None:
    d, spec, nu = 10, inverse_gamma(), [4.0]
    model = NvmModel.build(None, np.eye(d), spec, nu)
    # The integrand's prefactor, shift k and halved distance m, one row.
    pref, k = np.array([-0.5 * d * math.log(2.0 * math.pi)]), np.array([d / 2])
    for c in (8.0, 40.0):
        x = np.full(d, c)
        D2 = float(x @ x)
        m = np.array([0.5 * D2])
        truth = float(closed_log_density(model, x))

        def crude_log_g(v, m=m):
            u = np.clip(v[:, 0], 1e-16, 1 - 1e-16)
            w = np.asarray(quantile(spec, u, nu), dtype=float)
            return _log_h_of_w(w, pref, k, m)

        runs = [rqmc_log_estimate(crude_log_g, 1, RqmcConfig(i_max=4), seed=s)
                for s in range(n_seeds)]
        err = np.array([r.estimate - truth for r in runs])

        # Peak of h in 1 - u, and the width in u of the region where the
        # integrand in u is within 1 nat of its maximum.
        z_star = float(_peak_z(spec, nu, m / k, _QuantileTable(spec, nu))[0])
        z = np.linspace(z_star - 10.0, z_star + 10.0, 20001)
        log_hu = _log_g(z, spec, nu, pref, k, m) - np.log(expit(z) * expit(-z))
        near = z[log_hu >= log_hu.max() - 1.0]
        width = expit(-near[0]) - expit(-near[-1])

        print(f"D2 = {D2:g}: log f = {truth:.2f}, 1 - u* = {expit(-z_star):.2g}, "
              f"width within 1 nat of the peak = {width:.2g}")
        print(f"  crude error over {n_seeds} seeds: mean {err.mean():+.3f}, sd {err.std():.3f}, "
              f"max |err| {np.abs(err).max():.3f}, share below -1 {np.mean(err < -1):.3f}, "
              f"converged {sum(r.converged for r in runs)}")
        if n_seeds >= 8:
            means8 = err[: n_seeds // 8 * 8].reshape(-1, 8).mean(axis=1)
            print(f"  8-seed means: max {means8.max():+.2f}; seeds 0-7 {err[:8].mean():+.2f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 300)
