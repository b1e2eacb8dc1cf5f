"""The paper's claims, checked on this checkout.

Claim (a) of the abstract: the distribution function of a normal variance
mixture at d around 1000, with moderate accuracy, in a few seconds.  The
case is the multivariate t with 3 degrees of freedom (an IG(3) mixture),
equicorrelation 0.5, lower limits -inf and upper limits drawn from U(0, 3)
under the seed, at absolute tol 1e-3 and the default ``RqmcConfig``
otherwise, with seed 1.  One ``prob`` call is timed; its variable
reordering (``distribution.reorder``) is timed inside it.  Prints the
case, the estimate, its error estimate, the batch count, both times, and
whether the claim holds: the call took under 5 s and reports converged.

Claims (b) to (d), log-densities near -100, the ECME fit and the RQMC
ablation, are not checked yet.

Run from the root of a checkout (a few seconds at d = 1000)::

    PYTHONPATH=src python3 scripts/paper_claims.py [d]
"""

import sys
import time

import numpy as np

from nvmix import NvmModel, RqmcConfig, distribution, inverse_gamma, prob

TIME_LIMIT_S = 5.0


def claim_a(d: int = 1000, seed: int = 1, tol: float = 1e-3) -> None:
    sigma = np.full((d, d), 0.5)
    np.fill_diagonal(sigma, 1.0)
    b = np.random.default_rng(seed).uniform(0.0, 3.0, d)
    model = NvmModel.build(None, sigma, inverse_gamma(), [3.0])
    reorder = distribution.reorder
    reorder_s = []

    def timed_reorder(*args):
        start = time.perf_counter()
        factor = reorder(*args)
        reorder_s.append(time.perf_counter() - start)
        return factor

    distribution.reorder = timed_reorder
    try:
        start = time.perf_counter()
        res = prob(np.full(d, -np.inf), b, model, RqmcConfig(tol=tol), seed=seed)
        wall = time.perf_counter() - start
    finally:
        distribution.reorder = reorder
    holds = wall < TIME_LIMIT_S and res.converged
    print(f"(a) prob, IG(3) mixture (t_3), equicorrelation 0.5, d = {d}, "
          f"b ~ U(0, 3), a = -inf, tol {tol:g}, seed {seed}")
    print(f"    estimate {res.estimate:.6g}, error {res.error_estimate:.2g}, "
          f"batches {res.iterations_used}, converged {res.converged}")
    print(f"    time {wall:.3f} s, reorder {sum(reorder_s):.3f} s; "
          f"under {TIME_LIMIT_S:g} s and converged: {'holds' if holds else 'fails'}")


def main(d: int = 1000) -> None:
    claim_a(d)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 1000)
