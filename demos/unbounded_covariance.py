"""Covariance estimation with no a-priori condition-number bound.

Stage one votes privately on the order of magnitude of the trace; stage two
sweeps a shrinking bound to peel off dominant directions; stage three runs
the bounded-condition estimator in the preconditioned frame.  The composed
guarantee is (eps, delta)-DP.
"""

import numpy as np

from privest import (GaussianParams, NoiseSource, mahalanobis_mat,
                     pgce_no_bound, sample_gaussian)
from privest.covariance_unbounded import p_estimate_trace
from privest.errors import EstimationFailedError

# trace vote on an isotropic Gaussian
d = 16
x = sample_gaussian(GaussianParams(np.zeros(d), np.eye(d)), 5000,
                    NoiseSource(0))
try:
    est = p_estimate_trace(x, 1.0, 1e-5, 0.05, NoiseSource(1))
except EstimationFailedError:
    print("trace vote: no heavy bucket (bottom)")
else:
    lo, hi = est.certificate
    print(f"trace vote: T = {est.T:g}, band [{est.T/est.C:g}, {est.C*est.T:g}] "
          f"contains tr(Sigma) = {d}")
    print(f"  eigenvalue certificate: [{lo:g}, {hi:g}]")

# full pipeline at a well-measured operating point
diagv = [1.0, 5e4]
sigma = np.diag(diagv)
x = sample_gaussian(GaussianParams(np.zeros(2), sigma), 2_000_000,
                    NoiseSource(2))
out = pgce_no_bound(x, 4.0, 1e-8, 0.05, NoiseSource(3))
err = mahalanobis_mat(out.sigma_hat - sigma, sigma)
print(f"\npgce_no_bound at Sigma = diag{tuple(diagv)}, eps=4, delta=1e-8:")
print(f"  relative error ||Sigma - Sigma_hat||_Sigma = {err:.3f}")
print(f"  budget spent: eps = {out.budget_spent.eps:.3f}, "
      f"delta = {out.budget_spent.delta:.2e}")
