"""Differentially private estimation of Gaussians and product distributions.

Highlights:

* :mod:`privest.privacy` — budgets and the one Gaussian mechanism.
* :mod:`privest.covariance` — recursive private preconditioning and
  covariance estimation for a known condition bound.
* :mod:`privest.covariance_unbounded` — the condition-number-free variant.
* :mod:`privest.mean` — univariate and preconditioned mean estimation.
* :mod:`privest.product` — Boolean product-distribution learning.
* :mod:`privest.attacks` — tracing (fingerprinting) attack tooling.
* :mod:`privest.harness` / ``privest`` CLI — reproducible experiments.
"""

from .noise import NoiseSource
from .privacy import (PrivacyBudget, gaussian_mechanism_symmetric,
                      gaussian_mechanism_vector, zcdp_to_approx_dp)
from .linalg import (GaussianParams, inv_sqrt_psd, mahalanobis_mat,
                     mahalanobis_vec, project_psd, sample_gaussian)
from .histogram import (HistogramResult, argmax_bucket, histogram_zcdp,
                        stable_histogram_approx_dp)
from .covariance import (CovEstimate, Preconditioner, naive_pce, pgce, ppc,
                         weak_ppc)
from .covariance_unbounded import (TraceEstimate, p_estimate_trace,
                                   pgce_no_bound, ppc_range,
                                   weak_ppc_no_bound)
from .mean import MeanEstimate, learn_gaussian, naive_pme, pme, univariate_mean
from .product import ProductModel, ppde, tmean
from .metrics import (chi2_kl_bernoulli, gaussian_param_error,
                      product_sd_upper, tv_gaussian_mc, tv_gaussian_same_cov,
                      tv_product_exact, tv_product_mc)
from .attacks import (FingerprintReport, cov_packing, fp_score_gaussian,
                      fp_score_product, run_tracing_attack)

__version__ = "0.1.0"

__all__ = [
    "NoiseSource", "PrivacyBudget", "zcdp_to_approx_dp",
    "gaussian_mechanism_vector",
    "gaussian_mechanism_symmetric", "GaussianParams", "project_psd",
    "mahalanobis_vec", "mahalanobis_mat", "sample_gaussian",
    "inv_sqrt_psd", "HistogramResult", "stable_histogram_approx_dp",
    "histogram_zcdp", "argmax_bucket", "Preconditioner", "CovEstimate",
    "naive_pce", "weak_ppc", "ppc", "pgce", "TraceEstimate",
    "p_estimate_trace", "weak_ppc_no_bound", "ppc_range", "pgce_no_bound",
    "MeanEstimate", "univariate_mean", "naive_pme", "pme", "learn_gaussian",
    "ProductModel", "tmean", "ppde",
    "tv_gaussian_same_cov", "tv_gaussian_mc", "tv_product_exact",
    "tv_product_mc", "chi2_kl_bernoulli", "product_sd_upper",
    "gaussian_param_error", "FingerprintReport", "fp_score_product",
    "fp_score_gaussian", "run_tracing_attack", "cov_packing",
]
