"""Differentially private estimation of Gaussians and product distributions.

``__all__`` is the public API: the noise source, budgets and Gaussian data;
the estimators (``ppc``, ``pgce``, ``ppc_range``, ``pgce_no_bound``, the
mean learners, ``learn_gaussian``, ``ppde``, ``learn_product_flip_heavy``)
and their result types; the metrics the harness reports; and the tracing
attack runner.  Other module attributes are internal and may change.  The
``privest`` CLI (``privest.cli``) runs reproducible experiments.
"""

from .noise import NoiseSource
from .privacy import PrivacyBudget
from .linalg import (GaussianParams, mahalanobis_mat, mahalanobis_vec,
                     sample_gaussian)
from .covariance import CovEstimate, Preconditioner, pgce, ppc
from .covariance_unbounded import pgce_no_bound, ppc_range
from .mean import MeanEstimate, learn_gaussian, naive_pme, pme, univariate_mean
from .product import ProductModel, ppde
from .harness import learn_product_flip_heavy
from .metrics import (product_sd_upper, tv_gaussian_mc, tv_product_exact,
                      tv_product_mc)
from .attacks import FingerprintReport, run_tracing_attack

__version__ = "0.1.0"

__all__ = [
    "NoiseSource", "PrivacyBudget", "GaussianParams", "sample_gaussian",
    "ppc", "pgce", "ppc_range", "pgce_no_bound", "univariate_mean",
    "naive_pme", "pme", "learn_gaussian", "ppde", "learn_product_flip_heavy",
    "Preconditioner", "CovEstimate", "MeanEstimate", "ProductModel",
    "FingerprintReport",
    "mahalanobis_vec", "mahalanobis_mat", "tv_gaussian_mc",
    "tv_product_exact", "tv_product_mc", "product_sd_upper",
    "run_tracing_attack",
]
