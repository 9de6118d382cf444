"""Private Gaussian mean estimation.

The univariate estimator votes on a coarse location bucket with a private
histogram, then refines it by privately reading the empirical CDF at the
bucket edge and inverting the Gaussian CDF.  When the variance is only known
up to a factor kappa, a preliminary private vote over geometric buckets of
pairwise differences pins the standard deviation to a factor of ~2, the
location buckets take that width, and the CDF is read at two points so the
inversion solves for the mean and the exact scale jointly; with a single
reading the inversion is only consistent at unit variance.

Multivariate estimation is coordinate-wise (naive_pme) or preconditioned
first so every coordinate is well-conditioned (pme).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import ndtri

from .covariance import CovEstimate, _Pairs, ppc, pgce
from .errors import InvalidParameterError
from .histogram import argmax_bucket, histogram_zcdp
from .noise import NoiseSource
from .privacy import PrivacyBudget, gaussian_mechanism_vector

# Vote threshold for the location bucket.
LOCATION_VOTE = 0.25
# Vote threshold for the scale bucket; the modal geometric bucket of |N(0,1)|
# holds ~0.27 of the mass at worst alignment, so 0.15 leaves noise headroom.
SCALE_VOTE = 0.15
# Inverse-CDF spread clamp: the true spread t2-t1 in z-units is the ratio of
# the voted scale to the true scale, itself within [1/4, 4] after the vote.
_DZ_MIN, _DZ_MAX = 0.25, 4.0


@dataclass
class MeanEstimate:
    mu_hat: Optional[np.ndarray]
    budget_spent: PrivacyBudget
    weak_estimate: Optional[np.ndarray] = None
    aborted: bool = False
    diagnostics: dict = field(default_factory=dict)


def univariate_mean(x: np.ndarray, rho: float, beta: float, R: float,
                    kappa: float, noise: NoiseSource) -> MeanEstimate:
    """One-dimensional mean estimation for N(mu, sigma^2), |mu| <= R,
    sigma^2 in [1, kappa].

    Budget: the histogram stage(s) spend rho/2 total and the CDF stage
    spends rho/2.  Any empty vote aborts (the bottom outcome), which is
    privacy-preserving.
    """
    x = np.asarray(x, dtype=float).ravel()
    n = x.shape[0]
    if n < 4:
        raise InvalidParameterError(f"need at least 4 samples, got {n}")
    if not (rho > 0 and 0 < beta < 1 and R >= 0 and kappa >= 1):
        raise InvalidParameterError("bad (rho, beta, R, kappa)")
    half = n // 2
    hist_block = x[:half]
    cdf_block = x[half:]
    m = cdf_block.shape[0]
    known_scale = kappa <= 1.0 + 1e-12
    diagnostics: dict = {}

    if known_scale:
        sigma_hat = 1.0
        rho_loc = rho / 2.0
    else:
        # Scale vote: |N(0, sigma^2)| differences, geometric base-2 buckets.
        npairs = 2 * (hist_block.shape[0] // 2)
        with np.errstate(invalid="ignore"):   # inf - inf: a NaN pair, bucket k_lo below
            pairs = (hist_block[1:npairs:2] - hist_block[0:npairs:2]) / math.sqrt(2.0)
        absd = np.abs(pairs)
        k_lo = -8
        k_hi = math.ceil(math.log2(math.sqrt(kappa))) + 8
        with np.errstate(divide="ignore"):
            raw = np.floor(np.log2(np.where(absd > 0, absd, 2.0 ** (k_lo - 1))))
        keys = np.clip(raw, k_lo, k_hi).astype(int)
        h = histogram_zcdp(keys, k_lo, k_hi + 1, rho / 4.0, beta / 2.0, noise)
        k_star = argmax_bucket(h, SCALE_VOTE)
        if k_star is None:
            return MeanEstimate(mu_hat=None, budget_spent=PrivacyBudget.zcdp(rho),
                                aborted=True, diagnostics={"stage": "scale"})
        sigma_hat = 2.0 ** k_star
        rho_loc = rho / 4.0
        diagnostics["sigma_hat"] = sigma_hat

    # Location vote: buckets covering [-R, R], out-of-range samples clamped
    # into the end buckets.  With an unknown scale the width is twice the
    # voted scale, so the bucket is at least one true standard deviation
    # wide and the modal bucket keeps a quarter of the mass.  A NaN sample
    # goes to the lowest bucket: a fixed map from sample to bucket, so the
    # vote's sensitivity is unchanged.
    width = sigma_hat if known_scale else 2.0 * sigma_hat
    g = math.ceil(R / width) + 1
    keys = np.fmax(np.floor(hist_block / width), -g)  # fmax sends NaN to -g
    keys = np.fmin(keys, g - 1, out=keys).astype(int)
    h = histogram_zcdp(keys, -g, g, rho_loc, beta / 2.0, noise)
    r_star = argmax_bucket(h, LOCATION_VOTE)
    if r_star is None:
        return MeanEstimate(mu_hat=None, budget_spent=PrivacyBudget.zcdp(rho),
                            aborted=True, diagnostics={"stage": "location"})
    mu_tilde = r_star * width

    if known_scale:
        # Single CDF reading at the bucket edge; l2-sensitivity 1/m.
        p = float(gaussian_mechanism_vector(np.mean(cdf_block <= mu_tilde),
                                            1.0 / m, rho / 2.0, noise))
        p = min(max(p, 1.0 / (2.0 * m)), 1.0 - 1.0 / (2.0 * m))
        mu_hat = mu_tilde - float(ndtri(p))
    else:
        # Two CDF readings one voted-scale apart straddling the bucket
        # center; jointly sensitivity sqrt(2)/m.  Inverting both solves for
        # the mean and the exact scale, so the voted scale only needs to be
        # right within its factor-of-2 guarantee.
        center = mu_tilde + width / 2.0
        t1, t2 = center - sigma_hat / 2.0, center + sigma_hat / 2.0
        p = gaussian_mechanism_vector(
            [np.mean(cdf_block <= t1), np.mean(cdf_block <= t2)],
            math.sqrt(2.0) / m, rho / 2.0, noise)
        p = np.clip(p, 1.0 / (2.0 * m), 1.0 - 1.0 / (2.0 * m))
        z1, z2 = float(ndtri(p[0])), float(ndtri(p[1]))
        dz = min(max(z2 - z1, _DZ_MIN), _DZ_MAX)
        sigma_est = sigma_hat / dz
        mu_hat = t1 - sigma_est * z1
        diagnostics["sigma_est"] = sigma_est

    return MeanEstimate(mu_hat=np.float64(mu_hat),
                        budget_spent=PrivacyBudget.zcdp(rho),
                        weak_estimate=np.float64(mu_tilde),
                        diagnostics=diagnostics)


def naive_pme(x: np.ndarray, rho: float, alpha: float, beta: float, R: float,
              kappa: float, noise: NoiseSource) -> MeanEstimate:
    """Coordinate-wise mean estimation for I <= Sigma <= kappa*I.

    Each coordinate runs the univariate estimator with budget rho/d and
    confidence beta/d on an independent child noise stream; the per
    coordinate error target is alpha/sqrt(d).  Any coordinate abort aborts
    the whole estimate (coordinate recorded).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InvalidParameterError(f"samples must be 2-d, got shape {x.shape}")
    d = x.shape[1]
    mu = np.empty(d)
    weak = np.empty(d)
    for j in range(d):
        est = univariate_mean(x[:, j], rho / d, beta / d, R, kappa,
                              noise.child(j))
        if est.aborted:
            return MeanEstimate(mu_hat=None, budget_spent=PrivacyBudget.zcdp(rho),
                                aborted=True,
                                diagnostics={"aborted_coordinate": j,
                                             **est.diagnostics})
        mu[j] = est.mu_hat
        weak[j] = est.weak_estimate
    return MeanEstimate(mu_hat=mu, budget_spent=PrivacyBudget.zcdp(rho),
                        weak_estimate=weak,
                        diagnostics={"alpha_per_coord": alpha / math.sqrt(d)})


def pme(x: np.ndarray, rho: float, alpha: float, beta: float, R: float,
        kappa: float, noise: NoiseSource) -> MeanEstimate:
    """Preconditioned mean estimation; total budget 2*rho.

    The first two thirds of the rows form mean-free difference pairs
    (X_{2i} - X_{2i-1})/sqrt(2), never built whole, that drive the covariance
    preconditioner (budget rho); the last third is transformed by A and handed
    to the coordinate-wise estimator at condition bound 1000 (budget rho), and
    the estimate is mapped back through A's exact inverse.  With no
    preconditioning rounds A = I, the rows pass as they are, no pair is read.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InvalidParameterError(f"samples must be 2-d, got shape {x.shape}")
    total = x.shape[0]
    n = total // 3
    if n < 2:
        raise InvalidParameterError(f"need at least 6 rows, got {total}")
    pre = ppc(_Pairs(x[:2 * n]), rho, beta, kappa, noise)
    with np.errstate(over="ignore", invalid="ignore"):   # univariate_mean buckets NaN, inf
        y = x[2 * n:3 * n] @ pre.A.T if pre.round_log else x[2 * n:3 * n]
    inner = naive_pme(y, rho, alpha, beta, 1000.0 * R, 1000.0, noise)
    diagnostics = {"preconditioner_rounds": pre.round_log,
                   "ignored_rows": total - 3 * n,
                   **inner.diagnostics}
    if inner.aborted:
        return MeanEstimate(mu_hat=None, budget_spent=PrivacyBudget.zcdp(2.0 * rho),
                            aborted=True, diagnostics=diagnostics)
    mu_hat = pre.A_inv @ inner.mu_hat
    return MeanEstimate(mu_hat=mu_hat, budget_spent=PrivacyBudget.zcdp(2.0 * rho),
                        weak_estimate=inner.weak_estimate,
                        diagnostics=diagnostics)


def learn_gaussian(x: np.ndarray, rho: float, alpha: float, beta: float,
                   R: float, kappa: float,
                   noise: NoiseSource) -> tuple[MeanEstimate, CovEstimate]:
    """Joint mean and covariance estimation with total budget rho.

    rho/2 goes to covariance estimation on mean-free difference pairs, which
    ``pgce`` reads a block at a time, never built whole; rho/2 goes to the
    preconditioned mean estimator (as 2 * rho/4).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InvalidParameterError(f"samples must be 2-d, got shape {x.shape}")
    cov_est = pgce(_Pairs(x), rho / 2.0, beta / 2.0, kappa, noise)
    mean_est = pme(x, rho / 4.0, alpha, beta / 2.0, R, kappa, noise)
    return mean_est, cov_est
