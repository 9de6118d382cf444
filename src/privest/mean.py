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

from .covariance import TARGET_KAPPA, CovEstimate, _Pairs, ppc, pgce
from .errors import InvalidParameterError, check, check_samples
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


@dataclass(eq=False)
class MeanEstimate:
    """A mean estimate (None when a vote aborted) with its spent budget."""

    mu_hat: Optional[np.ndarray]
    budget_spent: PrivacyBudget
    weak_estimate: Optional[np.ndarray] = None
    aborted: bool = False
    diagnostics: dict = field(default_factory=dict)


def _aborted(rho: float, **diagnostics) -> MeanEstimate:
    """The bottom outcome: no estimate, and the whole budget ``rho`` spent."""
    return MeanEstimate(mu_hat=None, budget_spent=PrivacyBudget.zcdp(rho),
                        aborted=True, diagnostics=diagnostics)


def _bucket_keys(keys: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``keys`` floored in place and cast to integer buckets in [lo, hi):
    out-of-range values go to the end buckets and NaN to lo.  A fixed map
    from sample to bucket, so a vote's sensitivity does not depend on the data."""
    keys = np.floor(keys, out=keys)
    return np.fmin(np.fmax(keys, lo, out=keys), hi - 1, out=keys).astype(int)


def univariate_mean(x: np.ndarray, rho: float, beta: float, R: float,
                    kappa: float, noise: NoiseSource) -> MeanEstimate:
    """One-dimensional mean estimation for N(mu, sigma^2), |mu| <= R,
    sigma^2 in [1, kappa], from one column ``x``: a 1-d or (n, 1) array.

    The votes read a copy of the first half; once it is freed, the CDF readings
    count a copy of the second.  Each half is spent at rho/2, so by parallel
    composition this is rho/2-zCDP, though it reports rho.  An empty vote aborts.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 and x.shape[1:] != (1,):
        raise InvalidParameterError(f"univariate_mean takes one column, got shape {x.shape}")
    n = x.shape[0]
    if n < 4:
        raise InvalidParameterError(f"need at least 4 samples, got {n}")
    check(rho=rho, beta=beta, R=R, kappa=kappa)
    m = n - n // 2
    known_scale = kappa <= 1.0 + 1e-12
    diagnostics: dict = {}
    vote = x[:n // 2].flatten()   # each half is read once, into a contiguous copy

    sigma_hat, rho_loc = 1.0, rho / 2.0
    if not known_scale:
        # Scale vote: |N(0, sigma^2)| differences, geometric base-2 buckets.
        # One array holds each pair, then its magnitude, its log2 and its
        # key; a zero or NaN (inf - inf) pair votes for the lowest bucket.
        k_lo, k_hi = -8, math.ceil(math.log2(math.sqrt(kappa))) + 8
        with np.errstate(invalid="ignore", divide="ignore"):
            keys = np.subtract(vote[1::2], vote[:-1:2])
            keys = np.abs(np.divide(keys, math.sqrt(2.0), out=keys), out=keys)
            keys = _bucket_keys(np.log2(keys, out=keys), k_lo, k_hi + 1)
        k_star = argmax_bucket(histogram_zcdp(keys, k_lo, k_hi + 1, rho / 4.0,
                                              beta / 2.0, noise), SCALE_VOTE)
        if k_star is None:
            return _aborted(rho, stage="scale")
        sigma_hat, rho_loc = 2.0 ** k_star, rho / 4.0
        diagnostics["sigma_hat"] = sigma_hat

    # Location vote: buckets covering [-R, R], out-of-range samples clamped
    # into the end buckets.  With an unknown scale the width is twice the
    # voted scale, so the bucket is at least one true standard deviation
    # wide and the modal bucket keeps a quarter of the mass.
    width = sigma_hat if known_scale else 2.0 * sigma_hat
    g = math.ceil(R / width) + 1
    keys = _bucket_keys(np.divide(vote, width, out=vote), -g, g)
    del vote   # freed before its keys are counted and the CDF half is copied
    r_star = argmax_bucket(histogram_zcdp(keys, -g, g, rho_loc, beta / 2.0, noise),
                           LOCATION_VOTE)
    if r_star is None:
        return _aborted(rho, stage="location")
    mu_tilde = r_star * width

    # CDF readings, k of them released as one vector of l2-sensitivity
    # sqrt(k)/m.  At unit variance one reading at the bucket edge inverts to
    # the mean.  Otherwise two readings one voted scale apart straddle the
    # bucket center, and inverting both solves for the mean and the exact
    # scale, so the voted scale only needs its factor-of-2 guarantee.
    center = mu_tilde + width / 2.0
    t = [mu_tilde] if known_scale else [center - sigma_hat / 2.0, center + sigma_hat / 2.0]
    cdf = x[n // 2:].flatten()
    p = gaussian_mechanism_vector([np.count_nonzero(cdf <= ti) / m for ti in t],
                                  math.sqrt(len(t)) / m, rho / 2.0, noise)
    z = ndtri(np.clip(p, 1.0 / (2.0 * m), 1.0 - 1.0 / (2.0 * m))).tolist()
    sigma_est = 1.0
    if not known_scale:
        sigma_est = sigma_hat / min(max(z[1] - z[0], _DZ_MIN), _DZ_MAX)
        diagnostics["sigma_est"] = sigma_est
    mu_hat = t[0] - sigma_est * z[0]
    return MeanEstimate(mu_hat=np.float64(mu_hat), budget_spent=PrivacyBudget.zcdp(rho),
                        weak_estimate=np.float64(mu_tilde), diagnostics=diagnostics)


def _samples(x, min_rows: int, **params) -> np.ndarray:
    """``x`` as float samples, once ``params`` pass the gate and ``x`` has at
    least ``min_rows`` rows: univariate_mean's 4 per column for naive_pme, 12
    for pme and learn_gaussian, so that pme's mean third holds 4."""
    x = check_samples(np.asarray(x, dtype=float))
    check(**params)
    if x.shape[0] < min_rows:
        raise InvalidParameterError(f"need at least {min_rows} rows, got {x.shape[0]}")
    return x


def naive_pme(x: np.ndarray, rho: float, alpha: float, beta: float, R: float,
              kappa: float, noise: NoiseSource) -> MeanEstimate:
    """Coordinate-wise mean estimation for I <= Sigma <= kappa*I.

    Each coordinate runs univariate_mean at rho/d and beta/d on its own child
    noise stream, to error alpha/sqrt(d); an abort aborts the whole estimate
    (coordinate recorded).  It reports rho but, as univariate_mean reads
    disjoint halves, is rho/2-zCDP.
    """
    x = _samples(x, 4, rho=rho, alpha=alpha, beta=beta, R=R, kappa=kappa)
    d = x.shape[1]
    mu = np.empty(d)
    weak = np.empty(d)
    for j in range(d):
        est = univariate_mean(x[:, j], rho / d, beta / d, R, kappa,
                              noise.child(j))
        if est.aborted:
            return _aborted(rho, aborted_coordinate=j, **est.diagnostics)
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
    preconditioner (budget rho); the last third, mapped by A, goes to the
    coordinate-wise estimator at condition bound TARGET_KAPPA and mean bound
    TARGET_KAPPA * R (budget rho), and back through A's exact inverse.  With
    no preconditioning rounds A = I, the rows pass as they are, no pair is read.
    """
    x = _samples(x, 12, rho=rho, alpha=alpha, beta=beta, R=R, kappa=kappa)
    total = x.shape[0]
    n = total // 3
    pre = ppc(_Pairs(x[:2 * n]), rho, beta, kappa, noise)
    with np.errstate(over="ignore", invalid="ignore"):   # univariate_mean buckets NaN, inf
        y = x[2 * n:3 * n] @ pre.A.T if pre.round_log else x[2 * n:3 * n]
    inner = naive_pme(y, rho, alpha, beta, TARGET_KAPPA * R, TARGET_KAPPA, noise)
    diagnostics = {"preconditioner_rounds": pre.round_log,
                   "ignored_rows": total - 3 * n,
                   **inner.diagnostics}
    if inner.aborted:
        return _aborted(2.0 * rho, **diagnostics)
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
    x = _samples(x, 12, rho=rho, alpha=alpha, beta=beta, R=R, kappa=kappa)
    cov_est = pgce(_Pairs(x), rho / 2.0, beta / 2.0, kappa, noise)
    mean_est = pme(x, rho / 4.0, alpha, beta / 2.0, R, kappa, noise)
    return mean_est, cov_est
