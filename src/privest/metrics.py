"""Distances between distributions and parameter-space error measures."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from .errors import InvalidInputError, InvalidParameterError, TooLargeError
from .linalg import GaussianParams, mahalanobis_mat, mahalanobis_vec
from .noise import NoiseSource
from .product import _BLOCK

_EXACT_TV_MAX_DIM = 20


def tv_gaussian_same_cov(mu1: np.ndarray, mu2: np.ndarray,
                         sigma: np.ndarray) -> float:
    """TV(N(mu1, Sigma), N(mu2, Sigma)) = 2*Phi(||mu1-mu2||_Sigma / 2) - 1."""
    delta = np.asarray(mu1, dtype=float) - np.asarray(mu2, dtype=float)
    dist = mahalanobis_vec(delta, sigma)
    return float(2.0 * ndtr(dist / 2.0) - 1.0)


def _gaussian_logpdf_factory(params: GaussianParams):
    ell = np.linalg.cholesky(params.cov)
    half_logdet = float(np.sum(np.log(np.diag(ell))))
    d = params.dim
    const = -0.5 * d * math.log(2.0 * math.pi) - half_logdet

    def logpdf(x: np.ndarray) -> np.ndarray:
        w = np.linalg.solve(ell, (x - params.mean).T)
        return const - 0.5 * np.sum(w * w, axis=0)

    return logpdf, ell


def tv_gaussian_mc(p: GaussianParams, q: GaussianParams, trials: int,
                   noise: NoiseSource) -> tuple[float, float]:
    """Monte Carlo TV estimate E_{x~P}[max(0, 1 - q(x)/p(x))] with stderr.

    Density ratios are evaluated in log space, so extreme mismatches
    underflow to a contribution of exactly 1 instead of overflowing.

    A Q whose covariance has no Cholesky factor (singular, as a PSD
    estimate can be) is degenerate: all its mass lies on a proper affine
    subspace, which P gives probability 0, so the TV is exactly 1 and the
    result is (1.0, 0.0) with no draws.  P must have a Cholesky factor.
    """
    if trials < 2:
        raise InvalidParameterError("need at least 2 trials")
    try:
        logp, ell = _gaussian_logpdf_factory(p)
    except np.linalg.LinAlgError:
        raise InvalidInputError("P's covariance has no Cholesky factor") from None
    try:
        logq, _ = _gaussian_logpdf_factory(q)
    except np.linalg.LinAlgError:
        return 1.0, 0.0
    z = noise.gaussian(1.0, size=(trials, p.dim))
    x = p.mean + z @ ell.T
    diff = logq(x) - logp(x)
    vals = np.maximum(0.0, -np.expm1(np.minimum(diff, 0.0)))
    est = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(trials))
    return est, stderr


def _product_pmf(p: np.ndarray) -> np.ndarray:
    """Probabilities of all 2^d outcomes, bit j of the index = coordinate j."""
    out = np.array([1.0])
    for pj in p:
        out = np.concatenate([out * (1.0 - pj), out * pj])
    return out


def tv_product_exact(p: np.ndarray, q: np.ndarray) -> float:
    """Exact TV between two product distributions by full enumeration."""
    p = np.asarray(p, dtype=float).ravel()
    q = np.asarray(q, dtype=float).ravel()
    if p.shape != q.shape:
        raise InvalidParameterError("dimension mismatch")
    d = p.shape[0]
    if d > _EXACT_TV_MAX_DIM:
        raise TooLargeError(f"exact TV limited to d <= {_EXACT_TV_MAX_DIM}, got {d}")
    return float(0.5 * np.abs(_product_pmf(p) - _product_pmf(q)).sum())


def tv_product_mc(p: np.ndarray, q: np.ndarray, trials: int,
                  noise: NoiseSource) -> tuple[float, float]:
    """Monte Carlo TV estimate for product distributions of any dimension.

    Trials are drawn and scored in blocks of about ``_BLOCK`` uniforms, which read
    the stream as one (trials, d) draw would, and each is scored along its own row."""
    p = np.asarray(p, dtype=float).ravel()
    q = np.asarray(q, dtype=float).ravel()
    if trials < 2:
        raise InvalidParameterError("need at least 2 trials")
    log_p1, log_p0 = np.log(np.maximum(p, 1e-300)), np.log(np.maximum(1 - p, 1e-300))
    log_q1, log_q0 = np.log(np.maximum(q, 1e-300)), np.log(np.maximum(1 - q, 1e-300))
    vals, step = np.empty(trials), max(1, _BLOCK // max(p.shape[0], 1))
    for start in range(0, trials, step):
        x = noise.uniform(size=(min(step, trials - start), p.shape[0])) < p
        logp = np.where(x, log_p1, log_p0).sum(axis=1)
        logq = np.where(x, log_q1, log_q0).sum(axis=1)
        vals[start: start + len(x)] = np.maximum(0.0, -np.expm1(np.minimum(logq - logp, 0.0)))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(trials))


def chi2_kl_bernoulli(p: float, q: float) -> tuple[float, float]:
    """(chi-squared, KL) divergence between Ber(p) and Ber(q).

    q at the boundary with p != q yields infinities (signaled, not raised).
    """
    if not (0 <= p <= 1) or not (0 <= q <= 1):
        raise InvalidParameterError("p, q must lie in [0,1]")
    if p == q:
        return 0.0, 0.0
    if q in (0.0, 1.0):
        return math.inf, math.inf

    chi2 = (p - q) ** 2 / (q * (1.0 - q))

    def _term(a: float, b: float) -> float:
        return 0.0 if a == 0.0 else a * math.log(a / b)

    kl = _term(p, q) + _term(1.0 - p, 1.0 - q)
    return chi2, kl


def product_sd_upper(p: np.ndarray, q: np.ndarray) -> float:
    """Subadditive TV upper bound: sum of per-coordinate Bernoulli TVs."""
    p = np.asarray(p, dtype=float).ravel()
    q = np.asarray(q, dtype=float).ravel()
    if p.shape != q.shape:
        raise InvalidParameterError("dimension mismatch")
    if not np.all((p >= 0) & (p <= 1) & (q >= 0) & (q <= 1)):  # NaN fails too
        raise InvalidParameterError("coordinates must lie in [0,1]")
    return float(np.abs(p - q).sum())


def gaussian_param_error(truth: GaussianParams,
                         est: GaussianParams) -> tuple[float, float]:
    """(||mu - mu_hat||_Sigma, ||Sigma - Sigma_hat||_Sigma), Sigma = truth.cov."""
    dmu = truth.mean - est.mean
    dcov = truth.cov - est.cov
    return (mahalanobis_vec(dmu, truth.cov), mahalanobis_mat(dcov, truth.cov))
