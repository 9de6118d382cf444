"""Private covariance estimation for I <= Sigma <= kappa*I.

The pipeline: a clamped-and-noised empirical covariance (``naive_pce``), a
one-step preconditioner that privately finds the large-eigenvalue subspace
and shrinks it (``weak_ppc``), the recursion that drives the certified
condition bound down to 1000 (``ppc``), and the full estimator that
preconditions, estimates in the well-conditioned frame, and conjugates back
(``pgce``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import EmptyInputError, InvalidParameterError, SingularMatrixError
from .linalg import project_psd
from .noise import NoiseSource
from .privacy import PrivacyBudget, gaussian_mechanism_symmetric

# Certified condition bound at which the preconditioning recursion stops.
TARGET_KAPPA = 1000.0
# Per-round shrink of the certified bound.
ROUND_SHRINK = 0.7
# Per-round inflation absorbing estimation error in the certificate.
ROUND_SCALE = 1.1


@dataclass
class RoundRecord:
    """One preconditioning round: its bound, threshold, and chosen subspace."""

    kappa: float
    threshold: float
    subspace_dim: int
    rho: float
    K: float


@dataclass
class Preconditioner:
    """Accumulated preconditioning matrix A with per-round certificates.

    Each round's factor is symmetric of the form (1/sqrt(K)) * P_V + P_Vperp
    (times the round scale); the accumulated product is applied to samples as
    rows @ A.T.
    """

    A: np.ndarray
    round_log: list = field(default_factory=list)
    budget_spent: Optional[PrivacyBudget] = None
    kappa_star: Optional[float] = None


@dataclass
class CovEstimate:
    sigma_hat: np.ndarray
    budget_spent: PrivacyBudget
    diagnostics: dict = field(default_factory=dict)


def clamp_threshold_sq(kappa: float, d: int, n: int, beta: float) -> float:
    """B^2 = kappa * d * (1 + 3*ln(2n/beta)); samples with larger squared norm
    are dropped before averaging."""
    return kappa * d * (1.0 + 3.0 * math.log(2.0 * n / beta))


def _validate_common(x: np.ndarray, rho: float, beta: float, kappa: float):
    if x.ndim != 2:
        raise InvalidParameterError(f"samples must be 2-d, got shape {x.shape}")
    if x.shape[0] == 0:
        raise EmptyInputError("no samples")
    if rho <= 0:
        raise InvalidParameterError(f"rho must be > 0, got {rho}")
    if not (0 < beta < 1):
        raise InvalidParameterError(f"beta must be in (0,1), got {beta}")
    if kappa < 1:
        raise InvalidParameterError(f"kappa must be >= 1, got {kappa}")


def clamped_covariance(x: np.ndarray, b_sq: float) -> tuple[np.ndarray, int]:
    """(1/n) sum of X_i X_i^T over rows with ||X_i||^2 <= b_sq.

    The divisor stays n (not |S|), matching the sensitivity analysis.
    Returns the matrix and the number of kept rows.
    """
    n = x.shape[0]
    norms = np.einsum("ij,ij->i", x, x)
    keep = norms <= b_sq
    xs = x[keep]
    cov = (xs.T @ xs) / n
    return (cov + cov.T) / 2.0, int(keep.sum())


def naive_pce(x: np.ndarray, rho: float, beta: float, kappa: float,
              noise: NoiseSource, diagnostics: Optional[dict] = None) -> np.ndarray:
    """Clamp, average, noise, project: the basic private covariance estimator.

    Dropping rows over the clamp threshold bounds the Frobenius sensitivity
    of the average by 2*B^2/n, which calibrates the symmetric Gaussian noise.
    The PSD projection can only improve the estimate.
    """
    x = np.asarray(x, dtype=float)
    _validate_common(x, rho, beta, kappa)
    n, d = x.shape
    b_sq = clamp_threshold_sq(kappa, d, n, beta)
    cov, kept = clamped_covariance(x, b_sq)
    delta_f = 2.0 * b_sq / n
    noisy = gaussian_mechanism_symmetric(cov, delta_f, rho, noise)
    out = project_psd(noisy)
    if diagnostics is not None:
        diagnostics["kept"] = kept
        diagnostics["dropped"] = n - kept
        diagnostics["clamp_threshold_sq"] = b_sq
        diagnostics["noise_sigma"] = delta_f / math.sqrt(2.0 * rho)
    return out


def _split_from_noisy_cov(z: np.ndarray, kappa: float, K: float):
    """Threshold the eigenstructure of a (noisy) covariance at kappa/2.

    Returns (V, A): the large-eigenvalue basis (d x k, possibly k=0) and
    A = (1/sqrt(K)) P_V + P_Vperp.  Ties at exactly kappa/2 go into V.
    """
    d = z.shape[0]
    evals, evecs = np.linalg.eigh(z)
    big = evals >= kappa / 2.0
    v = evecs[:, big]
    if v.shape[1] == 0:
        return v, np.eye(d)
    pv = v @ v.T
    a = np.eye(d) + (1.0 / math.sqrt(K) - 1.0) * pv
    return v, (a + a.T) / 2.0


def weak_ppc(x: np.ndarray, rho: float, beta: float, kappa: float, K: float,
             noise: NoiseSource) -> tuple[np.ndarray, np.ndarray]:
    """One preconditioning step.

    Runs naive_pce, collects eigenvectors with eigenvalue >= kappa/2 into V,
    and shrinks that subspace by 1/sqrt(K).  Returns (V, A); V may be empty,
    in which case A = I.
    """
    if kappa <= 1:
        raise InvalidParameterError(f"kappa must be > 1, got {kappa}")
    if K < 1:
        raise InvalidParameterError(f"K must be >= 1, got {K}")
    z = naive_pce(x, rho, beta, kappa, noise)
    return _split_from_noisy_cov(z, kappa, K)


def ppc(x: np.ndarray, rho: float, beta: float, kappa: float,
        noise: NoiseSource, K: float = 2.0) -> Preconditioner:
    """Recursive private preconditioning down to the target bound.

    Runs T = ceil(ln(kappa/1000) / ln(1/0.7)) rounds (0 when kappa <= 1000),
    splitting rho and beta evenly.  Each round shrinks the certified bound by
    0.7 while the accumulated A keeps I <= A Sigma A^T <= 1000 I w.h.p.
    """
    x = np.asarray(x, dtype=float)
    _validate_common(x, rho, beta, kappa)
    d = x.shape[1]
    if kappa <= TARGET_KAPPA:
        t_rounds = 0
    else:
        t_rounds = math.ceil(math.log(kappa / TARGET_KAPPA) / math.log(1.0 / ROUND_SHRINK))
    a_total = np.eye(d)
    log: list[RoundRecord] = []
    kap = kappa
    xt = x
    for _ in range(t_rounds):
        v, a_w = weak_ppc(xt, rho / t_rounds, beta / t_rounds, kap, K, noise)
        a_round = ROUND_SCALE * a_w
        xt = xt @ a_round.T
        a_total = a_round @ a_total
        log.append(RoundRecord(kappa=kap, threshold=kap / 2.0,
                               subspace_dim=int(v.shape[1]),
                               rho=rho / t_rounds, K=K))
        kap *= ROUND_SHRINK
    return Preconditioner(A=a_total, round_log=log,
                          budget_spent=PrivacyBudget.zcdp(rho if t_rounds else 0.0))


def pgce(x: np.ndarray, rho: float, beta: float, kappa: float,
         noise: NoiseSource) -> CovEstimate:
    """Precondition, estimate in the well-conditioned frame, conjugate back.

    Half the budget preconditions; the other half runs naive_pce on the
    transformed samples at the tighter of (kappa, 1000) — after
    preconditioning the transformed covariance is certified below both.
    """
    x = np.asarray(x, dtype=float)
    _validate_common(x, rho, beta, kappa)
    pre = ppc(x, rho / 2.0, beta / 2.0, kappa, noise)
    y = x @ pre.A.T
    kappa_eff = min(kappa, TARGET_KAPPA)
    diag: dict = {}
    sigma_tilde = naive_pce(y, rho / 2.0, beta / 2.0, kappa_eff, noise, diagnostics=diag)
    try:
        a_inv = np.linalg.inv(pre.A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - A is PD by construction
        raise SingularMatrixError("preconditioner is singular") from exc
    sigma_hat = a_inv @ sigma_tilde @ a_inv.T
    sigma_hat = (sigma_hat + sigma_hat.T) / 2.0
    diag["rounds"] = pre.round_log
    diag["kappa_eff"] = kappa_eff
    # spent: rho/2 in ppc (0 if no rounds ran, but reserved regardless) + rho/2 here
    return CovEstimate(sigma_hat=sigma_hat,
                       budget_spent=PrivacyBudget.zcdp(rho),
                       diagnostics=diag)
