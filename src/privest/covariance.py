"""Private covariance estimation for I <= Sigma <= kappa*I.

The pipeline: a clamped-and-noised empirical covariance (``naive_pce``), a
one-step preconditioner that privately finds the large-eigenvalue subspace
and shrinks it (``weak_ppc``), the recursion that drives the certified
condition bound down to 1000 (``ppc``), and the full estimator that
preconditions, estimates in the well-conditioned frame, and conjugates back
(``pgce``).  The rounds never transform the samples: they read one cached
Gram matrix through the accumulated map (``_Frame``), and pass over the rows
only when a bound on the mapped norms reaches a clamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import EmptyInputError, InvalidParameterError
from .linalg import project_psd, sym_eigh
from .noise import NoiseSource
from .privacy import PrivacyBudget, gaussian_mechanism_symmetric

# Certified condition bound at which the preconditioning recursion stops.
TARGET_KAPPA = 1000.0
# Per-round shrink of the certified bound.
ROUND_SHRINK = 0.7
# Per-round inflation absorbing estimation error in the certificate.
ROUND_SCALE = 1.1
# ppc's per-round shrink of the heavy subspace (each factor scales it by
# 1/sqrt(K)).
ROUND_K = 2.0
# A frame's exact norm refresh passes over the rows in blocks of at most
# this many multiply-adds.  OpenBLAS runs a product that small on the calling
# thread; splitting each whole pass over two threads made an operation 2-3x
# slower whenever another process kept the second core busy.
_BLOCK_MADDS = 2 ** 18


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
    rows @ A.T.  ``ppc`` also fills the exact inverse ``A_inv``, the product
    of the factors' inverses (1/ROUND_SCALE) * (I + (sqrt(K) - 1) V V^T),
    never a dense inverse; its rounds read one cached Gram matrix through the
    accumulated map instead of transforming the samples, and pass over the
    rows only when a bound on their norms reaches a clamp.  ``ppc_range``
    fills only A.
    """

    A: np.ndarray
    round_log: list = field(default_factory=list)
    budget_spent: Optional[PrivacyBudget] = None
    kappa_star: Optional[float] = None
    A_inv: Optional[np.ndarray] = None


@dataclass
class CovEstimate:
    sigma_hat: np.ndarray
    budget_spent: PrivacyBudget
    diagnostics: dict = field(default_factory=dict)


def clamp_threshold_sq(kappa: float, d: int, n: int, beta: float) -> float:
    """B^2 = kappa * d * (1 + 3*ln(2n/beta)); samples with larger squared norm
    are dropped before averaging."""
    return kappa * d * (1.0 + 3.0 * math.log(2.0 * n / beta))


def _validate_common(x, rho: float, beta: float, kappa: float):
    if len(x.shape) != 2:
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
    xs = x if keep.all() else x[keep]
    cov = (xs.T @ xs) / n
    return (cov + cov.T) / 2.0, int(keep.sum())


class _Frame:
    """Samples seen through an accumulated map M, never transformed.

    Holds the rows that any later clamp could keep, their clamped second
    moment S = G/n computed once, their squared norms under M, and M with
    its exact inverse, built one factor ROUND_SCALE * (I - c V V^T) per
    round with shrink K.  ``shape`` is the samples' shape.  Each factor has
    spectral norm ROUND_SCALE, so ``push`` only grows a bound on the largest
    squared norm and leaves the norms stale; ``moment`` recomputes them only
    for a clamp the bound passes.  A frame never pushed keeps exact norms.
    """

    def __init__(self, x: np.ndarray, clamps: list[float], K: float):
        """``clamps[t]`` is the squared-norm clamp applied after t factors
        (ppc's rounds, then pgce's final estimate)."""
        self.shape = x.shape
        self.K = K
        self.rounds = 0
        # Each factor shrinks a norm by at most ROUND_SCALE/sqrt(K), so a
        # row past this bound is dropped by every clamp.  Keeping it out of
        # S stops a huge finite row from cancelling the rest when dropped.
        self.loosest = max(self._reach(b, t) for t, b in enumerate(clamps))
        norms = np.einsum("ij,ij->i", x, x)
        keep = norms <= self.loosest
        if keep.all():
            self.rows, self.norms = x, norms
        else:
            self.rows, self.norms = x[keep], norms[keep]
        self.bound, self.stale = self.norms.max(initial=0.0), False
        second = (self.rows.T @ self.rows) / x.shape[0]
        self.second = (second + second.T) / 2.0
        self.m = np.eye(x.shape[1])
        self.m_inv = np.eye(x.shape[1])

    def _reach(self, b_sq: float, t: int) -> float:
        """The largest squared norm, before any factor, that the clamp b_sq
        applied after t factors can keep."""
        return b_sq * (self.K / ROUND_SCALE ** 2) ** t

    def moment(self, b_sq: float) -> tuple[np.ndarray, int]:
        """clamped_covariance of the mapped rows: M (S - dropped x x^T / n) M^T."""
        if self._reach(b_sq, self.rounds) > self.loosest:
            raise InvalidParameterError(
                f"clamp {b_sq} after {self.rounds} rounds is looser than the frame's")
        # stale norms are at most the bound, so within it they drop nothing
        if self.stale and self.bound > b_sq:
            self._refresh()
        drop = self.norms > b_sq
        cov = self.second
        if drop.any():
            xd = self.rows[drop]
            cov = cov - (xd.T @ xd) / self.shape[0]
        if self.rounds:
            cov = self.m @ cov @ self.m.T
        return (cov + cov.T) / 2.0, self.rows.shape[0] - int(drop.sum())

    def _refresh(self):
        """Recompute the exact squared norms |M x|^2 in one blocked pass."""
        step = max(1, _BLOCK_MADDS // self.m.size)
        proj = np.empty((step, self.shape[1]))
        for lo in range(0, self.rows.shape[0], step):
            block = self.rows[lo:lo + step]
            p = np.matmul(block, self.m.T, out=proj[:block.shape[0]])
            np.einsum("ij,ij->i", p, p, out=self.norms[lo:lo + step])
        self.bound, self.stale = self.norms.max(initial=0.0), False

    def push(self, v: np.ndarray):
        """Compose the round factor ROUND_SCALE * (I - c V V^T) onto M.

        The factor's spectral norm is ROUND_SCALE, so the bound on the
        largest squared norm grows by ROUND_SCALE^2.
        """
        K = self.K
        c = 1.0 - 1.0 / math.sqrt(K)
        self.m = ROUND_SCALE * (self.m - c * (v @ (v.T @ self.m)))
        self.m_inv = (self.m_inv + (math.sqrt(K) - 1.0) * ((self.m_inv @ v) @ v.T)) / ROUND_SCALE
        self.bound, self.stale = self.bound * ROUND_SCALE ** 2, True
        self.rounds += 1


def naive_pce(x, rho: float, beta: float, kappa: float,
              noise: NoiseSource, diagnostics: Optional[dict] = None) -> np.ndarray:
    """Clamp, average, noise, project: the basic private covariance estimator.

    Dropping rows over the clamp threshold bounds the Frobenius sensitivity
    of the average by 2*B^2/n, which calibrates the symmetric Gaussian noise.
    The PSD projection can only improve the estimate.  ``x`` is an array of
    samples or a ``_Frame`` of them.
    """
    if not isinstance(x, _Frame):
        x = np.asarray(x, dtype=float)
    _validate_common(x, rho, beta, kappa)
    n, d = x.shape
    b_sq = clamp_threshold_sq(kappa, d, n, beta)
    if isinstance(x, _Frame):
        cov, kept = x.moment(b_sq)
    else:
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
    evals, evecs = sym_eigh(z)
    big = evals >= kappa / 2.0
    v = evecs[:, big]
    if v.shape[1] == 0:
        return v, np.eye(d)
    pv = v @ v.T
    a = np.eye(d) + (1.0 / math.sqrt(K) - 1.0) * pv
    return v, (a + a.T) / 2.0


def weak_ppc(x, rho: float, beta: float, kappa: float, K: float,
             noise: NoiseSource) -> tuple[np.ndarray, np.ndarray]:
    """One preconditioning step.

    Runs naive_pce, collects eigenvectors with eigenvalue >= kappa/2 into V,
    and shrinks that subspace by 1/sqrt(K).  Returns (V, A); V may be empty,
    in which case A = I.  ``x`` is an array of samples or a ``_Frame``.
    """
    if kappa <= 1:
        raise InvalidParameterError(f"kappa must be > 1, got {kappa}")
    if K < 1:
        raise InvalidParameterError(f"K must be >= 1, got {K}")
    z = naive_pce(x, rho, beta, kappa, noise)
    return _split_from_noisy_cov(z, kappa, K)


def _round_clamps(n: int, d: int, beta: float, kappa: float) -> tuple[list, list]:
    """ppc's round bounds (kappa, 0.7*kappa, ... while above TARGET_KAPPA)
    and the squared-norm clamp each round applies."""
    if kappa <= TARGET_KAPPA:
        return [], []
    t_rounds = math.ceil(math.log(kappa / TARGET_KAPPA) / math.log(1.0 / ROUND_SHRINK))
    kaps = [kappa]
    for _ in range(t_rounds - 1):
        kaps.append(kaps[-1] * ROUND_SHRINK)
    return kaps, [clamp_threshold_sq(k, d, n, beta / t_rounds) for k in kaps]


def ppc(x, rho: float, beta: float, kappa: float,
        noise: NoiseSource, K: float = ROUND_K) -> Preconditioner:
    """Recursive private preconditioning down to the target bound.

    Runs T = ceil(ln(kappa/1000) / ln(1/0.7)) rounds (0 when kappa <= 1000),
    splitting rho and beta evenly.  Each round shrinks the certified bound by
    0.7 while the accumulated A keeps I <= A Sigma A^T <= 1000 I w.h.p.
    ``x`` is an array of samples or a fresh ``_Frame`` of them, which the
    rounds advance with the frame's own K; with no rounds, no sample is read.
    """
    if not isinstance(x, _Frame):
        x = np.asarray(x, dtype=float)
    _validate_common(x, rho, beta, kappa)
    n, d = x.shape
    kaps, clamps = _round_clamps(n, d, beta, kappa)
    t_rounds = len(kaps)
    if not t_rounds:
        return Preconditioner(A=np.eye(d), A_inv=np.eye(d),
                              budget_spent=PrivacyBudget.zcdp(0.0))
    frame = x if isinstance(x, _Frame) else _Frame(x, clamps, K)
    K = frame.K
    log: list[RoundRecord] = []
    for kap in kaps:
        v, _ = weak_ppc(frame, rho / t_rounds, beta / t_rounds, kap, K, noise)
        frame.push(v)
        log.append(RoundRecord(kappa=kap, threshold=kap / 2.0,
                               subspace_dim=int(v.shape[1]),
                               rho=rho / t_rounds, K=K))
    return Preconditioner(A=frame.m, A_inv=frame.m_inv, round_log=log,
                          budget_spent=PrivacyBudget.zcdp(rho))


def pgce(x: np.ndarray, rho: float, beta: float, kappa: float,
         noise: NoiseSource) -> CovEstimate:
    """Precondition, estimate in the well-conditioned frame, conjugate back.

    Half the budget preconditions; the other half runs naive_pce on the
    transformed samples at the tighter of (kappa, 1000) — after
    preconditioning the transformed covariance is certified below both.
    Both halves read one ``_Frame``, and the estimate is conjugated back
    through the preconditioner's exact inverse.
    """
    x = np.asarray(x, dtype=float)
    _validate_common(x, rho, beta, kappa)
    n, d = x.shape
    kappa_eff = min(kappa, TARGET_KAPPA)
    _, clamps = _round_clamps(n, d, beta / 2.0, kappa)
    frame = _Frame(x, clamps + [clamp_threshold_sq(kappa_eff, d, n, beta / 2.0)], ROUND_K)
    pre = ppc(frame, rho / 2.0, beta / 2.0, kappa, noise)
    diag: dict = {}
    sigma_tilde = naive_pce(frame, rho / 2.0, beta / 2.0, kappa_eff, noise, diagnostics=diag)
    sigma_hat = pre.A_inv @ sigma_tilde @ pre.A_inv.T
    sigma_hat = (sigma_hat + sigma_hat.T) / 2.0
    diag["rounds"] = pre.round_log
    diag["kappa_eff"] = kappa_eff
    # spent: rho/2 in ppc (0 if no rounds ran, but reserved regardless) + rho/2 here
    return CovEstimate(sigma_hat=sigma_hat,
                       budget_spent=PrivacyBudget.zcdp(rho),
                       diagnostics=diag)
