"""Symmetric-matrix numerics: eigenwork, PSD projection, Mahalanobis norms,
Gaussian sampling.

Dense storage only; target scale is d up to a few hundred.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SingularMatrixError
from .noise import NoiseSource

# Relative eigenvalue floor below which inversion refuses to proceed.
_SINGULAR_RTOL = 1e-12


def _check_symmetric(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"{what} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError(f"{what} has non-finite entries")
    if not np.allclose(m, m.T, rtol=0.0, atol=1e-10 * max(1.0, float(np.abs(m).max()))):
        raise InvalidInputError(f"{what} is not symmetric")
    return m


def sym_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a symmetric matrix.

    scipy's eigh runs its LAPACK routine on the calling thread.  numpy's
    eigh spreads even a 32x32 decomposition over the BLAS threads: on a
    2-core host it took 0.58 ms a call against 0.17 ms, and much longer
    whenever the other core was busy.  scipy.linalg is imported on first
    use: its ~60 ms import is not paid by the paths that do no eigenwork.
    """
    from scipy.linalg import eigh
    return eigh(m, check_finite=False)


def sym_eigvals(m: np.ndarray) -> np.ndarray:
    """The eigenvalues alone (ascending) of a symmetric matrix, as in
    ``sym_eigh``; for a 32x32 matrix they take less than half its time."""
    from scipy.linalg import eigh
    return eigh(m, eigvals_only=True, check_finite=False)


@dataclass
class GaussianParams:
    """A Gaussian model: its mean and its PSD covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).ravel()
        self.cov = _check_symmetric(self.cov, "cov")
        if self.cov.shape[0] != self.mean.shape[0]:
            raise InvalidInputError("mean/cov dimension mismatch")
        evals = np.linalg.eigvalsh(self.cov)
        scale = max(float(evals[-1]), 0.0)
        if evals[0] < -1e-9 * max(scale, 1.0):
            raise InvalidInputError("cov is not PSD")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def project_psd(m: np.ndarray) -> np.ndarray:
    """Nearest-PSD projection: clamp negative eigenvalues to zero."""
    m = _check_symmetric(m)
    evals, evecs = sym_eigh(m)
    clamped = np.maximum(evals, 0.0)
    out = (evecs * clamped) @ evecs.T
    return (out + out.T) / 2.0


def psd_factor(m: np.ndarray) -> np.ndarray:
    """F = U diag(sqrt(max(lambda, 0))) from one eigendecomposition of m, so
    that F F^T is its nearest-PSD projection."""
    m = _check_symmetric(m)
    evals, evecs = sym_eigh(m)
    return evecs * np.sqrt(np.maximum(evals, 0.0))


def _checked_eigh_pd(sigma: np.ndarray):
    sigma = _check_symmetric(sigma, "Sigma")
    evals, evecs = sym_eigh(sigma)
    if evals[-1] <= 0 or evals[0] <= _SINGULAR_RTOL * evals[-1]:
        raise SingularMatrixError("Sigma is singular or not positive definite")
    return evals, evecs


def inv_sqrt_psd(sigma: np.ndarray) -> np.ndarray:
    """Symmetric S with S @ Sigma @ S = I (the PSD inverse square root)."""
    evals, evecs = _checked_eigh_pd(sigma)
    out = (evecs / np.sqrt(evals)) @ evecs.T
    return (out + out.T) / 2.0


def mahalanobis_vec(v: np.ndarray, sigma: np.ndarray) -> float:
    """||Sigma^{-1/2} v||_2."""
    v = np.asarray(v, dtype=float).ravel()
    evals, evecs = _checked_eigh_pd(sigma)
    w = evecs.T @ v
    return float(np.sqrt(np.sum(w * w / evals)))


def mahalanobis_mat(x: np.ndarray, sigma: np.ndarray) -> float:
    """||Sigma^{-1/2} X Sigma^{-1/2}||_F."""
    x = _check_symmetric(x, "X")
    s = inv_sqrt_psd(sigma)
    return float(np.linalg.norm(s @ x @ s, "fro"))


def sample_gaussian(params: GaussianParams, n: int, noise: NoiseSource) -> np.ndarray:
    """n i.i.d. rows from N(mean, cov).

    Uses Cholesky when cov is PD, otherwise the symmetric eigen square root
    (semidefinite cov is allowed).
    """
    d = params.dim
    z = noise.gaussian(1.0, size=(n, d))
    try:
        ell = np.linalg.cholesky(params.cov)
    except np.linalg.LinAlgError:
        evals, evecs = sym_eigh(params.cov)
        ell = evecs * np.sqrt(np.maximum(evals, 0.0))
    return params.mean + z @ ell.T
