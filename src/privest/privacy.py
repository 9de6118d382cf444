"""Privacy budgets in two regimes and the one Gaussian mechanism.

Budgets are rho-zCDP or approximate (epsilon, delta)-DP; zCDP converts to
approximate DP, and budgets of one regime compose sequentially with ``+``.
Every Gaussian release in the library is calibrated here, by
``gaussian_sigma``: noise with standard deviation sensitivity / sqrt(2 * rho)
on a statistic of l2-sensitivity ``sensitivity`` satisfies rho-zCDP (Bun and
Steinke 2016).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, check
from .noise import NoiseSource


@dataclass(frozen=True)
class PrivacyBudget:
    """An immutable privacy guarantee: rho-zCDP or (eps, delta)-DP.

    Exactly one regime's parameters are populated.  Use the classmethod
    constructors; the raw constructor validates but does not infer.
    """

    regime: str  # "zcdp" | "approx"
    rho: Optional[float] = None
    eps: Optional[float] = None
    delta: Optional[float] = None

    def __post_init__(self):
        rho, eps, delta = self.rho, self.eps, self.delta
        if self.regime == "zcdp":
            ok = eps is None and delta is None and rho is not None and rho >= 0
        else:
            ok = (self.regime == "approx" and rho is None and eps is not None
                  and delta is not None and eps >= 0 and 0 <= delta < 1)
        if not ok:
            raise InvalidParameterError(
                f"inconsistent budget: regime={self.regime!r} rho={self.rho} "
                f"eps={self.eps} delta={self.delta}")

    @classmethod
    def zcdp(cls, rho: float) -> "PrivacyBudget":
        return cls(regime="zcdp", rho=float(rho))

    @classmethod
    def approx(cls, eps: float, delta: float) -> "PrivacyBudget":
        return cls(regime="approx", eps=float(eps), delta=float(delta))

    def __add__(self, other: "PrivacyBudget") -> "PrivacyBudget":
        """Sequential composition within one regime: rho adds, or eps and delta add."""
        if not isinstance(other, PrivacyBudget):
            return NotImplemented
        if self.regime != other.regime:
            raise InvalidParameterError(
                f"cannot compose a {self.regime} budget with a {other.regime} one")
        if self.regime == "zcdp":
            return PrivacyBudget.zcdp(self.rho + other.rho)
        return PrivacyBudget.approx(self.eps + other.eps, self.delta + other.delta)

    def as_dict(self) -> dict:
        out = {"regime": self.regime}
        for k in ("rho", "eps", "delta"):
            v = getattr(self, k)
            if v is not None:
                out[k] = v
        return out


def zcdp_to_approx_dp(rho: float, delta: float) -> tuple[float, float]:
    """Convert rho-zCDP to (eps, delta)-DP: eps = rho + 2*sqrt(rho*ln(1/delta))."""
    if not 0 <= rho < math.inf:
        raise InvalidParameterError(f"rho must be in [0, inf), got {rho}")
    check(delta=delta)
    eps = rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))
    return eps, delta


def gaussian_sigma(sensitivity: float, rho: float) -> float:
    """Noise std sensitivity / sqrt(2*rho) of the rho-zCDP Gaussian mechanism
    for a statistic of l2-sensitivity ``sensitivity``."""
    check(rho=rho)
    if not sensitivity >= 0:
        raise InvalidParameterError(f"sensitivity must be >= 0, got {sensitivity}")
    return sensitivity / math.sqrt(2.0 * rho)


def gaussian_mechanism_vector(v, delta2: float, rho: float,
                              noise: NoiseSource) -> np.ndarray:
    """Release ``v`` with i.i.d. N(0, gaussian_sigma(delta2, rho)^2) noise on
    each entry; rho-zCDP when replacing one row moves ``v`` by at most
    ``delta2`` in l2 norm.

    ``v`` may have any shape, 0-d included, and is returned as a float
    array of that shape.  This is the one release path for every statistic
    that is not a symmetric matrix.
    """
    std = gaussian_sigma(delta2, rho)
    v = np.asarray(v, dtype=float)
    return v + noise.gaussian(std, size=v.shape)


def gaussian_mechanism_symmetric(m: np.ndarray, delta_f: float, rho: float,
                                 noise: NoiseSource) -> np.ndarray:
    """Symmetric Gaussian noise: i.i.d. N(0, sigma^2) on the upper triangle
    including the diagonal, mirrored below, with sigma =
    gaussian_sigma(delta_f, rho).

    Calibrating to the Frobenius sensitivity of the full matrix is
    conservative for the d(d+1)/2 free entries, so this never under-noises.
    """
    sigma = gaussian_sigma(delta_f, rho)
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
    if not np.array_equal(m, m.T):
        raise InvalidInputError("matrix is not symmetric")
    return m + sample_gue(m.shape[0], sigma, noise)


def sample_gue(d: int, sigma: float, noise: NoiseSource) -> np.ndarray:
    """Symmetric d x d matrix, upper triangle (incl. diagonal) i.i.d. N(0, sigma^2)."""
    n = np.zeros((d, d))
    iu = np.triu_indices(d)
    draws = noise.gaussian(sigma, size=len(iu[0]))
    n[iu] = draws
    # mirror the strict upper triangle
    n = n + n.T - np.diag(np.diag(n))
    return n
