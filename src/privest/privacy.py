"""Privacy budget algebra, regime conversions, and the Gaussian mechanism.

Budgets live in one of three regimes: rho-zCDP, pure epsilon-DP, and
approximate (epsilon, delta)-DP.  zCDP budgets compose by adding rho;
approximate budgets compose basically (both parameters add).  The Gaussian
mechanism adds noise with standard deviation sensitivity / sqrt(2 * rho) and
satisfies rho-zCDP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import InvalidInputError, InvalidParameterError
from .noise import NoiseSource


@dataclass(frozen=True)
class PrivacyBudget:
    """An immutable privacy guarantee in one of three regimes.

    Exactly one regime's parameters are populated.  Use the classmethod
    constructors; the raw constructor validates but does not infer.
    """

    regime: str  # "zcdp" | "pure" | "approx"
    rho: Optional[float] = None
    eps: Optional[float] = None
    delta: Optional[float] = None

    def __post_init__(self):
        if self.regime == "zcdp":
            ok = self.rho is not None and self.eps is None and self.delta is None
            ok = ok and self.rho >= 0
        elif self.regime == "pure":
            ok = self.eps is not None and self.rho is None and self.delta is None
            ok = ok and self.eps >= 0
        elif self.regime == "approx":
            ok = (self.eps is not None and self.delta is not None
                  and self.rho is None)
            ok = ok and self.eps >= 0 and 0 <= self.delta < 1
        else:
            ok = False
        if not ok:
            raise InvalidParameterError(
                f"inconsistent budget: regime={self.regime!r} rho={self.rho} "
                f"eps={self.eps} delta={self.delta}")

    @classmethod
    def zcdp(cls, rho: float) -> "PrivacyBudget":
        return cls(regime="zcdp", rho=float(rho))

    @classmethod
    def pure(cls, eps: float) -> "PrivacyBudget":
        return cls(regime="pure", eps=float(eps))

    @classmethod
    def approx(cls, eps: float, delta: float) -> "PrivacyBudget":
        return cls(regime="approx", eps=float(eps), delta=float(delta))

    def as_dict(self) -> dict:
        out = {"regime": self.regime}
        for k in ("rho", "eps", "delta"):
            v = getattr(self, k)
            if v is not None:
                out[k] = v
        return out


def compose_zcdp(rhos: Iterable[float]) -> float:
    """Adaptive composition of zCDP guarantees: rho values add."""
    total = 0.0
    for r in rhos:
        if r < 0:
            raise InvalidParameterError(f"negative rho {r}")
        total += r
    return total


def zcdp_to_approx_dp(rho: float, delta: float) -> tuple[float, float]:
    """Convert rho-zCDP to (eps, delta)-DP: eps = rho + 2*sqrt(rho*ln(1/delta))."""
    if rho < 0:
        raise InvalidParameterError(f"rho must be >= 0, got {rho}")
    if not (0 < delta < 1):
        raise InvalidParameterError(f"delta must be in (0,1), got {delta}")
    eps = rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))
    return eps, delta


def pure_dp_to_zcdp(eps: float) -> float:
    """Pure eps-DP implies (eps^2 / 2)-zCDP."""
    if eps < 0:
        raise InvalidParameterError(f"eps must be >= 0, got {eps}")
    return eps * eps / 2.0


def compose_approx_dp(budgets: Iterable[tuple[float, float]]) -> tuple[float, float]:
    """Basic composition of (eps, delta) pairs: (sum eps_t, sum delta_t)."""
    budgets = list(budgets)
    for e, d in budgets:
        if e < 0 or not (0 <= d < 1):
            raise InvalidParameterError(f"bad (eps, delta) = ({e}, {d})")
    return (sum(e for e, _ in budgets), sum(d for _, d in budgets))


def gaussian_mechanism_vector(v: np.ndarray, delta2: float, rho: float,
                              noise: NoiseSource) -> np.ndarray:
    """Add i.i.d. Gaussian noise with std delta2 / sqrt(2*rho) to each entry.

    Satisfies rho-zCDP for a function with l2-sensitivity delta2.
    """
    if not rho > 0:
        raise InvalidParameterError(f"rho must be > 0, got {rho}")
    if not delta2 >= 0:
        raise InvalidParameterError(f"sensitivity must be >= 0, got {delta2}")
    v = np.asarray(v, dtype=float)
    if delta2 == 0:
        return v.copy()
    std = delta2 / math.sqrt(2.0 * rho)
    return v + noise.gaussian(std, size=v.shape)


def gaussian_mechanism_symmetric(m: np.ndarray, delta_f: float, rho: float,
                                 noise: NoiseSource) -> np.ndarray:
    """Symmetric Gaussian noise: i.i.d. N(0, sigma^2) on the upper triangle
    including the diagonal, mirrored below, with sigma = delta_f / sqrt(2*rho).

    Calibrating to the Frobenius sensitivity of the full matrix is
    conservative for the d(d+1)/2 free entries, so this never under-noises.
    """
    if not rho > 0:
        raise InvalidParameterError(f"rho must be > 0, got {rho}")
    if not delta_f >= 0:
        raise InvalidParameterError(f"sensitivity must be >= 0, got {delta_f}")
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
    if not np.array_equal(m, m.T):
        raise InvalidInputError("matrix is not symmetric")
    if delta_f == 0:
        return m.copy()
    d = m.shape[0]
    sigma = delta_f / math.sqrt(2.0 * rho)
    n = sample_gue(d, sigma, noise)
    return m + n


def sample_gue(d: int, sigma: float, noise: NoiseSource) -> np.ndarray:
    """Symmetric d x d matrix, upper triangle (incl. diagonal) i.i.d. N(0, sigma^2)."""
    n = np.zeros((d, d))
    iu = np.triu_indices(d)
    draws = noise.gaussian(sigma, size=len(iu[0]))
    n[iu] = draws
    # mirror the strict upper triangle
    n = n + n.T - np.diag(np.diag(n))
    return n
