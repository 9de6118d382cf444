"""Exception types shared across the library, and the one gate on estimator
parameters and sample shapes."""

import math


class PrivestError(Exception):
    """Base class for library errors."""


class InvalidParameterError(PrivestError, ValueError):
    """A numeric parameter is outside its allowed range."""


class InvalidInputError(PrivestError, ValueError):
    """Input data violates a structural requirement (shape, symmetry, universe)."""


class EmptyInputError(PrivestError, ValueError):
    """An operation received zero samples."""


class SingularMatrixError(PrivestError, ValueError):
    """A matrix that must be invertible is numerically singular."""


class TooLargeError(PrivestError, ValueError):
    """Problem size exceeds the limit of an exact (exponential) routine."""


class InsufficientSamplesError(PrivestError, ValueError):
    """Not enough samples for the requested estimator configuration."""

    def __init__(self, required: int, available: int, detail: str = ""):
        self.required = required
        self.available = available
        msg = f"need at least {required} samples, got {available}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class EstimationFailedError(PrivestError, RuntimeError):
    """A private vote came back empty mid-run; the estimate cannot proceed.

    This is an expected low-probability outcome, not a bug: the guarantees
    only hold with probability 1 - beta.
    """


# The domain of every estimator parameter, stated once: name -> (low, high,
# whether low belongs to it, the domain as messages state it).  High never
# belongs, so +-inf and NaN lie outside every domain: at rho = inf the noise
# Delta/sqrt(2 rho) is zero.
_DOMAINS = {
    "rho": (0.0, math.inf, False, "> 0"),
    "eps": (0.0, math.inf, False, "> 0"),
    "delta": (0.0, 1.0, False, "in (0,1)"),
    "beta": (0.0, 1.0, False, "in (0,1)"),
    "alpha": (0.0, 1.0, False, "in (0,1)"),
    "kappa": (1.0, math.inf, True, ">= 1"),
    "K": (1.0, math.inf, True, ">= 1"),
    "R": (0.0, math.inf, True, ">= 0"),
}


def check(**values) -> None:
    """Raise InvalidParameterError unless each value lies in the domain of its
    name, e.g. ``check(rho=rho, beta=beta)``; estimators call it before any draw."""
    for name, v in values.items():
        low, high, low_in, domain = _DOMAINS[name]
        if not (low < v < high or low_in and v == low):
            domain = "finite" if v == math.inf else domain
            raise InvalidParameterError(f"{name} must be {domain}, got {v}")


def check_samples(x):
    """``x`` itself if it is 2-d with at least one column (of any row count)."""
    if len(x.shape) != 2 or x.shape[1] == 0:
        raise InvalidParameterError(
            f"samples must be 2-d with at least one column, got shape {x.shape}")
    return x
