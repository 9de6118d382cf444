"""Private histograms over finite and countably infinite bucket universes.

Two mechanisms:

* ``stable_histogram_approx_dp`` — the stability-based (eps, delta)-DP
  histogram.  Only buckets that actually occur get Laplace noise, and a
  release threshold suppresses small noisy counts, so buckets with true
  count zero are never emitted even over an unbounded key universe.
* ``histogram_zcdp`` — Gaussian noise on the full count vector of a finite
  universe, rho-zCDP.

Both count integer key arrays in one pass and draw their noise as one
vector, one draw per bucket in ascending key order.  A caller that needs an
out-of-universe bucket reserves an integer key for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.typing import ArrayLike

from .errors import InvalidInputError, InvalidParameterError
from .noise import NoiseSource


@dataclass
class HistogramResult:
    """Noised bucket frequencies plus the l-infinity accuracy certificate.

    ``accuracy_bound`` is the guaranteed max error of any reported frequency
    at confidence 1 - beta, computed from the mechanism's own constants so
    callers can assert their preconditions at runtime.
    """

    entries: dict = field(default_factory=dict)
    n: int = 0
    accuracy_bound: float = 0.0


def stable_histogram_approx_dp(data: ArrayLike, eps: float, delta: float,
                               beta: float,
                               noise: NoiseSource) -> HistogramResult:
    """Stability-based (eps, delta)-DP histogram over an unbounded universe.

    ``data`` is an integer key array.  Per-nonempty-bucket Laplace noise with
    scale 2/(eps*n), release threshold 2*ln(2n/(delta*beta))/(eps*n).  The
    reported frequencies are within accuracy_bound =
    4*ln(2n/(delta*beta))/(eps*n) of the truth for every bucket
    simultaneously, with probability at least 1 - beta.
    """
    data = np.asarray(data)
    n = len(data)
    if n == 0:
        raise InvalidParameterError("empty data")
    if not np.issubdtype(data.dtype, np.integer):
        raise InvalidInputError(f"bucket keys must be integers, got {data.dtype}")
    if not eps > 0:
        raise InvalidParameterError(f"eps must be > 0, got {eps}")
    if not (0 < delta < 1.0 / n):
        raise InvalidParameterError(
            f"delta must be in (0, 1/n) = (0, {1.0 / n}), got {delta}")
    if not (0 < beta < 1):
        raise InvalidParameterError(f"beta must be in (0,1), got {beta}")

    scale = 2.0 / (eps * n)
    threshold = 2.0 * math.log(2.0 * n / (delta * beta)) / (eps * n)
    bound = 2.0 * threshold

    keys, counts = np.unique(data, return_counts=True)
    freqs = counts / n + noise.laplace(scale, size=keys.size)
    keep = freqs >= threshold
    entries = dict(zip(keys[keep].tolist(), freqs[keep].tolist()))
    return HistogramResult(entries=entries, n=n, accuracy_bound=bound)


def histogram_zcdp(data: ArrayLike, universe: ArrayLike, rho: float,
                   beta: float, noise: NoiseSource) -> HistogramResult:
    """rho-zCDP histogram over a finite universe via the Gaussian mechanism.

    ``data`` and ``universe`` are integer key arrays; entries are keyed by
    the universe in ascending order.  Replacing one sample moves the count
    vector by at most 1 in two buckets, so the l2-sensitivity of the
    frequency vector is sqrt(2)/n exactly.
    """
    data = np.asarray(data)
    universe = np.asarray(universe)
    n = len(data)
    if n == 0:
        raise InvalidParameterError("empty data")
    if not rho > 0:
        raise InvalidParameterError(f"rho must be > 0, got {rho}")
    if not (0 < beta < 1):
        raise InvalidParameterError(f"beta must be in (0,1), got {beta}")
    keys = np.unique(universe)
    if keys.size != universe.size:
        raise InvalidInputError("universe contains duplicate keys")
    pos = np.searchsorted(keys, data)
    inside = pos < keys.size
    inside[inside] = keys[pos[inside]] == data[inside]
    if not inside.all():
        raise InvalidInputError(
            f"keys outside universe: {np.unique(data[~inside])[:5].tolist()}")

    sigma = (math.sqrt(2.0) / n) / math.sqrt(2.0 * rho)
    draws = noise.gaussian(sigma, size=keys.size)
    freqs = np.bincount(pos, minlength=keys.size) / n + draws
    entries = dict(zip(keys.tolist(), freqs.tolist()))
    bound = math.sqrt(2.0 * math.log(2.0 * keys.size / beta) / rho) / n * math.sqrt(2.0)
    return HistogramResult(entries=entries, n=n, accuracy_bound=bound)


def argmax_bucket(h: HistogramResult, threshold: float) -> Optional[int]:
    """Key of the most frequent bucket if its frequency clears the threshold.

    Returns None when no bucket reaches ``threshold``.  Ties break toward
    the smaller key.
    """
    return min((k for k, v in h.entries.items() if v >= threshold),
               key=lambda k: (-h.entries[k], k), default=None)
