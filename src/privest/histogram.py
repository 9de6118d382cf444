"""Private histograms over finite and countably infinite bucket universes.

Two mechanisms:

* ``stable_histogram_approx_dp`` — the stability-based (eps, delta)-DP
  histogram.  Only buckets that actually occur get Laplace noise, and a
  release threshold suppresses small noisy counts, so buckets with true
  count zero are never emitted even over an unbounded key universe.
* ``histogram_zcdp`` — Gaussian noise on the full count vector of integer
  keys in [lo, hi), counted with one ``bincount``, rho-zCDP.

Both take integer key arrays and draw their noise as one vector, one draw
per bucket in ascending key order.  A caller that needs an out-of-universe
bucket reserves an integer key for it.
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


def histogram_zcdp(data: ArrayLike, lo: int, hi: int, rho: float,
                   beta: float, noise: NoiseSource) -> HistogramResult:
    """rho-zCDP histogram of integer keys in [lo, hi), Gaussian mechanism.

    The keys are counted with one ``bincount``; entries are keyed by lo, ...,
    hi - 1 in ascending order, one noise draw per key.  Replacing one sample
    moves the count vector by at most 1 in two buckets, so the
    l2-sensitivity of the frequency vector is sqrt(2)/n exactly.
    """
    data = np.asarray(data)
    n = len(data)
    if n == 0:
        raise InvalidParameterError("empty data")
    if not rho > 0:
        raise InvalidParameterError(f"rho must be > 0, got {rho}")
    if not (0 < beta < 1):
        raise InvalidParameterError(f"beta must be in (0,1), got {beta}")
    if not np.issubdtype(data.dtype, np.integer):
        raise InvalidInputError(f"bucket keys must be integers, got {data.dtype}")
    if hi <= lo or data.min() < lo or data.max() >= hi:
        bad = np.unique(data[(data < lo) | (data >= hi)])[:5]
        raise InvalidInputError(f"keys outside [{lo}, {hi}): {bad.tolist()}")

    size = hi - lo
    sigma = (math.sqrt(2.0) / n) / math.sqrt(2.0 * rho)
    draws = noise.gaussian(sigma, size=size)
    # cast first: lo may not fit the keys' dtype (int8 columns, say)
    freqs = np.bincount(data.astype(np.intp) - lo, minlength=size) / n + draws
    entries = dict(zip(range(lo, hi), freqs.tolist()))
    bound = math.sqrt(2.0 * math.log(2.0 * size / beta) / rho) / n * math.sqrt(2.0)
    return HistogramResult(entries=entries, n=n, accuracy_bound=bound)


def argmax_bucket(h: HistogramResult, threshold: float) -> Optional[int]:
    """Key of the most frequent bucket if its frequency clears the threshold.

    Returns None when no bucket reaches ``threshold``.  Ties break toward
    the smaller key.
    """
    keys = np.fromiter(h.entries, dtype=np.int64)
    freqs = np.fromiter(h.entries.values(), dtype=float)
    top = freqs.max(initial=-np.inf, where=freqs >= threshold)
    return None if top == -np.inf else int(keys[freqs == top].min())
