"""Private histograms over finite and countably infinite bucket universes.

Two mechanisms:

* ``stable_histogram_approx_dp`` — the stability-based (eps, delta)-DP
  histogram.  Only buckets that actually occur get Laplace noise, and a
  release threshold suppresses small noisy counts, so buckets with true
  count zero are never emitted even over an unbounded key universe.
* ``histogram_zcdp`` — the full frequency vector of integer keys in
  [lo, hi), counted block by block into one vector and released through
  ``privacy.gaussian_mechanism_vector``, rho-zCDP; an (n, d) key array
  votes on each column in one call, one release per column.

Both take integer key arrays, draw one noise value per bucket in ascending
key order (column by column for a column-wise vote), and return the keys and
noised frequencies as two aligned arrays.  A caller that needs an
out-of-universe bucket reserves an integer key for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import ArrayLike

from .errors import InvalidInputError, InvalidParameterError, check
from .noise import NoiseSource
from .privacy import gaussian_mechanism_vector

# Keys per counting block in histogram_zcdp: 64 KiB of intp offsets.
_COUNT_BLOCK = 1 << 13


@dataclass(eq=False)
class HistogramResult:
    """Noised bucket frequencies plus the l-infinity accuracy certificate.

    ``keys`` is ascending and ``freqs`` aligned with it (one row per column
    for a column-wise vote).  ``accuracy_bound`` is the guaranteed max error
    of any reported frequency at confidence 1 - beta, computed from the
    mechanism's own constants so callers can assert their preconditions.
    """

    keys: np.ndarray
    freqs: np.ndarray
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
    check(eps=eps, delta=delta, beta=beta)
    if not delta < 1.0 / n:
        raise InvalidParameterError(
            f"delta must be in (0, 1/n) = (0, {1.0 / n}), got {delta}")

    scale = 2.0 / (eps * n)
    threshold = 2.0 * math.log(2.0 * n / (delta * beta)) / (eps * n)
    bound = 2.0 * threshold

    keys, counts = np.unique(data, return_counts=True)
    freqs = counts / n + noise.laplace(scale, size=keys.size)
    keep = freqs >= threshold
    return HistogramResult(keys[keep], freqs[keep], n, bound)


def histogram_zcdp(data: ArrayLike, lo: int, hi: int, rho: float,
                   beta: float, noise: NoiseSource) -> HistogramResult:
    """rho-zCDP histogram of integer keys in [lo, hi), Gaussian mechanism.

    The keys are counted in row blocks of about ``_COUNT_BLOCK`` keys, so no
    full-size copy of them is made; ``keys`` is lo, ..., hi - 1, one noise
    draw per key.  Replacing one sample moves the count vector by
    at most 1 in two buckets, so the l2-sensitivity of the frequency vector
    is sqrt(2)/n exactly.  (n, d) ``data`` gives (d, hi - lo) ``freqs``, one
    rho-zCDP release per column, in column order.
    """
    data = np.asarray(data)
    n = len(data)
    if n == 0:
        raise InvalidParameterError("empty data")
    check(rho=rho, beta=beta)
    if not np.issubdtype(data.dtype, np.integer) or data.ndim > 2:
        raise InvalidInputError(f"keys must be 1-d or 2-d integers, got {data.dtype}")
    size = hi - lo
    in_range = data.size == 0 or lo <= int(data.min()) and int(data.max()) < hi
    if size <= 0 or not in_range:
        off = np.subtract(data, lo, dtype=np.intp)
        bad = np.unique(data[(off < 0) | (off >= size)])[:5]
        raise InvalidInputError(f"keys outside [{lo}, {hi}): {bad.tolist()}")

    shape = data.shape[1:] + (size,)
    cols = math.prod(shape[:-1])  # d for (n, d) keys, 1 for one column
    # Count in row blocks of at least _COUNT_BLOCK keys and at least the
    # count vector's length, so no full-size intp copy of the keys is made.
    counts = np.zeros(cols * size, dtype=np.intp)
    step = max(_COUNT_BLOCK, counts.size) // max(cols, 1)
    shift = lo - size * np.arange(cols)  # column j counts into row j
    for start in range(0, n, step):
        # cast while offsetting: lo may not fit the keys' dtype (int8 columns)
        off = np.subtract(data[start: start + step], shift, dtype=np.intp)
        counts += np.bincount(off.ravel(), minlength=counts.size)
    freqs = counts.reshape(cols, size) / n
    for col in freqs:  # one release per column, in column order
        col[...] = gaussian_mechanism_vector(col, math.sqrt(2.0) / n, rho, noise)
    bound = math.sqrt(2.0 * math.log(2.0 * size / beta) / rho) / n * math.sqrt(2.0)
    return HistogramResult(np.arange(lo, hi), freqs.reshape(shape), n, bound)


def argmax_bucket(h: HistogramResult, threshold: float) -> Optional[int]:
    """Key of the most frequent bucket if its frequency clears the threshold.

    Reads a 1-d result's arrays in place; None when no bucket reaches
    ``threshold``.  Ties break toward the smaller key.
    """
    top = h.freqs.max(initial=-np.inf, where=h.freqs >= threshold)
    return None if top == -np.inf else int(h.keys[h.freqs == top].min())
