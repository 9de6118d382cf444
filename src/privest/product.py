"""Learning Boolean product distributions via truncated means and recursive
partitioning.

Coordinates are assumed biased toward 0 (per-coordinate mean <= 1/2); the
harness offers a bit-flip preprocessing for heavy coordinates.  Rows are
split into disjoint blocks, one per round, so the whole run is rho-zCDP with
no composition: each individual's row is read by exactly one round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (EmptyInputError, InsufficientSamplesError, InvalidParameterError,
                     check, check_samples)
from .noise import NoiseSource
from .privacy import PrivacyBudget, gaussian_mechanism_vector

# Round-1 mean bound and freeze threshold; both halve each round, which
# keeps tau_r = (3/4) * u_{r+1} at every round.
U_1 = 0.5
TAU_1 = 3.0 / 16.0

# Values per block in sample_product and tmean: 64 KiB of float64 at a time.
_BLOCK = 1 << 13


@dataclass(eq=False)
class ProductModel:
    """Per-coordinate Bernoulli means in [0,1]^d; a learner's model also
    carries the budget it spent and its record (see ``ppde``)."""

    p: np.ndarray
    budget_spent: Optional[PrivacyBudget] = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        p = self.p = np.asarray(self.p, dtype=float).ravel()
        if not (p.min(initial=0.0) >= 0.0 and p.max(initial=1.0) <= 1.0):  # NaN fails too
            raise InvalidParameterError("coordinates must lie in [0,1]")

    @property
    def dim(self) -> int:
        return self.p.shape[0]


def tmean(x: np.ndarray, B: float, cols: Optional[np.ndarray] = None) -> np.ndarray:
    """Mean of row-wise truncations; changing one row moves it by <= 2B/m.

    B may be any value in [0, inf]; a negative or NaN B is rejected.  A row
    of zero or NaN norm keeps scale 1; one of infinite norm gets scale 0
    when B is finite.  ``tmean(x, B, cols)`` is ``tmean(x[:, cols], B)``
    without that copy: rows of any dtype are gathered, converted, truncated
    and summed in blocks of ``_BLOCK`` values through one float buffer.
    From the second block on, the buffer's first row carries the running
    sum, and each block's rows follow it.  numpy's axis-0 sum adds row by
    row, so this is ``(x * scale[:, None]).mean(axis=0)`` bit for bit; one
    column is one pairwise sum, so ``_column_sum`` splits it as numpy does.
    """
    if not B >= 0:
        raise InvalidParameterError(f"B must be >= 0, got {B}")
    x = check_samples(np.asarray(x))
    # A column selection becomes one row of indices, checked as samples are
    # (1-d, not empty), and each block is one take; no selection reads views.
    cols = None if cols is None else np.arange(x.shape[1])[cols]
    m, d = len(x), x.shape[1] if cols is None else check_samples(cols[None]).shape[1]
    if m == 0:
        raise EmptyInputError("tmean of zero rows")
    step = max(1, _BLOCK // d)
    buf = np.empty((min(step, m) + 1, d))
    with np.errstate(all="ignore"):  # fmin drops the NaN of 0/0 and B/NaN
        if d == 1:
            return _column_sum(x, cols, B, buf, 0, m) / m
        total, lo = np.empty(d), 1  # the first block has no running sum yet
        for start in range(0, m, step):
            rows = _truncated(x, cols, B, buf[1: 1 + min(step, m - start)], start)
            np.add.reduce(buf[lo: 1 + len(rows)], axis=0, out=total)
            buf[0], lo = total, 0
    return total / m


def _truncated(x: np.ndarray, cols, B: float, rows: np.ndarray, start: int) -> np.ndarray:
    """``rows``, filled from row ``start`` of ``x[:, cols]``, truncated to radius B."""
    block = x[start: start + len(rows)]
    rows[...] = block if cols is None else block.take(cols, axis=1)
    norms = np.sqrt(np.add.reduce(rows * rows, axis=1))
    if not norms.max() <= B:  # else no row lies outside the ball: every scale is 1
        rows *= np.fmin(1.0, B / norms)[:, None]
    return rows


def _column_sum(x: np.ndarray, cols, B: float, buf: np.ndarray, start: int, count: int):
    """The truncated sum of rows [start, start + count) of one column, split as numpy's
    pairwise sum splits (halves cut to a multiple of 8) until numpy can sum a part in ``buf``."""
    if count < len(buf):
        return np.add.reduce(_truncated(x, cols, B, buf[:count], start), axis=0)
    half = count // 2 - count // 2 % 8
    return (_column_sum(x, cols, B, buf, start, half)
            + _column_sum(x, cols, B, buf, start + half, count - half))


def required_block_size(d: int, rho: float, alpha: float, beta: float,
                        rounds: int) -> int:
    """Worst-case per-block row count from the analysis constants.

    Far more conservative than what moderate dimensions need in practice;
    pass ``m`` to ppde explicitly for desk-scale runs.  The privacy term's
    logarithm is floored at 0, so it vanishes once alpha*beta*sqrt(2 rho) >= d.
    """
    c = 128.0 * max(0.0, math.log(d / (alpha * beta * math.sqrt(2.0 * rho)))) ** 1.25
    c_prime = 128.0 * math.log(d * rounds / beta) ** 3
    return math.ceil(c_prime * d / alpha ** 2
                     + c * d / (alpha * math.sqrt(2.0 * rho)))


def num_rounds(d: int) -> int:
    """Partitioning rounds before the final sweep: ceil(log2(d/2)), >= 1."""
    return max(1, math.ceil(math.log2(d / 2.0)))


def check_input(x, rho: float, alpha: float, beta: float, m: Optional[int]) -> np.ndarray:
    """ppde's gate, before any draw: ``x`` as an array if rho, alpha, beta and m pass
    and it holds 2-d 0/1 rows (integers compared in their own dtype, bools not at all)."""
    check(rho=rho, alpha=alpha, beta=beta)
    if m is not None and not (isinstance(m, (int, np.integer)) and m >= 1):
        raise InvalidParameterError(f"m must be an integer >= 1, got {m!r}")
    x = check_samples(np.asarray(x))
    if x.dtype.kind in "iu":
        binary = x.min(initial=0) >= 0 and x.max(initial=0) <= 1
    else:
        binary = x.dtype == bool or ((x == 0) | (x == 1)).all()
    if not binary:
        raise InvalidParameterError("data must be 0/1 valued")
    return x


def ppde(x: np.ndarray, rho: float, alpha: float, beta: float,
         noise: NoiseSource, m: Optional[int] = None) -> ProductModel:
    """Private product-distribution estimation by recursive partitioning.

    Rows must be 0/1 in any dtype (``check_input``).
    The data splits into R+1 disjoint blocks of m rows (an explicit m must
    be an integer >= 1, numpy integers included).  Each round reads one
    block in place: it takes a truncated mean of the active coordinates
    (truncation radius B_r set by the current bias bound u_r), adds Gaussian
    noise, freezes coordinates whose noisy mean clears tau_r, and halves u
    and tau for the rest.  The final round reads one more block for whatever
    remains.  The output is clamped into [0,1]^d.

    Each round's truncated mean is released by the Gaussian mechanism at
    rho with sensitivity sqrt(2)*B_r/m: two truncated 0/1 rows lie in the
    nonnegative orthant within the radius-B_r ball, so they are at most
    sqrt(2)*B_r apart, and replacing one row moves the block's truncated
    mean by at most that over m.

    The model carries ``budget_spent`` (rho-zCDP: each row is read by one
    round) and the record {"m", "froze_in": the round each coordinate froze
    in, "B": each round's radius}.  Round r read rows [(r-1)m, rm), with the
    coordinates of froze_in >= r active, at u_r = U_1 * 2^(1-r).
    """
    x = check_input(x, rho, alpha, beta, m)
    n, d = x.shape
    r_max = num_rounds(d)
    if m is None:
        m = required_block_size(d, rho, alpha, beta, r_max)
    if n < (r_max + 1) * m:
        raise InsufficientSamplesError((r_max + 1) * m, n,
                                       f"{r_max + 1} blocks of {m}")

    q, froze_in = np.zeros(d), np.zeros(d, dtype=np.intp)
    active = np.arange(d)
    u, tau, radii = U_1, TAU_1, []
    for r in range(1, r_max + 2):
        if len(active) == 0:
            break
        # the final sweep: one more block releases whatever is still active
        last = u * len(active) < 1.0 or r > r_max
        b_r = (math.sqrt(6.0 * math.log(m / beta)) if last else
               math.sqrt(6.0 * u * len(active) * math.log(m * r_max / beta)))
        truncated = tmean(x[(r - 1) * m: r * m], b_r, None if len(active) == d else active)
        noisy = gaussian_mechanism_vector(truncated, math.sqrt(2.0) * b_r / m, rho, noise)
        freeze = slice(None) if last else noisy >= tau
        frozen = active[freeze]
        q[frozen], froze_in[frozen] = noisy[freeze], r
        radii.append(b_r)
        if last:
            break
        active, u, tau = active[~freeze], u / 2.0, tau / 2.0

    np.minimum(np.maximum(q, 0.0, out=q), 1.0, out=q)  # into [0, 1]^d
    return ProductModel(p=q, budget_spent=PrivacyBudget.zcdp(rho),
                        diagnostics={"m": m, "froze_in": froze_in, "B": np.array(radii)})


def sample_product(model: ProductModel, n: int, noise: NoiseSource) -> np.ndarray:
    """n i.i.d. rows from the product of Ber(p_j), as an (n, d) int8 array.

    Coordinate j is 1 where its uniform draw is below p_j.  Rows are drawn
    in chunks of about ``_BLOCK`` uniforms straight into a bool
    buffer, so the only full-size array is the 1-byte result.  The chunks
    read the stream one (n, d) draw would, so the rows and the stream
    position afterwards equal those of
    ``(noise.uniform(size=(n, d)) < p).astype(np.int8)``.
    """
    d = model.dim
    out = np.empty((n, d), dtype=bool)
    step = max(1, _BLOCK // max(d, 1))
    for start in range(0, n, step):
        rows = out[start: start + step]
        np.less(noise.uniform(size=rows.shape), model.p, out=rows)
    return out.view(np.int8)
