"""Condition-number-free preconditioning and covariance estimation.

No upper bound on ||Sigma||_2 is assumed (only Sigma >= I).  A private vote
over geometric buckets of sample norms localizes the trace to a factor-C
interval; that interval drives a downward sweep of one-step preconditioning
attempts; up to d such rounds reduce the spectrum into a certified
O(d^4) band, after which the bounded-condition-number estimator applies.
The whole pipeline runs on one ``covariance._Frame`` over the original
rows: the votes read its mapped norms (the first reads the rows, admitting
none to the second moment), the sweeps its cached second moment, each round
pushes its factor onto its map, and ``pgce`` finishes on the same frame,
so no sample is transformed and no inverse is taken densely.

Privacy here is approximate (eps, delta)-DP: the norm vote uses the stable
histogram, and the zCDP rounds are converted and composed per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .covariance import (CovEstimate, Preconditioner, RoundRecord,
                         clamp_threshold_sq, _frame, _split_from_noisy_cov, pgce)
from .errors import EstimationFailedError, InvalidParameterError
from .histogram import argmax_bucket, stable_histogram_approx_dp
from .noise import NoiseSource
from .privacy import (PrivacyBudget, compose_approx_dp, gaussian_sigma,
                      sample_gue, zcdp_to_approx_dp)

# Bucket base for the norm vote.  Needs C > 1 + 4*ln(10); 16 is the next
# power of two, so bucket indices are exact in binary.
BUCKET_BASE = 16.0
XI = 1.0 / BUCKET_BASE        # lower certificate factor
BIG_XI = BUCKET_BASE          # upper certificate factor
# Rounds stop once the candidate interval's floor drops below 40*d^3.
FLOOR_COEFF = 40.0
SWEEP_SHRINK = 99.0 / 100.0
# Norm-vote key for rows below the universe floor or with a non-finite or
# non-positive squared norm.  No finite double lies above BUCKET_BASE**256,
# so this key sorts, and so draws its noise, after every real bucket.
BOTTOM_KEY = 257


@dataclass
class TraceEstimate:
    """A released power of the bucket base localizing the trace.

    ``certificate`` is the interval [xi*T/d, Xi*d*T] claimed to contain
    ||Sigma||_2; the trace itself lies in [T/C, C*T] w.h.p.
    """

    T: float
    C: float
    r: int
    certificate: tuple[float, float]


def _bucket_keys(norms: np.ndarray, r_min: int) -> np.ndarray:
    """Bucket index r with C^{r-1} < v <= C^r for each squared norm v;
    below the universe floor or not a positive finite value -> BOTTOM_KEY."""
    with np.errstate(divide="ignore", invalid="ignore"):
        # exact powers land in their own bucket
        r = np.ceil(np.log(norms) / math.log(BUCKET_BASE) - 1e-9)
    ok = np.isfinite(norms) & (norms > 0) & (r >= r_min)
    return np.where(ok, r, BOTTOM_KEY).astype(np.int64)


def p_estimate_trace(x, eps: float, delta: float, beta: float,
                     noise: NoiseSource) -> Optional[TraceEstimate]:
    """Vote on the geometric bucket holding the typical squared sample norm.

    ``x`` is an array of samples or a ``_Frame``, whose rows vote with their
    exact squared norms under its map, one key per row.  Returns None (the
    bottom outcome) when no bucket collects a quarter of the mass; callers
    must treat that as a privacy-preserving abort.
    """
    frame = _frame(x)
    d = frame.shape[1]
    # the universe starts one bucket below the trace floor tr(Sigma) >= d
    r_min = math.ceil(math.log(d) / math.log(BUCKET_BASE) - 1e-9) - 1
    hist = stable_histogram_approx_dp(_bucket_keys(frame.sq_norms(), r_min),
                                      eps, delta, beta, noise)
    real = hist.keys != BOTTOM_KEY
    hist.keys, hist.freqs = hist.keys[real], hist.freqs[real]
    best = argmax_bucket(hist, 0.25)
    if best is None:
        return None
    with np.errstate(over="ignore"):  # BUCKET_BASE**256 is past the largest double
        t = float(np.float64(BUCKET_BASE) ** best)
    return TraceEstimate(T=t, C=BUCKET_BASE, r=best,
                         certificate=(XI * t / d, BIG_XI * d * t))


def weak_ppc_no_bound(x, rho: float, beta: float,
                      interval: tuple[float, float],
                      noise: NoiseSource) -> Optional[tuple]:
    """Sweep candidate bounds downward until a heavy subspace shows up.

    Tries kappa = b, b*(99/100), ... while kappa > a/2, each attempt a
    one-step preconditioning with K = kappa/d^2 and an even share of the
    budget sized for the worst-case sweep length.  Every attempt reads the
    same cached second moment through the frame's map, which the first
    attempt's clamp, the loosest, extends; only the noise is redrawn.
    Returns the first (V, K) with non-empty V, whose factor (1/sqrt(K)) P_V
    + P_Vperp the caller applies (``ppc_range`` pushes it onto its frame),
    or None if the sweep exhausts.  ``x`` is an array of samples or a ``_Frame``.
    """
    frame = _frame(x)
    n, d = frame.shape
    if not rho > 0:
        raise InvalidParameterError(f"rho must be > 0, got {rho}")
    if not (0 < beta < 1):
        raise InvalidParameterError(f"beta must be in (0,1), got {beta}")
    a, b = interval
    if not a > FLOOR_COEFF * d ** 3:
        raise InvalidParameterError(
            f"interval floor {a} must exceed {FLOOR_COEFF * d**3}")
    if not b >= a:
        raise InvalidParameterError(f"empty interval [{a}, {b}]")
    steps = math.ceil(math.log(2.0 * b / a) / math.log(1.0 / SWEEP_SHRINK))
    rho_step = rho / steps
    beta_step = beta / steps
    kappa = b
    while kappa > a / 2.0:
        b_sq = clamp_threshold_sq(kappa, d, n, beta_step)
        cov, _ = frame.moment(b_sq)
        z = cov + sample_gue(d, gaussian_sigma(2.0 * b_sq / n, rho_step), noise)
        v = _split_from_noisy_cov(z, kappa)
        if v.shape[1] > 0:
            return v, kappa / d ** 2
        kappa *= SWEEP_SHRINK
    return None


def ppc_range(x, eps: float, delta: float, beta: float,
              noise: NoiseSource) -> Preconditioner:
    """Range-driven preconditioning without a condition-number bound.

    Each round votes on the trace of the samples under the current map,
    converts the vote into a spectral interval, and runs the sweeping
    one-step preconditioner; rounds stop when the interval floor falls
    below 40*d^3, certifying the spectrum under kappa* = 40*Xi*d^4 for the
    returned A = 2 * (product of round factors).  ``x`` is an array of
    samples or a ``_Frame``, onto which the factors are pushed.
    """
    if not eps > 0:
        raise InvalidParameterError(f"eps must be > 0, got {eps}")
    if not (0 < delta < 1):
        raise InvalidParameterError(f"delta must be in (0,1), got {delta}")
    if not (0 < beta < 1):
        raise InvalidParameterError(f"beta must be in (0,1), got {beta}")
    frame = _frame(x)
    d = frame.shape[1]
    eps_r = eps / math.sqrt(d * math.log(1.0 / delta))
    delta_r = delta / d
    rho_r = eps_r ** 2 / math.log(1.0 / delta)
    beta_r = beta / d

    log: list[RoundRecord] = []
    spent: list[tuple[float, float]] = []
    dims_seen = 0
    for _ in range(d):
        est = p_estimate_trace(frame, eps_r, delta_r, beta_r, noise)
        spent.append((eps_r, delta_r))
        if est is None:
            raise EstimationFailedError(
                "trace vote returned bottom mid-run; rerun or raise n")
        a_j = XI * est.T
        b_j = BIG_XI * d * est.T
        if not math.isfinite(b_j):  # a_j <= b_j; reads only the released vote
            raise EstimationFailedError(
                f"trace vote's interval [{a_j}, {b_j}] is not finite; rescale the rows")
        if a_j < FLOOR_COEFF * d ** 3:
            break
        out = weak_ppc_no_bound(frame, rho_r, beta_r, (a_j, b_j), noise)
        spent.append(zcdp_to_approx_dp(rho_r, delta_r))
        if out is None:
            raise EstimationFailedError(
                "no heavy subspace found in the certified interval")
        v, k = out
        frame.push(v, k, 1.0)
        dims_seen += v.shape[1]
        log.append(RoundRecord(kappa=b_j, threshold=a_j,
                               subspace_dim=int(v.shape[1]), rho=rho_r, K=k))
        if dims_seen >= d:
            break
    frame.push(np.zeros((d, 0)), 1.0, 2.0)
    eps_spent, delta_spent = compose_approx_dp(spent)
    return Preconditioner(A=frame.m, A_inv=frame.m_inv, round_log=log,
                          budget_spent=PrivacyBudget.approx(eps_spent, delta_spent),
                          kappa_star=FLOOR_COEFF * BIG_XI * d ** 4)


def pgce_no_bound(x, eps: float, delta: float, beta: float,
                  noise: NoiseSource) -> CovEstimate:
    """Full covariance estimation with no condition-number bound.

    Preconditions via ppc_range, then runs the bounded-condition estimator
    at its advertised kappa* with the zCDP share rho = eps^2/(8*ln(1/delta))
    on the same frame, which conjugates the estimate back.
    """
    frame = _frame(x)
    pre = ppc_range(frame, eps, delta, beta, noise)
    rho = eps ** 2 / (8.0 * math.log(1.0 / delta))
    inner = pgce(frame, rho, beta, pre.kappa_star, noise)
    if not np.isfinite(inner.sigma_hat).all():  # post-processing of the release
        raise EstimationFailedError(
            "covariance estimate overflowed to a non-finite value; rescale the rows")
    eps_spent, delta_spent = compose_approx_dp(
        [(pre.budget_spent.eps, pre.budget_spent.delta),
         zcdp_to_approx_dp(rho, delta)])
    diag = dict(inner.diagnostics)
    diag["preconditioner_rounds"] = pre.round_log
    diag["kappa_star"] = pre.kappa_star
    return CovEstimate(sigma_hat=inner.sigma_hat,
                       budget_spent=PrivacyBudget.approx(eps_spent, delta_spent),
                       diagnostics=diag)
