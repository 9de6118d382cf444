"""Fingerprinting (tracing) statistics and the covariance packing generator.

The scores measure correlation between an estimator's output and a single
sample; on members the correlation is positive for any accurate estimator,
on non-members it vanishes by independence.  The attack harness runs any
black-box mean estimator over freshly drawn models and reports the member
and non-member score distributions plus the empirical left-hand side of the
per-coordinate trace bound E[sum_i Z_i + (f - P)^2] (whose theoretical floor
is 1/27 for the cube prior [-1/3, 1/3]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InsufficientSamplesError, InvalidParameterError
from .noise import NoiseSource


@dataclass
class FingerprintReport:
    """Member/non-member score samples with summary statistics."""

    in_scores: np.ndarray
    out_scores: np.ndarray
    separation: float
    fp_lemma_lhs: float
    fp_lemma_stderr: float
    failures: int = 0
    meta: dict = field(default_factory=dict)

    def summary(self) -> dict:
        t = len(self.in_scores)
        return {
            "trials": t,
            "failures": self.failures,
            "in_mean": float(np.mean(self.in_scores)) if t else None,
            "in_stderr": float(np.std(self.in_scores, ddof=1) / math.sqrt(t)) if t > 1 else None,
            "out_mean": float(np.mean(self.out_scores)) if t else None,
            "out_stderr": float(np.std(self.out_scores, ddof=1) / math.sqrt(t)) if t > 1 else None,
            "separation": self.separation,
            "fp_lemma_lhs": self.fp_lemma_lhs,
            "fp_lemma_stderr": self.fp_lemma_stderr,
            **self.meta,
        }


def fp_score_product(est: np.ndarray, x_row: np.ndarray,
                     p: np.ndarray) -> float:
    """Tracing score for product distributions over {-1, +1}^d.

    Z = sum_j ((1/9 - p_j^2) / (1 - p_j^2)) * (est_j - p_j) * (x_j - p_j).
    """
    est = np.asarray(est, dtype=float).ravel()
    x_row = np.asarray(x_row, dtype=float).ravel()
    p = np.asarray(p, dtype=float).ravel()
    if np.any(np.abs(p) >= 1):
        raise InvalidParameterError("|p_j| must be < 1")
    w = (1.0 / 9.0 - p ** 2) / (1.0 - p ** 2)
    return float(np.sum(w * (est - p) * (x_row - p)))


def fp_score_gaussian(est: np.ndarray, x_row: np.ndarray, mu: np.ndarray,
                      R: float) -> float:
    """Tracing score for Gaussian means drawn from the cube [-R, R]^d.

    Z = sum_j (R^2 - mu_j^2) * (est_j - mu_j) * (x_j - mu_j).
    """
    est = np.asarray(est, dtype=float).ravel()
    x_row = np.asarray(x_row, dtype=float).ravel()
    mu = np.asarray(mu, dtype=float).ravel()
    if np.any(np.abs(mu) > R):
        raise InvalidParameterError("||mu||_inf must be <= R")
    return float(np.sum((R ** 2 - mu ** 2) * (est - mu) * (x_row - mu)))


def run_tracing_attack(mechanism: Callable[[np.ndarray], np.ndarray],
                       kind: str, n: int, d: int, trials: int,
                       noise: NoiseSource, R: float = 1.0,
                       prior_bound: Optional[float] = None) -> FingerprintReport:
    """Score a black-box mean estimator against the tracing statistic.

    Per trial: draw the model from the score's prior, draw n member rows and
    n fresh non-member rows, run the mechanism on the members, clamp its
    output into the score's range (the harness's job, matching the
    statistic's codomain assumption), and score both groups.  The recorded
    in/out score for the trial is the group average (same expectation as a
    single row's score, much lower variance); the per-coordinate trace
    statistic accumulates all member scores.

    kind="product": prior uniform on [-1/3, 1/3]^d (override with a
    prior_bound in (0, 1)), rows in {-1, +1}^d.  kind="gaussian": prior
    uniform on [-R, R]^d (R > 0; prior_bound in (0, R]), rows N(mu, I).
    Other bounds raise ``InvalidParameterError``.  Mechanism exceptions are
    recorded as failures, not raised, except the mechanism's parameter
    errors (``InvalidParameterError``, ``InsufficientSamplesError``): every
    trial would fail the same way, so they propagate to the caller.
    """
    if kind not in ("product", "gaussian"):
        raise InvalidParameterError(f"unknown kind {kind!r}")
    if trials < 1 or n < 1:
        raise InvalidParameterError("need trials >= 1 and n >= 1")
    bound = prior_bound if prior_bound is not None else (1.0 / 3.0 if kind == "product" else R)
    if not (0 < bound < 1 if kind == "product" else R > 0 and 0 < bound <= R):
        raise InvalidParameterError(
            f"prior_bound {bound} is outside the {kind} score's domain (R={R})")

    in_scores, out_scores, lhs_vals = [], [], []
    failures = 0
    for _ in range(trials):
        model = noise.uniform(-bound, bound, size=d)
        if kind == "product":
            u = noise.uniform(size=(2 * n, d))
            rows = (u < (1.0 + model) / 2.0) * 2.0 - 1.0
        else:
            rows = model + noise.gaussian(1.0, size=(2 * n, d))
        x, x_out = rows[:n], rows[n:]
        try:
            est = np.asarray(mechanism(x), dtype=float).ravel()
        except (InvalidParameterError, InsufficientSamplesError):
            raise
        except Exception:
            failures += 1
            continue
        est = np.clip(est, -bound, bound)
        if kind == "product":
            w = (1.0 / 9.0 - model ** 2) / (1.0 - model ** 2)
        else:
            w = R ** 2 - model ** 2
        scores_in = (x - model) @ (w * (est - model))
        scores_out = (x_out - model) @ (w * (est - model))
        in_scores.append(float(scores_in.mean()))
        out_scores.append(float(scores_out.mean()))
        lhs_vals.append((float(scores_in.sum())
                         + float(np.sum((est - model) ** 2))) / d)

    in_arr = np.asarray(in_scores)
    out_arr = np.asarray(out_scores)
    lhs_arr = np.asarray(lhs_vals)
    t = len(lhs_arr)
    sep = float(in_arr.mean() - out_arr.mean()) if t else float("nan")
    lhs = float(lhs_arr.mean()) if t else float("nan")
    lhs_se = float(lhs_arr.std(ddof=1) / math.sqrt(t)) if t > 1 else float("nan")
    return FingerprintReport(in_scores=in_arr, out_scores=out_arr,
                             separation=sep, fp_lemma_lhs=lhs,
                             fp_lemma_stderr=lhs_se, failures=failures,
                             meta={"kind": kind, "n": n, "d": d,
                                   "prior_bound": bound})


def cov_packing(d: int, alpha: float, count: int = 16,
                seed: int = 0) -> list[np.ndarray]:
    """Seeded subset of the covariance packing I + v.

    v is symmetric with zero diagonal and off-diagonal entries +-alpha/(2d);
    every output satisfies (1/2) I <= Sigma <= (3/2) I by Gershgorin.
    """
    if d < 2:
        raise InvalidParameterError("need d >= 2")
    if not (0 < alpha / (2.0 * d) < 0.5):
        raise InvalidParameterError("need 0 < alpha/(2d) < 1/2")
    if count < 1:
        raise InvalidParameterError("need count >= 1")
    gen = np.random.Generator(np.random.Philox(key=seed))
    mats = []
    iu = np.triu_indices(d, k=1)
    for _ in range(count):
        signs = gen.integers(0, 2, size=len(iu[0])) * 2 - 1
        v = np.zeros((d, d))
        v[iu] = signs * alpha / (2.0 * d)
        v = v + v.T
        mats.append(np.eye(d) + v)
    return mats
