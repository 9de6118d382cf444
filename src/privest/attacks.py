"""The fingerprinting (tracing) attack on black-box mean estimators.

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
from typing import Callable

import numpy as np

from .errors import InsufficientSamplesError, InvalidParameterError
from .noise import NoiseSource


@dataclass
class FingerprintReport:
    """Member/non-member score samples and the trace-bound estimate."""

    in_scores: np.ndarray
    out_scores: np.ndarray
    separation: float
    fp_lemma_lhs: float
    fp_lemma_stderr: float
    failures: int = 0
    meta: dict = field(default_factory=dict)


def _weights(kind: str, model: np.ndarray, R: float = 1.0) -> np.ndarray:
    """The tracing score's per-coordinate weights, zero exactly on its prior's
    boundary: (1/9 - p^2) / (1 - p^2) at |p| = 1/3, R^2 - mu^2 at |mu| = R."""
    if kind == "product":
        return (1.0 / 9.0 - model ** 2) / (1.0 - model ** 2)
    return R ** 2 - model ** 2


def run_tracing_attack(mechanism: Callable[[np.ndarray], np.ndarray],
                       kind: str, n: int, d: int, trials: int,
                       noise: NoiseSource, R: float = 1.0) -> FingerprintReport:
    """Score a black-box mean estimator against the tracing statistic.

    Per trial: draw the model from the score's prior, draw n member rows and
    n fresh non-member rows, run the mechanism on the members, clamp its
    output into the score's range (the harness's job, matching the
    statistic's codomain assumption), and score both groups.  The recorded
    in/out score for the trial is the group average (same expectation as a
    single row's score, much lower variance); the per-coordinate trace
    statistic accumulates all member scores.  The rows are centred in place
    once the mechanism returns, so a mechanism must not keep its input.

    kind="product": prior uniform on [-1/3, 1/3]^d, rows in {-1, +1}^d.
    kind="gaussian": prior uniform on [-R, R]^d, rows N(mu, I); R must be
    positive and finite.  The score's weights vanish exactly on the prior's
    boundary, as the trace bound assumes.  Mechanism exceptions are recorded
    as failures, not raised, except the mechanism's parameter errors
    (``InvalidParameterError``, ``InsufficientSamplesError``): every trial
    would fail the same way, so they propagate to the caller.
    """
    if kind not in ("product", "gaussian"):
        raise InvalidParameterError(f"unknown kind {kind!r}")
    if trials < 1 or n < 1:
        raise InvalidParameterError("need trials >= 1 and n >= 1")
    if kind == "gaussian" and not 0 < R < math.inf:
        raise InvalidParameterError(f"the gaussian prior needs 0 < R < inf, got R={R}")
    bound = 1.0 / 3.0 if kind == "product" else R

    in_scores, out_scores, lhs_vals = [], [], []
    failures = 0
    for _ in range(trials):
        model = noise.uniform(-bound, bound, size=d)
        if kind == "product":  # each uniform becomes its +-1 entry in place
            rows = noise.uniform(size=(2 * n, d))
            np.less(rows, (1.0 + model) / 2.0, out=rows)
            rows *= 2.0
            rows -= 1.0
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
        err = np.minimum(np.maximum(est, -bound), bound) - model
        weighted = _weights(kind, model, R) * err
        rows -= model  # both groups, in place: the mechanism has returned
        scores_in = x @ weighted
        scores_out = x_out @ weighted
        in_scores.append(float(scores_in.mean()))
        out_scores.append(float(scores_out.mean()))
        lhs_vals.append((float(scores_in.sum()) + float(np.sum(err ** 2))) / d)

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
