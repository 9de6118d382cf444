import math

import numpy as np
import pytest

from privest.attacks import run_tracing_attack
from privest.errors import InsufficientSamplesError, InvalidParameterError
from privest.noise import NoiseSource


# Per-row reference scores: run_tracing_attack scores whole groups at once,
# and TestRunTracingAttack checks it against these.
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


class TestProductScore:
    def test_known_value(self):
        # p=0, est=1/3, x=ones: each coordinate contributes (1/9)*(1/3)*1
        d = 9
        z = fp_score_product(np.full(d, 1.0 / 3.0), np.ones(d), np.zeros(d))
        assert z == pytest.approx(d / 27.0)

    def test_zero_when_estimate_equals_model(self):
        p = np.array([0.2, -0.1, 0.3])
        x = np.array([1.0, -1.0, 1.0])
        assert fp_score_product(p, x, p) == 0.0

    def test_linear_in_estimate_offset(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(-0.3, 0.3, size=5)
        x = np.sign(rng.standard_normal(5))
        e1 = p + rng.uniform(-0.1, 0.1, size=5)
        z1 = fp_score_product(e1, x, p)
        z2 = fp_score_product(p + 2.0 * (e1 - p), x, p)
        assert z2 == pytest.approx(2.0 * z1)

    def test_nonmember_mean_near_zero(self):
        # rows independent of the estimate: the score has mean zero
        rng = np.random.default_rng(1)
        d, trials = 16, 4000
        p = rng.uniform(-1.0 / 3.0, 1.0 / 3.0, size=d)
        est = rng.uniform(-1.0 / 3.0, 1.0 / 3.0, size=d)
        u = rng.uniform(size=(trials, d))
        rows = np.where(u < (1.0 + p) / 2.0, 1.0, -1.0)
        scores = [fp_score_product(est, row, p) for row in rows]
        se = np.std(scores, ddof=1) / math.sqrt(trials)
        assert abs(np.mean(scores)) <= 3.0 * se + 1e-12

    def test_rejects_degenerate_model(self):
        with pytest.raises(InvalidParameterError):
            fp_score_product(np.zeros(2), np.ones(2), np.array([0.0, 1.0]))


class TestGaussianScore:
    def test_zero_when_estimate_equals_mean(self):
        mu = np.array([0.5, -0.2])
        assert fp_score_gaussian(mu, np.ones(2), mu, 1.0) == 0.0

    def test_known_value(self):
        d, c, s = 4, 0.3, 0.7
        z = fp_score_gaussian(np.full(d, c), np.full(d, s), np.zeros(d), 1.0)
        assert z == pytest.approx(d * c * s)

    def test_bilinear(self):
        rng = np.random.default_rng(2)
        mu = rng.uniform(-0.5, 0.5, size=6)
        x = mu + rng.standard_normal(6)
        est = mu + rng.uniform(-0.2, 0.2, size=6)
        z = fp_score_gaussian(est, x, mu, 1.0)
        z2 = fp_score_gaussian(mu + 3.0 * (est - mu), x, mu, 1.0)
        assert z2 == pytest.approx(3.0 * z)

    def test_rejects_mean_outside_cube(self):
        with pytest.raises(InvalidParameterError):
            fp_score_gaussian(np.zeros(2), np.zeros(2),
                              np.array([0.0, 1.5]), 1.0)


class TestRunTracingAttack:
    def test_oracle_mechanism_no_separation(self):
        # a mechanism that ignores the data cannot be traced
        report = run_tracing_attack(lambda x: np.zeros(x.shape[1]),
                                    "product", n=32, d=8, trials=400,
                                    noise=NoiseSource(3))
        pooled = np.concatenate([report.in_scores, report.out_scores])
        se = np.std(pooled, ddof=1) / math.sqrt(len(report.in_scores))
        assert abs(report.separation) <= 4.0 * se

    def test_empirical_mean_is_traced(self):
        report = run_tracing_attack(lambda x: x.mean(axis=0),
                                    "product", n=16, d=64, trials=200,
                                    noise=NoiseSource(4))
        assert report.failures == 0
        assert report.separation > 0
        assert float(report.in_scores.mean()) > 5.0 * float(
            np.std(report.out_scores, ddof=1) / math.sqrt(200))

    def test_gaussian_kind_empirical_mean(self):
        report = run_tracing_attack(lambda x: x.mean(axis=0),
                                    "gaussian", n=16, d=64, trials=200,
                                    noise=NoiseSource(5), R=1.0)
        assert report.separation > 0
        assert report.meta["prior_bound"] == 1.0

    def test_group_scores_match_single_row_scorer(self):
        # the vectorized trial scoring equals averaging the per-row scores
        d, n = 6, 5
        noise = NoiseSource(6)
        report = run_tracing_attack(lambda x: x.mean(axis=0), "product",
                                    n=n, d=d, trials=1, noise=noise)
        replay = NoiseSource(6)
        model = replay.uniform(-1.0 / 3.0, 1.0 / 3.0, size=d)
        u = replay.uniform(size=(2 * n, d))
        rows = np.where(u < (1.0 + model) / 2.0, 1.0, -1.0)
        est = np.clip(rows[:n].mean(axis=0), -1.0 / 3.0, 1.0 / 3.0)
        manual_in = np.mean([fp_score_product(est, r, model)
                             for r in rows[:n]])
        manual_out = np.mean([fp_score_product(est, r, model)
                              for r in rows[n:]])
        assert report.in_scores[0] == pytest.approx(manual_in)
        assert report.out_scores[0] == pytest.approx(manual_out)
        manual_lhs = (sum(fp_score_product(est, r, model) for r in rows[:n])
                      + np.sum((est - model) ** 2)) / d
        assert report.fp_lemma_lhs == pytest.approx(manual_lhs)

    def test_mechanism_failures_counted(self):
        def flaky(x):
            raise RuntimeError("boom")
        report = run_tracing_attack(flaky, "product", n=4, d=2, trials=7,
                                    noise=NoiseSource(7))
        assert report.failures == 7
        assert len(report.in_scores) == 0
        assert math.isnan(report.separation)

    @pytest.mark.parametrize("error", [InvalidParameterError("bad m"),
                                       InsufficientSamplesError(10, 4)])
    def test_mechanism_parameter_errors_raised(self, error):
        calls = []

        def misconfigured(x):
            calls.append(1)
            raise error

        with pytest.raises(type(error)):
            run_tracing_attack(misconfigured, "product", n=4, d=2, trials=7,
                               noise=NoiseSource(7))
        assert len(calls) == 1

    def test_report_meta(self):
        report = run_tracing_attack(lambda x: x.mean(axis=0), "product",
                                    n=8, d=4, trials=5, noise=NoiseSource(8))
        assert len(report.in_scores) == len(report.out_scores) == 5
        assert report.meta == {"kind": "product", "n": 8, "d": 4,
                               "prior_bound": 1.0 / 3.0}

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            run_tracing_attack(lambda x: x, "poisson", 4, 2, 1, NoiseSource(0))
        with pytest.raises(InvalidParameterError):
            run_tracing_attack(lambda x: x, "product", 0, 2, 1, NoiseSource(0))

    @pytest.mark.parametrize("kind, R", [
        ("gaussian", 0.0), ("gaussian", -1.0), ("gaussian", math.nan),
        ("gaussian", math.inf)])
    def test_prior_bound_outside_score_domain_rejected(self, kind, R):
        # the Gaussian score's prior [-R, R]^d needs 0 < R < inf
        def mechanism(x):
            raise AssertionError("the mechanism ran on a rejected prior")

        with pytest.raises(InvalidParameterError):
            run_tracing_attack(mechanism, kind, 4, 2, 1, NoiseSource(0), R=R)

