import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from privest.errors import (InvalidInputError, InvalidParameterError,
                            TooLargeError)
from privest.linalg import GaussianParams
from privest.metrics import (chi2_kl_bernoulli, gaussian_param_error,
                             product_sd_upper, tv_gaussian_mc,
                             tv_gaussian_same_cov, tv_product_exact,
                             tv_product_mc)
from privest.noise import NoiseSource


def whole_array_tv_product_mc(p, q, trials, noise):
    """tv_product_mc as one (trials, d) draw and whole-array scores."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    x = noise.uniform(size=(trials, p.shape[0])) < p
    eps = 1e-300
    logp = np.where(x, np.log(np.maximum(p, eps)), np.log(np.maximum(1 - p, eps))).sum(axis=1)
    logq = np.where(x, np.log(np.maximum(q, eps)), np.log(np.maximum(1 - q, eps))).sum(axis=1)
    vals = np.maximum(0.0, -np.expm1(np.minimum(logq - logp, 0.0)))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(trials))


class TestTvGaussianSameCov:
    def test_equal_means(self):
        assert tv_gaussian_same_cov(np.zeros(3), np.zeros(3), np.eye(3)) == 0.0

    def test_unit_shift_matches_quadrature(self):
        got = tv_gaussian_same_cov(np.array([0.0]), np.array([1.0]),
                                   np.array([[1.0]]))
        want, err = quad(lambda x: abs(norm.pdf(x) - norm.pdf(x - 1.0)) / 2.0,
                         -12, 12)
        assert got == pytest.approx(want, abs=max(1e-9, 10 * err))
        assert got == pytest.approx(0.38292, abs=1e-5)

    def test_affine_invariance(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        sigma = a @ a.T + 0.5 * np.eye(3)
        mu1, mu2 = rng.normal(size=3), rng.normal(size=3)
        base = tv_gaussian_same_cov(mu1, mu2, sigma)
        b = rng.normal(size=(3, 3))
        mapped = tv_gaussian_same_cov(b @ mu1, b @ mu2, b @ sigma @ b.T)
        assert base == pytest.approx(mapped, abs=1e-10)


class TestTvGaussianMc:
    def test_identical_is_zero(self):
        p = GaussianParams(np.zeros(2), np.eye(2))
        est, se = tv_gaussian_mc(p, p, 5000, NoiseSource(0))
        assert est == pytest.approx(0.0, abs=1e-12)

    def test_matches_closed_form_same_cov(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            d = int(rng.integers(1, 4))
            mu1 = rng.normal(size=d)
            mu2 = mu1 + 0.5 * rng.normal(size=d)
            a = rng.normal(size=(d, d))
            sigma = a @ a.T + 0.5 * np.eye(d)
            want = tv_gaussian_same_cov(mu1, mu2, sigma)
            est, se = tv_gaussian_mc(GaussianParams(mu1, sigma),
                                     GaussianParams(mu2, sigma), 40_000,
                                     NoiseSource(trial))
            assert abs(est - want) <= 3.0 * max(se, 1e-4)

    def test_matches_1d_quadrature_diff_cov(self):
        # N(0,1) vs N(0,4)
        want, _ = quad(lambda x: abs(norm.pdf(x) - norm.pdf(x, scale=2.0)) / 2.0,
                       -30, 30)
        est, se = tv_gaussian_mc(GaussianParams([0.0], [[1.0]]),
                                 GaussianParams([0.0], [[4.0]]), 60_000,
                                 NoiseSource(7))
        assert abs(est - want) <= 3.0 * se

    def test_stderr_shrinks_with_trials(self):
        p = GaussianParams(np.zeros(2), np.eye(2))
        q = GaussianParams(np.ones(2), np.eye(2))
        _, se1 = tv_gaussian_mc(p, q, 10_000, NoiseSource(2))
        _, se2 = tv_gaussian_mc(p, q, 40_000, NoiseSource(2))
        assert se2 < se1 * 0.7

    def test_extreme_mismatch_no_overflow(self):
        p = GaussianParams([0.0], [[1.0]])
        q = GaussianParams([1e6], [[1.0]])
        est, _ = tv_gaussian_mc(p, q, 1000, NoiseSource(3))
        assert est == pytest.approx(1.0)

    def test_degenerate_q_is_total_variation_one(self):
        # N(0, diag(0, 1)) lives on a line that N(0, I) gives probability 0
        p = GaussianParams(np.zeros(2), np.eye(2))
        q = GaussianParams(np.zeros(2), np.diag([0.0, 1.0]))
        assert tv_gaussian_mc(p, q, 1000, NoiseSource(4)) == (1.0, 0.0)

    def test_degenerate_p_rejected(self):
        p = GaussianParams(np.zeros(2), np.diag([0.0, 1.0]))
        q = GaussianParams(np.zeros(2), np.eye(2))
        with pytest.raises(InvalidInputError):
            tv_gaussian_mc(p, q, 1000, NoiseSource(4))


class TestTvProductExact:
    def test_equal(self):
        assert tv_product_exact([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_d1(self):
        assert tv_product_exact([0.3], [0.5]) == pytest.approx(0.2)

    def test_disjoint(self):
        assert tv_product_exact([0.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0)

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            tv_product_exact([0.5] * 21, [0.5] * 21)

    def test_d1_equals_sd_upper(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p, q = rng.uniform(size=2)
            assert tv_product_exact([p], [q]) == \
                pytest.approx(product_sd_upper([p], [q]), abs=1e-12)

    def test_mc_agrees_with_exact(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(0.1, 0.9, size=6)
        q = np.clip(p + rng.uniform(-0.1, 0.1, size=6), 0.0, 1.0)
        want = tv_product_exact(p, q)
        est, se = tv_product_mc(p, q, 60_000, NoiseSource(6))
        assert abs(est - want) <= 4.0 * max(se, 1e-4)

    @pytest.mark.parametrize("d", [1, 5, 21, 48, 200, 9000])
    @pytest.mark.parametrize("trials", [2, 171, 4000])
    def test_mc_blocks_match_the_whole_array_formula(self, d, trials):
        # the blocks read the stream one (trials, d) draw would, and each
        # trial is scored along its own row: the same mean and stderr, and
        # the stream ends where it would
        rng = np.random.default_rng(d)
        p = rng.uniform(size=d)
        q = np.clip(p + rng.uniform(-0.1, 0.1, size=d), 0.0, 1.0)
        p[0], q[-1] = 0.0, 1.0
        got_src, want_src = NoiseSource(d + trials), NoiseSource(d + trials)
        got = tv_product_mc(p, q, trials, got_src)
        assert got == whole_array_tv_product_mc(p, q, trials, want_src)
        assert got_src.uniform(size=2).tolist() == want_src.uniform(size=2).tolist()

    def test_mc_peak_memory(self):
        # the product task's 4000 trials at d 48 drew 3.3 MiB at once; in
        # blocks only the trials' values are kept whole
        p, q = np.full(48, 0.1), np.full(48, 0.12)
        tracemalloc.start()
        try:
            tv_product_mc(p, q, 4000, NoiseSource(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 2**20


class TestChi2KlBernoulli:
    def test_equal(self):
        assert chi2_kl_bernoulli(0.4, 0.4) == (0.0, 0.0)

    def test_known_value(self):
        chi2, kl = chi2_kl_bernoulli(0.5, 0.25)
        assert chi2 == pytest.approx(1.0 / 3.0)
        assert kl == pytest.approx(0.5 * math.log(2.0)
                                   + 0.5 * math.log(2.0 / 3.0))

    def test_boundary_infinite(self):
        chi2, kl = chi2_kl_bernoulli(0.5, 0.0)
        assert math.isinf(chi2) and math.isinf(kl)

    def test_zero_times_log_zero(self):
        chi2, kl = chi2_kl_bernoulli(0.0, 0.5)
        assert math.isfinite(kl)
        assert kl == pytest.approx(math.log(2.0))

    def test_asymmetry(self):
        assert chi2_kl_bernoulli(0.1, 0.4) != chi2_kl_bernoulli(0.4, 0.1)

    def test_pinsker_chain(self):
        # 2*TV^2 <= KL <= chi^2 on 1000 random pairs
        rng = np.random.default_rng(8)
        for _ in range(1000):
            p = float(rng.uniform(0.01, 0.99))
            q = float(rng.uniform(0.01, 0.99))
            tv = abs(p - q)
            chi2, kl = chi2_kl_bernoulli(p, q)
            assert 2.0 * tv * tv <= kl + 1e-12
            assert kl <= chi2 + 1e-12


class TestProductSdUpper:
    def test_equal(self):
        assert product_sd_upper([0.2, 0.8], [0.2, 0.8]) == 0.0

    def test_known(self):
        assert product_sd_upper([0.2, 0.2, 0.2], [0.3, 0.3, 0.3]) == \
            pytest.approx(0.3)

    def test_dominates_exact_tv(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            p = rng.uniform(size=d)
            q = rng.uniform(size=d)
            assert product_sd_upper(p, q) >= tv_product_exact(p, q) - 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            product_sd_upper([1.2], [0.5])

    def test_rejects_nan(self):
        for p, q in (([np.nan, 0.1], [0.2, 0.1]), ([0.2, 0.1], [0.2, np.nan])):
            with pytest.raises(InvalidParameterError):
                product_sd_upper(p, q)


class TestGaussianParamError:
    def test_exact_match(self):
        p = GaussianParams(np.zeros(2), np.eye(2))
        assert gaussian_param_error(p, p) == (0.0, 0.0)

    def test_scalar(self):
        t = GaussianParams([0.0], [[4.0]])
        e = GaussianParams([0.0], [[5.0]])
        assert gaussian_param_error(t, e)[1] == pytest.approx(0.25)

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(3, 3))
        sigma = a @ a.T + np.eye(3)
        b = rng.normal(size=(3, 3))
        shat = sigma + 0.1 * np.eye(3)
        mu, muh = rng.normal(size=3), rng.normal(size=3)
        base = gaussian_param_error(GaussianParams(mu, sigma),
                                    GaussianParams(muh, shat))
        mapped = gaussian_param_error(
            GaussianParams(b @ mu, b @ sigma @ b.T),
            GaussianParams(b @ muh, b @ shat @ b.T))
        assert base[0] == pytest.approx(mapped[0], abs=1e-8)
        assert base[1] == pytest.approx(mapped[1], abs=1e-8)
