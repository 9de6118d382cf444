import math

import numpy as np
import pytest

from privest import covariance, covariance_unbounded, histogram, mean, product
from privest.errors import InvalidInputError, InvalidParameterError
from privest.noise import NoiseSource
from privest.privacy import (PrivacyBudget, gaussian_mechanism_symmetric,
                             gaussian_mechanism_vector, gaussian_sigma,
                             sample_gue, zcdp_to_approx_dp)


class TestPrivacyBudget:
    def test_regimes(self):
        assert PrivacyBudget.zcdp(0.5).rho == 0.5
        b = PrivacyBudget.approx(1.0, 1e-6)
        assert (b.eps, b.delta) == (1.0, 1e-6)

    def test_invalid_combinations(self):
        with pytest.raises(InvalidParameterError):
            PrivacyBudget(regime="zcdp", rho=0.5, eps=1.0)
        with pytest.raises(InvalidParameterError):
            PrivacyBudget(regime="zcdp", rho=-0.1)
        with pytest.raises(InvalidParameterError):
            PrivacyBudget(regime="approx", eps=1.0, delta=1.0)
        with pytest.raises(InvalidParameterError):
            PrivacyBudget(regime="nope", rho=0.1)
        with pytest.raises(InvalidParameterError):  # the pure regime is gone
            PrivacyBudget(regime="pure", eps=1.0)

    def test_as_dict(self):
        assert PrivacyBudget.zcdp(0.25).as_dict() == {"regime": "zcdp",
                                                      "rho": 0.25}


class TestConversions:
    def test_zcdp_to_approx_known(self):
        eps, delta = zcdp_to_approx_dp(0.5, math.exp(-2))
        assert eps == pytest.approx(2.5)
        assert delta == math.exp(-2)
        assert zcdp_to_approx_dp(0.0, 0.1)[0] == 0.0
        assert zcdp_to_approx_dp(2.0, math.exp(-8))[0] == pytest.approx(10.0)

    def test_zcdp_to_approx_bad_delta(self):
        with pytest.raises(InvalidParameterError):
            zcdp_to_approx_dp(0.5, 0.0)
        with pytest.raises(InvalidParameterError):
            zcdp_to_approx_dp(0.5, 1.0)


class TestComposeApprox:
    """Sequential composition is ``+`` on budgets of one regime."""

    def test_basic(self):
        b = PrivacyBudget.approx(1.0, 1e-6) + PrivacyBudget.approx(0.5, 1e-6)
        assert (b.eps, b.delta) == pytest.approx((1.5, 2e-6))
        zero = PrivacyBudget.approx(0, 0)
        assert zero + PrivacyBudget.approx(0.25, 1e-7) == PrivacyBudget.approx(0.25, 1e-7)

    def test_zcdp_budgets_add(self):
        assert PrivacyBudget.zcdp(0.25) + PrivacyBudget.zcdp(0.5) == PrivacyBudget.zcdp(0.75)

    def test_adds_in_order(self):
        # a running sum from approx(0, 0) adds as a left fold over the pairs
        pairs = [(0.1, 1e-7), (0.2, 3e-7), (0.7, 1e-9), (1e-17, 0.0)]
        spent = PrivacyBudget.approx(0, 0)
        for e, d in pairs:
            spent += PrivacyBudget.approx(e, d)
        assert (spent.eps, spent.delta) == (sum(e for e, _ in pairs), sum(d for _, d in pairs))

    @pytest.mark.parametrize("pair", [(-0.1, 0.0), (1.0, -1e-9), (1.0, 1.0)])
    def test_rejects_bad_pair(self, pair):
        with pytest.raises(InvalidParameterError):
            PrivacyBudget.approx(1.0, 1e-6) + PrivacyBudget.approx(*pair)

    def test_rejects_a_sum_past_the_domain(self):
        with pytest.raises(InvalidParameterError):
            PrivacyBudget.approx(1.0, 0.6) + PrivacyBudget.approx(1.0, 0.6)

    def test_rejects_mixed_regimes(self):
        with pytest.raises(InvalidParameterError):
            PrivacyBudget.zcdp(0.5) + PrivacyBudget.approx(1.0, 1e-6)
        with pytest.raises(TypeError):
            PrivacyBudget.zcdp(0.5) + 0.5


class TestGaussianSigma:
    def test_formula(self):
        assert gaussian_sigma(1.0, 0.5) == 1.0
        assert gaussian_sigma(3.0, 2.0) == 3.0 / math.sqrt(4.0)
        assert gaussian_sigma(0.0, 1.0) == 0.0

    @pytest.mark.parametrize("sensitivity, rho", [(1.0, 0.0), (1.0, -1.0),
                                                  (-1.0, 1.0)])
    def test_rejects_bad_arguments(self, sensitivity, rho):
        with pytest.raises(InvalidParameterError):
            gaussian_sigma(sensitivity, rho)


class TestGaussianMechanismVector:
    def test_zero_sensitivity_identity(self):
        v = np.array([1.0, -2.0, 3.5])
        out = gaussian_mechanism_vector(v, 0.0, 1.0, NoiseSource(0))
        assert np.array_equal(out, v)

    def test_zero_noise_oracle_identity(self):
        v = np.array([1.0, -2.0, 3.5])
        out = gaussian_mechanism_vector(v, 1.0, 0.5, NoiseSource.zero())
        assert np.array_equal(out, v)

    def test_noise_std(self):
        # delta2=1, rho=0.5 -> std exactly 1
        v = np.zeros(200_000)
        out = gaussian_mechanism_vector(v, 1.0, 0.5, NoiseSource(3))
        assert abs(float(out.std()) - 1.0) < 0.02

    def test_rho_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            gaussian_mechanism_vector(np.zeros(2), 1.0, 0.0, NoiseSource(0))

    def test_zero_d_statistic(self):
        # a scalar is released as a 0-d array from the draw a scalar call reads
        out = gaussian_mechanism_vector(0.25, 1.0, 0.5, NoiseSource(6))
        assert out.shape == ()
        assert float(out) == 0.25 + float(NoiseSource(6).gaussian(1.0))


class TestGaussianMechanismSymmetric:
    def test_zero_sensitivity_identity(self):
        m = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert np.array_equal(
            gaussian_mechanism_symmetric(m, 0.0, 1.0, NoiseSource(0)), m)

    def test_zero_noise_oracle_identity(self):
        m = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert np.array_equal(
            gaussian_mechanism_symmetric(m, 1.0, 1.0, NoiseSource.zero()), m)

    def test_rejects_non_symmetric(self):
        with pytest.raises(InvalidInputError):
            gaussian_mechanism_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]),
                                         1.0, 1.0, NoiseSource(0))

    def test_output_exactly_symmetric(self):
        m = np.eye(5)
        out = gaussian_mechanism_symmetric(m, 2.0, 0.3, NoiseSource(4))
        assert np.array_equal(out, out.T)

    def test_offdiagonal_noise_std(self):
        # empirical std of a fixed off-diagonal entry over many draws
        sigma = 1.0 / math.sqrt(2.0 * 0.5)  # delta_f=1, rho=0.5
        draws = np.array([
            gaussian_mechanism_symmetric(np.zeros((2, 2)), 1.0, 0.5,
                                         NoiseSource(s))[0, 1]
            for s in range(20_000)])
        assert abs(float(draws.std()) - sigma) < 0.02 * sigma

    def test_gue_entry_variance_band(self):
        # per-entry variance within 3 standard errors over >= 1e4 draws
        sigma = 0.7
        k = 20_000
        src = NoiseSource(9)
        diag = np.empty(k)
        off = np.empty(k)
        for i in range(k):
            n = sample_gue(3, sigma, src)
            assert np.array_equal(n, n.T)
            diag[i] = n[1, 1]
            off[i] = n[0, 2]
        se = sigma ** 2 * math.sqrt(2.0 / k)  # stderr of a chi^2 variance est
        assert abs(float(np.var(diag)) - sigma ** 2) < 3 * se
        assert abs(float(np.var(off)) - sigma ** 2) < 3 * se



NAN = math.nan
ROWS = np.random.default_rng(0).standard_normal((200, 2))
BITS = np.random.default_rng(0).integers(0, 2, size=(200, 3))
KEYS = np.zeros(50, dtype=np.int64)
FLOOR = 2 * 40.0 * 2 ** 3   # above weak_ppc_no_bound's interval floor at d = 2


@pytest.mark.parametrize("call", [
    lambda: covariance.pgce(ROWS, NAN, 0.05, 10.0, NoiseSource(0)),
    lambda: covariance.pgce(ROWS, 1.0, 0.05, NAN, NoiseSource(0)),
    lambda: covariance.weak_ppc(ROWS, 1.0, 0.05, NAN, 2.0, NoiseSource(0)),
    lambda: covariance.weak_ppc(ROWS, 1.0, 0.05, 10.0, NAN, NoiseSource(0)),
    lambda: covariance_unbounded.weak_ppc_no_bound(ROWS, 1.0, 0.05, (NAN, FLOOR),
                                                   NoiseSource(0)),
    lambda: covariance_unbounded.weak_ppc_no_bound(ROWS, 1.0, 0.05, (FLOOR, NAN),
                                                   NoiseSource(0)),
    lambda: covariance_unbounded.pgce_no_bound(ROWS, NAN, 1e-6, 0.05, NoiseSource(0)),
    lambda: covariance_unbounded.pgce_no_bound(ROWS, 1.0, 1e-6, NAN, NoiseSource(0)),
    lambda: covariance_unbounded.ppc_range(ROWS, 1.0, 1e-6, NAN, NoiseSource(0)),
    lambda: histogram.histogram_zcdp(KEYS, 0, 3, NAN, 0.05, NoiseSource(0)),
    lambda: histogram.stable_histogram_approx_dp(KEYS, NAN, 1e-3, 0.05, NoiseSource(0)),
    lambda: gaussian_mechanism_vector(np.zeros(3), 1.0, NAN, NoiseSource(0)),
    lambda: gaussian_mechanism_vector(np.zeros(3), NAN, 1.0, NoiseSource(0)),
    lambda: gaussian_mechanism_symmetric(np.eye(3), 1.0, NAN, NoiseSource(0)),
    lambda: gaussian_mechanism_symmetric(np.eye(3), NAN, 1.0, NoiseSource(0)),
    lambda: gaussian_sigma(1.0, NAN),
    lambda: gaussian_sigma(NAN, 1.0),
    lambda: mean.univariate_mean(ROWS[:, 0], NAN, 0.05, 10.0, 2.0, NoiseSource(0)),
    lambda: mean.univariate_mean(ROWS[:, 0], 1.0, 0.05, NAN, 2.0, NoiseSource(0)),
    lambda: mean.univariate_mean(ROWS[:, 0], 1.0, 0.05, 10.0, NAN, NoiseSource(0)),
    lambda: product.ppde(BITS, NAN, 0.1, 0.05, NoiseSource(0)),
    lambda: NoiseSource(0).gaussian(NAN),
    lambda: NoiseSource(0).laplace(NAN),
], ids=["pgce-rho", "pgce-kappa", "weak_ppc-kappa", "weak_ppc-K",
        "weak_ppc_no_bound-a", "weak_ppc_no_bound-b", "pgce_no_bound-eps",
        "pgce_no_bound-beta", "ppc_range-beta",
        "histogram_zcdp-rho", "stable_histogram-eps", "vector-rho",
        "vector-sensitivity", "symmetric-rho", "symmetric-sensitivity",
        "sigma-rho", "sigma-sensitivity",
        "univariate_mean-rho", "univariate_mean-R", "univariate_mean-kappa",
        "ppde-rho", "gaussian-std", "laplace-scale"])
def test_nan_parameter_is_rejected(call):
    # NaN fails every ordered comparison, so each check rejects what is not
    # inside its range rather than what is outside it
    with pytest.raises(InvalidParameterError):
        call()
