"""The cost of privacy as a checked ratio, one case per estimator.

Each case runs the private estimator and its non-private counterpart on the
same rows for 9 fixed seeds, and asserts that the median of private error
over non-private error is at most C.  Each C is 1.2 times the largest median
measured over 5 noise-seed offsets (0, 1000, ..., 4000; the rows fixed), so
that a change in noise-draw order alone does not trip it.  Accuracy changes
may only lower a C.  The medians measured when C was set:

- ``pgce`` at 20k x 8, kappa 100, rho 1, against the empirical covariance:
  65.5-106.0, so C = 128;
- ``learn_gaussian``'s mean at 100k x 4, kappa 100, R 10, against the sample
  mean: 3.22-3.67, so C = 4.41;
- the flip-heavy product learner at 80k x 12, m 20k, rho 1, against the
  empirical mean, scored as exact TV: 1.79-1.88, so C = 2.27.

``pgce_no_bound`` has no case: on the ``cov-unbounded`` benchmark workload
its error spans 54 to 1.7e15 across 20 seeds (ROADMAP item 4), so no ratio
bound would say anything about it yet.
"""

import math

import numpy as np

from privest.covariance import pgce
from privest.harness import learn_product_flip_heavy
from privest.linalg import mahalanobis_mat, mahalanobis_vec
from privest.mean import learn_gaussian
from privest.metrics import tv_product_exact
from privest.noise import NoiseSource
from privest.product import ProductModel, sample_product

SEEDS = range(9)


def gaussian_rows(seed, n, d, kappa, R=0.0):
    """n rows of N(mu, diag(geomspace(1, kappa, d))), ||mu|| <= R/2."""
    rng = np.random.default_rng(seed)
    var = np.geomspace(1.0, kappa, d)
    mu = rng.uniform(-1.0, 1.0, d) * R / (2.0 * math.sqrt(d))
    return rng.standard_normal((n, d)) * np.sqrt(var) + mu, mu, np.diag(var)


def median_ratio(ratio):
    return float(np.median([ratio(seed) for seed in SEEDS]))


def test_covariance_cost_of_privacy():
    def ratio(seed):
        x, _, cov = gaussian_rows(seed, 20_000, 8, 100.0)
        est = pgce(x, 1.0, 0.05, 100.0, NoiseSource(seed))
        empirical = x.T @ x / len(x)
        return (mahalanobis_mat(cov - est.sigma_hat, cov)
                / mahalanobis_mat(cov - empirical, cov))

    assert median_ratio(ratio) <= 128.0


def test_mean_cost_of_privacy():
    def ratio(seed):
        x, mu, cov = gaussian_rows(seed, 100_000, 4, 100.0, R=10.0)
        m_est, _ = learn_gaussian(x, 1.0, 0.1, 0.05, 10.0, 100.0, NoiseSource(seed))
        assert not m_est.aborted
        return (mahalanobis_vec(m_est.mu_hat - mu, cov)
                / mahalanobis_vec(x.mean(axis=0) - mu, cov))

    assert median_ratio(ratio) <= 4.41


def test_product_cost_of_privacy():
    p = np.array([0.4] * 4 + [0.05] * 4 + [1.0 / 12.0] * 4)

    def ratio(seed):
        x = sample_product(ProductModel(p), 80_000, NoiseSource(seed))
        model = learn_product_flip_heavy(x, 1.0, 0.2, 0.05, NoiseSource(seed + 100),
                                         m=20_000)
        return tv_product_exact(p, model.p) / tv_product_exact(p, x.mean(axis=0))

    assert median_ratio(ratio) <= 2.27
