import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from privest import mean
from privest.covariance import ppc
from privest.errors import InvalidParameterError, TooLargeError
from privest.histogram import HistogramResult
from privest.linalg import GaussianParams, mahalanobis_vec, sample_gaussian
from privest.mean import learn_gaussian, naive_pme, pme, univariate_mean
from privest.metrics import tv_gaussian_mc
from privest.noise import NoiseSource


def test_phi_round_trip():
    # the CDF saturates toward 1 in the far tail, so the composed round trip
    # keeps full precision only on the bulk and degrades gracefully beyond
    xs = np.linspace(-5.0, 5.0, 200)
    assert np.all(np.abs(ndtri(ndtr(xs)) - xs) < 1e-9)
    tail = np.linspace(-6.0, 6.0, 200)
    assert np.all(np.abs(ndtri(ndtr(tail)) - tail) < 1e-7)


def test_empirical_cdf_sensitivity():
    # changing one held-out sample changes the CDF reading by exactly 1/m
    m = 64
    rng = np.random.default_rng(0)
    x = rng.normal(size=m)
    t = 0.3
    y = x.copy()
    y[0] = t + 10.0 if x[0] <= t else t - 10.0
    assert abs(np.mean(x <= t) - np.mean(y <= t)) == pytest.approx(1.0 / m)


class TestUnivariateMean:
    def test_symmetric_bucket_data(self):
        # data exactly symmetric about 2.5 with unit working scale: the
        # modal unit bucket is (2,3), the CDF at its left edge reads
        # Phi(-0.5), and inversion returns 2.5
        n = 20_000
        half = np.abs(NoiseSource(1).gaussian(1.0, size=n // 2))
        x = np.concatenate([2.5 + half, 2.5 - half])
        rng = np.random.default_rng(2)
        rng.shuffle(x)
        est = univariate_mean(x, 1.0, 0.05, 10.0, 1.0, NoiseSource.zero())
        assert not est.aborted
        assert est.weak_estimate == pytest.approx(2.0)
        assert est.mu_hat == pytest.approx(2.5, abs=3.0 / math.sqrt(n // 2))

    def test_spread_data_aborts(self):
        # uniform over 8 unit buckets: no bucket reaches 1/4
        x = np.tile(np.arange(8.0) + 0.5, 100)
        est = univariate_mean(x, 1.0, 0.05, 10.0, 1.0, NoiseSource.zero())
        assert est.aborted
        assert est.mu_hat is None
        assert est.budget_spent.rho == pytest.approx(1.0)

    def test_accuracy_known_scale(self):
        # mu=0, sigma=1, R=10, kappa=1, rho=1, n=4000
        good = 0
        for seed in range(50):
            x = NoiseSource(100 + seed).gaussian(1.0, size=4000)
            est = univariate_mean(x, 1.0, 0.05, 10.0, 1.0, NoiseSource(seed))
            good += (not est.aborted) and abs(est.mu_hat) <= 0.1
        assert good >= 45

    def test_accuracy_unknown_scale(self):
        # sigma far from 1, kappa loose: the scale vote pins sigma within a
        # factor of two and the two-point inversion recovers mu
        mu, sigma_true = 3.0, 7.0
        good = 0
        for seed in range(30):
            x = mu + NoiseSource(200 + seed).gaussian(sigma_true, size=60_000)
            est = univariate_mean(x, 1.0, 0.05, 20.0, 100.0, NoiseSource(seed))
            if est.aborted:
                continue
            good += abs(est.mu_hat - mu) <= 0.5
        assert good >= 27

    def test_scale_diagnostic_within_factor_two(self):
        sigma_true = 7.0
        x = NoiseSource(3).gaussian(sigma_true, size=40_000)
        est = univariate_mean(x, 1.0, 0.05, 10.0, 100.0, NoiseSource(4))
        s = est.diagnostics["sigma_hat"]
        assert sigma_true / 2.0 <= s <= 2.0 * sigma_true

    def test_parameter_validation(self):
        x = np.zeros(10)
        with pytest.raises(InvalidParameterError):
            univariate_mean(x, 0.0, 0.05, 1.0, 1.0, NoiseSource(0))
        with pytest.raises(InvalidParameterError):
            univariate_mean(x[:2], 1.0, 0.05, 1.0, 1.0, NoiseSource(0))
        with pytest.raises(InvalidParameterError):
            univariate_mean(x, 1.0, 0.05, 1.0, 0.5, NoiseSource(0))

    @pytest.mark.parametrize("shape", [(2000, 3), (2000, 1, 1), (1, 2000), ()])
    def test_takes_one_column_before_any_draw(self, shape):
        # a (2000, 3) array used to be pooled into 6000 samples
        noise = NoiseSource(0)
        with pytest.raises(InvalidParameterError, match="one column"):
            univariate_mean(np.ones(shape), 1.0, 0.05, 10.0, 100.0, noise)
        assert noise.uniform() == NoiseSource(0).uniform()

    def test_one_column_array_is_its_column(self):
        x = 1.0 + NoiseSource(2).gaussian(3.0, size=2000)
        want = univariate_mean(x, 1.0, 0.05, 10.0, 100.0, NoiseSource(4))
        got = univariate_mean(x[:, None], 1.0, 0.05, 10.0, 100.0, NoiseSource(4))
        assert got.mu_hat == want.mu_hat and got.diagnostics == want.diagnostics

    @pytest.mark.parametrize("kappa", [1.0, 100.0])
    def test_strided_column_is_read_in_place(self, kappa):
        # a column of a C-order matrix, as the mean third's columns are, is
        # read once per half: the vote half is copied into one array that the
        # location keys are computed in and that is freed before they are
        # counted, then the CDF half is copied for its readings.  The scale
        # vote's pairs, magnitudes and keys share one array.  The rows'
        # variance lies within kappa (unit variance at kappa 1), so neither
        # run aborts and both halves are read
        n = 133_333
        sd = 1.0 if kappa == 1 else 3.0
        x = 0.5 + sd * np.random.default_rng(7).standard_normal((n, 8))
        want = univariate_mean(x[:, 5].copy(), 0.1, 0.05, 1e4, kappa, NoiseSource(3))
        univariate_mean(x[:2000, 5], 0.1, 0.05, 1e4, kappa, NoiseSource(3))   # warm up
        tracemalloc.start()
        try:
            got = univariate_mean(x[:, 5], 0.1, 0.05, 1e4, kappa, NoiseSource(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not got.aborted
        assert got.mu_hat == want.mu_hat and got.weak_estimate == want.weak_estimate
        assert got.diagnostics == want.diagnostics
        assert peak / n <= 12.5   # measured 10.42 (kappa 1) and 10.01 (kappa 100)

    @pytest.mark.parametrize("bad, bucket", [(math.nan, -4), (-math.inf, -4),
                                             (-1e300, -4), (math.inf, 3),
                                             (1e300, 3)])
    def test_out_of_range_samples_vote_for_end_buckets(self, bad, bucket):
        # R = 2.5 at width 1 gives location buckets -4..3; 150 of the 200
        # voting samples are bad, so their bucket wins the zero-noise vote
        x = np.full(400, 0.5)
        x[:150] = bad
        est = univariate_mean(x, 1.0, 0.05, 2.5, 1.0, NoiseSource.zero())
        assert est.weak_estimate == bucket

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_adjacent_infinite_samples_warn_nothing(self, bad):
        # two same-sign infinities make a NaN scale pair, inf - inf, which
        # votes for the lowest scale bucket
        x = 1.0 + NoiseSource(5).gaussian(3.0, size=4000)
        x[:2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = univariate_mean(x, 1.0, 0.05, 10.0, 100.0, NoiseSource(6))
        assert not est.aborted

    @pytest.mark.parametrize("kappa, mu, sd, seed, mu_hat, sigma_est", [
        (1.0, -2.3, 1.0, 0, -2.2951454980791226, None),
        (1.0, -2.3, 1.0, 1, -2.306048523047428, None),
        (1.0, -2.3, 1.0, 2, -2.2891851580316094, None),
        (100.0, 3.7, 4.0, 0, 3.667026998911093, 3.9002584412141568),
        (100.0, 3.7, 4.0, 1, 3.667858847930348, 3.9937353583398774),
        (100.0, 3.7, 4.0, 2, 3.7112992610758777, 3.968538828122357),
    ])
    def test_pinned_vote_outputs(self, kappa, mu, sd, seed, mu_hat, sigma_est):
        # exact outputs over location universes of 2002 (kappa = 1) and 502
        # buckets; the input is scaled elementwise, so no BLAS call moves it
        x = mu + sd * np.random.default_rng(seed).standard_normal(20_000)
        est = univariate_mean(x, 1.0, 0.05, 1000.0, kappa,
                              NoiseSource(seed + 10))
        assert est.mu_hat == mu_hat
        assert est.diagnostics.get("sigma_est") == sigma_est

    @pytest.mark.parametrize("R", [1e12, 1e300, np.finfo(float).max])
    def test_location_universe_past_the_cap_raises_before_any_draw(self, R):
        # at kappa 1 the cap reads R alone: the vote would allocate 2R + 4
        # keys (petabytes at 1e12), and R / width could overflow to inf
        x = np.random.default_rng(3).standard_normal(2000)
        noise = NoiseSource(5)
        with pytest.raises(TooLargeError):
            univariate_mean(x, 1.0, 0.05, R, 1.0, noise)
        assert np.array_equal(noise.gaussian(1.0, size=8), NoiseSource(5).gaussian(1.0, size=8))

    def test_largest_finite_bound_raises_without_overflow(self):
        # at kappa 100 the voted width is a power of two below 1: R / width
        # would overflow, so the cap compares R with the largest R it allows
        x = np.random.default_rng(3).standard_normal(2000) * 5.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TooLargeError):
                univariate_mean(x, 1.0, 0.05, np.finfo(float).max, 100.0, NoiseSource(5))

    @pytest.mark.parametrize("over", [0, 1])
    def test_location_universe_at_the_cap(self, monkeypatch, over):
        # R / width = 2^21 - 1 gives g = 2^21 and exactly 2^22 keys; a hair
        # more gives g = 2^21 + 1, over the cap.  The vote is stubbed to an
        # empty one, so no 2^22-key histogram is drawn
        universes = []

        def vote(keys, lo, hi, *args):
            universes.append(hi - lo)
            return HistogramResult(np.arange(0), np.zeros(0), keys.size, 0.0)

        monkeypatch.setattr(mean, "histogram_zcdp", vote)
        R = math.nextafter(2.0 ** 21 - 1.0, math.inf) if over else 2.0 ** 21 - 1.0
        x = np.random.default_rng(4).standard_normal(2000)
        if over:
            with pytest.raises(TooLargeError):
                univariate_mean(x, 1.0, 0.05, R, 1.0, NoiseSource(6))
        else:
            assert univariate_mean(x, 1.0, 0.05, R, 1.0, NoiseSource(6)).aborted
        assert universes == ([] if over else [mean.MAX_LOCATION_KEYS])


class TestNaivePme:
    def test_d1_matches_univariate_zero_noise(self):
        x = 1.5 + NoiseSource(5).gaussian(1.0, size=8000)
        uni = univariate_mean(x, 1.0, 0.05, 5.0, 1.0, NoiseSource.zero())
        multi = naive_pme(x[:, None], 1.0, 0.1, 0.05, 5.0, 1.0,
                          NoiseSource.zero())
        assert multi.mu_hat[0] == pytest.approx(uni.mu_hat, abs=1e-12)

    def test_abort_reports_coordinate(self):
        # coordinate 1 is spread uniformly and cannot win the vote
        n = 800
        good_col = NoiseSource(6).gaussian(1.0, size=n)
        bad_col = np.tile(np.arange(8.0) + 0.5, n // 8)
        x = np.column_stack([good_col, bad_col])
        est = naive_pme(x, 1.0, 0.1, 0.05, 10.0, 1.0, NoiseSource.zero())
        assert est.aborted
        assert est.diagnostics["aborted_coordinate"] == 1

    def test_accuracy_monte_carlo(self):
        # d=8, Sigma=I, ||mu|| <= 5: l2 error <= 0.2 in >= 90% of 20 seeds
        d, n = 8, 100_000
        rng = np.random.default_rng(7)
        mu = rng.uniform(-1.5, 1.5, size=d)
        good = 0
        for seed in range(20):
            x = mu + NoiseSource(300 + seed).gaussian(1.0, size=(n, d))
            est = naive_pme(x, 1.0, 0.1, 0.05, 5.0, 1.0, NoiseSource(seed))
            if est.aborted:
                continue
            good += np.linalg.norm(est.mu_hat - mu) <= 0.2
        assert good >= 18


# naive_pme and pme on C-order 133,333 x 8 rows, mean linspace(-3, 3, 8) and
# unit variance: (estimator, kappa) -> (mu_hat, weak_estimate), as printed by
# a univariate_mean that read each half of its column as a strided view
_PINNED_MULTI = {
    ("naive_pme", 1.0): ([-3.001535004704109, -2.135929365408865, -1.2844473529755795,
                          -0.43168526005545493, 0.4287656452199208, 1.291608702212836,
                          2.1432087703209, 2.99671277571265],
                         [-3.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]),
    ("naive_pme", 100.0): ([-3.001533925117018, -2.132805609020017, -1.2819276103111088,
                            -0.4320097639392039, 0.4247530227101209, 1.290086668953376,
                            2.1383826951417073, 2.9999413723000456],
                           [-3.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]),
    # pme runs no preconditioning round at either kappa, so both pin alike
    ("pme", 1.0): ([-3.0032466743156765, -2.1399191666642823, -1.2847357365669723,
                    -0.4303608003773261, 0.4220843450732606, 1.290308787179976,
                    2.137223541934568, 2.9936771360146306],
                   [-3.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]),
    ("pme", 100.0): ([-3.0032466743156765, -2.1399191666642823, -1.2847357365669723,
                      -0.4303608003773261, 0.4220843450732606, 1.290308787179976,
                      2.137223541934568, 2.9936771360146306],
                     [-3.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]),
}


@pytest.mark.parametrize("name, kappa", sorted(_PINNED_MULTI))
def test_pinned_multivariate_outputs_in_either_order(name, kappa):
    # strided columns (C order) and contiguous ones (Fortran order) give the
    # same estimate, and both give the pinned one, bit for bit
    estimate = {"naive_pme": naive_pme, "pme": pme}[name]
    x = np.linspace(-3.0, 3.0, 8) + np.random.default_rng(8).standard_normal((133_333, 8))
    mu_hat, weak = _PINNED_MULTI[name, kappa]
    for rows in (x, np.asfortranarray(x)):
        est = estimate(rows, 1.0, 0.1, 0.05, 10.0, kappa, NoiseSource(5))
        assert est.mu_hat.tolist() == mu_hat and est.weak_estimate.tolist() == weak


class TestPme:
    def test_difference_pair_construction(self):
        x = np.array([[1.0, 0.0], [3.0, 4.0]])
        z = (x[1] - x[0]) / math.sqrt(2.0)
        assert np.allclose(z, np.array([math.sqrt(2.0), 2.0 * math.sqrt(2.0)]))

    def test_small_kappa_uses_identity_preconditioner(self):
        n = 9000
        mu = np.array([1.0, -2.0])
        x = mu + NoiseSource(8).gaussian(1.0, size=(n, 2))
        est = pme(x, 1.0, 0.1, 0.05, 5.0, 1000.0, NoiseSource.zero())
        assert not est.aborted
        inner = naive_pme(x[2 * (n // 3):], 1.0, 0.1, 0.05, 5000.0, 1000.0,
                          NoiseSource.zero())
        assert np.allclose(est.mu_hat, inner.mu_hat, atol=1e-12)

    @pytest.mark.parametrize("estimate", [pme, learn_gaussian])
    def test_needs_twelve_rows_before_any_draw(self, estimate):
        # pme's mean third must hold univariate_mean's 4 samples; at kappa 1e5
        # pme's preconditioner, and learn_gaussian's pgce, would draw first
        x = NoiseSource(3).gaussian(1.0, size=(12, 2))
        for rows in range(6, 12):
            noise = NoiseSource(0)
            with pytest.raises(InvalidParameterError, match="at least 12 rows"):
                estimate(x[:rows], 1.0, 0.1, 0.05, 5.0, 1e5, noise)
            assert noise.uniform() == NoiseSource(0).uniform()
        estimate(x, 1.0, 0.1, 0.05, 5.0, 1e5, NoiseSource(0))

    def test_budget_is_two_rho(self):
        x = NoiseSource(9).gaussian(1.0, size=(900, 2))
        est = pme(x, 0.4, 0.1, 0.05, 5.0, 10.0, NoiseSource(0))
        assert est.budget_spent.rho == pytest.approx(0.8)

    def test_signed_permutation_equivariance_zero_noise(self):
        # the coordinate-wise stage commutes with signed permutations
        n, d = 9000, 3
        mu = np.array([1.0, -0.5, 2.0])
        x = mu + NoiseSource(10).gaussian(1.0, size=(n, d))
        q = np.array([[0.0, -1.0, 0.0],
                      [1.0, 0.0, 0.0],
                      [0.0, 0.0, -1.0]])
        base = pme(x, 1.0, 0.1, 0.05, 5.0, 10.0, NoiseSource.zero())
        rotated = pme(x @ q.T, 1.0, 0.1, 0.05, 5.0, 10.0, NoiseSource.zero())
        assert np.allclose(rotated.mu_hat, q @ base.mu_hat, atol=1e-6)

    @pytest.mark.parametrize("rows, kappa", [(9000, 100.0), (9001, 1e4), (9002, 1e6)])
    def test_matches_pairs_built_whole(self, rows, kappa):
        # the preconditioner reads the pairs a block at a time; at this size
        # they are one block, so the estimate is the one the pairs built
        # whole give, bit for bit
        d, n = 4, rows // 3
        sigma = np.diag(np.geomspace(1.0, kappa, d))
        x = 1.5 + sample_gaussian(GaussianParams(np.zeros(d), sigma), rows, NoiseSource(16))
        got = pme(x, 1.0, 0.1, 0.05, 5.0, kappa, NoiseSource(17))
        noise = NoiseSource(17)
        pairs = (x[1:2 * n:2] - x[0:2 * n:2]) / math.sqrt(2.0)
        pre = ppc(pairs, 1.0, 0.05, kappa, noise)
        assert bool(pre.round_log) == (kappa > 1000)
        y = x[2 * n:3 * n] @ pre.A.T if pre.round_log else x[2 * n:3 * n]
        inner = naive_pme(y, 1.0, 0.1, 0.05, 5000.0, 1000.0, noise)
        assert np.array_equal(got.mu_hat, pre.A_inv @ inner.mu_hat)

    @pytest.mark.parametrize("bad, rows", [(math.inf, 1), (-math.inf, 1), (1e308, 1),
                                           (math.inf, 2), (-math.inf, 2)])
    def test_bad_row_in_the_mean_third_warns_nothing(self, bad, rows):
        # with rounds, the mapped mean third turns inf * 0 into a NaN row
        # (and 1e308 into inf); univariate_mean maps both to fixed buckets.
        # Two adjacent same-sign infinities make a NaN covariance pair, inf - inf
        x = sample_gaussian(GaussianParams(np.zeros(4), np.diag(np.geomspace(1.0, 1e4, 4))),
                            60_000, NoiseSource(18))
        x[50_000:50_000 + rows] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean_est, _ = learn_gaussian(x, 1.0, 0.1, 0.05, 10.0, 1e4, NoiseSource(19))
        assert mean_est.diagnostics["preconditioner_rounds"] and not mean_est.aborted

    def test_accuracy_monte_carlo(self):
        # d=4, Sigma=diag(1,10,100,1e4), ||mu|| <= 5, rho=1, n=3e5
        d = 4
        diagv = np.array([1.0, 10.0, 100.0, 1e4])
        sigma = np.diag(diagv)
        rng = np.random.default_rng(11)
        mu = rng.uniform(-2.0, 2.0, size=d)
        good = 0
        for seed in range(20):
            x = mu + sample_gaussian(GaussianParams(np.zeros(d), sigma),
                                     300_000, NoiseSource(400 + seed))
            est = pme(x, 1.0, 0.1, 0.05, 5.0, 1e4, NoiseSource(seed))
            if est.aborted:
                continue
            good += mahalanobis_vec(est.mu_hat - mu, sigma) <= 0.3
        assert good >= 17

    def test_huge_mean_bound_raises(self):
        # pme votes over 1000 * R: at R = 1e12 the location vote would need
        # about 1e15 keys at its smallest voted scale
        x = NoiseSource(9).gaussian(1.0, size=(3000, 2))
        with pytest.raises(TooLargeError):
            pme(x, 1.0, 0.1, 0.05, 1e12, 1.0, NoiseSource(9))


class TestLearnGaussian:
    def test_zero_noise_matches_plugin(self):
        d, n = 3, 30_000
        diagv = np.array([1.0, 4.0, 9.0])
        mu = np.array([0.5, -1.0, 2.0])
        x = mu + sample_gaussian(GaussianParams(np.zeros(d), np.diag(diagv)),
                                 n, NoiseSource(12))
        mean_est, cov_est = learn_gaussian(x, 1.0, 0.1, 0.05, 5.0, 10.0,
                                           NoiseSource.zero())
        assert not mean_est.aborted
        # the coordinate-wise CDF inversion is consistent: close to the
        # plug-in empirical mean at this n
        assert np.allclose(mean_est.mu_hat, x.mean(axis=0), atol=0.15)
        # the covariance stage sees mean-free difference pairs, so its
        # zero-noise output matches their empirical second moment exactly
        n2 = (n // 2) * 2
        z = (x[1:n2:2] - x[0:n2:2]) / math.sqrt(2.0)
        emp = z.T @ z / z.shape[0]
        assert np.allclose(cov_est.sigma_hat, emp, atol=1e-10)

    @pytest.mark.parametrize("seed, mu_hat", [
        (4, [3.0407025567527852, -7.589359738422814, 0.2265311903601197,
             39.99425422525314]),
        (5, [3.049106450151633, -7.603799677697226, 0.27875060269408536,
             40.00852012284416]),
    ])
    def test_pinned_mean(self, seed, mu_hat):
        # exact outputs of naive_pme's per-coordinate child streams; at kappa
        # 100 the preconditioner runs no round, and the input is scaled
        # elementwise, so no BLAS call reaches the mean
        mu = np.array([3.0, -7.5, 0.25, 40.0])
        sd = np.array([1.0, 10.0, 3.0, 0.5])
        x = mu + sd * np.random.default_rng(seed).standard_normal((30_000, 4))
        mean_est, _ = learn_gaussian(x, 1.0, 0.1, 0.05, 100.0, 100.0,
                                     NoiseSource(seed + 10))
        assert mean_est.mu_hat.tolist() == mu_hat

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e300])
    def test_bad_entry_in_mean_vote(self, bad):
        # pme hands its last third of rows to the coordinate-wise votes;
        # row 2*(n//3) is the first of them
        d, n = 3, 30_000
        x = sample_gaussian(GaussianParams(np.zeros(d), np.diag([1.0, 4.0, 9.0])),
                            n, NoiseSource(15))
        x[2 * (n // 3), 0] = bad
        mean_est, cov_est = learn_gaussian(x, 1.0, 0.1, 0.05, 5.0, 10.0,
                                           NoiseSource(1))
        assert mean_est.aborted or np.all(np.isfinite(mean_est.mu_hat))
        assert np.all(np.isfinite(cov_est.sigma_hat))

    @pytest.mark.parametrize("huge", [False, True])
    def test_peak_memory_per_row(self, huge):
        # the difference pairs are read a block at a time, never built: at
        # 200k x 16 the pair matrix alone would be 64 bytes per row of x
        n, d = 200_000, 16
        rng = np.random.default_rng(18)
        x = rng.standard_normal((n, d)) * np.sqrt(np.geomspace(1.0, 100.0, d))
        if huge:
            x[[11, 50_001, 150_001]] = 1e150   # pairs past every clamp
        learn_gaussian(x[:2000], 1.0, 0.1, 0.05, 5.0, 100.0, NoiseSource(1))  # warm up
        tracemalloc.start()
        try:
            learn_gaussian(x, 1.0, 0.1, 0.05, 5.0, 100.0, NoiseSource(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 3.57 bytes per row without the huge rows and 5.26 with them
        assert peak / n <= (8.0 if huge else 4.5)

    def test_budget_composition(self):
        x = NoiseSource(13).gaussian(1.0, size=(1200, 2))
        mean_est, cov_est = learn_gaussian(x, 0.8, 0.1, 0.05, 5.0, 10.0,
                                           NoiseSource(0))
        assert cov_est.budget_spent.rho == pytest.approx(0.4)
        assert mean_est.budget_spent.rho == pytest.approx(0.4)

    def test_end_to_end_tv(self):
        # d=4, kappa=100: estimated model within TV 0.3 of the truth
        d, n = 4, 500_000
        diagv = np.array([1.0, 5.0, 20.0, 100.0])
        sigma = np.diag(diagv)
        rng = np.random.default_rng(14)
        mu = rng.uniform(-2.0, 2.0, size=d)
        good = 0
        for seed in range(10):
            x = mu + sample_gaussian(GaussianParams(np.zeros(d), sigma), n,
                                     NoiseSource(500 + seed))
            mean_est, cov_est = learn_gaussian(x, 1.0, 0.1, 0.05, 5.0, 100.0,
                                               NoiseSource(seed))
            if mean_est.aborted:
                continue
            tv, se = tv_gaussian_mc(
                GaussianParams(mu, sigma),
                GaussianParams(mean_est.mu_hat, cov_est.sigma_hat),
                20_000, NoiseSource(900 + seed))
            good += tv <= 0.3
        assert good >= 8


def _mean_estimate(name, x, kappa):
    noise = NoiseSource(21)
    if name == "univariate_mean":
        return univariate_mean(x[:, 0], 1.0, 0.05, 10.0, kappa, noise)
    if name == "learn_gaussian":
        return learn_gaussian(x, 1.0, 0.1, 0.05, 10.0, kappa, noise)[0]
    return {"naive_pme": naive_pme, "pme": pme}[name](x, 1.0, 0.1, 0.05, 10.0, kappa, noise)


# Each stage's block of rows, as fractions of the rows: univariate_mean's
# votes and CDF readings, pme's covariance pairs and mean third
_BLOCKS = {"vote": (0, 1 / 2), "cdf": (1 / 2, 1), "pairs": (0, 2 / 3), "mean": (2 / 3, 1)}
# (estimator, kappa, rows, columns, stages)
_ROBUSTNESS = [("univariate_mean", 1.0, 4000, 1, ("vote", "cdf")),
               ("univariate_mean", 100.0, 4000, 1, ("vote", "cdf")),
               ("naive_pme", 100.0, 4000, 3, ("vote", "cdf"))] + [
    (name, kappa, 12_000, 3, ("pairs", "mean")) for name in ("pme", "learn_gaussian")
    for kappa in (100.0, 1e4)]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, 1e150, 1e300])
@pytest.mark.parametrize("share", ["row", "tenth"])
@pytest.mark.parametrize("name, kappa, n, d, stage", [
    (name, kappa, n, d, stage) for name, kappa, n, d, stages in _ROBUSTNESS
    for stage in stages])
def test_bad_rows_give_a_finite_mean_or_an_abort(name, kappa, n, d, stage, share, value):
    # one row, or every tenth row, of one stage's block is replaced
    x = 0.5 + NoiseSource(20).gaussian(1.0, size=(n, d)) * np.sqrt(
        np.geomspace(1.0, kappa, d))
    lo, hi = (round(f * n) for f in _BLOCKS[stage])
    x[lo + 1 if share == "row" else slice(lo, hi, 10)] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = _mean_estimate(name, x, kappa)
    assert est.aborted or np.all(np.isfinite(est.mu_hat))
