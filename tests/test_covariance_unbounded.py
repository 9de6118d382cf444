import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privest.covariance import _Frame, clamp_threshold_sq, pgce
from privest.covariance_unbounded import (BIG_XI, BOTTOM_KEY, BUCKET_BASE,
                                          FLOOR_COEFF, SWEEP_SHRINK, XI,
                                          TraceEstimate,
                                          _bucket_keys, p_estimate_trace,
                                          pgce_no_bound, ppc_range,
                                          weak_ppc_no_bound)
from privest.errors import EstimationFailedError, InvalidParameterError, PrivestError
from privest.harness import ExperimentConfig, run_experiment
from privest.linalg import GaussianParams, sample_gaussian
from privest.noise import NoiseSource
from privest.privacy import zcdp_to_approx_dp


def gaussian_rows(diagv, n, seed):
    d = len(diagv)
    p = GaussianParams(np.zeros(d), np.diag(np.asarray(diagv, float)))
    return sample_gaussian(p, n, NoiseSource(seed))


def rows_with_sq_norms(sq_norms, d=3):
    out = np.zeros((len(sq_norms), d))
    out[:, 0] = np.sqrt(np.asarray(sq_norms, float))
    return out


def shrink_factor(v, k):
    """The factor (1/sqrt(K)) P_V + P_Vperp of a (V, K) sweep result, as
    weak_ppc builds it."""
    a = np.eye(len(v)) + (1.0 / math.sqrt(k) - 1.0) * (v @ v.T)
    return (a + a.T) / 2.0


def bucket_key(v, r_min):
    return int(_bucket_keys(np.array([v], dtype=float), r_min)[0])


class TestNormBucket:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1e18))
    def test_bucket_brackets_value(self, v):
        r = bucket_key(v, r_min=-100)
        assert BUCKET_BASE ** (r - 1) * (1 - 1e-9) < v <= BUCKET_BASE ** r * (1 + 1e-9)

    def test_exact_powers_go_to_own_bucket(self):
        for r in range(1, 6):
            assert bucket_key(BUCKET_BASE ** r, r_min=-100) == r

    def test_floor_cutoff(self):
        assert bucket_key(0.5, r_min=1) == BOTTOM_KEY
        for v in (-1.0, 0.0, math.nan, math.inf, -math.inf):
            assert bucket_key(v, r_min=-100) == BOTTOM_KEY

    def test_every_finite_power_goes_to_own_bucket(self):
        # log(16**r)/log(16) is inexact for some r (29 among them); the
        # slack keeps each power in its own bucket.  The largest finite
        # double lands in bucket 256, below the bottom key.
        r = np.arange(-60, 256)
        assert np.array_equal(_bucket_keys(BUCKET_BASE ** r, r_min=-100), r)
        assert bucket_key(np.finfo(float).max, r_min=-100) == 256 < BOTTOM_KEY


def reference_vote(x, eps, delta, beta, noise):
    """The trace vote as a per-row loop: None is the bottom bucket, counted
    with a Counter, sorted after every integer key, one scalar Laplace draw
    per occurring key."""
    n, d = x.shape
    r_min = math.ceil(math.log(d) / math.log(BUCKET_BASE) - 1e-9) - 1

    def bucket(v):
        if not 0 < v < math.inf:
            return None
        r = math.ceil(math.log(v) / math.log(BUCKET_BASE) - 1e-9)
        return r if r >= r_min else None

    counts = Counter(bucket(float(v)) for v in np.einsum("ij,ij->i", x, x))
    scale = 2.0 / (eps * n)
    threshold = 2.0 * math.log(2.0 * n / (delta * beta)) / (eps * n)
    best = None
    for key in sorted(counts, key=lambda k: (k is None, k or 0)):
        freq = counts[key] / n + float(noise.laplace(scale))
        if key is None or freq < threshold or freq < 0.25:
            continue
        if best is None or freq > best[1] or (freq == best[1] and key < best[0]):
            best = (key, freq)
    if best is None:
        return None
    t = BUCKET_BASE ** best[0]
    return TraceEstimate(T=t, C=BUCKET_BASE, r=best[0],
                         certificate=(XI * t / d, BIG_XI * d * t))


class TestPEstimateTrace:
    def test_single_bucket_zero_noise(self):
        c = BUCKET_BASE
        x = rows_with_sq_norms([c * c * 1.5, c * c * 3.0, c ** 3] * 10)
        est = p_estimate_trace(x, 1.0, 1e-3, 0.05, NoiseSource.zero())
        assert est is not None
        assert est.r == 3
        assert est.T == pytest.approx(c ** 3)
        lo, hi = est.certificate
        assert lo == pytest.approx(XI * est.T / x.shape[1])
        assert hi == pytest.approx(BIG_XI * x.shape[1] * est.T)

    def test_spread_data_bottom(self):
        c = BUCKET_BASE
        sq = []
        for r in range(1, 6):  # five buckets at 20% each
            sq.extend([c ** r * 0.9] * 20)
        x = rows_with_sq_norms(sq)
        est = p_estimate_trace(x, 1.0, 1e-3, 0.05, NoiseSource.zero())
        assert est is None

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=20, max_value=300),
           st.floats(min_value=-3.0, max_value=12.0),
           st.lists(st.sampled_from([math.nan, math.inf, -math.inf, 0.0,
                                     1e300, 1e-300, 4.0 ** 3]), max_size=30),
           st.floats(min_value=0.5, max_value=200.0),
           st.integers(min_value=0, max_value=2**32))
    def test_matches_per_row_vote(self, d, n, log_scale, special, eps, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d)) * 10.0 ** log_scale
        rows = rng.choice(n, size=min(len(special), n), replace=False)
        x[rows, 0] = special[:len(rows)]
        delta, beta = 0.5 / n, 0.05
        got_noise, want_noise = NoiseSource(seed), NoiseSource(seed)
        with np.errstate(over="ignore", invalid="ignore"):
            got = p_estimate_trace(x, eps, delta, beta, got_noise)
            want = reference_vote(x, eps, delta, beta, want_noise)
        assert got == want
        assert got_noise.laplace(1.0) == want_noise.laplace(1.0)

    def test_identity_cov_monte_carlo(self):
        # Sigma = I, d=16, n=5000: the trace 16 lies in [T/C, C*T]
        d, n = 16, 5000
        good = bottom = 0
        for seed in range(20):
            x = gaussian_rows([1.0] * d, n, 1000 + seed)
            est = p_estimate_trace(x, 1.0, 1e-5, 0.05, NoiseSource(seed))
            if est is None:
                bottom += 1
                continue
            good += est.T / est.C <= d <= est.C * est.T
        assert bottom <= 2
        assert good >= 18


class TestWeakPpcNoBound:
    def test_floor_precondition(self):
        x = np.ones((10, 2))
        with pytest.raises(InvalidParameterError):
            weak_ppc_no_bound(x, 1.0, 0.05, (100.0, 200.0), NoiseSource(0))

    def test_empty_interval(self):
        d = 2
        floor = FLOOR_COEFF * d ** 3
        with pytest.raises(InvalidParameterError):
            weak_ppc_no_bound(np.ones((10, d)), 1.0, 0.05,
                              (4 * floor, 2 * floor), NoiseSource(0))

    @pytest.mark.parametrize("rho, beta", [(0.0, 0.05), (-1.0, 0.05),
                                           (math.nan, 0.05), (1.0, 0.0),
                                           (1.0, 1.0), (1.0, 1.5)])
    def test_bad_rho_or_beta(self, rho, beta):
        d = 2
        floor = FLOOR_COEFF * d ** 3
        with pytest.raises(InvalidParameterError):
            weak_ppc_no_bound(np.ones((10, d)), rho, beta,
                              (2 * floor, 4 * floor), NoiseSource(0))

    def test_zero_noise_detects_top_direction(self):
        d = 2
        lam1 = 10.0 * FLOOR_COEFF * d ** 3
        x = gaussian_rows([lam1, 1.0], 50_000, 3)
        out = weak_ppc_no_bound(x, 1.0, 0.05, (lam1 / 2.0, 2.0 * lam1),
                                NoiseSource.zero())
        assert out is not None
        v, k = out
        a = shrink_factor(v, k)
        assert v.shape[1] == 1
        assert abs(v[0, 0]) > 0.999
        # the detection happens at the first kappa with kappa/2 <= lambda_top
        evals = np.linalg.eigvalsh(a)
        assert evals[-1] == pytest.approx(1.0)
        assert 0.0 < evals[0] < 1.0

    def test_spectrum_below_interval_returns_none(self):
        d = 2
        floor = FLOOR_COEFF * d ** 3
        a_lo = 8.0 * floor
        x = gaussian_rows([a_lo / 8.0, 1.0], 50_000, 4)  # top eigenvalue << a/2
        out = weak_ppc_no_bound(x, 1.0, 0.05, (a_lo, 4.0 * a_lo),
                                NoiseSource.zero())
        assert out is None

    def test_certificate_monte_carlo(self):
        # high-accuracy operating point; the transformed spectrum stays in
        # [0.5, 5d^2 + (3/4) lambda_top] in every seed
        d = 4
        lam1 = 10.0 * FLOOR_COEFF * d ** 3
        diagv = [lam1] + [1.0] * (d - 1)
        sigma = np.diag(diagv)
        good = 0
        for seed in range(10):
            x = gaussian_rows(diagv, 1_000_000, 700 + seed)
            out = weak_ppc_no_bound(x, 20.0, 0.05, (lam1 / 4.0, 4.0 * lam1),
                                    NoiseSource(seed))
            assert out is not None
            a = shrink_factor(*out)
            ev = np.linalg.eigvalsh(a @ sigma @ a.T)
            good += (ev[0] >= 0.5) and (ev[-1] <= 5 * d ** 2 + 0.75 * lam1)
        assert good >= 9


class TestPpcRange:
    def test_small_spectrum_immediate_break(self):
        d = 4
        x = gaussian_rows([1.0] * d, 20_000, 5)
        pre = ppc_range(x, 1.0, 1e-6, 0.05, NoiseSource.zero())
        assert np.array_equal(pre.A, 2.0 * np.eye(d))
        assert pre.round_log == []
        assert pre.kappa_star == FLOOR_COEFF * BIG_XI * d ** 4

    def test_one_dominant_direction_zero_noise(self):
        d = 6
        diagv = [1e6] + [1.0] * (d - 1)
        sigma = np.diag(diagv)
        x = gaussian_rows(diagv, 100_000, 6)
        pre = ppc_range(x, 1.0, 1e-6, 0.05, NoiseSource.zero())
        assert len(pre.round_log) >= 1
        assert pre.round_log[0].subspace_dim == 1
        evals = np.linalg.eigvalsh(pre.A @ sigma @ pre.A.T)
        assert evals[-1] <= pre.kappa_star
        assert evals[0] >= 1.0

    def test_bottom_vote_raises(self):
        c = BUCKET_BASE
        sq = []
        for r in range(3, 8):  # spread over five large buckets, 20% each
            sq.extend([c ** r * 0.9] * 20)
        x = rows_with_sq_norms(sq)
        with pytest.raises(EstimationFailedError):
            ppc_range(x, 1.0, 1e-6, 0.05, NoiseSource.zero())

    @pytest.mark.parametrize("estimate", [ppc_range, pgce_no_bound])
    @pytest.mark.parametrize("eps, beta, named", [
        (-1.0, 0.05, "eps must be > 0, got -1.0"),
        (1.0, 2.0, "beta must be in (0,1), got 2.0"),
        (1.0, math.nan, "beta must be in (0,1), got nan"),
    ], ids=["eps=-1", "beta=2", "beta=nan"])
    def test_bad_eps_or_beta_rejected_before_any_draw(self, estimate, eps,
                                                      beta, named):
        # at d = 4, beta = 2 would pass every per-round check (beta/d = 0.5)
        x = gaussian_rows([1.0, 50.0, 1e4, 1e7], 20_000, 5)
        noise = NoiseSource(0)
        with pytest.raises(InvalidParameterError, match=re.escape(named)):
            estimate(x, eps, 1e-6, beta, noise)
        # the stream has not moved: its next draw is a fresh stream's first
        assert noise.uniform() == NoiseSource(0).uniform()

    def test_budget_is_basic_composition(self):
        d = 6
        diagv = [1e6] + [1.0] * (d - 1)
        x = gaussian_rows(diagv, 100_000, 7)
        eps, delta = 1.0, 1e-6
        pre = ppc_range(x, eps, delta, 0.05, NoiseSource.zero())
        eps_r = eps / math.sqrt(d * math.log(1.0 / delta))
        delta_r = delta / d
        rho_r = eps_r ** 2 / math.log(1.0 / delta)
        j = len(pre.round_log)
        sweep_eps, _ = zcdp_to_approx_dp(rho_r, delta_r)
        votes = j + 1  # one more vote hits the break rule
        want_eps = votes * eps_r + j * sweep_eps
        want_delta = votes * delta_r + j * delta_r
        assert pre.budget_spent.regime == "approx"
        assert pre.budget_spent.eps == pytest.approx(want_eps, rel=1e-12)
        assert pre.budget_spent.delta == pytest.approx(want_delta, rel=1e-12)


class TestPgceNoBound:
    def test_zero_noise_exact(self):
        d = 4
        diagv = [1.0, 50.0, 1e4, 1e7]
        x = gaussian_rows(diagv, 50_000, 8)
        est = pgce_no_bound(x, 1.0, 1e-6, 0.05, NoiseSource.zero())
        emp = x.T @ x / x.shape[0]
        rel = np.linalg.norm(est.sigma_hat - emp) / np.linalg.norm(emp)
        assert rel < 1e-10
        assert est.budget_spent.regime == "approx"

    def test_noisy_accuracy(self):
        # feasible operating point for the full noisy pipeline
        from privest.linalg import mahalanobis_mat
        d = 2
        diagv = [1.0, 5e4]
        sigma = np.diag(diagv)
        errs = []
        for seed in range(3):
            x = gaussian_rows(diagv, 2_000_000, 500 + seed)
            est = pgce_no_bound(x, 4.0, 1e-8, 0.05, NoiseSource(seed))
            errs.append(mahalanobis_mat(est.sigma_hat - sigma, sigma))
        assert float(np.median(errs)) <= 0.5

    def test_budget_composes_preconditioner_and_estimator(self):
        d = 4
        diagv = [1.0, 50.0, 1e4, 1e7]
        x = gaussian_rows(diagv, 50_000, 9)
        eps, delta = 1.0, 1e-6
        est = pgce_no_bound(x, eps, delta, 0.05, NoiseSource.zero())
        rho_final = eps ** 2 / (8.0 * math.log(1.0 / delta))
        final_eps, _ = zcdp_to_approx_dp(rho_final, delta)
        # preconditioner budget recomputed the same way as in TestPpcRange
        eps_r = eps / math.sqrt(d * math.log(1.0 / delta))
        delta_r = delta / d
        rho_r = eps_r ** 2 / math.log(1.0 / delta)
        j = len(est.diagnostics["preconditioner_rounds"])
        sweep_eps, _ = zcdp_to_approx_dp(rho_r, delta_r)
        want_eps = (j + 1) * eps_r + j * sweep_eps + final_eps
        want_delta = (j + 1) * delta_r + j * delta_r + delta
        assert est.budget_spent.eps == pytest.approx(want_eps, rel=1e-12)
        assert est.budget_spent.delta == pytest.approx(want_delta, rel=1e-12)

    @pytest.mark.parametrize("scale, where", [
        (1e100, "estimate overflowed"),   # rounds run, the estimate is not finite
        (1e153, "interval"),              # the vote's interval ends at inf
        (10 ** 153.8, "interval"),        # the voted bucket is 16**256 itself
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_huge_rows_fail_with_estimation_error(self, scale, where, seed):
        # every row is scaled up so far that the released values overflow;
        # that must end in EstimationFailedError, not an OverflowError or
        # a silent non-finite estimate
        x = gaussian_rows([1.0] * 4, 2000, 100 + seed) * scale
        with pytest.raises(EstimationFailedError, match=where):
            pgce_no_bound(x, 1.0, 1e-6, 0.05, NoiseSource(seed))

    @pytest.mark.parametrize("seed", range(6))
    def test_overflow_ends_in_the_error_alone(self, seed):
        # rows near 1e100 overflow the frame's products on the way to the
        # error; those overflows must not also print numpy warnings
        x = gaussian_rows([1.0] * 4, 2000, 100 + seed) * 1e100
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationFailedError) as info:
                pgce_no_bound(x, 1.0, 1e-6, 0.05, NoiseSource(seed))
        assert type(info.value) is EstimationFailedError

    @pytest.mark.parametrize("d, seed", [(4, 12), (7, 6)])
    def test_overflowing_estimate_is_symmetrised_quietly(self, d, seed):
        # B B^T is finite here, but its symmetrisation overflows
        x = gaussian_rows([10.0 ** 100] * d, 2000, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationFailedError) as info:
                pgce_no_bound(x, 1.0, 1e-6, 0.05, NoiseSource(seed + 1000))
        assert type(info.value) is EstimationFailedError

    @pytest.mark.parametrize("seed, scale", [(2, 1e240), (4, 1e260)])
    def test_lapack_prints_nothing_before_the_error(self, capfd, seed, scale):
        # the data of `privest estimate-cov-unbounded --n 2000 --d 4
        # --spectrum <scale> x4 --seed <seed>`, which overflow the map's
        # inverse; LAPACK reports a bad argument on fd 1 itself, past Python
        cfg = ExperimentConfig(task="gaussian-cov-unbounded", eps=1.0, delta=1e-6,
                               n=2000, d=4, spectrum=[scale] * 4, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationFailedError) as info:
                run_experiment(cfg)
        assert type(info.value) is EstimationFailedError
        assert "illegal value" not in "".join(capfd.readouterr())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e160, 1e150])
@pytest.mark.parametrize("estimate", [
    lambda x: pgce(x, 1.0, 0.05, 1e7, NoiseSource.zero()),
    lambda x: pgce_no_bound(x, 1.0, 1e-6, 0.05, NoiseSource.zero()),
], ids=["pgce", "pgce_no_bound"])
def test_bad_row_counts_as_zero_row(estimate, bad):
    # a row with a non-finite or huge squared norm (1e150 gives a finite
    # 1e300) is outside the loosest clamp, so every clamp drops it, and it
    # moves the estimate no more than a zero row does
    x = gaussian_rows([1.0, 50.0, 1e4, 1e7], 50_000, 8)
    x[0] = 0.0
    want = estimate(x).sigma_hat
    x[0] = bad
    got = estimate(x).sigma_hat
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def materialised_ppc_range(x, eps, delta, beta, noise):
    """ppc_range written as a loop that transforms a copy of the samples in
    every round.  Returns A, the round log and, per round, the mask of rows
    within the loosest clamp of its sweep."""
    n, d = x.shape
    eps_r = eps / math.sqrt(d * math.log(1.0 / delta))
    delta_r, beta_r = delta / d, beta / d
    rho_r = eps_r ** 2 / math.log(1.0 / delta)
    a_total, xt, log, within, dims = np.eye(d), x, [], [], 0
    for _ in range(d):
        est = p_estimate_trace(xt, eps_r, delta_r, beta_r, noise)
        a_j, b_j = XI * est.T, BIG_XI * d * est.T
        if a_j < FLOOR_COEFF * d ** 3:
            break
        steps = math.ceil(math.log(2.0 * b_j / a_j) / math.log(1.0 / SWEEP_SHRINK))
        b_sq = clamp_threshold_sq(b_j, d, n, beta_r / steps)
        within.append(np.einsum("ij,ij->i", xt, xt) <= b_sq)
        v, k = weak_ppc_no_bound(xt, rho_r, beta_r, (a_j, b_j), noise)
        a_mat = shrink_factor(v, k)
        xt = xt @ a_mat.T
        a_total = a_mat @ a_total
        log.append((b_j, a_j, v.shape[1], rho_r))
        dims += v.shape[1]
        if dims >= d:
            break
    return 2.0 * a_total, log, np.array(within)


def materialised_pgce_no_bound(x, eps, delta, beta, noise):
    """pgce_no_bound estimating from the transformed copy and conjugating
    back through a dense inverse of A."""
    a, _, _ = materialised_ppc_range(x, eps, delta, beta, noise)
    rho = eps ** 2 / (8.0 * math.log(1.0 / delta))
    inner = pgce(x @ a.T, rho, beta, FLOOR_COEFF * BIG_XI * x.shape[1] ** 4, noise)
    a_inv = np.linalg.inv(a)
    return a_inv @ inner.sigma_hat @ a_inv.T


class TestOneFrame:
    """ppc_range and pgce_no_bound read one frame over the original rows;
    they must agree with transforming the samples every round and inverting
    A densely."""

    @pytest.fixture(scope="class")
    def heavy_rows(self):
        # Student-t rows (2 degrees of freedom) with two heavy directions,
        # so ppc_range runs two rounds
        rng = np.random.default_rng(0)
        n, d = 20_000, 4
        scale = np.sqrt([1.0, 1e2, 1e5, 1e7])
        t = np.sqrt(rng.chisquare(2.0, size=(n, 1)) / 2.0)
        return rng.standard_normal((n, d)) * scale / t

    @pytest.mark.parametrize("noise_seed", [None, 7])
    def test_matches_materialised_loop(self, heavy_rows, noise_seed, monkeypatch):
        def noise():
            return NoiseSource.zero() if noise_seed is None else NoiseSource(noise_seed)

        eps, delta, beta, d = 1e4, 1e-6, 0.05, heavy_rows.shape[1]
        want_a, want_log, within = materialised_ppc_range(heavy_rows, eps, delta, beta,
                                                          noise())
        # some row is past the loosest clamp of one round's sweep and within
        # a later round's, so the frame must extend what it covers
        assert (~within[:-1] & within[1:]).any()
        outside, cover = [], _Frame.cover

        def spy(frame, clamps):
            cover(frame, clamps)
            outside.append(frame.out.size)

        monkeypatch.setattr(_Frame, "cover", spy)
        pre = ppc_range(heavy_rows, eps, delta, beta, noise())
        assert any(later < first for first, later in zip(outside, outside[1:]))
        assert [(r.kappa, r.threshold, r.subspace_dim, r.rho)
                for r in pre.round_log] == want_log
        # each round's K is kappa/d^2 at the bound where its sweep stopped
        assert all(r.threshold / 2.0 < r.K * d ** 2 <= r.kappa for r in pre.round_log)
        assert np.linalg.norm(pre.A - want_a) <= 1e-12 * np.linalg.norm(want_a)
        assert np.linalg.norm(pre.A @ pre.A_inv - np.eye(d)) <= 1e-12
        want = materialised_pgce_no_bound(heavy_rows, eps, delta, beta, noise())
        got = pgce_no_bound(heavy_rows, eps, delta, beta, noise()).sigma_hat
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_overflowing_certificate_falls_back_to_the_exact_pass(self):
        # rows at 1e100 overflow the frame's ellipsoid check, M T^-1 (M T^-1)^T;
        # the frame must treat that as no certificate, not hand LAPACK an inf
        # matrix (whose LinAlgError is no PrivestError)
        x = np.random.default_rng(0).standard_normal((2_000, 4)) * 1e100
        try:
            pgce_no_bound(x, 1.0, 1e-6, 0.05, NoiseSource(0))
        except PrivestError:
            pass


@pytest.mark.parametrize("data_seed, noise_seed", [
    (3968592478561916130, 4285814145920932629),
    (422729053082401719, 2760407739696333887)])
def test_estimate_is_psd_on_ill_conditioned_maps(data_seed, noise_seed):
    # 200k rows with spectrum geomspace(1, 1e4) in a random basis, drawn as
    # the benchmark's Gaussian inputs are; conjugating back through a dense
    # inverse of A gave min eigenvalues far below zero on these seeds
    rng = np.random.default_rng(data_seed)
    d = 4
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    cov = (q * np.geomspace(1.0, 1e4, d)) @ q.T
    cov = (cov + cov.T) / 2.0
    rng.uniform(-1.0, 1.0, d)   # the mean's draw; the mean is 0 here
    x = rng.standard_normal((200_000, d)) @ np.linalg.cholesky(cov).T
    sigma = pgce_no_bound(x, 1.0, 1e-7, 0.05, NoiseSource(noise_seed)).sigma_hat
    assert np.linalg.eigvalsh(sigma)[0] >= -1e-6
