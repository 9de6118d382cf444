import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privest import covariance
from privest.covariance import (ROUND_SCALE, ROUND_SHRINK, TARGET_KAPPA,
                                _Frame, _Pairs, clamp_threshold_sq,
                                clamped_covariance, naive_pce, pgce, ppc,
                                weak_ppc)
from privest.errors import EmptyInputError, InvalidParameterError
from privest.linalg import GaussianParams, mahalanobis_mat, sample_gaussian
from privest.noise import NoiseSource


def gaussian_rows(sigma_diag, n, seed):
    d = len(sigma_diag)
    params = GaussianParams(np.zeros(d), np.diag(np.asarray(sigma_diag, float)))
    return sample_gaussian(params, n, NoiseSource(seed))


class TestClampedCovariance:
    def test_no_clamp_matches_plain_second_moment(self):
        x = gaussian_rows([1.0, 1.0], 500, 0)
        cov, kept = clamped_covariance(x, 1e9)
        assert kept == 500
        assert np.allclose(cov, x.T @ x / 500, atol=1e-12)

    def test_offender_dropped_divisor_stays_n(self):
        x = np.array([[100.0, 0.0], [1.0, 1.0]])
        cov, kept = clamped_covariance(x, 10.0)
        assert kept == 1
        assert np.allclose(cov, np.outer(x[1], x[1]) / 2.0)

    def test_sensitivity_bound_random_pairs(self):
        # swapping one row moves the clamped average by at most 2*B^2/n
        # in Frobenius norm, with B^2/n when swapping against the zero row
        rng = np.random.default_rng(1)
        n, d, b_sq = 20, 3, 4.0
        for _ in range(100):
            x = rng.normal(size=(n, d))
            y = x.copy()
            y[0] = rng.normal(size=d) * rng.choice([0.1, 1.0, 10.0])
            ca, _ = clamped_covariance(x, b_sq)
            cb, _ = clamped_covariance(y, b_sq)
            assert np.linalg.norm(ca - cb, "fro") <= 2.0 * b_sq / n + 1e-12
        # the adversarial pair: a row at norm exactly B vs the zero row
        row = np.zeros(d)
        row[0] = math.sqrt(b_sq)
        x = np.zeros((n, d))
        y = x.copy()
        y[0] = row
        ca, _ = clamped_covariance(x, b_sq)
        cb, _ = clamped_covariance(y, b_sq)
        assert np.linalg.norm(ca - cb, "fro") == pytest.approx(b_sq / n)


class TestNaivePce:
    def test_zero_noise_exact(self):
        x = gaussian_rows([1.0, 2.0, 1.5], 1000, 2)
        out = naive_pce(x, 1.0, 0.05, 10.0, NoiseSource.zero())
        assert np.allclose(out, x.T @ x / 1000, atol=1e-10)

    def test_offender_dropped(self):
        # one row far over the clamp threshold, zero noise, n=2
        d, kappa, beta = 2, 1.0, 0.05
        b_sq = clamp_threshold_sq(kappa, d, 2, beta)
        big = np.zeros(d)
        big[0] = math.sqrt(b_sq) * 2.0
        keepable = np.array([1.0, 0.5])
        x = np.vstack([big, keepable])
        diag = {}
        out = naive_pce(x, 1.0, beta, kappa, NoiseSource.zero(),
                        diagnostics=diag)
        assert diag["dropped"] == 1
        assert np.allclose(out, np.outer(keepable, keepable) / 2.0, atol=1e-12)

    def test_output_psd_and_symmetric(self):
        x = gaussian_rows([1.0, 1.0], 50, 3)
        out = naive_pce(x, 0.2, 0.05, 2.0, NoiseSource(3))
        assert np.array_equal(out, out.T)
        assert np.linalg.eigvalsh(out)[0] >= -1e-12

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            naive_pce(np.zeros((0, 2)), 1.0, 0.05, 1.0, NoiseSource(0))

    def test_bad_params(self):
        x = np.zeros((3, 2))
        with pytest.raises(InvalidParameterError):
            naive_pce(x, 0.0, 0.05, 1.0, NoiseSource(0))
        with pytest.raises(InvalidParameterError):
            naive_pce(x, 1.0, 1.5, 1.0, NoiseSource(0))
        with pytest.raises(InvalidParameterError):
            naive_pce(x, 1.0, 0.05, 0.5, NoiseSource(0))

    def test_accuracy_monte_carlo(self):
        # d=4, kappa=10, n=20000, rho=1: median Sigma-error <= 0.25
        sigma = np.diag([1.0, 2.0, 5.0, 10.0])
        errs = []
        for seed in range(20):
            x = gaussian_rows([1.0, 2.0, 5.0, 10.0], 20_000, 100 + seed)
            out = naive_pce(x, 1.0, 0.05, 10.0, NoiseSource(seed))
            errs.append(mahalanobis_mat(out - sigma, sigma))
        assert float(np.median(errs)) <= 0.25


class TestWeakPpc:
    def test_injected_split(self):
        # data whose exact covariance is diag(kappa, 1); zero noise, K=4
        kappa = 8.0
        x = np.vstack([np.array([[math.sqrt(2 * kappa), 0.0]]),
                       np.array([[0.0, math.sqrt(2.0)]])])  # cov = diag(k, 1)
        v, a = weak_ppc(x, 1.0, 0.05, kappa, 4.0, NoiseSource.zero())
        assert v.shape[1] == 1
        assert abs(abs(v[0, 0]) - 1.0) < 1e-12
        assert np.allclose(a, np.diag([0.5, 1.0]), atol=1e-12)

    def test_all_small_identity(self):
        x = gaussian_rows([1.0, 1.0], 5000, 4)
        v, a = weak_ppc(x, 1.0, 0.05, 1000.0, 2.0, NoiseSource.zero())
        assert v.shape[1] == 0
        assert np.array_equal(a, np.eye(2))

    def test_a_spectrum_bounds(self):
        # (1/sqrt(K)) I <= A <= I by construction
        x = gaussian_rows([100.0, 1.0, 1.0], 5000, 5)
        for seed in range(5):
            k = 2.0
            v, a = weak_ppc(x, 1.0, 0.05, 150.0, k, NoiseSource(seed))
            evals = np.linalg.eigvalsh(a)
            assert evals[0] >= 1.0 / math.sqrt(k) - 1e-12
            assert evals[-1] <= 1.0 + 1e-12

    def test_certificate_monte_carlo(self):
        # Sigma = diag(1e4, 1, ..., 1), d=8: I <= (1.1A) Sigma (1.1A) <= 0.7*kappa*I
        d, kappa = 8, 1e4
        diagv = [kappa] + [1.0] * (d - 1)
        sigma = np.diag(diagv)
        good = 0
        for seed in range(20):
            x = gaussian_rows(diagv, 100_000, 200 + seed)
            v, a = weak_ppc(x, 1.0, 0.05, kappa, 2.0, NoiseSource(seed))
            m = 1.1 * a
            conj = m @ sigma @ m.T
            evals = np.linalg.eigvalsh(conj)
            good += (evals[0] >= 1.0 - 1e-9) and (evals[-1] <= 0.7 * kappa)
        assert good >= 18


class TestPpc:
    def test_small_kappa_is_identity(self):
        x = gaussian_rows([1.0, 1.0], 100, 6)
        pre = ppc(x, 1.0, 0.05, 1000.0, NoiseSource(0))
        assert np.array_equal(pre.A, np.eye(2))
        assert pre.round_log == []

    def test_round_count(self):
        # kappa = 1e4 -> ceil(ln 10 / ln(10/7)) = 7 rounds
        x = gaussian_rows([1.0, 1.0], 100, 7)
        pre = ppc(x, 1.0, 0.05, 1e4, NoiseSource.zero())
        assert len(pre.round_log) == 7

    def test_budget_split_sums_to_rho(self):
        x = gaussian_rows([1.0, 1.0], 100, 8)
        rho = 0.8
        pre = ppc(x, rho, 0.05, 1e4, NoiseSource.zero())
        assert sum(r.rho for r in pre.round_log) == pytest.approx(rho, abs=1e-12)
        assert pre.budget_spent.rho == pytest.approx(rho)

    def test_certified_bound_shrinks_by_07(self):
        x = gaussian_rows([1.0, 1.0], 100, 9)
        pre = ppc(x, 1.0, 0.05, 1e4, NoiseSource.zero())
        kappas = [r.kappa for r in pre.round_log]
        for prev, cur in zip(kappas, kappas[1:]):
            assert cur == pytest.approx(0.7 * prev, rel=1e-12)
        assert all(r.threshold == pytest.approx(r.kappa / 2.0)
                   for r in pre.round_log)

    def test_certificate_monte_carlo(self):
        # d=8, kappa=1e4, n=2e5, rho=1: I <= A Sigma A^T <= 1000 I
        d = 8
        diagv = [1e4] * 4 + [1.0] * 4
        sigma = np.diag(diagv)
        good = 0
        for seed in range(20):
            x = gaussian_rows(diagv, 200_000, 300 + seed)
            pre = ppc(x, 1.0, 0.05, 1e4, NoiseSource(seed))
            evals = np.linalg.eigvalsh(pre.A @ sigma @ pre.A.T)
            good += (evals[0] >= 1.0 - 1e-9) and (evals[-1] <= 1000.0)
        assert good >= 18


class TestPgce:
    def test_zero_noise_exact(self):
        x = gaussian_rows([1.0, 3.0, 9.0], 2000, 10)
        est = pgce(x, 1.0, 0.05, 50.0, NoiseSource.zero())
        emp = x.T @ x / x.shape[0]
        assert np.allclose(est.sigma_hat, emp, atol=1e-10 * np.linalg.norm(emp))

    def test_zero_noise_exact_large_kappa(self):
        # the preconditioning rounds run but cancel exactly
        x = gaussian_rows([1.0, 50.0, 4000.0], 5000, 11)
        est = pgce(x, 1.0, 0.05, 1e4, NoiseSource.zero())
        emp = x.T @ x / x.shape[0]
        rel = np.linalg.norm(est.sigma_hat - emp) / np.linalg.norm(emp)
        assert rel < 1e-10
        assert len(est.diagnostics["rounds"]) == 7

    def test_small_kappa_matches_naive_path(self):
        x = gaussian_rows([1.0, 2.0], 1000, 12)
        est = pgce(x, 1.0, 0.05, 900.0, NoiseSource(5))
        direct = naive_pce(x, 0.5, 0.025, 900.0, NoiseSource(5))
        assert np.allclose(est.sigma_hat, direct, atol=1e-12)

    def test_budget_reported(self):
        x = gaussian_rows([1.0, 2.0], 500, 13)
        est = pgce(x, 0.7, 0.05, 10.0, NoiseSource(0))
        assert est.budget_spent.regime == "zcdp"
        assert est.budget_spent.rho == pytest.approx(0.7)

    def test_accuracy_monte_carlo(self):
        # d=4, kappa=1e4, n=5e5, rho=1: median Sigma-error <= 0.3
        diagv = [1.0, 10.0, 1e3, 1e4]
        sigma = np.diag(diagv)
        errs = []
        for seed in range(20):
            x = gaussian_rows(diagv, 500_000, 400 + seed)
            est = pgce(x, 1.0, 0.05, 1e4, NoiseSource(seed))
            errs.append(mahalanobis_mat(est.sigma_hat - sigma, sigma))
        assert float(np.median(errs)) <= 0.3


def materialised_ppc(x, rho, beta, kappa, noise, K=2.0):
    """ppc written as a loop that transforms a copy of the samples in every
    round.  Returns A and, per round, the mask of rows over its clamp."""
    n, d = x.shape
    t_rounds = 0
    if kappa > TARGET_KAPPA:
        t_rounds = math.ceil(math.log(kappa / TARGET_KAPPA) / math.log(1.0 / ROUND_SHRINK))
    a_total, xt, kap, dropped = np.eye(d), x, kappa, []
    for _ in range(t_rounds):
        b_sq = clamp_threshold_sq(kap, d, n, beta / t_rounds)
        dropped.append(~(np.einsum("ij,ij->i", xt, xt) <= b_sq))
        _, a_w = weak_ppc(xt, rho / t_rounds, beta / t_rounds, kap, K, noise)
        a_round = ROUND_SCALE * a_w
        xt = xt @ a_round.T
        a_total = a_round @ a_total
        kap *= ROUND_SHRINK
    return a_total, np.array(dropped)


class TestCachedFrame:
    """ppc and pgce read one cached second moment through the accumulated
    map; they must agree with transforming the samples every round."""

    @pytest.fixture(scope="class")
    def heavy_rows(self):
        # Student-t rows (2 degrees of freedom) on a kappa = 1e5 spectrum
        rng = np.random.default_rng(0)
        n, d = 20_000, 4
        scale = np.sqrt([1.0, 10.0, 1e3, 1e5])
        t = np.sqrt(rng.chisquare(2.0, size=(n, 1)) / 2.0)
        return rng.standard_normal((n, d)) * scale / t

    def test_ppc_matches_materialised_loop(self, heavy_rows):
        want, dropped = materialised_ppc(heavy_rows, 0.5, 0.025, 1e5, NoiseSource(3))
        counts = dropped.sum(axis=1)
        assert len(set(counts.tolist())) > 1
        # some row is dropped in an early round and kept in a later one
        assert (dropped[:-1] & ~dropped[1:]).any()
        pre = ppc(heavy_rows, 0.5, 0.025, 1e5, NoiseSource(3))
        assert np.linalg.norm(pre.A - want) <= 1e-10 * np.linalg.norm(want)
        assert np.linalg.norm(pre.A @ pre.A_inv - np.eye(4)) <= 1e-12

    def test_pgce_matches_materialised_loop(self, heavy_rows):
        rho, beta, kappa = 1.0, 0.05, 1e5
        noise = NoiseSource(4)
        a, _ = materialised_ppc(heavy_rows, rho / 2.0, beta / 2.0, kappa, noise)
        sigma_tilde = naive_pce(heavy_rows @ a.T, rho / 2.0, beta / 2.0,
                                TARGET_KAPPA, noise)
        a_inv = np.linalg.inv(a)
        want = a_inv @ sigma_tilde @ a_inv.T
        got = pgce(heavy_rows, rho, beta, kappa, NoiseSource(4)).sigma_hat
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_frame_covers_a_looser_clamp_on_demand(self, heavy_rows):
        # rows past the clamp the frame was first read at are not in its Gram
        # matrix; a looser clamp admits those it could keep, and only those
        frame = _Frame(heavy_rows)
        frame.moment(clamp_threshold_sq(1e3, 4, 20_000, 0.05))
        out = frame.out.size
        b_sq = clamp_threshold_sq(1e4, 4, 20_000, 0.05)
        cov, kept = frame.moment(b_sq)
        want, want_kept = clamped_covariance(heavy_rows, b_sq)
        assert kept == want_kept
        assert out > frame.out.size == heavy_rows.shape[0] - want_kept > 0
        assert np.linalg.norm(cov - want) <= 1e-12 * np.linalg.norm(want)

    def test_refreshed_norms_match_the_map(self):
        # push leaves the norms stale; a clamp the ellipsoid cannot clear
        # forces one blocked exact pass (12 blocks of 256 rows, the last one
        # partial), after which they must equal the norms of the rows mapped
        # through M, and the ellipsoid's bound must hold every one of them
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3_000, 32)) * np.geomspace(1.0, 1e3, 32)
        frame = _Frame(x)
        frame.moment(1e300)
        for k in (16, 3, 30):
            frame.push(np.linalg.qr(rng.standard_normal((32, k)))[0], 2.0, ROUND_SCALE)
        frame.moment(1.0)
        assert not frame.stale
        want = np.einsum("ij,ij->i", x @ frame.m.T, x @ frame.m.T)
        assert np.allclose(frame.norms, want, rtol=1e-12, atol=0.0)
        mahalanobis = np.einsum("ij,ij->i", x, np.linalg.solve(frame.second, x.T).T)
        assert frame.ellipsoid[2] == pytest.approx(mahalanobis.max(), rel=1e-9)
        assert ellipsoid_bound(frame) >= frame.norms.max()

    @pytest.mark.parametrize("pushes", [3, 4])
    def test_cover_takes_no_norm_of_a_non_finite_inverse(self, capfd, pushes):
        # factors with K = 1e300 overflow M^-1 to inf (3 pushes), then NaN
        # (4); an SVD of it fails, or LAPACK prints "illegal value" on fd 1.
        # cover keeps push's bound instead, inf, and admits every out row
        rng = np.random.default_rng(2)
        x = rng.standard_normal((200, 3))
        x[:10] *= 100.0
        frame = _Frame(x)
        frame.moment(10.0)
        for _ in range(pushes):
            frame.push(np.linalg.qr(rng.standard_normal((3, 3)))[0][:, :2], 1e300, 1.0)
        assert not np.isfinite(frame.m_inv).all() and frame.out.size
        mapped = x @ frame.m.T
        b_sq = float(np.median(np.einsum("ij,ij->i", mapped, mapped)))
        cov, kept = frame.moment(b_sq)
        want, want_kept = clamped_covariance(mapped, b_sq)
        assert kept == want_kept and frame.out.size == 0
        assert np.linalg.norm(cov - want) <= 1e-12 * np.linalg.norm(want)
        assert "illegal value" not in "".join(capfd.readouterr())


def ellipsoid_bound(frame):
    """r lambda_max(M T^-1 (M T^-1)^T), the bound the frame's ellipsoid
    |T x|^2 <= r puts on its largest squared norm under M."""
    _, t_inv, r = frame.ellipsoid
    p = frame.m @ t_inv
    return r * np.linalg.eigvalsh(p @ p.T)[-1]


def spy_exact_passes(monkeypatch):
    """Record, for each exact pass over a frame's rows, the frame's round
    count and its ellipsoid's bound less the exact largest norm (None: no
    ellipsoid)."""
    passes, exact = [], _Frame._exact_norms

    def spy(frame):
        stale = frame.stale
        bound = ellipsoid_bound(frame) if frame.ellipsoid else None
        norms = exact(frame)
        if stale:
            top = norms.max(initial=0.0)
            passes.append((frame.rounds, None if bound is None else bound - top))
        return norms

    monkeypatch.setattr(_Frame, "_exact_norms", spy)
    return passes


class TestLazyNorms:
    """The frame's norms go stale after a push and are recomputed only when
    no ellipsoid around the rows rules out a drop at the clamp."""

    @pytest.fixture(scope="class")
    def late_rows(self):
        # Gaussian rows, plus five rows on the lightest axis at 1/50 of the
        # first clamp: no round shrinks them, so they reach the clamp late
        n, d = 20_000, 4
        x = gaussian_rows([1.0, 10.0, 1e3, 1e5], n, 5)
        b0 = clamp_threshold_sq(1e5, d, n, 0.025 / 13)
        x[:5] = 0.0
        x[:5, 0] = np.sqrt(b0 / 50.0) * np.array([1.0, 0.9, 1.1, 0.95, 1.05])
        return x

    def test_late_drop_matches_materialised_loop(self, late_rows, monkeypatch):
        passes = spy_exact_passes(monkeypatch)
        want, dropped = materialised_ppc(late_rows, 0.5, 0.025, 1e5, NoiseSource(3))
        passes.clear()
        pre = ppc(late_rows, 0.5, 0.025, 1e5, NoiseSource(3))
        assert np.linalg.norm(pre.A - want) <= 1e-10 * np.linalg.norm(want)
        late = np.flatnonzero(dropped.any(axis=1))
        refreshed = [rounds for rounds, _ in passes]
        # the first round skips the exact pass and drops nothing; rows are
        # dropped later, each time in a round that ran one
        assert 0 not in refreshed and not dropped[0].any()
        assert late.size and set(late.tolist()) <= set(refreshed)
        # S's ellipsoid was fitted, and its bound held wherever it was tried
        assert all(slack is not None and slack >= 0.0 for _, slack in passes)

    def test_late_drop_pgce_matches_materialised_loop(self, late_rows):
        rho, beta, kappa = 1.0, 0.05, 1e5
        noise = NoiseSource(4)
        a, dropped = materialised_ppc(late_rows, rho / 2.0, beta / 2.0, kappa, noise)
        assert dropped[-1].any()
        sigma_tilde = naive_pce(late_rows @ a.T, rho / 2.0, beta / 2.0,
                                TARGET_KAPPA, noise)
        a_inv = np.linalg.inv(a)
        want = a_inv @ sigma_tilde @ a_inv.T
        got = pgce(late_rows, rho, beta, kappa, NoiseSource(4)).sigma_hat
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_unpushed_frame_never_refreshes(self, late_rows, monkeypatch):
        def refuse(*args):
            raise AssertionError("an unpushed frame fitted or passed over its rows")

        monkeypatch.setattr(_Frame, "_fit", refuse)
        monkeypatch.setattr(covariance, "_sq_under", refuse)
        clamps = [clamp_threshold_sq(k, 4, 20_000, 0.05) for k in (1e7, 1e5, 1e3, 10.0)]
        frame = _Frame(late_rows)
        for b_sq in clamps:
            cov, kept = frame.moment(b_sq)
            want, want_kept = clamped_covariance(late_rows, b_sq)
            assert kept == want_kept
            assert np.linalg.norm(cov - want) <= 1e-10 * np.linalg.norm(want)
        assert kept < late_rows.shape[0]

    def test_all_nan_rows_give_psd_estimate(self):
        # every row is outside every clamp, so the frame holds no rows
        x = np.full((2_000, 4), np.nan)
        sigma = pgce(x, 1.0, 0.05, 1e5, NoiseSource(6)).sigma_hat
        assert np.isfinite(sigma).all()
        assert np.array_equal(sigma, sigma.T)
        evals = np.linalg.eigvalsh(sigma)
        assert evals.min() >= -1e-9 * max(evals.max(), 1.0)


def random_pushes(rng, d, pushes):
    """Orthonormal bases V (d x k, 0 <= k <= d) for ``pushes`` factors."""
    return [np.linalg.qr(rng.standard_normal((d, d)))[0][:, :rng.integers(0, d + 1)]
            for _ in range(pushes)]


def map_of(vs, d, K, scale):
    """The map a frame composes from the factors with bases ``vs``."""
    frame = _Frame(np.zeros((1, d)))
    for v in vs:
        frame.push(v, K, scale)
    return frame.m


def rounding_scale(frame):
    """|M|_2^2 tr(S): the frame computes its moment M (S - D) M^T from sums
    over the admitted rows, so its rounding error is a modest multiple of
    d eps times this.  1e-12 of it (~4500 eps) is the float slack below."""
    return np.linalg.norm(frame.m, 2) ** 2 * np.trace(frame.second)


class TestEllipsoidCertificate:
    """Whether ``moment`` skips the pass over the rows or not, it must give
    the clamped second moment of the rows mapped through M, also when the
    factors are pushed before the frame first reads its rows."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), pushes=st.integers(0, 3),
           K=st.sampled_from([2.0, 1e4]), scale=st.sampled_from([1.0, 1.1]),
           read_first=st.booleans())
    def test_moment_matches_mapped_reference(self, seed, pushes, K, scale, read_first):
        rng = np.random.default_rng(seed)
        n, d = 200, int(rng.integers(2, 7))
        x = rng.standard_normal((n, d)) * np.sqrt(np.geomspace(1.0, 1e4, d))
        x[:20] /= np.abs(rng.standard_normal((20, 1)))       # heavy-tailed rows
        x[20:30] = x[30:40]                                   # duplicates
        vs = random_pushes(rng, d, pushes)
        m = map_of(vs, d, K, scale)
        # row 40 at the clamp, row 41 a copy of it, row 42 at half the clamp
        q = np.einsum("ij,ij->i", x @ m.T, x @ m.T)
        x[40] *= math.sqrt(np.quantile(q, 0.7) / q[40])
        x[41], x[42] = x[40], x[40] / math.sqrt(2.0)
        mapped = x @ m.T
        q = np.einsum("ij,ij->i", mapped, mapped)
        b_sq = float(q[40])
        # clamps from far above every row down to the largest row exactly
        # and below: each must clear by the ellipsoid or by an exact pass
        clamps = [3.0 * q.max(), 1.2 * q.max(), q.max(), np.quantile(q, 0.95), b_sq]

        frame = _Frame(x)
        for v in vs:
            if read_first:
                # a moment at the map so far, which drops rows, before each push
                part = np.einsum("ij,ij->i", x @ frame.m.T, x @ frame.m.T)
                frame.moment(float(np.quantile(part, 0.9)))
            frame.push(v, K, scale)
        assert np.array_equal(frame.m, m)
        for clamp in clamps:
            cov, kept = frame.moment(float(clamp))
            want, want_kept = clamped_covariance(mapped, float(clamp))
            assert kept == want_kept
            assert np.linalg.norm(cov - want) <= 1e-12 * rounding_scale(frame)
        assert want_kept < n

    @pytest.mark.parametrize("subspace", [False, True])
    def test_precond_workload_fits_once_and_never_passes(self, monkeypatch, subspace):
        # pgce at kappa = 1e6 runs 20 rounds: S's ellipsoid, fitted at the
        # first stale moment (the second round's), clears every one after
        # the first, also when the rows lie in a subspace and S is singular.
        # The first clamp keeps every row, so no round covers (no spectral norm)
        passes = spy_exact_passes(monkeypatch)
        monkeypatch.setattr(_Frame, "cover", lambda frame, b_sq: pytest.fail("covered"))
        fits, fit = [], _Frame._fit

        def spy(frame):
            fits.append(frame.rounds)
            fit(frame)

        monkeypatch.setattr(_Frame, "_fit", spy)
        x = gaussian_rows(np.geomspace(1.0, 1e6, 32), 20_000, 8)
        if subspace:
            x[:, 0] = 0.0
        est = pgce(x, 1.0, 0.05, 1e6, NoiseSource(8))
        assert len(est.diagnostics["rounds"]) == 20
        assert fits == [1]
        assert passes == []


class TestFrameSensitivity:
    """``moment`` is what the estimators release (plus noise calibrated to
    2 b^2 / n): frames over neighbouring samples, first read at the same
    clamp and after the same pushes, must give moments at most that far apart
    in Frobenius norm.  First read at b^2/4, rows reach the moment only
    through its own ``cover``."""

    REPLACEMENTS = ["nan", "inf", "-inf", "zero", "1e150", "1e300", "clamp", "duplicate"]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), pushes=st.integers(0, 3),
           K=st.sampled_from([2.0, 1e4]), scale=st.sampled_from([1.0, 1.1]),
           kind=st.sampled_from(REPLACEMENTS), first=st.sampled_from([1.0, 0.25]))
    def test_one_row_moves_the_moment_by_at_most_2b2_over_n(self, seed, pushes, K,
                                                            scale, kind, first):
        rng = np.random.default_rng(seed)
        n, d = 100, 3
        x = rng.standard_normal((n, d)) * np.sqrt([1.0, 30.0, 1e3])
        x[:10] /= np.abs(rng.standard_normal((10, 1)))
        vs = random_pushes(rng, d, pushes)
        m = map_of(vs, d, K, scale)
        q = np.einsum("ij,ij->i", x @ m.T, x @ m.T)
        b_sq = float(np.quantile(q, 0.8))
        y = x.copy()
        if kind == "clamp":
            # a row at the clamp in mapped coordinates
            u = rng.standard_normal(d)
            y[0] = np.linalg.solve(m, u * math.sqrt(b_sq) / np.linalg.norm(u))
        elif kind == "duplicate":
            y[0] = x[int(np.argmin(np.abs(q - b_sq)))]
        else:
            y[0] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "zero": 0.0,
                    "1e150": 1e150, "1e300": 1e300}[kind]
        moments, slack = [], 0.0
        for z in (x, y):
            frame = _Frame(z)
            frame.moment(first * b_sq)
            for v in vs:
                frame.push(v, K, scale)
            moments.append(frame.moment(b_sq)[0])
            slack += 1e-12 * rounding_scale(frame)
        assert np.isfinite(moments[1]).all()
        assert np.linalg.norm(moments[0] - moments[1]) <= 2.0 * b_sq / n + slack


def pairs_of(x):
    """The difference pairs (x[2i+1] - x[2i]) / sqrt(2), built whole."""
    m = (x.shape[0] // 2) * 2
    return (x[1:m:2] - x[0:m:2]) / math.sqrt(2.0)


class TestPairSource:
    """pgce over a ``_Pairs`` reads the pairs a block at a time; it must
    admit, keep and drop the same pairs, with the same norms, as pgce over
    the pairs built whole, and its estimate may differ only by the order of
    the blocked Gram sum."""

    @pytest.mark.parametrize("n, kappa, extra", [
        (80_000, 100.0, None),       # three blocks, no rounds
        (80_001, 1e4, None),         # odd n: the last row is in no pair; 7 rounds
        (80_000, 1e4, "late"),       # pairs admitted, then dropped by a round
        (80_000, 100.0, "huge"),     # pairs past every clamp
        (80_000, 1e4, "huge"),
    ])
    def test_matches_materialised_pairs(self, monkeypatch, n, kappa, extra):
        d = 4
        x = gaussian_rows(np.geomspace(1.0, kappa, d), n, 21)
        rows = 2 * np.array([3, 17_000, 39_000])   # first, second, third block
        if extra == "huge":
            x[rows + 1] = 1e150
        elif extra == "late":
            # on the lightest axis, at twice the final clamp: every round
            # keeps them, the final estimate drops them
            b_sq = clamp_threshold_sq(min(kappa, TARGET_KAPPA), d, n // 2, 0.025)
            x[rows], x[rows + 1] = 0.0, 0.0
            x[rows + 1, 0] = math.sqrt(2.0 * 2.0 * b_sq)
        built, read = [], _Frame._read

        def spy(frame, reach):
            read(frame, reach)
            built.append((frame.norms.copy(), frame.out.copy()))

        monkeypatch.setattr(_Frame, "_read", spy)
        got = pgce(_Pairs(x), 1.0, 0.05, kappa, NoiseSource(7))
        want = pgce(pairs_of(x), 1.0, 0.05, kappa, NoiseSource(7))
        (lazy_norms, lazy_out), (whole_norms, whole_out) = built
        assert np.array_equal(lazy_norms, whole_norms)
        assert np.array_equal(lazy_out, whole_out)
        assert lazy_out.size == (3 if extra == "huge" else 0)
        for key in ("kept", "dropped"):
            assert got.diagnostics[key] == want.diagnostics[key]
        assert got.diagnostics["dropped"] == (3 if extra else 0)
        assert ([r.subspace_dim for r in got.diagnostics["rounds"]]
                == [r.subspace_dim for r in want.diagnostics["rounds"]])
        assert (np.linalg.norm(got.sigma_hat - want.sigma_hat)
                <= 1e-12 * np.linalg.norm(want.sigma_hat))

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_rows_by_slice_and_index(self, n):
        x = np.arange(n * 3, dtype=float).reshape(n, 3) ** 1.5
        pairs, want = _Pairs(x), pairs_of(x)
        assert pairs.shape == want.shape
        assert np.array_equal(pairs[0:n], want)
        assert np.array_equal(pairs[1:2], want[1:2])
        idx = np.arange(n // 2)[::-1]
        assert np.array_equal(pairs[idx], want[idx])


def spy_reads(monkeypatch):
    """Record the reach of every pass a frame makes over all its rows."""
    reaches, read = [], _Frame._read

    def spy(frame, reach):
        reaches.append(reach)
        read(frame, reach)

    monkeypatch.setattr(_Frame, "_read", spy)
    return reaches


class TestFirstRead:
    """No caller sizes a frame: it reads its rows once, at the first clamp
    it is asked for, which is the one the estimators compute for it."""

    @pytest.mark.parametrize("pairs", [False, True])
    @pytest.mark.parametrize("kappa, rounds", [(1e5, 13), (100.0, 0)])
    def test_pgce_reads_once_at_its_first_clamp(self, monkeypatch, pairs, kappa, rounds):
        d, n = 4, 20_000
        x = gaussian_rows(np.geomspace(1.0, kappa, d), n, 22)
        reaches = spy_reads(monkeypatch)
        est = pgce(_Pairs(x) if pairs else x, 1.0, 0.05, kappa, NoiseSource(9))
        assert len(est.diagnostics["rounds"]) == rounds
        # ppc's first round at kappa 1e5, its beta 0.025 split over 13 rounds;
        # at kappa 100 the final estimate's, with beta 0.025
        beta = 0.05 / 2.0 / max(rounds, 1)
        assert reaches == [clamp_threshold_sq(kappa, d, n // 2 if pairs else n, beta)]

    def test_ppc_without_rounds_reads_nothing(self, monkeypatch):
        reaches = spy_reads(monkeypatch)
        x = gaussian_rows([1.0, 10.0], 1_000, 23)
        for samples in (x, _Pairs(x)):
            pre = ppc(samples, 1.0, 0.05, TARGET_KAPPA, NoiseSource(0))
            assert np.array_equal(pre.A, np.eye(2)) and np.array_equal(pre.A_inv, np.eye(2))
            assert pre.round_log == [] and pre.budget_spent.rho == 0.0
        assert reaches == []

    def test_out_rows_cost_no_copy_of_the_rows(self):
        # an array is read as one block; with a row out of it, its kept rows
        # are summed a sub-block at a time.  Copying them whole would take
        # 256 bytes per row of x
        n, d = 50_000, 32
        x = gaussian_rows(np.geomspace(1.0, 1e6, d), n, 24)
        x[[7, 20_000, 40_000]] = 1e150
        pgce(x[:2_000], 1.0, 0.05, 1e6, NoiseSource(8))   # warm up
        tracemalloc.start()
        try:
            est = pgce(x, 1.0, 0.05, 1e6, NoiseSource(8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.diagnostics["dropped"] == 3
        assert peak / n <= 40.0
