import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privest.errors import InvalidInputError, SingularMatrixError
from privest.linalg import (GaussianParams, _check_symmetric, inv_sqrt_psd,
                            mahalanobis_mat, mahalanobis_vec, project_psd,
                            sample_gaussian, sym_eigh)
from privest.noise import NoiseSource
from privest.privacy import sample_gue


def random_symmetric(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d))
    return (a + a.T) / 2.0


def random_pd(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d))
    return a @ a.T + 0.5 * np.eye(d)


def eigendecompose(m):
    """Eigenpairs, eigenvalue-descending, from the checked sym_eigh that
    project_psd and psd_factor use."""
    evals, evecs = sym_eigh(_check_symmetric(m))
    return [(float(evals[i]), evecs[:, i]) for i in range(len(evals) - 1, -1, -1)]


class TestEigendecompose:
    def test_diagonal(self):
        pairs = eigendecompose(np.diag([3.0, 1.0]))
        assert pairs[0][0] == pytest.approx(3.0)
        assert pairs[1][0] == pytest.approx(1.0)
        assert abs(pairs[0][1][0]) == pytest.approx(1.0)
        assert abs(pairs[1][1][1]) == pytest.approx(1.0)

    def test_identity(self):
        pairs = eigendecompose(np.eye(4))
        assert [lam for lam, _ in pairs] == [1.0] * 4

    def test_reconstruction(self):
        m = random_symmetric(5, 0)
        rec = sum(lam * np.outer(v, v) for lam, v in eigendecompose(m))
        assert np.linalg.norm(rec - m, "fro") < 1e-8 * max(1.0, np.linalg.norm(m, "fro"))

    def test_orthonormal(self):
        vs = np.array([v for _, v in eigendecompose(random_symmetric(6, 1))])
        assert np.allclose(vs @ vs.T, np.eye(6), atol=1e-8)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            eigendecompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestProjectPsd:
    def test_mixed_signs(self):
        assert np.allclose(project_psd(np.diag([1.0, -1.0])),
                           np.diag([1.0, 0.0]), atol=1e-12)

    def test_psd_unchanged(self):
        m = random_pd(4, 2)
        assert np.allclose(project_psd(m), m, atol=1e-9)

    def test_negative_definite_to_zero(self):
        assert np.allclose(project_psd(np.diag([-2.0, -3.0])),
                           np.zeros((2, 2)), atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_idempotent(self, seed):
        m = random_symmetric(4, seed)
        once = project_psd(m)
        assert np.linalg.norm(project_psd(once) - once, "fro") < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_non_expansive_toward_psd_targets(self, seed):
        m = random_symmetric(4, seed)
        target = random_pd(4, seed + 1)
        assert (np.linalg.norm(project_psd(m) - target, "fro")
                <= np.linalg.norm(m - target, "fro") + 1e-8)


class TestMahalanobis:
    def test_identity_cov_is_euclidean(self):
        v = np.array([3.0, 4.0])
        assert mahalanobis_vec(v, np.eye(2)) == pytest.approx(5.0, abs=1e-12)

    def test_scalar(self):
        assert mahalanobis_vec(np.array([2.0]), np.array([[4.0]])) == \
            pytest.approx(1.0)

    def test_vec_matches_solve_oracle(self):
        sigma = random_pd(5, 3)
        v = np.arange(1.0, 6.0)
        want = np.sqrt(v @ np.linalg.solve(sigma, v))
        assert mahalanobis_vec(v, sigma) == pytest.approx(want, abs=1e-9)

    def test_mat_identity_cov_is_frobenius(self):
        x = random_symmetric(4, 4)
        assert mahalanobis_mat(x, np.eye(4)) == \
            pytest.approx(np.linalg.norm(x, "fro"), abs=1e-10)

    def test_mat_scalar(self):
        assert mahalanobis_mat(np.array([[1.0]]), np.array([[4.0]])) == \
            pytest.approx(0.25)

    def test_conjugation_identity(self):
        # ||S1 - S2||_{S1} is invariant under the joint map M -> A M A^T
        sigma = random_pd(4, 5)
        sigma_hat = random_pd(4, 6)
        a = random_pd(4, 7)
        lhs = mahalanobis_mat(sigma - sigma_hat, sigma)
        rhs = mahalanobis_mat(a @ (sigma - sigma_hat) @ a.T, a @ sigma @ a.T)
        assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            mahalanobis_vec(np.ones(2), np.diag([1.0, 0.0]))
        with pytest.raises(SingularMatrixError):
            mahalanobis_mat(np.eye(2), np.diag([1.0, 0.0]))


class TestInvSqrtPsd:
    def test_identity(self):
        assert np.allclose(inv_sqrt_psd(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        assert np.allclose(inv_sqrt_psd(np.diag([4.0, 9.0])),
                           np.diag([0.5, 1.0 / 3.0]), atol=1e-12)

    def test_reconstruction(self):
        sigma = random_pd(6, 8)
        s = inv_sqrt_psd(sigma)
        assert np.array_equal(s, s.T)
        assert np.allclose(s @ sigma @ s, np.eye(6), atol=1e-8)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            inv_sqrt_psd(np.diag([1.0, 0.0]))


class TestGaussianParams:
    def test_valid(self):
        p = GaussianParams(np.zeros(2), np.eye(2))
        assert p.dim == 2

    def test_rejects_non_psd(self):
        with pytest.raises(InvalidInputError):
            GaussianParams(np.zeros(2), np.diag([1.0, -1.0]))

    def test_rejects_mismatch(self):
        with pytest.raises(InvalidInputError):
            GaussianParams(np.zeros(3), np.eye(2))


class TestSampleGaussian:
    def test_zero_cov_is_constant(self):
        p = GaussianParams(np.array([1.0, -2.0]), np.zeros((2, 2)))
        x = sample_gaussian(p, 10, NoiseSource(0))
        assert np.allclose(x, p.mean)

    def test_mean_clt(self):
        n = 100_000
        mu = np.array([1.0, -1.0, 0.5])
        p = GaussianParams(mu, np.eye(3))
        x = sample_gaussian(p, n, NoiseSource(1))
        assert np.all(np.abs(x.mean(axis=0) - mu) < 4.0 / np.sqrt(n))

    def test_covariance_spectral(self):
        n, d = 100_000, 5
        x = sample_gaussian(GaussianParams(np.zeros(d), np.eye(d)), n,
                            NoiseSource(2))
        emp = x.T @ x / n
        assert np.linalg.norm(emp - np.eye(d), 2) < 0.05

    def test_nontrivial_cov(self):
        sigma = np.array([[2.0, 1.0], [1.0, 2.0]])
        x = sample_gaussian(GaussianParams(np.zeros(2), sigma), 200_000,
                            NoiseSource(3))
        emp = x.T @ x / x.shape[0]
        assert np.linalg.norm(emp - sigma, 2) < 0.05


def test_gue_spectral_norm_band():
    # over 100 seeded draws at d=50, spectral norm stays below 3*sigma*sqrt(d)
    d, sigma = 50, 1.3
    src = NoiseSource(21)
    worst = max(np.linalg.norm(sample_gue(d, sigma, src), 2)
                for _ in range(100))
    assert worst <= 3.0 * sigma * np.sqrt(d)
