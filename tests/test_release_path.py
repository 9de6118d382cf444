"""Every Gaussian release of a non-matrix statistic goes through
``privacy.gaussian_mechanism_vector``, and moves by at most the sensitivity
it declares there when one row of the data is replaced."""

import ast
import inspect

import numpy as np
import pytest

from privest import (covariance, covariance_unbounded, harness, histogram,
                     mean, product)
from privest.noise import NoiseSource
from privest.privacy import (gaussian_mechanism_symmetric,
                             gaussian_mechanism_vector)
from privest.product import ProductModel, sample_product


def releases(monkeypatch, run):
    """Run ``run()`` and return the releases it makes through the
    histogram, mean and product namespaces, in order, as (statistic,
    sensitivity, rho)."""
    log = []

    def spy(v, delta2, rho, noise):
        v = np.asarray(v, dtype=float)
        log.append((v.copy(), delta2, rho))
        return gaussian_mechanism_vector(v, delta2, rho, noise)

    for module in (histogram, mean, product):
        monkeypatch.setattr(module, "gaussian_mechanism_vector", spy)
    run()
    return log


def assert_neighbours_within_sensitivity(monkeypatch, estimate, x, y):
    """``estimate`` makes the same (sensitivity, rho) releases on the
    neighbours x and y, and each release's statistic moves by at most its
    sensitivity in l2 norm."""
    got_x = releases(monkeypatch, lambda: estimate(x))
    got_y = releases(monkeypatch, lambda: estimate(y))
    assert got_x
    assert [r[1:] for r in got_x] == [r[1:] for r in got_y]
    for (sx, delta2, _), (sy, _, _) in zip(got_x, got_y):
        assert sx.shape == sy.shape
        assert np.linalg.norm(sx - sy) <= delta2 * (1 + 1e-12)


def replaced(x, i, value):
    y = x.copy()
    y[i] = value
    return y


class TestUnivariateMean:
    N = 4000

    @pytest.mark.parametrize("kappa, sigma", [(1.0, 1.0), (100.0, 4.0)])
    @pytest.mark.parametrize("block", ["vote", "cdf"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, 1e300,
                                       "duplicate"])
    def test_one_row_replaced(self, monkeypatch, kappa, sigma, block, value):
        x = 1.7 + NoiseSource(31).gaussian(sigma, size=self.N)
        # the CDF row is the smallest held-out sample, below every reading,
        # so moving it above them moves each reading by 1/m
        half = self.N // 2
        row = 5 if block == "vote" else half + int(np.argmin(x[half:]))
        if value == "duplicate":
            value = x[(row + 1) % self.N]
        y = replaced(x, row, value)

        def estimate(rows):
            est = mean.univariate_mean(rows, 1.0, 0.05, 10.0, kappa,
                                       NoiseSource.zero())
            assert not est.aborted

        assert_neighbours_within_sensitivity(monkeypatch, estimate, x, y)


def ppde(rows, m):
    product.ppde(rows, 1.0, 0.2, 0.05, NoiseSource.zero(), m=m)


def flip_heavy(rows, m):
    harness.learn_product_flip_heavy(rows, 1.0, 0.2, 0.05, NoiseSource.zero(),
                                     m=m)


@pytest.mark.parametrize("estimate", [ppde, flip_heavy])
class TestProductLearners:
    def test_row_complemented(self, monkeypatch, estimate):
        m = 2000
        model = ProductModel(p=[0.9, 0.7, 0.3, 0.12, 0.06, 0.8, 0.01, 0.0])
        x = sample_product(model, 3 * m, NoiseSource(12))
        for row in (7, 2 * m + 7):   # read by the first and by the last round
            y = replaced(x, row, 1 - x[row])
            assert_neighbours_within_sensitivity(
                monkeypatch, lambda rows: estimate(rows, m), x, y)

    def test_truncation_binds(self, monkeypatch, estimate):
        # All-zero rows keep every coordinate active until the final sweep,
        # whose radius B is below the norm of a row with half the
        # coordinates set.  Truncated, the two rows below are orthogonal
        # with norm B, sqrt(2)*B apart: the sensitivity bound is tight.
        d, m = 128, 50
        diag = {}
        x = np.zeros((7 * m, d), dtype=np.int8)
        product.ppde(x, 0.9, 0.2, 0.05, NoiseSource.zero(), m=m, diagnostics=diag)
        final = diag["rounds"][-1]
        half = len(final.active) // 2
        assert half >= final.B ** 2
        row = final.rows[0]
        x[row, final.active[:half]] = 1
        y = replaced(x, row, 0)
        y[row, final.active[half:2 * half]] = 1
        assert_neighbours_within_sensitivity(
            monkeypatch, lambda rows: estimate(rows, m), x, y)


class TestCovarianceThroughPairs:
    """learn_gaussian's covariance releases read the difference pairs a
    block at a time; replacing one row of x changes one pair, and the
    released moment may move by at most the 2 b^2 / n_pairs it declares."""

    N, D = 40_002, 4   # 20001 pairs: two blocks of _Pairs

    @pytest.mark.parametrize("kappa", [100.0, 1e4])
    @pytest.mark.parametrize("row", [6, 2 * 18_000 + 1])   # first, second block
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, 1e150, 1e300,
                                       "duplicate"])
    def test_one_row_replaced(self, monkeypatch, kappa, row, value):
        x = 0.5 + NoiseSource(33).gaussian(1.0, size=(self.N, self.D)) * np.sqrt(
            np.geomspace(1.0, kappa, self.D))
        y = replaced(x, row, x[row + 2] if value == "duplicate" else value)
        released = []

        def spy(m, delta_f, rho, noise):
            released.append((np.array(m, dtype=float), delta_f))
            return gaussian_mechanism_symmetric(m, delta_f, rho, noise)

        monkeypatch.setattr(covariance, "gaussian_mechanism_symmetric", spy)
        firsts = []
        for rows in (x, y):
            released.clear()
            mean.learn_gaussian(rows, 1.0, 0.1, 0.05, 5.0, kappa, NoiseSource.zero())
            # at kappa 100 the one release; at 1e4 pgce's 7 rounds and final
            # estimate, then pme's 7 rounds.  Only the first is compared, as
            # later ones read the maps the earlier ones chose
            assert len(released) == (1 if kappa <= 1000 else 15)
            firsts.append(released[0])
        (mx, bound), (my, bound_y) = firsts
        # pgce gets beta 0.025 and gives each half 0.0125, split over 7 rounds
        n_pairs = self.N // 2
        beta = 0.0125 if kappa <= 1000 else 0.0125 / 7
        assert bound == bound_y == 2.0 * covariance.clamp_threshold_sq(
            kappa, self.D, n_pairs, beta) / n_pairs
        assert np.isfinite(my).all()
        assert np.linalg.norm(mx - my) <= bound * (1 + 1e-12)


# Modules whose noise must reach the data through privacy's mechanisms.
GUARDED = (mean, product, covariance, covariance_unbounded, harness, histogram)


def draw_calls(module):
    """(module, enclosing top-level name, method) of every ``.gaussian(``
    or ``.laplace(`` call in the module's source."""
    found = []
    for top in ast.parse(inspect.getsource(module)).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("gaussian", "laplace")):
                found.append((module.__name__, getattr(top, "name", None),
                              node.func.attr))
    return found


def test_noise_is_drawn_only_through_privacy():
    # the stable histogram's Laplace draw is the one draw outside privacy
    assert [c for module in GUARDED for c in draw_calls(module)] == [
        ("privest.histogram", "stable_histogram_approx_dp", "laplace")]
