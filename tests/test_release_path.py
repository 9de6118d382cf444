"""Every Gaussian release of a non-matrix statistic goes through
``privacy.gaussian_mechanism_vector``, and moves by at most the sensitivity
it declares there when one row of the data is replaced."""

import ast
import inspect
import math

import numpy as np
import pytest

from privest import (covariance, covariance_unbounded, harness, histogram,
                     mean, product)
from privest.noise import NoiseSource
from privest.privacy import (gaussian_mechanism_symmetric, gaussian_mechanism_vector,
                             gaussian_sigma, sample_gue)
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

    @pytest.mark.parametrize("kappa", [1.0, 100.0])
    def test_release_structure(self, monkeypatch, kappa):
        # the votes, then the k CDF readings as one release of a k-vector
        n, rho = 4001, 0.8
        x = 1.7 + NoiseSource(32).gaussian(math.sqrt(kappa), size=n)
        got = []
        log = releases(monkeypatch, lambda: got.append(
            mean.univariate_mean(x, rho, 0.05, 10.0, kappa, NoiseSource(5))))
        est, = got
        assert not est.aborted
        vote, m = n // 2, n - n // 2
        if kappa == 1:   # location vote, one reading at the bucket edge
            k, want = 1, [(math.sqrt(2.0) / vote, rho / 2.0)]
        else:   # scale vote over pairs, location vote, two readings
            k, want = 2, [(math.sqrt(2.0) / (vote // 2), rho / 4.0),
                          (math.sqrt(2.0) / vote, rho / 4.0)]
        want.append((math.sqrt(k) / m, rho / 2.0))
        assert [r[1:] for r in log] == want
        assert log[-1][0].shape == (k,)
        assert math.fsum(r[2] for r in log) == est.budget_spent.rho

    @pytest.mark.parametrize("kappa", [1.0, 100.0])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e300])
    def test_votes_and_readings_read_disjoint_halves(self, monkeypatch, kappa, value):
        # The votes read x[:n//2] and the CDF readings x[n//2:]: a row
        # replaced in one half moves that half's releases and leaves the
        # other half's bit-identical.  So by parallel composition the run is
        # rho/2-zCDP, though it reports rho.
        n = 4001
        x = 1.7 + NoiseSource(33).gaussian(math.sqrt(kappa), size=n)

        def statistics(rows):
            log = releases(monkeypatch, lambda: mean.univariate_mean(
                rows, 0.8, 0.05, 10.0, kappa, NoiseSource(5)))
            return [r[0].tobytes() for r in log]

        base = statistics(x)
        votes, readings = slice(None, -1), slice(-1, None)
        # the smallest held-out sample lies below every reading
        held_out = n // 2 + int(np.argmin(x[n // 2:]))
        for row, moved, kept in ((5, votes, readings), (held_out, readings, votes)):
            got = statistics(replaced(x, row, value))
            assert len(got) == len(base)
            assert got[kept] == base[kept]
            assert all(g != b for g, b in zip(got[moved], base[moved]))


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
        x = np.zeros((7 * m, d), dtype=np.int8)
        rec = product.ppde(x, 0.9, 0.2, 0.05, NoiseSource.zero(), m=m).diagnostics
        last = len(rec["B"])   # the final sweep releases every coordinate still active
        active = np.flatnonzero(rec["froze_in"] == last)
        half = len(active) // 2
        assert half >= rec["B"][-1] ** 2
        row = (last - 1) * m
        x[row, active[:half]] = 1
        y = replaced(x, row, 0)
        y[row, active[half:2 * half]] = 1
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


class TestConditionFreeSweep:
    """Each attempt of ``weak_ppc_no_bound`` releases the clamped moment at
    its kappa through ``sample_gue``, with the sigma of the sensitivity
    2 b^2 / n it declares; replacing one row moves that moment by at most it."""

    N, D = 20_000, 4
    RHO, BETA = 0.5, 0.05
    # floor above 40 d^3 = 2560 and ceiling 4x the top eigenvalue, 1e4: the
    # sweep runs ~70 attempts before kappa/2 reaches it
    INTERVAL = (3000.0, 4e4)

    def sweep(self, monkeypatch, rows):
        """Every attempt's (kappa, moment, sensitivity, sigma)."""
        moments, sigmas = [], []

        def moment_spy(frame, kappa, beta):
            got = covariance._clamped_moment(frame, kappa, beta)
            moments.append((kappa, beta, got[0].copy(), got[3]))
            return got

        def gue_spy(d, sigma, noise):
            sigmas.append(sigma)
            return sample_gue(d, sigma, noise)

        monkeypatch.setattr(covariance_unbounded, "_clamped_moment", moment_spy)
        monkeypatch.setattr(covariance_unbounded, "sample_gue", gue_spy)
        out = covariance_unbounded.weak_ppc_no_bound(
            rows, self.RHO, self.BETA, self.INTERVAL, NoiseSource.zero())
        assert out is not None and len(moments) == len(sigmas) > 1
        return [(*m, s) for m, s in zip(moments, sigmas)]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, 1e150, "duplicate"])
    def test_one_row_replaced(self, monkeypatch, value):
        x = NoiseSource(34).gaussian(1.0, size=(self.N, self.D)) * np.sqrt(
            [1.0, 50.0, 1e3, 1e4])
        y = replaced(x, 9, x[10] if value == "duplicate" else value)
        a, b = self.INTERVAL
        steps = math.ceil(math.log(2.0 * b / a) / math.log(1.0 / covariance_unbounded.SWEEP_SHRINK))
        firsts = []
        for rows in (x, y):
            attempts = self.sweep(monkeypatch, rows)
            for kappa, beta, _, delta_f, sigma in attempts:
                assert beta == self.BETA / steps
                assert delta_f == 2.0 * covariance.clamp_threshold_sq(
                    kappa, self.D, self.N, beta) / self.N
                assert sigma == gaussian_sigma(delta_f, self.RHO / steps)
            firsts.append(attempts[0])
        (_, _, mx, bound, _), (_, _, my, _, _) = firsts
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
