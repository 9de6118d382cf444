import math
import tracemalloc
import warnings
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privest.errors import (EmptyInputError, InsufficientSamplesError,
                            InvalidParameterError, PrivestError)
from privest.harness import learn_product_flip_heavy
from privest.metrics import tv_product_exact
from privest.noise import NoiseSource
from privest.product import (_BLOCK, TAU_1, U_1, ProductModel, num_rounds,
                             ppde, required_block_size, sample_product, tmean)

Round = namedtuple("Round", "round active frozen u tau B rows")


def rounds_of(model):
    """Each round ppde ran, rebuilt from its record: round r's active
    coordinates froze in round r or later, its frozen ones in round r."""
    rec = model.diagnostics
    m, froze_in = rec["m"], rec["froze_in"]
    return [Round(round=r, active=np.flatnonzero(froze_in >= r).tolist(),
                  frozen=np.flatnonzero(froze_in == r).tolist(),
                  u=U_1 * 2.0 ** (1 - r), tau=TAU_1 * 2.0 ** (1 - r), B=b,
                  rows=((r - 1) * m, r * m))
            for r, b in enumerate(rec["B"].tolist(), start=1)]


def trunc(x, B):
    """Reference for one row of tmean: project x onto the l2-ball of radius
    B (identity inside the ball); a negative or NaN B is rejected."""
    if not B >= 0:
        raise InvalidParameterError(f"B must be >= 0, got {B}")
    x = np.asarray(x, dtype=float)
    norm = float(np.linalg.norm(x))
    if norm <= B or norm == 0.0:
        return x.copy()
    return (B / norm) * x


def whole_block_tmean(x, b):
    """tmean before it streamed its rows: whole-array float copies."""
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        scale = np.fmin(1.0, b / np.linalg.norm(x, axis=1))
        return (x * scale[:, None]).mean(axis=0)


class TestTrunc:
    def test_inside_ball_unchanged(self):
        x = np.array([0.3, 0.4])
        assert np.array_equal(trunc(x, 1.0), x)

    def test_known_projection(self):
        out = trunc(np.ones(4), 1.0)
        assert np.allclose(out, np.full(4, 0.5))

    def test_direction_preserved(self):
        x = np.array([3.0, 4.0])
        out = trunc(x, 1.0)
        assert np.allclose(out / np.linalg.norm(out),
                           x / np.linalg.norm(x))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1,
                    max_size=6),
           st.floats(min_value=0.0, max_value=5.0))
    def test_idempotent_and_bounded(self, vals, b):
        x = np.array(vals)
        once = trunc(x, b)
        assert np.linalg.norm(once) <= b + 1e-9
        assert np.allclose(trunc(once, b), once, atol=1e-12)

    def test_negative_radius(self):
        with pytest.raises(InvalidParameterError):
            trunc(np.ones(2), -1.0)
        with pytest.raises(InvalidParameterError):
            trunc(np.ones(2), math.nan)


class TestTmean:
    def test_plain_mean_when_inside(self):
        x = np.array([[0.1, 0.2], [0.3, 0.0]])
        assert np.allclose(tmean(x, 10.0), x.mean(axis=0))

    def test_single_zero_row(self):
        assert np.array_equal(tmean(np.zeros((1, 3)), 1.0), np.zeros(3))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            tmean(np.zeros((0, 2)), 1.0)

    def test_negative_radius(self):
        for b in (-1.0, -1e-300, -math.inf, math.nan):
            with pytest.raises(InvalidParameterError):
                tmean(np.eye(2), b)

    @staticmethod
    def masked_reference(x, b):
        # the masked np.where/np.divide form tmean used to compute its scale
        x = np.asarray(x, dtype=float)
        norms = np.linalg.norm(x, axis=1)
        scale = np.where(norms > b, np.divide(b, norms, out=np.ones_like(norms),
                                              where=norms > 0), 1.0)
        return (x * scale[:, None]).mean(axis=0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(
               st.one_of(st.sampled_from([0.0, math.nan, math.inf, -math.inf,
                                          5e-324, 1e300]),
                         st.floats(min_value=-10, max_value=10)),
               min_size=3, max_size=3), min_size=1, max_size=6),
           st.sampled_from([0.0, 1e-300, 1.5, math.inf]))
    def test_matches_masked_reference(self, rows, b):
        x = np.array(rows)
        with np.errstate(all="ignore"):
            want = self.masked_reference(x, b)
            got = tmean(x, b)
        assert np.array_equal(got, want, equal_nan=True)

    def test_matches_per_row_reference(self):
        rng = np.random.default_rng(11)
        for b in (0.0, 0.5, 2.0, math.inf):
            x = rng.normal(size=(50, 4)) * rng.choice([0.1, 1.0, 10.0],
                                                      size=(50, 1))
            want = np.mean([trunc(row, b) for row in x], axis=0)
            assert np.allclose(tmean(x, b), want, rtol=1e-12, atol=1e-15)

    DIMS = [1, 2, 12, _BLOCK + 5]
    SIZES = ["one", "block-1", "block", "block+1", "blocks"]
    RADII = [0.0, 1e-300, 1.5, math.inf]

    @staticmethod
    def rows(d, size, dtype, seed, specials):
        # m at one row, at the block's row count and one either side of it,
        # and at several blocks plus a remainder; past the block size in d,
        # each block is one row
        step = max(1, _BLOCK // d)
        m = {"one": 1, "block-1": max(1, step - 1), "block": step,
             "block+1": step + 1, "blocks": 3 * step + 2}[size]
        rng = np.random.default_rng(seed)
        if dtype is not float:
            lo = 0 if dtype is bool else -2
            return rng.integers(lo, 2, size=(m, d)).astype(dtype)
        x = rng.normal(size=(m, d)) * rng.choice([1e-3, 1.0, 1e5], size=(m, 1))
        for value, row in zip(specials, rng.integers(0, m, size=len(specials))):
            x[row] = value
        return x

    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("size", SIZES)
    def test_every_block_boundary_matches_whole_block_formula(self, d, size):
        for specials in ([], [1e300], [-math.inf], [math.nan]):
            x = self.rows(d, size, float, d, specials)
            for b in self.RADII:
                assert np.array_equal(tmean(x, b), whole_block_tmean(x, b),
                                      equal_nan=True)

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(DIMS), st.sampled_from(SIZES),
           st.sampled_from([bool, np.int8, float]),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.lists(st.sampled_from([math.nan, math.inf, -math.inf, 1e300]),
                    max_size=3),
           st.sampled_from(RADII))
    def test_streamed_blocks_match_whole_block_formula(
            self, d, size, dtype, seed, specials, b):
        x = self.rows(d, size, dtype, seed, specials)
        assert np.array_equal(tmean(x, b), whole_block_tmean(x, b),
                              equal_nan=True)

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from([np.int8, bool, float]), st.sampled_from([1, 3, 12, 40]),
           st.data(), st.sampled_from(RADII))
    def test_column_selection_equals_the_sliced_call(self, dtype, d, data, b):
        # ppde reads each round's active columns through cols, in place
        cols = data.draw(st.lists(st.integers(0, d - 1), min_size=1, unique=True).map(sorted))
        step = max(1, _BLOCK // len(cols))  # the gathered block's row count
        m = data.draw(st.sampled_from([1, max(1, step - 1), step, step + 1, 2 * step + 3]))
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        x = np.random.default_rng(seed).integers(0, 2, size=(m, d)).astype(dtype)
        want = tmean(x[:, cols], b)
        assert np.array_equal(tmean(x, b, np.array(cols)), want)
        assert np.array_equal(tmean(x, b, cols), want)
        assert np.array_equal(tmean(x, b, None), whole_block_tmean(x, b))

    def test_column_selection_is_checked_like_the_sliced_call(self):
        x = np.ones((4, 3), np.int8)
        with pytest.raises(InvalidParameterError):
            tmean(x, 1.0, np.array([], dtype=np.intp))
        with pytest.raises(IndexError):
            tmean(x, 1.0, [3])

    @pytest.mark.parametrize("m", [7, 8, 9, 127, 128, 129, 2 * 128 + 8,
                                   _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7,
                                   5 * _BLOCK + 9])
    def test_one_column_equals_the_whole_column_sum(self, m):
        # one column is summed a leaf of at most _BLOCK rows at a time, split
        # where numpy's pairwise sum splits (halves rounded down to a multiple
        # of 8), so it is the whole column's sum bit for bit, signed zeros too
        rng = np.random.default_rng(m)
        columns = [(rng.random((m, 1)) < 0.3).astype(np.int8), rng.random((m, 1)) < 0.6,
                   rng.normal(size=(m, 1)) * np.exp(5.0 * rng.normal(size=(m, 1))),
                   np.full((m, 1), -0.0)]
        for x in columns:
            for b in (0.0, 0.3, 1.0, 7.5, math.inf):
                assert tmean(x, b).tobytes() == whole_block_tmean(x, b).tobytes()
                wide = np.repeat(x, 3, axis=1)
                assert tmean(wide, b, [1]).tobytes() == whole_block_tmean(x, b).tobytes()

    @pytest.mark.parametrize("m", [160_000, 640_000])
    def test_one_column_peak_memory(self, m):
        # ppde sums one column whenever one coordinate is left active; its
        # truncated values pass through the one _BLOCK-row buffer
        x = (np.random.default_rng(1).random((m, 1)) < 0.3).astype(np.int8)
        tracemalloc.start()
        try:
            tmean(x, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * 2**20

    def test_sensitivity_adversarial_pairs(self):
        # replacing one row moves tmean by <= 2B/m in general; for 0/1-valued
        # rows (nonnegative orthant) the worst case is sqrt(2)*B/m
        rng = np.random.default_rng(0)
        m, d, b = 10, 4, 1.5
        worst_general = 0.0
        for _ in range(300):
            x = rng.normal(size=(m, d)) * rng.choice([0.2, 1.0, 5.0])
            y = x.copy()
            y[0] = rng.normal(size=d) * rng.choice([0.2, 1.0, 5.0])
            change = np.linalg.norm(tmean(x, b) - tmean(y, b))
            worst_general = max(worst_general, change)
            assert change <= 2.0 * b / m + 1e-12
        # the opposing pair achieves 2B/m exactly
        x = np.zeros((m, d))
        x[0, 0] = b
        y = x.copy()
        y[0, 0] = -b
        assert np.linalg.norm(tmean(x, b) - tmean(y, b)) == \
            pytest.approx(2.0 * b / m)
        # binary rows stay under sqrt(2)*B/m
        bb = 1.0
        worst_binary = 0.0
        for _ in range(300):
            x = rng.integers(0, 2, size=(m, d)).astype(float)
            y = x.copy()
            y[0] = rng.integers(0, 2, size=d)
            worst_binary = max(worst_binary,
                               np.linalg.norm(tmean(x, bb) - tmean(y, bb)))
        assert worst_binary <= math.sqrt(2.0) * bb / m + 1e-12


class TestProductModel:
    def test_valid(self):
        m = ProductModel(p=[0.0, 0.5, 1.0])
        assert m.dim == 3

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            ProductModel(p=[0.5, 1.2])

    def test_rejects_nan(self):
        with pytest.raises(InvalidParameterError):
            ProductModel(p=[np.nan, 0.1])

    def test_models_compare_by_identity(self):
        # a generated == would compare the p arrays and raise numpy's "truth
        # value of an array ... is ambiguous" at d >= 2
        a, b = ProductModel(p=[0.1, 0.2]), ProductModel(p=[0.1, 0.2])
        assert a == a and a != b

    def test_sampling_frequencies(self):
        model = ProductModel(p=[0.1, 0.7])
        x = sample_product(model, 50_000, NoiseSource(1))
        assert set(np.unique(x)) <= {0, 1}
        assert np.all(np.abs(x.mean(axis=0) - model.p) < 0.01)

    @pytest.mark.parametrize("d", [1, 12, 300])
    def test_chunked_draws_match_one_shot_reference(self, d):
        # the chunks read the stream one (n, d) draw reads, and leave it at
        # the same position
        step = _BLOCK // d
        p = np.random.default_rng(d).uniform(size=d)
        p[0], p[-1] = 0.0, 1.0
        model = ProductModel(p)
        for n in (0, 1, 3 * step, 2 * step + 7):
            got_src, ref_src = NoiseSource(d + n), NoiseSource(d + n)
            got = sample_product(model, n, got_src)
            want = (ref_src.uniform(size=(n, d)) < p).astype(np.int8)
            assert got.dtype == np.int8 and got.shape == (n, d)
            assert np.array_equal(got, want)
            assert got_src.uniform() == ref_src.uniform()


class TestRounds:
    def test_num_rounds(self):
        assert num_rounds(2) == 1
        assert num_rounds(4) == 1
        assert num_rounds(8) == 2
        assert num_rounds(12) == 3
        assert num_rounds(64) == 5

    def test_required_block_size_is_conservative(self):
        # the analysis constant is astronomically larger than desk scale
        assert required_block_size(12, 1.0, 0.15, 0.05, 3) > 1_000_000

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    @pytest.mark.parametrize("rho", [0.01, 1.0, 8.0, 100.0])
    def test_required_block_size_is_a_positive_int(self, d, rho):
        # where alpha*beta*sqrt(2 rho) > d the privacy term's log is negative,
        # and a negative number to the power 1.25 is complex
        for alpha in (0.1, 0.5, 0.9):
            for beta in (0.1, 0.5, 0.9):
                m = required_block_size(d, rho, alpha, beta, num_rounds(d))
                assert isinstance(m, int) and m >= 1

    def test_ppde_default_block_size_where_privacy_term_vanishes(self):
        # d = 1, alpha*beta*sqrt(2 rho) = 1.2 (privest learn-product --d 1 --rho 8
        # --alpha 0.5 --beta 0.6): only the sampling term is left
        m = required_block_size(1, 8.0, 0.5, 0.6, num_rounds(1))
        assert m == math.ceil(128.0 * math.log(1 / 0.6) ** 3 / 0.5 ** 2)
        x = sample_product(ProductModel(p=[0.3]), 1000, NoiseSource(1))
        est = ppde(x, 8.0, 0.5, 0.6, NoiseSource(2))
        assert rounds_of(est)[0].rows == (0, m)
        assert 0.0 <= est.p[0] <= 1.0


class TestPpde:
    def test_threshold_logic_small(self):
        # d=2, p=(0.4, 0.01): round 1 freezes coordinate 0 (0.4 >= 3/16),
        # coordinate 1 descends to the final round
        model = ProductModel(p=[0.4, 0.01])
        x = sample_product(model, 40_000, NoiseSource(2))
        est = ppde(x, 1.0, 0.2, 0.05, NoiseSource.zero(), m=20_000)
        r1 = rounds_of(est)[0]
        assert r1.frozen == [0]
        assert r1.tau == pytest.approx(3.0 / 16.0)
        assert est.p[0] == pytest.approx(0.4, abs=0.02)
        assert est.p[1] == pytest.approx(0.01, abs=0.005)
        final = rounds_of(est)[-1]
        assert final.active == [1]

    def test_noise_calibrated_to_binary_sensitivity(self):
        # for 0/1 rows, replacing one row moves tmean by up to sqrt(2)*B/m
        # (TestTmean), so each round's Gaussian mechanism at rho must draw
        # std sqrt(2)*B/(m*sqrt(2*rho))
        class Recording(NoiseSource):
            def gaussian(self, std, size=None):
                stds.append(std)
                return super().gaussian(std, size)

        stds = []
        rho, m = 0.3, 500
        model = ProductModel(p=[0.4, 0.3, 0.1, 0.05, 0.02, 0.01, 0.2, 0.01])
        x = sample_product(model, 3 * m, NoiseSource(9))
        rounds = rounds_of(ppde(x, rho, 0.2, 0.05, Recording(10), m=m))
        assert len(rounds) == len(stds) >= 2
        for r, std in zip(rounds, stds):
            sensitivity = math.sqrt(2.0) * r.B / m
            assert std == pytest.approx(sensitivity / math.sqrt(2.0 * rho),
                                        rel=1e-12)

    def test_all_zero_data(self):
        x = np.zeros((200, 4), dtype=int)
        est = ppde(x, 1.0, 0.2, 0.05, NoiseSource.zero(), m=50)
        assert np.array_equal(est.p, np.zeros(4))

    def test_rejects_non_binary(self):
        for bad in (0.5, 2, -1, math.nan, math.inf):
            x = np.zeros((10, 2))
            x[3, 1] = bad
            with pytest.raises(InvalidParameterError):
                ppde(x, 1.0, 0.2, 0.05, NoiseSource(0), m=5)

    @pytest.mark.parametrize("dtype, values", [
        (np.int8, [1, 2, -1, 127, -128]), (np.uint8, [1, 2, 255]),
        (np.int64, [1, 2, -1]), (float, [1.0, -0.0, 0.5, math.nan]),
        (bool, [True])])
    def test_binary_check_accepts_what_the_float_check_did(self, dtype,
                                                           values):
        # integers are checked by min/max in their own dtype and bools not
        # at all; the accepted set is still ((x == 0) | (x == 1)).all()
        for v in values:
            x = np.zeros((10, 2), dtype=dtype)
            x[3, 1] = v
            if ((x == 0) | (x == 1)).all():
                ppde(x, 1.0, 0.2, 0.05, NoiseSource(0), m=5)
            else:
                with pytest.raises(InvalidParameterError):
                    ppde(x, 1.0, 0.2, 0.05, NoiseSource(0), m=5)
        # no rows: the check passes and the block count fails, as before
        with pytest.raises(InsufficientSamplesError):
            ppde(np.zeros((0, 2), dtype=dtype), 1.0, 0.2, 0.05,
                 NoiseSource(0), m=5)

    def test_accepts_bool_and_float_bits(self):
        bits = sample_product(ProductModel(p=[0.3, 0.6]), 40, NoiseSource(4))
        want = ppde(bits, 1.0, 0.2, 0.05, NoiseSource(0), m=5).p
        for x in (bits.astype(bool), bits.astype(float)):
            got = ppde(x, 1.0, 0.2, 0.05, NoiseSource(0), m=5).p
            assert np.array_equal(got, want)

    def test_rejects_block_size_below_one(self):
        class NoDraws(NoiseSource):
            def gaussian(self, std, size=None):
                raise AssertionError("noise drawn before m was checked")

        x = np.zeros((10, 2), dtype=int)
        for m in (0, -5):
            with pytest.raises(InvalidParameterError):
                ppde(x, 1.0, 0.2, 0.05, NoDraws(0), m=m)

    def test_block_size_must_be_an_integer(self):
        x = np.zeros((400, 2), dtype=int)
        for m in (2.5, 100.0):
            with pytest.raises(InvalidParameterError, match="integer"):
                ppde(x, 1.0, 0.2, 0.05, NoiseSource(0), m=m)
        got = ppde(x, 1.0, 0.2, 0.05, NoiseSource(0), m=np.int64(100)).p
        assert got.tolist() == ppde(x, 1.0, 0.2, 0.05, NoiseSource(0), m=100).p.tolist()

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            ppde(np.zeros((10, 8), dtype=int), 1.0, 0.2, 0.05, NoiseSource(0),
                 m=100)

    def test_disjoint_blocks(self):
        # every row index is read by exactly one round
        model = ProductModel(p=[0.4, 0.1, 0.05, 0.3, 0.02, 0.25, 0.15, 0.01])
        x = sample_product(model, 6000, NoiseSource(3))
        seen = [r.rows for r in rounds_of(ppde(x, 1.0, 0.2, 0.05, NoiseSource(4), m=1500))]
        starts = [a for a, _ in seen]
        stops = [b for _, b in seen]
        assert starts == sorted(starts)
        for (a1, b1), (a2, b2) in zip(seen, seen[1:]):
            assert b1 <= a2  # no overlap
        assert max(stops) <= x.shape[0]

    def test_state_transitions(self):
        model = ProductModel(p=[0.3] * 16)
        x = sample_product(model, 5000, NoiseSource(5))
        rounds = rounds_of(ppde(x, 1.0, 0.2, 0.05, NoiseSource(6), m=1000))
        partition_rounds = rounds[:-1] if rounds[-1].frozen == rounds[-1].active else rounds
        for prev, cur in zip(partition_rounds, partition_rounds[1:]):
            assert cur.u == pytest.approx(prev.u / 2.0)
            assert cur.tau == pytest.approx(prev.tau / 2.0)
            assert set(cur.active) <= set(prev.active)
        for r in partition_rounds:
            # tau_r = (3/4) * u_{r+1} at every round
            assert r.tau == pytest.approx(0.75 * (r.u / 2.0))

    def test_output_in_unit_cube_every_seed(self):
        model = ProductModel(p=[0.4, 0.05, 0.2, 0.01])
        x = sample_product(model, 400, NoiseSource(7))
        for seed in range(30):
            est = ppde(x, 0.5, 0.3, 0.1, NoiseSource(seed), m=80)
            assert np.all(est.p >= 0.0) and np.all(est.p <= 1.0)

    def test_frozen_chi2_zero_noise_exact_means(self):
        # with zero noise and population means injected as data, frozen
        # coordinates carry their exact mean: the chi-squared gap is 0
        p = np.array([0.4, 0.3, 0.25, 0.2])
        # build a block whose empirical mean is exactly p
        m = 20
        x = np.zeros((m * 4, 4), dtype=int)
        for j, pj in enumerate(p):
            k = int(round(pj * m * 4))
            x[:k, j] = 1
        rng = np.random.default_rng(8)
        for j in range(4):
            rng.shuffle(x[:, j])
        est = ppde(x, 1.0, 0.2, 0.05, NoiseSource.zero(), m=40)
        assert np.allclose(np.sort(est.p), np.sort(p), atol=0.1)

    def test_accuracy_mixed_bias(self):
        # d=12 mixed-bias model at desk-scale m; quick 5-seed version of the
        # acceptance sweep
        d = 12
        p = np.array([0.4] * 4 + [0.05] * 4 + [1.0 / d] * 4)
        model = ProductModel(p=p)
        good = 0
        for seed in range(5):
            x = sample_product(model, 80_000, NoiseSource(900 + seed))
            est = ppde(x, 1.0, 0.15, 0.05, NoiseSource(seed), m=20_000)
            good += tv_product_exact(p, est.p) <= 0.15
        assert good >= 4


def bernoulli_rows(p, blocks, m, seed):
    rng = np.random.default_rng(seed)
    return (rng.random((blocks * m, len(p))) < np.asarray(p)).astype(np.int8)


class TestPpdeRoundLoop:
    """Zero-noise q and round records pinned for each way the loop ends."""

    @pytest.mark.parametrize("p, seed, q, rounds", [
        # every coordinate clears tau in round 1: no round reads block 2
        ([0.5, 0.45, 0.6, 0.4], 1, [0.48, 0.46, 0.56, 0.4], [
            Round(round=1, active=[0, 1, 2, 3], frozen=[0, 1, 2, 3], u=0.5,
                  tau=0.1875, B=9.104562776310878, rows=(0, 50))]),
        # d = 8 allows 2 rounds; one coordinate is left, and u * 1 < 1 ends
        # the partitioning before round 2
        ([0.4, 0.3, 0.5, 0.25, 0.35, 0.45, 0.3, 0.02], 2,
         [0.4, 0.44, 0.54, 0.26, 0.38, 0.48, 0.28, 0.02], [
            Round(round=1, active=[0, 1, 2, 3, 4, 5, 6, 7],
                  frozen=[0, 1, 2, 3, 4, 5, 6], u=0.5, tau=0.1875,
                  B=13.506356245450139, rows=(0, 50)),
            Round(round=2, active=[7], frozen=[7], u=0.25,
                  tau=0.09375, B=6.4378980788680416, rows=(50, 100))]),
        # nothing freezes and d = 4 allows one round: r > r_max ends it
        ([0.05, 0.02, 0.1, 0.01], 3, [0.14, 0.02, 0.12, 0.0], [
            Round(round=1, active=[0, 1, 2, 3], frozen=[],
                  u=0.5, tau=0.1875, B=9.104562776310878, rows=(0, 50)),
            Round(round=2, active=[0, 1, 2, 3], frozen=[0, 1, 2, 3], u=0.25,
                  tau=0.09375, B=6.4378980788680416, rows=(50, 100))]),
    ], ids=["all-frozen", "u-times-active-below-1", "rounds-exhausted"])
    def test_pinned_rounds(self, p, seed, q, rounds):
        est = ppde(bernoulli_rows(p, 3, 50, seed), 1.0, 0.2, 0.05,
                   NoiseSource.zero(), m=50)
        assert est.p.tolist() == q
        assert rounds_of(est) == rounds
        rec = est.diagnostics
        assert rec["m"] == 50 and est.budget_spent.rho == 1.0
        assert rec["froze_in"].dtype.kind == "i" and rec["froze_in"].shape == (len(p),)
        assert rec["B"].dtype == float and rec["B"].shape == (len(rounds),)


class TestBadRows:
    """Both product learners on rows that are not 0/1: NaN, +-inf, 2, -1 or
    0.5 in row 7 or in every tenth row, as float rows and, where the value
    fits, as int8 rows.  Each case raises a library error before any draw."""

    LEARNERS = {"ppde": ppde, "flip-heavy": learn_product_flip_heavy}
    M = 200
    CASES = [(dtype, value, where) for value in (math.nan, math.inf, -math.inf, 2, -1, 0.5)
             for dtype in (np.float64, np.int8) if dtype is np.float64 or value in (2, -1)
             for where in ("row 7", "every tenth row")]

    @pytest.mark.parametrize("learner", sorted(LEARNERS))
    @pytest.mark.parametrize("dtype, value, where", CASES)
    def test_raises_before_any_draw(self, learner, dtype, value, where):
        x = bernoulli_rows([0.9, 0.1, 0.4, 0.6], 3, self.M, 3).astype(dtype)
        x[7 if where == "row 7" else slice(None, None, 10), 1] = value
        noise = NoiseSource(9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PrivestError):
                self.LEARNERS[learner](x, 1.0, 0.1, 0.05, noise, m=self.M)
        assert noise.gaussian(1.0) == NoiseSource(9).gaussian(1.0)
