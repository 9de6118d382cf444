import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from privest.errors import InvalidInputError, InvalidParameterError
from privest.histogram import (_COUNT_BLOCK, HistogramResult, argmax_bucket,
                               histogram_zcdp, stable_histogram_approx_dp)
from privest.noise import NoiseSource


def searchsorted_histogram(data, lo, hi, rho, beta, noise):
    """Reference for histogram_zcdp: look each key up in the ascending
    universe np.arange(lo, hi) with searchsorted, then count positions."""
    data = np.asarray(data)
    keys = np.arange(lo, hi)
    n = len(data)
    pos = np.searchsorted(keys, data)
    assert (pos < keys.size).all() and (keys[pos] == data).all()
    sigma = (math.sqrt(2.0) / n) / math.sqrt(2.0 * rho)
    draws = noise.gaussian(sigma, size=keys.size)
    freqs = np.bincount(pos, minlength=keys.size) / n + draws
    bound = math.sqrt(2.0 * math.log(2.0 * keys.size / beta) / rho) / n * math.sqrt(2.0)
    return HistogramResult(keys=keys, freqs=freqs, n=n, accuracy_bound=bound)


def entries_of(h):
    """{key: frequency} of a HistogramResult in ascending key order (a row
    of frequencies per key for a column-wise vote)."""
    return dict(zip(h.keys.tolist(), h.freqs.T.tolist()))


def dict_argmax_bucket(entries, threshold):
    """Reference for argmax_bucket: the {key: frequency} dict turned into
    arrays with np.fromiter, then the masked max, smaller key on ties."""
    keys = np.fromiter(entries, dtype=np.int64)
    freqs = np.fromiter(entries.values(), dtype=float)
    top = freqs.max(initial=-np.inf, where=freqs >= threshold)
    return None if top == -np.inf else int(keys[freqs == top].min())


def result(entries):
    """A HistogramResult over the keys of ``entries`` in ascending order."""
    keys = sorted(entries)
    return HistogramResult(keys=np.array(keys, dtype=np.int64),
                           freqs=np.array([entries[k] for k in keys], dtype=float),
                           n=10)


class TestStableHistogram:
    def test_zero_noise_single_bucket(self):
        h = stable_histogram_approx_dp([3] * 50, 1.0, 1e-3, 0.05,
                                       NoiseSource.zero())
        assert entries_of(h) == {3: 1.0}

    def test_never_emits_absent_buckets(self):
        for seed in range(50):
            h = stable_histogram_approx_dp([1, 1, 2, 2, 2], 1.0, 0.1, 0.05,
                                           NoiseSource(seed))
            assert set(entries_of(h)) <= {1, 2}

    def test_accuracy_bound_formula(self):
        n, eps, delta, beta = 1000, 1.0, 1e-4, 0.05
        h = stable_histogram_approx_dp([0] * n, eps, delta, beta,
                                       NoiseSource.zero())
        want = 4.0 * math.log(2.0 * n / (delta * beta)) / (eps * n)
        assert h.accuracy_bound == pytest.approx(want, rel=1e-12)

    def test_delta_precondition(self):
        with pytest.raises(InvalidParameterError):
            stable_histogram_approx_dp([0] * 10, 1.0, 0.2, 0.05, NoiseSource(0))

    def test_accuracy_monte_carlo(self):
        # the l-infinity certificate should hold in well over 1-beta of runs
        n, eps, delta, beta = 2000, 1.0, 1e-4, 0.05
        rng = np.random.default_rng(0)
        data = list(rng.integers(0, 5, size=n))
        truth = {k: data.count(k) / n for k in range(5)}
        good = 0
        for seed in range(100):
            h = stable_histogram_approx_dp(data, eps, delta, beta,
                                           NoiseSource(seed))
            err = max(abs(entries_of(h).get(k, 0.0) - truth[k]) for k in range(5))
            good += err <= h.accuracy_bound
        assert good >= 95

    @pytest.mark.parametrize("data", [[None] * 100 + [1] * 100, [None],
                                      [1.0, 2.0], [True, False]])
    def test_non_integer_keys_rejected(self, data):
        with pytest.raises(InvalidInputError):
            stable_histogram_approx_dp(data, 1.0, 1e-3, 0.05,
                                       NoiseSource.zero())

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=-5, max_value=300), min_size=1,
                    max_size=60),
           st.integers(min_value=0, max_value=2**32))
    def test_matches_counting_loop(self, data, seed):
        # reference: count with a Counter, one scalar Laplace draw per
        # occurring key in ascending order, release at the threshold
        n, eps, delta, beta = len(data), 5.0, 0.5 / len(data), 0.05
        h = stable_histogram_approx_dp(np.array(data), eps, delta, beta,
                                       NoiseSource(seed))
        ref_noise = NoiseSource(seed)
        scale = 2.0 / (eps * n)
        threshold = 2.0 * math.log(2.0 * n / (delta * beta)) / (eps * n)
        counts = Counter(data)
        want = {}
        for k in sorted(counts):
            freq = counts[k] / n + float(ref_noise.laplace(scale))
            if freq >= threshold:
                want[k] = freq
        assert entries_of(h) == want
        assert list(entries_of(h)) == list(want)


class TestHistogramZcdp:
    def test_zero_noise_exact(self):
        h = histogram_zcdp([0, 0, 1, 2], 0, 4, 1.0, 0.05, NoiseSource.zero())
        assert entries_of(h)[0] == pytest.approx(0.5)
        assert entries_of(h)[1] == pytest.approx(0.25)
        assert entries_of(h)[3] == 0.0

    def test_zero_noise_frequencies_sum_to_one(self):
        data = [2, 2, 5, -1, 0, 0, 0]
        h = histogram_zcdp(data, -2, 7, 0.7, 0.1, NoiseSource.zero())
        assert abs(sum(entries_of(h).values()) - 1.0) < 1e-12

    def test_singleton_universe(self):
        h = histogram_zcdp([7, 7, 7], 7, 8, 1.0, 0.05, NoiseSource(0))
        assert len(entries_of(h)) == 1
        # 1.0 plus a single Gaussian draw
        assert abs(entries_of(h)[7] - 1.0) < 1.0

    def test_key_outside_universe(self):
        with pytest.raises(InvalidInputError, match=r"\[-3, 9\]"):
            histogram_zcdp([0, 9, -3, 9], 0, 2, 1.0, 0.05, NoiseSource(0))

    def test_reversed_range_rejected(self):
        with pytest.raises(InvalidInputError):
            histogram_zcdp([0], 1, 0, 1.0, 0.05, NoiseSource(0))

    def test_empty_data_or_universe_rejected(self):
        with pytest.raises(InvalidParameterError):
            histogram_zcdp([], 0, 2, 1.0, 0.05, NoiseSource(0))
        with pytest.raises(InvalidInputError):
            histogram_zcdp([0], 0, 0, 1.0, 0.05, NoiseSource(0))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1,
                    max_size=40),
           st.integers(min_value=0, max_value=2**32))
    def test_matches_counting_loop(self, data, seed):
        # reference: count each key with a loop over the ascending universe,
        # the i-th noise draw going to the i-th key
        universe = list(range(-5, 6))
        rho, n = 0.5, len(data)
        h = histogram_zcdp(np.array(data), -5, 6, rho, 0.05, NoiseSource(seed))
        sigma = (math.sqrt(2.0) / n) / math.sqrt(2.0 * rho)
        draws = NoiseSource(seed).gaussian(sigma, size=len(universe))
        want = {k: data.count(k) / n + float(draws[i])
                for i, k in enumerate(universe)}
        assert entries_of(h) == want
        assert list(entries_of(h)) == universe

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_searchsorted_reference(self, draw):
        dtype = draw.draw(st.sampled_from([np.int8, np.uint8, np.int16,
                                           np.int64]))
        lo = draw.draw(st.integers(min_value=-300, max_value=200))
        hi = lo + draw.draw(st.integers(min_value=1, max_value=300))
        info = np.iinfo(dtype)
        k_min, k_max = max(lo, int(info.min)), min(hi - 1, int(info.max))
        assume(k_min <= k_max)
        keys = draw.draw(st.lists(st.integers(k_min, k_max), min_size=1,
                                  max_size=60))
        data = np.array(keys, dtype=dtype)
        seed = draw.draw(st.integers(min_value=0, max_value=2**32))
        h = histogram_zcdp(data, lo, hi, 0.5, 0.05, NoiseSource(seed))
        want = searchsorted_histogram(data, lo, hi, 0.5, 0.05,
                                      NoiseSource(seed))
        assert entries_of(h) == entries_of(want)
        assert list(entries_of(h)) == list(entries_of(want))
        assert h.accuracy_bound == want.accuracy_bound

        with pytest.raises(InvalidInputError):
            histogram_zcdp(data.astype(float), lo, hi, 0.5, 0.05,
                           NoiseSource(seed))
        for bad in (lo - 1, hi):
            with pytest.raises(InvalidInputError):
                histogram_zcdp(np.append(data.astype(np.int64), bad), lo, hi,
                               0.5, 0.05, NoiseSource(seed))
        for empty_hi in (lo, lo - 1):
            with pytest.raises(InvalidInputError):
                histogram_zcdp(data, lo, empty_hi, 0.5, 0.05,
                               NoiseSource(seed))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_columns_match_one_vote_each(self, draw):
        # an (n, d) array votes on each column as d 1-d calls on one stream
        # would: same counts, the i-th block of draws going to column i
        dtype = draw.draw(st.sampled_from([np.int8, np.int64]))
        lo = draw.draw(st.integers(min_value=-100, max_value=100))
        hi = lo + draw.draw(st.integers(min_value=1, max_value=20))
        k_min, k_max = max(lo, -128), min(hi - 1, 127)
        assume(k_min <= k_max)
        n = draw.draw(st.integers(min_value=1, max_value=30))
        d = draw.draw(st.integers(min_value=1, max_value=5))
        keys = draw.draw(st.lists(st.integers(k_min, k_max), min_size=n * d,
                                  max_size=n * d))
        data = np.array(keys, dtype=dtype).reshape(n, d)
        seed = draw.draw(st.integers(min_value=0, max_value=2**32))
        h = histogram_zcdp(data, lo, hi, 0.5, 0.05, NoiseSource(seed))
        ref = NoiseSource(seed)
        assert h.keys.tolist() == list(range(lo, hi))
        assert h.freqs.shape == (d, hi - lo)
        for j in range(d):
            col = histogram_zcdp(data[:, j], lo, hi, 0.5, 0.05, ref)
            assert h.freqs[j].tolist() == col.freqs.tolist()
            assert h.accuracy_bound == col.accuracy_bound

        bad = data.astype(np.int64)
        bad[n - 1, d - 1] = hi
        with pytest.raises(InvalidInputError, match=rf"\[{hi}\]"):
            histogram_zcdp(bad, lo, hi, 0.5, 0.05, NoiseSource(seed))
        with pytest.raises(InvalidInputError):
            histogram_zcdp(data[:, :, None], lo, hi, 0.5, 0.05,
                           NoiseSource(seed))

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64])
    @pytest.mark.parametrize("d", [None, 5])
    def test_block_counts_match_references(self, dtype, d):
        # keys spanning at least three counting blocks, one column or (n, d),
        # against the searchsorted reference (column j: one call on the same
        # stream), with a negative lo and the out-of-range error intact
        lo, hi = -3, 120
        info = np.iinfo(dtype)
        k_min, k_max = max(lo, int(info.min)), min(hi - 1, int(info.max))
        n = 3 * _COUNT_BLOCK // (d or 1) + 11
        shape = (n,) if d is None else (n, d)
        data = np.random.default_rng(n).integers(k_min, k_max + 1, size=shape,
                                                 dtype=dtype)
        h = histogram_zcdp(data, lo, hi, 0.5, 0.05, NoiseSource(4))
        ref = NoiseSource(4)
        cols = [data] if d is None else [data[:, j] for j in range(d)]
        want = [searchsorted_histogram(c, lo, hi, 0.5, 0.05, ref) for c in cols]
        assert h.keys.tolist() == list(range(lo, hi))
        assert np.array_equal(h.freqs, want[0].freqs if d is None else
                              np.stack([w.freqs for w in want]))
        assert h.accuracy_bound == want[0].accuracy_bound
        assert h.n == n

        bad = data.astype(np.int64)
        bad.flat[-1] = hi
        with pytest.raises(InvalidInputError, match=rf"\[{hi}\]"):
            histogram_zcdp(bad, lo, hi, 0.5, 0.05, NoiseSource(4))

    def test_sensitivity_worst_case(self):
        # moving one key to either end of the range moves one count from one
        # bucket to another: the released frequencies move by sqrt(2)/n in
        # l2, exactly (n is a power of two, so every frequency is exact)
        data = np.array([3, 1, 1, 2, 5, 4, 4, 6])
        lo, hi, n = -2, 9, len(data)

        def freqs(keys):
            return histogram_zcdp(keys, lo, hi, 1.0, 0.05, NoiseSource.zero()).freqs

        for end in (lo, hi - 1):
            moved = data.copy()
            moved[0] = end
            assert np.linalg.norm(freqs(moved) - freqs(data)) == math.sqrt(2.0) / n

    @pytest.mark.parametrize("shape", [(40,), (40, 6)],
                             ids=["one-column", "flip-vote-keys"])
    def test_neighbouring_inputs_move_each_column_by_sqrt2_over_n(self,
                                                                  shape):
        # the flip vote's release, on int8 0/1 keys: replace row i with its
        # complement, with a duplicate of row j, or with itself
        rng = np.random.default_rng(12)
        x = rng.integers(0, 2, size=shape).astype(np.int8)
        n = shape[0]
        bound = math.sqrt(2.0) / n

        def freqs(keys):
            h = histogram_zcdp(keys, 0, 2, 0.5, 0.05, NoiseSource.zero())
            return h.freqs.reshape(-1, 2)  # one row of frequencies per column

        base = freqs(x)
        for i, j in [(0, 1), (7, 3), (n - 1, 0), (5, 5)]:
            for new in (1 - x[i], x[j], x[i]):
                y = x.copy()
                y[i] = new
                moved = np.linalg.norm(freqs(y) - base, axis=1)
                changed = np.atleast_1d(y[i] != x[i])
                assert np.all(moved <= bound * (1 + 1e-12))
                assert np.allclose(moved[changed], bound, rtol=1e-12)
                assert np.all(moved[~changed] == 0.0)

    def test_accuracy_monte_carlo(self):
        n, rho, beta = 2000, 0.5, 0.05
        universe = list(range(40))
        rng = np.random.default_rng(1)
        data = list(rng.integers(0, 40, size=n))
        truth = {k: data.count(k) / n for k in universe}
        good = 0
        for seed in range(200):
            h = histogram_zcdp(data, 0, 40, rho, beta, NoiseSource(seed))
            err = max(abs(entries_of(h)[k] - truth[k]) for k in universe)
            good += err <= h.accuracy_bound
        assert good >= 0.95 * 200


class TestArgmaxBucket:
    def test_clear_winner(self):
        assert argmax_bucket(result({2: 0.6, 5: 0.1}), 0.25) == 2

    def test_below_threshold(self):
        assert argmax_bucket(result({2: 0.2}), 0.25) is None

    def test_tie_breaks_to_smaller_index(self):
        assert argmax_bucket(result({4: 0.3, 1: 0.3}), 0.25) == 1

    def test_empty(self):
        assert argmax_bucket(result({}), 0.1) is None

    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(st.integers(min_value=-50, max_value=50),
                           st.floats(min_value=0, max_value=1), max_size=10),
           st.floats(min_value=0.01, max_value=0.9))
    def test_matches_reference(self, entries, threshold):
        got = argmax_bucket(result(entries), threshold)
        eligible = {k: v for k, v in entries.items() if v >= threshold}
        if not eligible:
            assert got is None
        else:
            best = max(eligible.values())
            assert got == min(k for k, v in eligible.items() if v == best)

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.integers(min_value=-300, max_value=300),
                           st.sampled_from([-0.5, 0.0, 0.1, 0.25, 0.3, 0.7]),
                           max_size=12),
           st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5, 0.8]))
    def test_matches_dict_reference(self, entries, threshold):
        # few distinct frequencies, so ties and "nothing clears" are common;
        # keys may be negative and the dict may be empty
        assert argmax_bucket(result(entries), threshold) \
            == dict_argmax_bucket(entries, threshold)


class TestArrayResult:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=-50, max_value=50),
           st.integers(min_value=1, max_value=30),
           st.integers(min_value=0, max_value=2**32))
    def test_entries_view_matches_arrays(self, lo, size, seed):
        hi = lo + size
        data = np.random.default_rng(seed).integers(lo, hi, size=25)
        h = histogram_zcdp(data, lo, hi, 0.5, 0.05, NoiseSource(seed))
        assert h.keys.tolist() == list(range(lo, hi))
        assert h.freqs.shape == (size,)
        assert entries_of(h) == dict(zip(range(lo, hi), h.freqs.tolist()))
        assert list(entries_of(h)) == list(range(lo, hi))

    def test_stable_histogram_keeps_aligned_arrays(self):
        # key 1 occurs once, below the release threshold (~0.04)
        data = np.array([5] * 400 + [-2] * 300 + [9] * 300 + [1])
        h = stable_histogram_approx_dp(data, 1.0, 1e-4, 0.05,
                                       NoiseSource.zero())
        assert h.keys.tolist() == [-2, 5, 9]
        assert h.freqs.tolist() == [300 / 1001, 400 / 1001, 300 / 1001]
        assert entries_of(h) == {-2: 300 / 1001, 5: 400 / 1001, 9: 300 / 1001}
