"""The product path against a frozen reference.

``reference_tmean`` and ``reference_ppde`` are ``tmean`` and ``ppde`` as
they stood before their per-call overhead was cut: the truncated sum
reduced each block into the buffer row it read from, and every round
gathered its active columns by fancy indexing.  Both are kept verbatim
(but for names) so any later change to the product path must reproduce
them bit for bit: the same model, the same record and the same position
of the noise stream afterwards.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from privest.errors import EmptyInputError, InvalidParameterError, check_samples
from privest.noise import NoiseSource
from privest.privacy import gaussian_mechanism_vector
from privest.product import (_BLOCK, TAU_1, U_1, check_input, num_rounds, ppde,
                             required_block_size, tmean)


def reference_tmean(x, B, cols=None):
    if not B >= 0:
        raise InvalidParameterError(f"B must be >= 0, got {B}")
    x = check_samples(np.asarray(x))
    cols = slice(None) if cols is None else cols
    m, d = len(x), check_samples(x[:0, cols]).shape[1]
    if m == 0:
        raise EmptyInputError("tmean of zero rows")
    step = max(1, _BLOCK // d)
    buf = np.empty((min(step, m) + 1, d))
    with np.errstate(all="ignore"):
        if d == 1:
            return _reference_column_sum(x, cols, B, buf, 0, m) / m
        for start in range(0, m, step):
            lo = 1 if start else 0
            rows = _reference_truncated(x, cols, B, buf[lo: lo + min(step, m - start)], start)
            np.add.reduce(buf[:lo + len(rows)], axis=0, out=buf[0])
    return buf[0] / m


def _reference_truncated(x, cols, B, rows, start):
    rows[...] = x[start: start + len(rows), cols]
    rows *= np.fmin(1.0, B / np.sqrt(np.add.reduce(rows * rows, axis=1)))[:, None]
    return rows


def _reference_column_sum(x, cols, B, buf, start, count):
    if count < len(buf):
        return np.add.reduce(_reference_truncated(x, cols, B, buf[:count], start), axis=0)
    half = count // 2 - count // 2 % 8
    return (_reference_column_sum(x, cols, B, buf, start, half)
            + _reference_column_sum(x, cols, B, buf, start + half, count - half))


def reference_ppde(x, rho, alpha, beta, noise, m=None):
    """(p, froze_in, B) as ``ppde`` computed them."""
    x = check_input(x, rho, alpha, beta, m)
    n, d = x.shape
    r_max = num_rounds(d)
    if m is None:
        m = required_block_size(d, rho, alpha, beta, r_max)
    q, froze_in = np.zeros(d), np.zeros(d, dtype=np.intp)
    active = np.arange(d)
    u, tau, radii = U_1, TAU_1, []
    for r in range(1, r_max + 2):
        if len(active) == 0:
            break
        last = u * len(active) < 1.0 or r > r_max
        b_r = (math.sqrt(6.0 * math.log(m / beta)) if last else
               math.sqrt(6.0 * u * len(active) * math.log(m * r_max / beta)))
        noisy = gaussian_mechanism_vector(reference_tmean(x[(r - 1) * m: r * m], b_r, active),
                                          math.sqrt(2.0) * b_r / m, rho, noise)
        freeze = np.ones(len(active), bool) if last else noisy >= tau
        frozen = active[freeze]
        q[frozen], froze_in[frozen] = noisy[freeze], r
        radii.append(b_r)
        if last:
            break
        active, u, tau = active[~freeze], u / 2.0, tau / 2.0
    return np.clip(q, 0.0, 1.0), froze_in, np.array(radii)


def block_size(d, side, draw):
    """m with m * d below ``_BLOCK`` or past it (several blocks a round)."""
    fit = max(1, _BLOCK // d)
    if side == "below":
        return draw(st.integers(1, fit))
    return draw(st.integers(fit + 1, 3 * fit + 9))


@st.composite
def binary_rows(draw, d, n):
    """0/1 rows in one of the dtypes ppde reads, with per-column means that
    include all-zero and all-one columns."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    p = rng.choice([0.0, 0.02, 0.1, 0.3, 0.5, 0.8, 1.0], size=d)
    bits = rng.random((n, d)) < p
    dtype = draw(st.sampled_from([bool, np.int8, np.uint8, np.float64]))
    return bits.astype(dtype)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ppde_matches_the_reference(data):
    d = data.draw(st.integers(1, 40), label="d")
    m = block_size(d, data.draw(st.sampled_from(["below", "past"])), data.draw)
    x = data.draw(binary_rows(d, (num_rounds(d) + 1) * m), label="x")
    rho = data.draw(st.sampled_from([0.01, 0.1, 1.0, 1e3]), label="rho")
    beta = data.draw(st.sampled_from([0.05, 0.5, 0.99]), label="beta")  # 0.99 truncates
    seed = data.draw(st.one_of(st.none(), st.integers(0, 2**63)), label="seed")

    def source():
        return NoiseSource.zero() if seed is None else NoiseSource(seed)

    ref_noise, got_noise = source(), source()
    p, froze_in, radii = reference_ppde(x, rho, 0.1, beta, ref_noise, m=m)
    got = ppde(x, rho, 0.1, beta, got_noise, m=m)
    assert got.p.tobytes() == p.tobytes()
    assert got.diagnostics["froze_in"].tobytes() == froze_in.tobytes()
    assert got.diagnostics["B"].tobytes() == radii.tobytes()
    assert got_noise.gaussian(1.0, size=3).tobytes() == ref_noise.gaussian(1.0, size=3).tobytes()
    assert got_noise.uniform(size=3).tobytes() == ref_noise.uniform(size=3).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_tmean_matches_the_reference(data):
    # any rows, not only ppde's: floats with specials, every radius, and a
    # column selection as None, a list, an index array or a mask
    d = data.draw(st.integers(1, 40), label="d")
    m = block_size(d, data.draw(st.sampled_from(["below", "past"])), data.draw)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    density = data.draw(st.sampled_from([None, 0.02, 0.3]), label="density")
    if density is not None:  # sparse rows put every norm near a radius
        x = (rng.random((m, d)) < density).astype(data.draw(st.sampled_from([bool, np.int8])))
    else:
        x = rng.normal(size=(m, d)) * rng.choice([1e-3, 1.0, 1e5], size=(m, 1))
        specials = data.draw(st.lists(st.sampled_from([math.nan, math.inf, -math.inf,
                                                       1e300, -0.0]), max_size=3))
        for value, row in zip(specials, rng.integers(0, m, size=len(specials))):
            x[row, rng.integers(0, d)] = value
    picked = data.draw(st.lists(st.integers(0, d - 1), min_size=1, unique=True), label="cols")
    cols = data.draw(st.sampled_from([None, picked, np.array(picked),
                                      np.isin(np.arange(d), picked)]))
    b = data.draw(st.sampled_from([0.0, 1e-300, 0.7, 1.2, 1.5, 4.0, math.inf]), label="B")
    with np.errstate(all="ignore"):
        want = reference_tmean(x, b, cols)
    assert tmean(x, b, cols).tobytes() == want.tobytes()
