"""Acceptance gate: end-to-end checks of the package's headline behaviors.

Each test prints one PASS/FAIL line (visible with -s) and asserts it.  The
configurations are pinned; tolerances were chosen from measured behavior
before pinning, not tuned afterwards.
"""

import math

import numpy as np
from scipy.special import ndtri

from privest.attacks import run_tracing_attack
from privest.covariance import clamped_covariance, pgce, ppc
from privest.covariance_unbounded import p_estimate_trace, pgce_no_bound
from privest.errors import EstimationFailedError
from privest.linalg import GaussianParams, mahalanobis_mat, sample_gaussian
from privest.mean import learn_gaussian, naive_pme, pme, univariate_mean
from privest.metrics import (chi2_kl_bernoulli, tv_gaussian_mc,
                             tv_gaussian_same_cov, tv_product_exact)
from privest.noise import NoiseSource
from privest.product import (ProductModel, num_rounds, ppde, sample_product,
                             tmean)


def _verdict(tag: str, ok: bool):
    print(f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'}")
    assert ok, tag


def test_criterion_01_sensitivity_exactness():
    rng = np.random.default_rng(11)
    ok = True
    # truncated mean over binary rows: replacing one row moves the output
    # by at most sqrt(2)*B/m (truncated binary rows never anti-correlate)
    for _ in range(500):
        m = int(rng.integers(2, 40))
        d = int(rng.integers(1, 30))
        B = float(rng.uniform(0.1, 2.0 * math.sqrt(d)))
        x = rng.integers(0, 2, size=(m, d)).astype(float)
        y = x.copy()
        y[int(rng.integers(0, m))] = rng.integers(0, 2, size=d)
        change = np.linalg.norm(tmean(x, B) - tmean(y, B))
        ok &= change <= math.sqrt(2.0) * B / m + 1e-12
    # clamped covariance: one-row change moves the Frobenius norm by at
    # most 2*B^2/n (the replacement row may be arbitrarily large)
    for _ in range(500):
        n = int(rng.integers(2, 30))
        d = int(rng.integers(1, 8))
        b_sq = float(rng.uniform(0.5, 20.0))
        x = rng.normal(scale=2.0, size=(n, d))
        y = x.copy()
        y[int(rng.integers(0, n))] = rng.normal(scale=50.0, size=d)
        cx, _ = clamped_covariance(x, b_sq)
        cy, _ = clamped_covariance(y, b_sq)
        ok &= np.linalg.norm(cx - cy) <= 2.0 * b_sq / n + 1e-12
    _verdict("criterion-01 sensitivity-exactness", ok)


def _ref_univariate_unknown_scale(x, R, kappa):
    """Independent zero-noise reference for the unknown-scale estimator."""
    x = np.asarray(x, dtype=float)
    half = x.shape[0] // 2
    hist, cdf = x[:half], x[half:]
    m = cdf.shape[0]
    npairs = 2 * (half // 2)
    absd = np.abs(hist[1:npairs:2] - hist[0:npairs:2]) / math.sqrt(2.0)
    k_lo, k_hi = -8, math.ceil(math.log2(math.sqrt(kappa))) + 8
    with np.errstate(divide="ignore"):
        raw = np.floor(np.log2(np.where(absd > 0, absd, 2.0 ** (k_lo - 1))))
    keys = np.clip(raw, k_lo, k_hi).astype(int)
    vals, counts = np.unique(keys, return_counts=True)
    freqs = counts / len(keys)
    best = int(np.argmax(freqs))
    assert freqs[best] >= 0.15
    sigma_hat = 2.0 ** vals[best]
    width = 2.0 * sigma_hat
    g = math.ceil(R / width) + 1
    keys = np.clip(np.floor(hist / width), -g, g - 1).astype(int)
    vals, counts = np.unique(keys, return_counts=True)
    freqs = counts / len(keys)
    best = int(np.argmax(freqs))
    assert freqs[best] >= 0.25
    mu_tilde = vals[best] * width
    center = mu_tilde + width / 2.0
    t1, t2 = center - sigma_hat / 2.0, center + sigma_hat / 2.0
    p = np.clip([np.mean(cdf <= t1), np.mean(cdf <= t2)],
                1.0 / (2.0 * m), 1.0 - 1.0 / (2.0 * m))
    z1, z2 = float(ndtri(p[0])), float(ndtri(p[1]))
    dz = min(max(z2 - z1, 0.25), 4.0)
    return t1 - (sigma_hat / dz) * z1


def _ref_partition_means(x, d, m, beta):
    """Independent zero-noise reference for the partition learner."""
    q = np.zeros(d)
    active = list(range(d))
    u, tau = 0.5, 3.0 / 16.0
    r, r_max = 1, num_rounds(d)
    while u * len(active) >= 1.0 and r <= r_max:
        means = x[(r - 1) * m: r * m][:, active].mean(axis=0)
        frozen = [j for j, v in zip(active, means) if v >= tau]
        for j, v in zip(active, means):
            if v >= tau:
                q[j] = v
        active = [j for j in active if j not in set(frozen)]
        u, tau, r = u / 2.0, tau / 2.0, r + 1
    if active:
        means = x[(r - 1) * m: r * m][:, active].mean(axis=0)
        for j, v in zip(active, means):
            q[j] = v
    return np.clip(q, 0.0, 1.0)


def test_criterion_02_zero_noise_oracle_equivalence():
    ok = True
    # covariance pipelines against the empirical second moment
    d = 4
    x = sample_gaussian(GaussianParams(np.zeros(d),
                                       np.diag([1.0, 5.0, 20.0, 100.0])),
                        20_000, NoiseSource(21))
    est = pgce(x, 1.0, 0.05, 100.0, NoiseSource.zero())
    emp = x.T @ x / x.shape[0]
    ok &= np.linalg.norm(est.sigma_hat - emp) / np.linalg.norm(emp) < 1e-6
    xu = sample_gaussian(GaussianParams(np.zeros(d),
                                        np.diag([1.0, 50.0, 1e4, 1e7])),
                         50_000, NoiseSource(22))
    estu = pgce_no_bound(xu, 1.0, 1e-6, 0.05, NoiseSource.zero())
    empu = xu.T @ xu / xu.shape[0]
    ok &= np.linalg.norm(estu.sigma_hat - empu) / np.linalg.norm(empu) < 1e-6
    # mean pipeline against an independent non-private reimplementation
    mu = np.array([0.8, -1.2, 2.0, 0.1])
    xm = mu + sample_gaussian(GaussianParams(np.zeros(d), np.eye(d)),
                              30_000, NoiseSource(23))
    est_m = pme(xm, 1.0, 0.1, 0.05, 5.0, 10.0, NoiseSource.zero())
    n3 = xm.shape[0] // 3
    y = xm[2 * n3: 3 * n3]
    ref = np.array([_ref_univariate_unknown_scale(y[:, j], 5000.0, 1000.0)
                    for j in range(d)])
    ok &= bool(np.all(np.abs(est_m.mu_hat - ref)
                      <= 1e-6 * np.maximum(1.0, np.abs(ref))))
    # product learner against an independent plain-means recursion
    d8, m8 = 8, 2000
    p = np.array([0.4, 0.4, 0.05, 0.05, 0.125, 0.125, 0.125, 0.125])
    xp = sample_product(ProductModel(p), (num_rounds(d8) + 1) * m8,
                        NoiseSource(24))
    model = ppde(xp, 1.0, 0.15, 0.05, NoiseSource.zero(), m=m8)
    refp = _ref_partition_means(xp.astype(float), d8, m8, 0.05)
    ok &= bool(np.all(np.abs(model.p - refp) <= 1e-9))
    _verdict("criterion-02 zero-noise-oracle-equivalence", ok)


def test_criterion_03_preconditioner_certificate():
    d, kappa, n = 8, 1e4, 200_000
    diagv = [kappa] * 4 + [1.0] * 4
    sigma = np.diag(diagv)
    good = 0
    for seed in range(20):
        x = sample_gaussian(GaussianParams(np.zeros(d), sigma), n,
                            NoiseSource(3000 + seed))
        pre = ppc(x, 1.0, 0.05, kappa, NoiseSource(seed))
        ev = np.linalg.eigvalsh(pre.A @ sigma @ pre.A.T)
        good += (ev[0] >= 1.0 - 1e-9) and (ev[-1] <= 1000.0)
    _verdict(f"criterion-03 preconditioner-certificate ({good}/20)",
             good >= 18)


def test_criterion_04_covariance_accuracy_trend():
    d, kappa = 4, 100.0
    sigma = np.diag(np.geomspace(1.0, kappa, d))
    truth = GaussianParams(np.zeros(d), sigma)
    medians = []
    for n in [2 ** k for k in range(14, 19)]:
        errs = []
        for seed in range(20):
            x = sample_gaussian(truth, n, NoiseSource(4000 + seed))
            est = pgce(x, 1.0, 0.05, kappa, NoiseSource(seed))
            errs.append(mahalanobis_mat(est.sigma_hat - sigma, sigma))
        medians.append(float(np.median(errs)))
    monotone = all(b < a for a, b in zip(medians, medians[1:]))
    _verdict(f"criterion-04 covariance-accuracy-trend (medians={medians})",
             monotone and medians[-1] < 0.3)


def test_criterion_05_product_learner_tv():
    d, m = 12, 20_000
    p = np.array([0.4] * 4 + [0.05] * 4 + [1.0 / 12.0] * 4)
    n = (num_rounds(d) + 1) * m
    good = 0
    for seed in range(20):
        x = sample_product(ProductModel(p), n, NoiseSource(5000 + seed))
        model = ppde(x, 1.0, 0.15, 0.05, NoiseSource(seed), m=m)
        good += tv_product_exact(p, model.p) <= 0.15
    _verdict(f"criterion-05 product-learner-tv ({good}/20)", good >= 17)


def test_criterion_06_trace_estimator_band():
    d, n = 16, 5000
    truth = GaussianParams(np.zeros(d), np.eye(d))
    good = bottom = 0
    for seed in range(20):
        x = sample_gaussian(truth, n, NoiseSource(6000 + seed))
        try:
            est = p_estimate_trace(x, 1.0, 1e-5, 0.05, NoiseSource(seed))
        except EstimationFailedError:  # the bottom outcome
            bottom += 1
            continue
        good += est.T / est.C <= d <= est.C * est.T
    _verdict(f"criterion-06 trace-estimator-band ({good}/20, bottom={bottom})",
             good >= 18 and bottom <= 2)


def test_criterion_07_fingerprinting_floor():
    report = run_tracing_attack(lambda x: x.mean(axis=0), "product",
                                n=8, d=64, trials=10_000, noise=NoiseSource(77))
    floor = 1.0 / 27.0
    lhs, se = report.fp_lemma_lhs, report.fp_lemma_stderr
    _verdict(f"criterion-07 fingerprinting-floor (lhs={lhs:.5f}, "
             f"floor={floor:.5f}, se={se:.2g})", lhs >= floor - 3.0 * se)


def test_criterion_08_privacy_vs_attack_trend():
    d, n, m, trials = 16, 400, 100, 100
    seps = []
    for rho in (1.0, 0.1, 0.01):
        vals = []
        for seed in range(20):
            mech_src = NoiseSource(1000 + seed)

            def mech(x, rho=rho, src=mech_src):
                x01 = ((x + 1) / 2).astype(int)
                model = ppde(x01, rho, 0.15, 0.05, src, m=m)
                return 2.0 * model.p - 1.0

            rep = run_tracing_attack(mech, "product", n=n, d=d,
                                     trials=trials,
                                     noise=NoiseSource(2000 + seed))
            vals.append(rep.separation)
        seps.append(float(np.mean(vals)))
    _verdict(f"criterion-08 privacy-vs-attack-trend (separations={seps})",
             seps[0] > seps[1] > seps[2])


def test_criterion_09_budget_ledger():
    rho = 0.8
    ok = True
    x1 = NoiseSource(91).gaussian(1.0, size=6000)
    ok &= univariate_mean(x1, rho, 0.05, 5.0, 1.0,
                          NoiseSource(0)).budget_spent.rho == rho
    x2 = NoiseSource(92).gaussian(1.0, size=(3000, 2))
    ok &= naive_pme(x2, rho, 0.1, 0.05, 5.0, 1.0,
                    NoiseSource(0)).budget_spent.rho == rho
    ok &= pme(x2, rho, 0.1, 0.05, 5.0, 10.0,
              NoiseSource(0)).budget_spent.rho == 2.0 * rho
    ok &= pgce(x2, rho, 0.05, 10.0, NoiseSource(0)).budget_spent.rho == rho
    m_est, c_est = learn_gaussian(x2, rho, 0.1, 0.05, 5.0, 10.0,
                                  NoiseSource(0))
    ok &= m_est.budget_spent.rho == 2.0 * (rho / 4.0)
    ok &= c_est.budget_spent.rho == rho / 2.0
    ok &= m_est.budget_spent.rho + c_est.budget_spent.rho == rho
    xp = sample_product(ProductModel(np.full(4, 0.2)), 1500, NoiseSource(93))
    ok &= ppde(xp, rho, 0.2, 0.05, NoiseSource(0), m=500).budget_spent.rho == rho
    _verdict("criterion-09 budget-ledger", ok)


def test_criterion_10_distance_metric_cross_oracles():
    ok = True
    rng = np.random.default_rng(10)
    for i in range(20):
        d = int(rng.integers(1, 5))
        sigma = np.diag(rng.uniform(0.5, 3.0, size=d))
        mu1 = rng.uniform(-1.0, 1.0, size=d)
        mu2 = mu1 + rng.uniform(-0.8, 0.8, size=d)
        closed = tv_gaussian_same_cov(mu1, mu2, sigma)
        mc, se = tv_gaussian_mc(GaussianParams(mu1, sigma),
                                GaussianParams(mu2, sigma),
                                20_000, NoiseSource(800 + i))
        ok &= abs(mc - closed) <= 3.0 * max(se, 1e-4)
    for _ in range(1000):
        p, q = rng.uniform(0.02, 0.98, size=2)
        chi2, kl = chi2_kl_bernoulli(float(p), float(q))
        tv = abs(p - q)
        ok &= 2.0 * tv ** 2 <= kl + 1e-12
        ok &= kl <= chi2 + 1e-12
    _verdict("criterion-10 distance-metric-cross-oracles", ok)
