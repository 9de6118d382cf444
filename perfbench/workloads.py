"""The benchmark's workloads: seeded inputs, one operation, output checks.

Inputs are drawn with numpy's own generator, never with privest, so that a
change to the library's noise layer cannot change what the benchmark feeds
it.  Each operation gets its mechanism noise from ``NoiseSource(noise_seed)``.

Every operation's output is checked (``Workload.outcome``):

* outputs are finite and have the right shape;
* a covariance estimate is symmetric to 1e-12 of its largest entry, and its
  smallest eigenvalue is at least -1e-6 times the smallest eigenvalue of
  the true covariance (a PSD tolerance stated relative to the truth);
* a product model's ``p`` lies in [0, 1]: the CLI exits 2 when it does not,
  because ``ProductModel`` rejects such a ``p``, and traced runs check every
  ``ppde`` result directly;
* a spent budget is reported;
* the CLI exits 0 and writes ``report.csv`` and ``report.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from privest import cli, covariance, covariance_unbounded, mean
from privest.noise import NoiseSource

SYM_RTOL = 1e-12
PSD_RTOL = 1e-6
# The accuracy fingerprint runs these (data seed, noise seed) pairs in every
# run, whatever the workload seed, so a change in behaviour shows as a change
# in the fingerprint rather than as run-to-run spread.
FINGERPRINT_SEED = 20180501
FINGERPRINT_OPS = 3


@dataclass
class Outcome:
    """What the benchmark learned from one operation's output."""

    failures: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)   # accuracy fingerprints
    budget_ratio: Optional[float] = None
    snapshot: tuple = ()                          # for bit-identity checks


@dataclass
class GaussianInput:
    x: np.ndarray
    mu: np.ndarray
    cov: np.ndarray


def gaussian_input(seed: int, n: int, d: int, kappa: float, R: float = 0.0,
                   rotate: bool = True) -> GaussianInput:
    """n rows of N(mu, cov); cov has spectrum geomspace(1, kappa, d) in a
    random orthonormal basis, mu is drawn from a cube with ||mu|| <= R/2.

    With ``rotate=False`` the basis is a random permutation of the axes, so
    the per-coordinate variances are the same set for every seed.
    """
    rng = np.random.default_rng(seed)
    if rotate:
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        q = q * np.sign(np.diag(r))
    else:
        q = np.eye(d)[rng.permutation(d)]
    cov = (q * np.geomspace(1.0, kappa, d)) @ q.T
    cov = (cov + cov.T) / 2.0
    mu = rng.uniform(-1.0, 1.0, d) * R / (2.0 * math.sqrt(d))
    x = rng.standard_normal((n, d)) @ np.linalg.cholesky(cov).T
    x += mu
    return GaussianInput(x=x, mu=mu, cov=cov)


def _inv_sqrt(cov: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(cov)
    return (v / np.sqrt(w)) @ v.T


def _budget_value(budget) -> Optional[float]:
    """rho for zCDP, eps for (eps, delta)-DP; None when nothing usable."""
    if budget is None:
        return None
    value = budget.rho if budget.regime == "zcdp" else budget.eps
    return value if value is not None and math.isfinite(value) else None


def check_covariance(sigma_hat, truth: GaussianInput, out: Outcome):
    d = truth.cov.shape[0]
    sigma_hat = np.asarray(sigma_hat)
    if sigma_hat.shape != (d, d):
        out.failures.append(f"covariance shape {sigma_hat.shape} != {(d, d)}")
        return
    if not np.all(np.isfinite(sigma_hat)):
        out.failures.append("covariance has non-finite entries")
        return
    if np.abs(sigma_hat - sigma_hat.T).max() > SYM_RTOL * np.abs(sigma_hat).max():
        out.failures.append("covariance is not symmetric")
    floor = -PSD_RTOL * np.linalg.eigvalsh(truth.cov)[0]
    low = np.linalg.eigvalsh((sigma_hat + sigma_hat.T) / 2.0)[0]
    if low < floor:
        out.failures.append(f"covariance is not PSD: min eigenvalue {low:.4g}")
    s = _inv_sqrt(truth.cov)
    out.errors["err_cov"] = float(np.linalg.norm(s @ (sigma_hat - truth.cov) @ s, "fro"))


def check_budget(spent: Optional[float], requested: float, out: Outcome):
    if spent is None:
        out.failures.append("no spent budget reported")
    else:
        out.budget_ratio = spent / requested


class Workload:
    """One workload; perfbench/README.md says why each exists."""

    name = ""
    rows = 0          # input rows one operation reads
    pool = 1          # distinct data inputs generated in set-up
    trace_ops = 1     # operations in one cycle of the traced run
    fingerprint = ""  # which accuracy error is the fingerprint

    def make_input(self, seed: int):
        raise NotImplementedError

    def run(self, inp, noise_seed: int, tmp: Path):
        raise NotImplementedError

    def outcome(self, inp, result, tmp: Path) -> Outcome:
        raise NotImplementedError


class CovPrecond(Workload):
    name = "cov-precond"
    rows = 200_000
    pool = 2
    trace_ops = 2
    fingerprint = "err_cov"
    rho = 1.0

    def make_input(self, seed):
        return gaussian_input(seed, self.rows, 32, 1e6)

    def run(self, inp, noise_seed, tmp):
        return covariance.pgce(inp.x, self.rho, 0.05, 1e6, NoiseSource(noise_seed))

    def outcome(self, inp, result, tmp):
        out = Outcome(snapshot=(result.sigma_hat.tobytes(), result.budget_spent))
        check_covariance(result.sigma_hat, inp, out)
        check_budget(_budget_value(result.budget_spent), self.rho, out)
        return out


class CovUnbounded(Workload):
    name = "cov-unbounded"
    rows = 200_000
    pool = 4
    trace_ops = 4
    fingerprint = "err_cov"
    eps = 1.0

    def make_input(self, seed):
        return gaussian_input(seed, self.rows, 4, 1e4)

    def run(self, inp, noise_seed, tmp):
        return covariance_unbounded.pgce_no_bound(inp.x, self.eps, 1e-7, 0.05,
                                                  NoiseSource(noise_seed))

    def outcome(self, inp, result, tmp):
        out = Outcome(snapshot=(result.sigma_hat.tobytes(), result.budget_spent))
        check_covariance(result.sigma_hat, inp, out)
        check_budget(_budget_value(result.budget_spent), self.eps, out)
        return out


class LearnGaussian(Workload):
    name = "learn-gaussian"
    rows = 400_000
    pool = 4
    trace_ops = 4
    fingerprint = "err_mean"
    rho = 1.0

    def make_input(self, seed):
        # The mean estimator's vote universes scale with each coordinate's
        # spread, so a fixed set of variances keeps the work the same.
        return gaussian_input(seed, self.rows, 8, 100.0, R=10.0, rotate=False)

    def run(self, inp, noise_seed, tmp):
        return mean.learn_gaussian(inp.x, self.rho, 0.1, 0.05, 10.0, 100.0,
                                   NoiseSource(noise_seed))

    def outcome(self, inp, result, tmp):
        m_est, c_est = result
        mu_hat = None if m_est.mu_hat is None else np.asarray(m_est.mu_hat)
        out = Outcome(snapshot=(
            m_est.aborted, None if mu_hat is None else mu_hat.tobytes(),
            c_est.sigma_hat.tobytes(), m_est.budget_spent, c_est.budget_spent))
        check_covariance(c_est.sigma_hat, inp, out)
        if m_est.aborted:
            out.failures.append(f"mean estimate aborted: {m_est.diagnostics}")
        elif mu_hat.shape != inp.mu.shape or not np.all(np.isfinite(mu_hat)):
            out.failures.append("mean estimate has bad shape or non-finite entries")
        else:
            out.errors["err_mean"] = float(np.linalg.norm(_inv_sqrt(inp.cov) @ (mu_hat - inp.mu)))
        parts = [_budget_value(m_est.budget_spent), _budget_value(c_est.budget_spent)]
        check_budget(None if None in parts else sum(parts), self.rho, out)
        return out


class CliProductAttack(Workload):
    name = "cli-product-attack"
    # learn-product reads 80k rows; the attack runs ppde on 400 rows 100 times.
    rows = 80_000 + 100 * 400
    pool = 16
    trace_ops = 4
    fingerprint = "err_tv"
    rho = 1.0

    def make_input(self, seed):
        return int(seed) % 2**31   # the CLI draws its own data from --seed

    def run(self, seed, noise_seed, tmp):
        common = ["--seed", str(seed)]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            learn = cli.main(["learn-product", "--flip-heavy", "--rho", str(self.rho),
                              "--n", "80000", "--d", "12", "--m", "20000",
                              "--out", str(tmp / "product")] + common)
            attack = cli.main(["attack", "--mechanism", "ppde", "--rho", "0.1",
                               "--n", "400", "--d", "16", "--m", "100",
                               "--attack-trials", "100",
                               "--out", str(tmp / "attack")] + common)
        return learn, attack

    def outcome(self, seed, result, tmp):
        out = Outcome()
        if result != (0, 0):
            out.failures.append(f"CLI exit codes {result}, expected (0, 0)")
            return out
        snap = []
        reports = {}
        for sub in ("product", "attack"):
            try:
                csv_bytes = (tmp / sub / "report.csv").read_bytes()
                doc = json.loads((tmp / sub / "report.json").read_text())
            except (OSError, ValueError) as exc:
                out.failures.append(f"{sub} report missing or unreadable: {exc}")
                return out
            # Wall time and the output directory differ between runs.
            doc["config"].pop("out", None)
            for trial in doc["trials"]:
                trial.pop("runtime_ms", None)
            reports[sub] = doc["trials"][0]
            snap += [csv_bytes, json.dumps(doc, sort_keys=True)]
        out.snapshot = tuple(snap)

        learned = reports["product"]
        budget = learned.get("budget") or {}
        check_budget(budget.get("rho"), self.rho, out)
        tv = learned["metrics"].get("tv-exact")
        if tv is None or not 0.0 <= tv <= 1.0:
            out.failures.append(f"product TV {tv} outside [0, 1]")
        else:
            out.errors["err_tv"] = tv
        attack = reports["attack"]["metrics"]
        if attack.get("failures") != 0.0 or not math.isfinite(attack.get("separation", math.nan)):
            out.failures.append(f"attack failed: {attack}")
        return out


WORKLOADS = {w.name: w for w in (CovPrecond(), CovUnbounded(), LearnGaussian(),
                                 CliProductAttack())}


def plan(seed: int, count: int) -> list[tuple[int, int]]:
    """(data seed, noise seed) pairs derived from a workload seed."""
    pairs = np.random.default_rng(seed).integers(0, 2**62, size=(count, 2))
    return [(int(a), int(b)) for a, b in pairs]
