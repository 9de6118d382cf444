"""Experiment harness: configuration, synthetic data, budget ledger, reports.

Every run is reproducible from (config, seed list) alone: each trial derives
one noise stream for data generation and one for the mechanisms from its
seed, and result rows are sorted by (seed, trial) before writing.  The CSV
schema is fixed across tasks: one row per metric with columns
{task, seed, trial, n, d, param-json, metric-name, metric-value}.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, asdict, replace
from numbers import Integral, Real
from pathlib import Path
from typing import Optional

import numpy as np

from . import covariance, covariance_unbounded, mean, metrics, product
from .attacks import run_tracing_attack
from .errors import InvalidParameterError, check
from .histogram import histogram_zcdp
from .linalg import GaussianParams, sample_gaussian
from .noise import NoiseSource, _mix64
from .privacy import PrivacyBudget

TASKS = ("gaussian-cov", "gaussian-cov-unbounded", "gaussian-mean",
         "gaussian-full", "product", "attack")

CSV_COLUMNS = ("task", "seed", "trial", "n", "d", "param-json",
               "metric-name", "metric-value")

# The JSON values a config field admits, by its annotation (a bool is no
# number); a list field's annotation names its entries' type, list[int].
_JSON_TYPES = {"int": Integral, "float": Real, "bool": bool, "str": str}


@dataclass
class ExperimentConfig:
    task: str
    n: int = 10000
    d: int = 4
    trials: int = 1
    seeds: Optional[list[int]] = None
    seed: int = 0
    rho: Optional[float] = None
    eps: Optional[float] = None
    delta: Optional[float] = None
    alpha: float = 0.2
    beta: float = 0.05
    R: float = 10.0
    kappa: float = 100.0
    spectrum: Optional[list[float]] = None
    p: Optional[list[float]] = None
    m: Optional[int] = None          # product block-size override
    mechanism: str = "empirical-mean"
    attack_trials: int = 200
    mc_trials: int = 4000
    flip_heavy: bool = False
    zero_noise: bool = False
    out: Optional[str] = None
    samples_csv: bool = False
    header: bool = False
    sweep_n: Optional[list[int]] = None

    def __post_init__(self):
        if self.task not in TASKS:
            raise InvalidParameterError(
                f"unknown task {self.task!r}; expected one of {TASKS}")
        for k in ("trials", "n", "d"):
            if not getattr(self, k) >= 1:
                raise InvalidParameterError(f"{k} must be >= 1, got {getattr(self, k)}")
        if self.seeds == []:  # no trial would run and the report would be empty
            raise InvalidParameterError("seeds must name at least one seed")
        if self.sweep_n and not all(k >= 1 for k in self.sweep_n):
            raise InvalidParameterError(
                f"sweep_n entries must be >= 1, got {self.sweep_n}")
        has_rho = self.rho is not None
        has_approx = self.eps is not None or self.delta is not None
        if has_rho and has_approx:
            raise InvalidParameterError("set either rho or (eps, delta), not both")
        if not has_rho and not (self.eps is not None and self.delta is not None):
            raise InvalidParameterError("set rho or both of eps and delta")
        budget = {"rho": self.rho} if has_rho else {"eps": self.eps, "delta": self.delta}
        check(**budget, alpha=self.alpha, beta=self.beta, kappa=self.kappa, R=self.R)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """A config from JSON, each value's type checked before ``__post_init__`` compares it."""
        fields = cls.__dataclass_fields__
        unknown = set(raw) - set(fields)
        if unknown:
            raise InvalidParameterError(f"unknown config keys: {sorted(unknown)}")
        if "task" not in raw:
            raise InvalidParameterError(f"no task given; expected one of {TASKS}")
        for k, v in raw.items():
            kind = fields[k].type.removeprefix("Optional[").removesuffix("]")
            entry = kind.removeprefix("list[").removesuffix("]")
            entries = v if entry != kind else [v]
            ok = isinstance(entries, list) and all(
                isinstance(e, _JSON_TYPES[entry]) and isinstance(e, bool) == (entry == "bool")
                for e in entries)
            if not (ok or v is None and fields[k].default is None):
                raise InvalidParameterError(f"config {k} must be of type {kind}, got {v!r}")
        return cls(**raw)

    def trial_seeds(self) -> list[int]:
        if self.seeds is not None:
            return [int(s) for s in self.seeds]
        return [self.seed + t for t in range(self.trials)]

    def param_json(self) -> str:
        keep = {}
        for k in ("rho", "eps", "delta", "alpha", "beta", "R", "kappa",
                  "mechanism", "zero_noise", "m"):
            v = getattr(self, k)
            if v is not None and v is not False:
                keep[k] = v
        return json.dumps(keep, sort_keys=True)


@dataclass
class TrialReport:
    config: ExperimentConfig
    rows: list = field(default_factory=list)
    per_trial: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)


def _default_spectrum(d: int, kappa: float) -> np.ndarray:
    """Geometric spread from 1 to kappa across coordinates."""
    if d == 1 or kappa <= 1:
        return np.ones(d) * max(kappa, 1.0)
    return np.geomspace(1.0, kappa, d)


def _truth_gaussian(cfg: ExperimentConfig, data_src: NoiseSource) -> GaussianParams:
    if cfg.spectrum is not None:
        spec = np.asarray(cfg.spectrum, dtype=float)
        if spec.shape[0] != cfg.d:
            raise InvalidParameterError("spectrum length must equal d")
    else:
        spec = _default_spectrum(cfg.d, cfg.kappa)
    mu = np.zeros(cfg.d)
    if cfg.task in ("gaussian-mean", "gaussian-full") and cfg.R > 0:
        raw = data_src.uniform(-1.0, 1.0, size=cfg.d)
        mu = raw * cfg.R / max(1.0, math.sqrt(cfg.d) * 2.0)
    return GaussianParams(mean=mu, cov=np.diag(spec))


def _truth_product(cfg: ExperimentConfig) -> np.ndarray:
    if cfg.p is not None:
        p = np.asarray(cfg.p, dtype=float)
        if p.shape[0] != cfg.d:
            raise InvalidParameterError("p length must equal d")
        return p
    # mixed default: a few clearly heavy, a few rare, rest at 1/d
    d = cfg.d
    p = np.full(d, 1.0 / d)
    p[: d // 3] = 0.4
    p[d // 3: 2 * (d // 3)] = 0.05
    return p


def learn_product_flip_heavy(x: np.ndarray, rho: float, alpha: float,
                             beta: float, noise: NoiseSource,
                             m: Optional[int] = None) -> product.ProductModel:
    """Bit-flip preprocessing for heavy coordinates, then the learner.

    A tenth of the budget votes per coordinate on whether the 1-frequency
    exceeds 1/2 (those columns are flipped and the estimate flipped back);
    the learner runs with the remaining 9/10.  The model carries the whole
    rho spent and, in ``ppde``'s record, the flipped columns ("flipped").
    Rows and parameters pass ``ppde``'s checks before the vote; bools vote
    through a uint8 view and floats through one int8 copy.
    """
    x = product.check_input(x, rho, alpha, beta, m)
    keys = (x.view(np.uint8) if x.dtype == bool else
            x.astype(np.int8) if x.dtype.kind == "f" else x)
    h = histogram_zcdp(keys, 0, 2, rho / 10.0 / x.shape[1], beta, noise)
    flipped = np.flatnonzero(h.freqs[:, 1] > 0.5)
    if flipped.size:  # flip a copy: the caller's keys stay as they are
        keys = keys.copy() if np.may_share_memory(keys, x) else keys
        keys[:, flipped] = 1 - keys[:, flipped]
    model = product.ppde(keys, 0.9 * rho, alpha, beta, noise, m=m)
    model.p[flipped] = 1.0 - model.p[flipped]
    model.budget_spent = PrivacyBudget.zcdp(rho)
    model.diagnostics["flipped"] = flipped
    return model


def _attack_mechanism(cfg: ExperimentConfig, mech_src: NoiseSource):
    """Mean estimators over {-1,+1} rows for the tracing harness."""
    name = cfg.mechanism
    if name == "empirical-mean":
        return lambda x: x.mean(axis=0)
    if name == "true-mean":
        return lambda x: np.zeros(x.shape[1])
    if name == "ppde":
        if cfg.rho is None:
            raise InvalidParameterError("the ppde mechanism is rho-zCDP; pass --rho")

        def mech(x):  # rows are +-1, so x > 0 are ppde's 0/1 bits
            model = product.ppde(x > 0, cfg.rho, cfg.alpha, cfg.beta, mech_src,
                                 m=cfg.m)
            return 2.0 * model.p - 1.0

        return mech
    raise InvalidParameterError(f"unknown mechanism {name!r}")


def _run_trial(cfg: ExperimentConfig, seed: int, trial: int) -> dict:
    data_src = NoiseSource(_mix64(seed * 2 + 1))
    mech_src = NoiseSource(seed, zero_noise=cfg.zero_noise)
    task, x, budget, met = cfg.task, None, None, {}
    if task.startswith("gaussian"):
        truth = _truth_gaussian(cfg, data_src)
        x = sample_gaussian(truth, cfg.n, data_src)

    if task in ("gaussian-cov", "gaussian-cov-unbounded"):
        est = (covariance.pgce(x, cfg.rho, cfg.beta, cfg.kappa, mech_src)
               if task == "gaussian-cov" else covariance_unbounded.pgce_no_bound(
                   x, cfg.eps, cfg.delta, cfg.beta, mech_src))
        met["mahalanobis-cov"] = metrics.mahalanobis_mat(
            truth.cov - est.sigma_hat, truth.cov)
        budget = est.budget_spent

    elif task in ("gaussian-mean", "gaussian-full"):
        if task == "gaussian-mean":
            m_est = mean.pme(x, cfg.rho, cfg.alpha, cfg.beta, cfg.R, cfg.kappa,
                             mech_src)
            budget = m_est.budget_spent
        else:
            m_est, c_est = mean.learn_gaussian(x, cfg.rho, cfg.alpha, cfg.beta,
                                               cfg.R, cfg.kappa, mech_src)
            budget = m_est.budget_spent + c_est.budget_spent
        met["aborted"] = float(m_est.aborted)
        if not m_est.aborted:
            met["mahalanobis-mean"] = metrics.mahalanobis_vec(
                truth.mean - m_est.mu_hat, truth.cov)
        if not m_est.aborted and task == "gaussian-full":
            met["mahalanobis-cov"] = metrics.mahalanobis_mat(
                truth.cov - c_est.sigma_hat, truth.cov)
            met["tv-estimate"], met["tv-stderr"] = metrics.tv_gaussian_mc(
                truth, GaussianParams(mean=m_est.mu_hat, cov=c_est.sigma_hat),
                cfg.mc_trials, data_src)

    elif task == "product":
        p = _truth_product(cfg)
        x = product.sample_product(product.ProductModel(p), cfg.n, data_src)
        learn = learn_product_flip_heavy if cfg.flip_heavy else product.ppde
        model = learn(x, cfg.rho, cfg.alpha, cfg.beta, mech_src, m=cfg.m)
        budget = model.budget_spent
        met["sd-upper"] = metrics.product_sd_upper(p, model.p)
        if cfg.d <= 20:
            met["tv-exact"] = metrics.tv_product_exact(p, model.p)
        else:
            met["tv-estimate"], met["tv-stderr"] = metrics.tv_product_mc(
                p, model.p, cfg.mc_trials, data_src)

    else:  # attack
        report = run_tracing_attack(_attack_mechanism(cfg, mech_src), "product",
                                    cfg.n, cfg.d, cfg.attack_trials, data_src,
                                    R=cfg.R)
        met.update({"separation": report.separation,
                    "fp-lemma-lhs": report.fp_lemma_lhs,
                    "fp-lemma-stderr": report.fp_lemma_stderr,
                    "failures": float(report.failures)})

    return {"seed": seed, "trial": trial, "metrics": met, "budget": budget,
            "samples": x if cfg.samples_csv else None}


def configured_budget(cfg: ExperimentConfig) -> Optional[PrivacyBudget]:
    """Total budget an estimator should report for this config."""
    if cfg.task == "attack":
        return None
    if cfg.rho is not None:
        if cfg.task == "gaussian-mean":
            return PrivacyBudget.zcdp(2.0 * cfg.rho)
        return PrivacyBudget.zcdp(cfg.rho)
    return None  # unbounded-covariance budgets are run-dependent; checked per run


def budget_ledger_check(report: TrialReport, tol: float = 1e-9) -> tuple[bool, list]:
    """Assert every trial's spent budget matches the configured budget."""
    expected = configured_budget(report.config)
    mismatches = []
    for row in report.per_trial:
        spent = row.get("budget")
        if expected is None or spent is None:
            continue
        if spent.regime != expected.regime or (
                spent.regime == "zcdp" and abs(spent.rho - expected.rho) > tol):
            mismatches.append((row["seed"], spent, expected))
    return (len(mismatches) == 0, mismatches)


def run_experiment(cfg: ExperimentConfig) -> TrialReport:
    """Run all configured trials; optionally write report.csv / report.json."""
    if cfg.sweep_n:
        return _run_sweep(cfg)
    report = TrialReport(config=cfg)
    seeds = cfg.trial_seeds()
    for trial, seed in enumerate(sorted(seeds)):
        res = _run_trial(cfg, seed, trial)
        report.per_trial.append(res)
        for name, value in sorted(res["metrics"].items()):
            report.rows.append({
                "task": cfg.task, "seed": seed, "trial": trial,
                "n": cfg.n, "d": cfg.d, "param-json": cfg.param_json(),
                "metric-name": name, "metric-value": value,
            })
    _aggregate(report)
    if cfg.out:
        write_report(report, Path(cfg.out))
    return report


def _run_sweep(cfg: ExperimentConfig) -> TrialReport:
    combined = TrialReport(config=cfg)
    for n in cfg.sweep_n:
        rep = run_experiment(replace(cfg, n=int(n), sweep_n=None, out=None))
        combined.rows.extend(rep.rows)
        combined.per_trial.extend(rep.per_trial)
        for k, v in rep.aggregates.items():
            combined.aggregates[f"n={n}:{k}"] = v
    if cfg.out:
        write_report(combined, Path(cfg.out))
    return combined


def _aggregate(report: TrialReport):
    by_metric: dict[str, list] = {}
    for row in report.rows:
        by_metric.setdefault(row["metric-name"], []).append(row["metric-value"])
    for name, vals in by_metric.items():
        arr = np.asarray(vals, dtype=float)
        arr = arr[np.isfinite(arr)]
        if len(arr) == 0:
            continue
        report.aggregates[name] = {
            "median": float(np.median(arr)),
            "q25": float(np.quantile(arr, 0.25)),
            "q75": float(np.quantile(arr, 0.75)),
            "mean": float(arr.mean()),
        }


def write_report(report: TrialReport, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "report.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for row in sorted(report.rows,
                          key=lambda r: (r["seed"], r["trial"], r["metric-name"])):
            w.writerow([row[c] if c != "metric-value" else repr(row[c])
                        for c in CSV_COLUMNS])
    cfg_dict = asdict(report.config)
    doc = {
        "config": cfg_dict,
        "aggregates": report.aggregates,
        "trials": [{
            "seed": r["seed"], "trial": r["trial"],
            "budget": r["budget"].as_dict() if r.get("budget") else None,
            "metrics": r["metrics"],
        } for r in report.per_trial],
    }
    with open(out_dir / "report.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    if report.config.samples_csv:
        _write_samples(report, out_dir)


def _write_samples(report: TrialReport, out_dir: Path):
    rows = []
    for r in report.per_trial:
        x = r.get("samples")
        if x is None:
            continue
        rows.append((r["seed"], x))
    if not rows:
        return
    with open(out_dir / "samples.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        if report.config.header:
            w.writerow(["seed"] + [f"x{j}" for j in range(report.config.d)])
        for seed, x in rows:
            for sample_row in np.asarray(x):
                w.writerow([seed] + [repr(float(v)) for v in sample_row])
