import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import privest
from privest import cli, harness, product
from privest.cli import build_parser, main as cli_main
from privest.errors import InvalidParameterError
from privest.harness import (CSV_COLUMNS, ExperimentConfig,
                             budget_ledger_check, configured_budget,
                             learn_product_flip_heavy, run_experiment,
                             write_report)
from privest.noise import NoiseSource
from privest.privacy import PrivacyBudget


class TestExperimentConfig:
    def test_requires_exactly_one_budget_form(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(task="product")
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(task="product", rho=1.0, eps=1.0, delta=1e-6)
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(task="product", eps=1.0)  # delta missing
        ExperimentConfig(task="product", rho=1.0)
        ExperimentConfig(task="gaussian-cov-unbounded", eps=1.0, delta=1e-6)

    @pytest.mark.parametrize("bad", [
        dict(rho=math.inf), dict(eps=math.inf, delta=1e-6), dict(eps=1.0, delta=1.0),
        dict(rho=1.0, kappa=math.inf), dict(rho=1.0, R=math.inf),
        dict(rho=1.0, beta=1.5), dict(rho=1.0, alpha=math.nan)])
    def test_parameters_outside_their_domain_rejected(self, bad):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(task="gaussian-full", **bad)

    def test_unknown_task_and_keys_rejected(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(task="frobnicate", rho=1.0)
        with pytest.raises(InvalidParameterError):
            ExperimentConfig.from_dict({"task": "product", "rho": 1.0,
                                        "bogus": 3})

    def test_trial_seeds(self):
        cfg = ExperimentConfig(task="product", rho=1.0, seed=7, trials=3)
        assert cfg.trial_seeds() == [7, 8, 9]
        cfg2 = ExperimentConfig(task="product", rho=1.0, seeds=[5, 1, 9])
        assert cfg2.trial_seeds() == [5, 1, 9]

    def test_sweep_entries_below_one_rejected_before_any_run(self, monkeypatch):
        def no_trial(*args):
            raise AssertionError("a trial ran before the sweep was validated")

        monkeypatch.setattr(harness, "_run_trial", no_trial)
        for bad in ([200000, 0], [5, -1], [0]):
            with pytest.raises(InvalidParameterError, match="sweep_n"):
                ExperimentConfig(task="product", rho=1.0, d=4, m=100,
                                 sweep_n=bad)
        assert cli_main(["sweep", "--task", "product", "--rho", "1", "--d", "4",
                         "--m", "100", "--sweep-n", "200000", "0"]) == 2

    def test_empty_seeds_rejected_before_any_run(self, monkeypatch, tmp_path):
        # an empty list used to run no trial, write an empty report and exit 0
        def no_trial(*args):
            raise AssertionError("a trial ran with no seeds")

        monkeypatch.setattr(harness, "_run_trial", no_trial)
        with pytest.raises(InvalidParameterError, match="seeds"):
            ExperimentConfig(task="product", rho=1.0, seeds=[])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seeds": [], "rho": 1}))
        out = tmp_path / "out"
        assert cli_main(["learn-gaussian", "--config", str(cfg_path),
                         "--out", str(out)]) == 2
        assert not out.exists()

    def test_param_json_stable(self):
        cfg = ExperimentConfig(task="product", rho=1.0, d=6)
        blob = json.loads(cfg.param_json())
        assert blob["rho"] == 1.0
        assert "eps" not in blob


class TestRunExperiment:
    def test_product_task_rows_and_schema(self):
        cfg = ExperimentConfig(task="product", rho=1.0, n=4000, d=4,
                               trials=2, seed=0, m=500)
        rep = run_experiment(cfg)
        assert len(rep.per_trial) == 2
        names = {r["metric-name"] for r in rep.rows}
        assert "tv-exact" in names and "sd-upper" in names
        for row in rep.rows:
            assert set(row) == set(CSV_COLUMNS)
        assert "tv-exact" in rep.aggregates

    def test_budget_ledger_check_passes(self):
        cfg = ExperimentConfig(task="product", rho=0.7, n=4000, d=4,
                               trials=2, m=500)
        rep = run_experiment(cfg)
        ok, mismatches = budget_ledger_check(rep)
        assert ok, mismatches

    def test_configured_budget_mean_task_doubles_rho(self):
        cfg = ExperimentConfig(task="gaussian-mean", rho=0.3)
        assert configured_budget(cfg).rho == pytest.approx(0.6)
        cfg2 = ExperimentConfig(task="attack", rho=0.3)
        assert configured_budget(cfg2) is None

    def test_deterministic_reports(self, tmp_path):
        cfg = ExperimentConfig(task="product", rho=1.0, n=2000, d=4,
                               trials=2, seed=3, m=400, out=str(tmp_path))
        runs = []
        for _ in range(2):
            run_experiment(cfg)
            runs.append([(tmp_path / name).read_bytes()
                         for name in ("report.csv", "report.json")])
        assert runs[0] == runs[1]

    def test_sweep_combines_sizes(self):
        cfg = ExperimentConfig(task="product", rho=1.0, d=4, trials=1,
                               m=400, sweep_n=[1000, 2000])
        rep = run_experiment(cfg)
        assert {r["n"] for r in rep.rows} == {1000, 2000}
        assert any(k.startswith("n=1000:") for k in rep.aggregates)

    def test_product_task_peak_memory_per_key(self):
        # every full-size array on the product path holds one byte per key,
        # and every pass past the keys works in fixed-size blocks, so the
        # peak is the int8 keys (no column flips here): about 1.1 bytes per
        # key
        n, d = 200_000, 12
        cfg = ExperimentConfig(task="product", rho=1.0, n=n, d=d, m=50_000,
                               flip_heavy=True, seed=3)
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n * d

    @pytest.mark.parametrize("n", [80_000, 640_000])
    def test_product_path_working_set_does_not_grow_with_n(self, n):
        # the benchmark's flip-heavy model (d 12, m = n/4): past the int8
        # keys, sampling, the flip vote and ppde hold only fixed-size blocks
        # (0.25 MiB measured); a copy of each round's block grows with m
        d = 12
        p = harness._truth_product(ExperimentConfig(task="product", rho=1.0, d=d))
        tracemalloc.start()
        try:
            x = product.sample_product(product.ProductModel(p), n, NoiseSource(1))
            learn_product_flip_heavy(x, 1.0, 0.2, 0.05, NoiseSource(2), m=n // 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - n * d <= 0.35 * 2**20

    def test_samples_csv_written(self, tmp_path):
        out = tmp_path / "run"
        cfg = ExperimentConfig(task="product", rho=1.0, n=50, d=3, trials=1,
                               m=25, out=str(out), samples_csv=True,
                               header=True)
        run_experiment(cfg)
        lines = (out / "samples.csv").read_text().strip().splitlines()
        assert lines[0] == "seed,x0,x1,x2"
        assert len(lines) == 51


FLIP_P = [0.9, 0.6, 0.3, 0.5, 0.1, 0.75]


class TestReportDigests:
    """sha256 of report.csv + report.json for one small run of each task.

    The report is written with ``out`` unset, so the digest does not depend
    on the output directory.  The first two product runs use zero noise, so
    the learner's noise scale does not enter them; the noisy product run and
    the ``ppde`` attack pin the learner's noise and the attack's rows.
    """

    @pytest.mark.parametrize("raw, digest", [
        (dict(task="gaussian-cov", rho=1.0, n=2000, d=3, kappa=1e4),
         "f97b4246b323983bb9e192d8c56ca8b8f06277d6f68570f838a89ee26354ce48"),
        (dict(task="gaussian-cov-unbounded", eps=1.0, delta=1e-6, n=20000,
              d=2, kappa=100.0),
         "d48e653bcfee5ee213c4320f57bb44cce48818978aa490aaffa884d3e5ad52dc"),
        (dict(task="gaussian-mean", rho=1.0, n=4000, d=3, kappa=100.0),
         "e711adb1c6b37a8bb6052acbfa046bdb900f580b65e35ebd2bef5f17a33cb146"),
        (dict(task="gaussian-full", rho=1.0, n=100000, d=2, kappa=100.0,
              mc_trials=200),
         "d612ebadcf557ed437945147b74805b43b18716b0028b78b671e6b0e938ba6ab"),
        (dict(task="product", rho=1.0, n=3000, d=6, m=1000, p=FLIP_P,
              zero_noise=True),
         "cc9f1794eba8615e998e5bcda7e8e6f99d95fa3ce9b0919bf554fe787fa2fab2"),
        (dict(task="product", rho=1.0, n=3000, d=6, m=1000, p=FLIP_P,
              zero_noise=True, flip_heavy=True),
         "9541467af4852d8bbb908439cef2be1d1e2d0c47215444ba8a0febb6196fe48b"),
        (dict(task="attack", rho=1.0, n=200, d=8, attack_trials=20,
              mechanism="empirical-mean"),
         "6ef91c2fed655b7d3a20f9c0cef4da1301abcf1693654a4d15cd526c53ddfead"),
        (dict(task="attack", rho=0.1, n=400, d=16, m=100, attack_trials=20,
              mechanism="ppde"),
         "227e1c6d3f8a755af6896186bc7fddfdf500de43a70d952c1ee6274efcc53574"),
        (dict(task="product", rho=1.0, n=8000, d=6, m=2000, flip_heavy=True),
         "a77fe86db314d86d70552f89285eae06b2add1ceb59f84bea6398e60c3c65be0"),
    ], ids=["gaussian-cov", "gaussian-cov-unbounded", "gaussian-mean",
            "gaussian-full", "product", "product-flip-heavy", "attack",
            "attack-ppde", "product-flip-heavy-noisy"])
    def test_pinned_digest(self, tmp_path, raw, digest):
        report = run_experiment(ExperimentConfig.from_dict({**raw, "seed": 1}))
        write_report(report, tmp_path)
        blob = b"".join((tmp_path / name).read_bytes()
                        for name in ("report.csv", "report.json"))
        assert hashlib.sha256(blob).hexdigest() == digest


class TestFlipVote:
    # 6 columns, m = 2000 rows per block, 3 blocks for ppde's 2 rounds
    P = np.array([0.9, 0.6, 0.3, 0.5, 0.1, 0.75])
    M = 2000

    def rows(self, seed, dtype=np.int8):
        rng = np.random.default_rng(seed)
        return (rng.random((3 * self.M, self.P.size)) < self.P).astype(dtype)

    def learn(self, x, noise):
        model = learn_product_flip_heavy(x, 1.0, 0.1, 0.05, noise, m=self.M)
        return model.diagnostics["flipped"].tolist(), model.p

    @pytest.mark.parametrize("seed, flipped, p", [
        (1, [0, 1, 3, 5], [0.893831059079923, 0.5996879544491274,
                           0.29168421096939023, 0.4878214790780927,
                           0.09944308217411345, 0.7496027184340922]),
        (2, [0, 1, 5], [0.8943674562224212, 0.6012084431056852,
                        0.30312667974429897, 0.505727102870638,
                        0.10597368125546086, 0.7485082504788863]),
        (3, [0, 1, 3, 5], [0.8984603153902512, 0.5990959801321423,
                           0.30864252084438876, 0.5296171055984733,
                           0.09957050608923505, 0.7612042358085664]),
    ])
    def test_pinned_outputs(self, seed, flipped, p):
        model = learn_product_flip_heavy(self.rows(seed), 1.0, 0.1, 0.05,
                                         NoiseSource(seed + 10), m=self.M)
        got_flipped = model.diagnostics["flipped"]
        assert got_flipped.tolist() == flipped and got_flipped.dtype.kind == "i"
        assert model.p.tolist() == p
        assert model.budget_spent == PrivacyBudget.zcdp(1.0)
        assert model.diagnostics["m"] == self.M

    def test_zero_noise_flips_columns_above_half(self):
        n = 3 * self.M
        ones = [n // 2, n // 2 + 1, n // 2 - 1, n, 0, 3 * n // 4]
        rng = np.random.default_rng(0)
        x = np.column_stack([rng.permutation(np.arange(n) < k) for k in ones])
        flipped, _ = self.learn(x.astype(np.int8), NoiseSource.zero())
        assert flipped == [1, 3, 5]

    def spy_on_ppde(self, monkeypatch):
        seen = []
        ppde = harness.product.ppde

        def spy(x, *args, **kwargs):
            seen.append(x)
            return ppde(x, *args, **kwargs)

        monkeypatch.setattr(harness.product, "ppde", spy)
        return seen

    def test_keys_copied_only_when_a_column_flips(self, monkeypatch):
        seen = self.spy_on_ppde(monkeypatch)
        light = self.rows(5) & (self.rows(6) == 0)  # every column below 1/2
        assert self.learn(light, NoiseSource.zero())[0] == []
        assert seen.pop() is light
        x = self.rows(1)
        before = x.copy()
        flipped, _ = self.learn(x, NoiseSource.zero())
        got = seen.pop()
        kept = [j for j in range(self.P.size) if j not in flipped]
        assert flipped and kept and got is not x
        assert np.array_equal(x, before)
        assert np.array_equal(got[:, flipped], 1 - before[:, flipped])
        assert np.array_equal(got[:, kept], before[:, kept])

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64, bool,
                                       np.float32, np.float64])
    def test_accepts_the_rows_ppde_accepts(self, dtype):
        # bools vote through a uint8 view and floats through an int8 copy;
        # a flipped column is flipped in a copy, never in the caller's rows
        want_flipped, want_p = self.learn(self.rows(4), NoiseSource(14))
        x = self.rows(4).astype(dtype)
        before = x.copy()
        flipped, p = self.learn(x, NoiseSource(14))
        assert want_flipped and flipped == want_flipped
        assert p.tolist() == want_p.tolist()
        assert x.dtype == before.dtype and np.array_equal(x, before)

    def test_key_dtype_does_not_change_the_model(self):
        want_flipped, want_p = self.learn(self.rows(4), NoiseSource(14))
        flipped, p = self.learn(self.rows(4, np.int64), NoiseSource(14))
        assert flipped == want_flipped
        assert p.tolist() == want_p.tolist()


class TestCli:
    def test_learn_product_runs(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = cli_main(["learn-product", "--rho", "1.0", "--n", "2000",
                       "--d", "4", "--m", "400", "--trials", "1",
                       "--out", str(out)])
        assert rc == 0
        assert (out / "report.csv").exists()
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["task"] == "product"
        assert doc["trials"][0]["budget"] == {"regime": "zcdp", "rho": 1.0}
        captured = capsys.readouterr()
        assert "tv-exact" in captured.out

    def test_zero_noise_needs_acknowledgement(self, capsys):
        rc = cli_main(["learn-product", "--rho", "1.0", "--n", "500",
                       "--d", "2", "--m", "100", "--zero-noise"])
        assert rc == 2
        assert "i-understand-no-privacy" in capsys.readouterr().err
        rc = cli_main(["learn-product", "--rho", "1.0", "--n", "500",
                       "--d", "2", "--m", "100", "--zero-noise",
                       "--i-understand-no-privacy"])
        assert rc == 0

    def test_bad_budget_is_exit_2(self, capsys):
        rc = cli_main(["learn-product", "--n", "500", "--d", "2"])
        assert rc == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"rho": 1.0, "n": 2000, "d": 4,
                                        "m": 400, "trials": 1}))
        out = tmp_path / "run"
        rc = cli_main(["learn-product", "--config", str(cfg_path),
                       "--n", "1000", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["n"] == 1000

    def test_attack_subcommand(self, capsys):
        rc = cli_main(["attack", "--rho", "1.0", "--n", "16", "--d", "8",
                       "--mechanism", "empirical-mean",
                       "--attack-trials", "20", "--trials", "1"])
        assert rc == 0
        assert "separation" in capsys.readouterr().out

    def test_sweep_subcommand(self, tmp_path):
        out = tmp_path / "run"
        rc = cli_main(["sweep", "--task", "product", "--rho", "1.0",
                       "--d", "4", "--m", "400", "--trials", "1",
                       "--sweep-n", "1000", "2000", "--out", str(out)])
        assert rc == 0
        text = (out / "report.csv").read_text()
        assert ",1000," in text and ",2000," in text

    def test_block_size_below_one_is_exit_2(self, capsys):
        for m in ("0", "-5"):
            rc = cli_main(["learn-product", "--rho", "1", "--n", "4000",
                           "--d", "4", "--m", m, "--seed", "1"])
            err = capsys.readouterr().err
            assert rc == 2
            assert err.startswith("error:") and "Traceback" not in err

    def test_non_integer_block_size_in_config_is_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "m.json"
        cfg_path.write_text(json.dumps({"m": 2.5}))
        rc = cli_main(["learn-product", "--config", str(cfg_path), "--rho", "1",
                       "--n", "4000", "--d", "4", "--seed", "1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("raw", [{"rho": "1"}, {"n": 2000.5, "rho": 1},
                                     {"rho": True}, {"n": None, "rho": 1},
                                     {"header": 1, "rho": 1}, {"spectrum": 4.0, "rho": 1},
                                     {"seeds": ["a"], "rho": 1}, {"seeds": [1.5], "rho": 1},
                                     {"seeds": [True], "rho": 1}, {"sweep_n": ["5"], "rho": 1},
                                     {"spectrum": ["x", 1], "d": 2, "rho": 1},
                                     {"p": [0.5, False], "rho": 1}])
    def test_config_value_of_wrong_type_is_exit_2(self, tmp_path, capsys, raw):
        # checked before __post_init__ compares it: a TypeError traceback before.
        # A list's entries are checked too: seeds [1.5] used to run seed 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        rc = cli_main(["learn-gaussian", "--config", str(cfg_path), "--seed", "1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: config ") and err.count("\n") == 1

    def test_config_values_of_every_type_are_accepted(self):
        cfg = ExperimentConfig.from_dict({
            "task": "gaussian-full", "n": 2000, "rho": 1, "kappa": 10, "beta": 0.1,
            "seeds": [1, 2], "spectrum": None, "p": [0.25, 1], "zero_noise": False,
            "out": None})
        assert cfg.rho == 1 and cfg.seeds == [1, 2] and cfg.p == [0.25, 1]

    def test_attack_parameter_error_is_exit_2(self, capsys):
        # every trial would fail the same way; the attack used to count them
        # as mechanism failures and exit 0
        for m in ("0", "300"):
            rc = cli_main(["attack", "--mechanism", "ppde", "--rho", "0.1",
                           "--n", "400", "--d", "16", "--m", m,
                           "--attack-trials", "5", "--seed", "1"])
            err = capsys.readouterr().err
            assert rc == 2
            assert err.startswith("error:") and "Traceback" not in err

    def test_sweep_without_task_is_exit_2(self, tmp_path, capsys):
        rc = cli_main(["sweep", "--rho", "1", "--d", "4", "--sweep-n", "100", "200",
                       "--seed", "1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "product" in err and "Traceback" not in err
        # a task in --config still counts
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"task": "product", "m": 400}))
        rc = cli_main(["sweep", "--config", str(cfg_path), "--rho", "1", "--d", "4",
                       "--sweep-n", "1000", "2000", "--seed", "1"])
        assert rc == 0

    def test_ppde_attack_without_rho_is_exit_2(self, capsys):
        # ppde is rho-zCDP: no rho is chosen for it from (eps, delta)
        rc = cli_main(["attack", "--mechanism", "ppde", "--eps", "1", "--delta", "1e-6",
                       "--n", "400", "--d", "16", "--m", "100", "--attack-trials", "5",
                       "--seed", "1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "--rho" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["estimate-cov", "--rho", "1", "--n", "2000", "--d", "0", "--kappa", "1e4"],
        ["estimate-cov-unbounded", "--eps", "1", "--delta", "1e-6", "--n", "2000",
         "--d", "0"],
        ["estimate-mean", "--rho", "1", "--n", "2000", "--d", "0"],
        ["learn-gaussian", "--rho", "1", "--n", "2000", "--d", "0"],
        ["learn-product", "--rho", "1", "--n", "2000", "--d", "0"],
        ["attack", "--mechanism", "empirical-mean", "--rho", "1", "--n", "50",
         "--d", "0", "--attack-trials", "5"],
        ["attack", "--mechanism", "ppde", "--rho", "1", "--n", "400", "--d", "0",
         "--attack-trials", "5"],
        ["estimate-cov", "--rho", "1", "--n", "2000", "--d", "-2", "--kappa", "1e4"],
        ["estimate-cov", "--rho", "1", "--n", "-5", "--d", "4", "--kappa", "1e4"],
        ["learn-product", "--rho", "1", "--n", "0", "--d", "4"],
        ["sweep", "--task", "product", "--rho", "1", "--d", "4", "--sweep-n", "0"],
    ])
    def test_sample_size_or_dimension_below_one_is_exit_2(self, capsys, argv):
        rc = cli_main(argv + ["--seed", "1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert "must be >= 1" in err

    @pytest.mark.parametrize("p", [["nan", "0.1"], ["1.5", "0.1"]])
    def test_product_means_outside_unit_interval_exit_2_before_sampling(
            self, capsys, monkeypatch, p):
        draws = []
        uniform = NoiseSource.uniform

        def spy(self, *args, **kwargs):
            draws.append(kwargs)
            return uniform(self, *args, **kwargs)

        monkeypatch.setattr(NoiseSource, "uniform", spy)
        rc = cli_main(["learn-product", "--rho", "1", "--n", "4000", "--d", "2",
                       "--m", "500", "--p", *p, "--seed", "1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "[0,1]" in err
        assert draws == []

    def test_singular_gaussian_estimate_reports_tv_one(self, capsys):
        # learn_gaussian's estimate here is PSD but singular (smallest
        # eigenvalue ~ -3e-15), so it has no Cholesky factor
        rc = cli_main(["learn-gaussian", "--rho", "1", "--n", "20000",
                       "--d", "3", "--seed", "1"])
        assert rc == 0
        assert "tv-estimate: median=1 iqr=[1, 1]" in capsys.readouterr().out


class TestCliParser:
    """Each subcommand's flags and what a full command line parses to."""

    COMMON = {"--config": "cfg.json", "--seed": "3", "--trials": "2",
              "--rho": "0.5", "--eps": "1.5", "--delta": "1e-6",
              "--alpha": "0.1", "--beta": "0.05", "--n": "100", "--d": "2",
              "--kappa": "10", "--R": "2", "--out": "o"}
    COMMON_SWITCHES = ["--zero-noise", "--i-understand-no-privacy",
                       "--samples-csv", "--header"]
    COMMON_VARS = {"config": "cfg.json", "seed": 3, "trials": 2, "rho": 0.5,
                   "eps": 1.5, "delta": 1e-06, "alpha": 0.1, "beta": 0.05,
                   "n": 100, "d": 2, "kappa": 10.0, "R": 2.0, "out": "o",
                   "zero_noise": True, "i_understand_no_privacy": True,
                   "samples_csv": True, "header": True}
    SPECTRUM = (["--spectrum", "1", "4"], {"spectrum": [1.0, 4.0]})
    EXTRA = {
        "estimate-cov": SPECTRUM,
        "estimate-cov-unbounded": SPECTRUM,
        "estimate-mean": ([], {}),
        "learn-gaussian": SPECTRUM,
        "learn-product": (["--m", "20", "--flip-heavy", "--p", "0.1", "0.7"],
                          {"m": 20, "flip_heavy": True, "p": [0.1, 0.7]}),
        "attack": (["--mechanism", "ppde", "--attack-trials", "5", "--m", "20"],
                   {"mechanism": "ppde", "attack_trials": 5, "m": 20}),
        "sweep": (["--task", "product", "--sweep-n", "50", "100",
                   "--spectrum", "1", "4", "--m", "20"],
                  {"task": "product", "sweep_n": [50, 100],
                   "spectrum": [1.0, 4.0], "m": 20}),
    }

    @staticmethod
    def subparsers():
        ap = build_parser()
        action = next(a for a in ap._actions
                      if isinstance(a, argparse._SubParsersAction))
        return action.choices

    def test_option_strings(self):
        common = set(self.COMMON) | set(self.COMMON_SWITCHES) | {"-h", "--help"}
        got = {name: {s for a in p._actions for s in a.option_strings}
               for name, p in self.subparsers().items()}
        assert list(got) == list(self.EXTRA)
        for name, (argv, _) in self.EXTRA.items():
            own = {s for s in argv if s.startswith("--")}
            assert got[name] == common | own, name

    @pytest.mark.parametrize("name", list(EXTRA))
    def test_full_command_line(self, name):
        argv, extra_vars = self.EXTRA[name]
        common = [s for kv in self.COMMON.items() for s in kv]
        args = build_parser().parse_args(
            [name] + common + self.COMMON_SWITCHES + argv)
        assert vars(args) == {"command": name, **self.COMMON_VARS,
                              **extra_vars}

    @pytest.mark.parametrize("name", list(EXTRA))
    def test_defaults_leave_config_fields_unset(self, name):
        keys = set(self.COMMON_VARS) | set(self.EXTRA[name][1])
        want = {"command": name, **dict.fromkeys(keys),
                "i_understand_no_privacy": False}
        assert vars(build_parser().parse_args([name])) == want

    RUNS = {
        "learn-product": ["learn-product", "--flip-heavy", "--rho", "1", "--n", "8000",
                          "--d", "6", "--m", "2000", "--seed", "5"],
        "attack": ["attack", "--mechanism", "ppde", "--rho", "0.1", "--n", "400",
                   "--d", "8", "--m", "100", "--attack-trials", "20", "--seed", "5"],
    }

    def test_reused_parser_leaks_no_state(self, tmp_path, capsys):
        # main builds its parser once per process.  Runs in one process, an
        # argparse error among them, write the reports a fresh process
        # writes, and afterwards every command line parses as it does with
        # a newly built parser.  report.json records --out, so every run
        # writes to one directory.
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": str(Path(privest.__file__).resolve().parents[1])}

        def report():
            return [(out / name).read_bytes() for name in ("report.csv", "report.json")]

        fresh = {}
        for name, argv in self.RUNS.items():
            subprocess.run([sys.executable, "-m", "privest.cli", *argv, "--out", str(out)],
                           check=True, capture_output=True, env=env)
            fresh[name] = report()
        for name in ("learn-product", "attack", "learn-product"):
            assert cli_main(self.RUNS[name] + ["--out", str(out)]) == 0
            assert report() == fresh[name], name
            with pytest.raises(SystemExit):
                cli_main(["attack", "--mechanism", "nope"])
        common = [s for kv in self.COMMON.items() for s in kv]
        for name, (argv, _) in self.EXTRA.items():
            for line in ([name], [name] + common + self.COMMON_SWITCHES + argv,
                         self.RUNS.get(name, [name])):
                assert vars(cli._parser().parse_args(line)) == \
                    vars(build_parser().parse_args(line)), line
