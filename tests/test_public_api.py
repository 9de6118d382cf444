"""The package's public API: ``privest.__all__`` exports the estimators, what
they take and return, the metrics the harness reports and the attack runner.
Every other name is internal and is imported from its module."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import privest

PUBLIC = [
    "NoiseSource", "PrivacyBudget", "GaussianParams", "sample_gaussian",
    "ppc", "pgce", "ppc_range", "pgce_no_bound", "univariate_mean",
    "naive_pme", "pme", "learn_gaussian", "ppde", "learn_product_flip_heavy",
    "Preconditioner", "CovEstimate", "MeanEstimate", "ProductModel",
    "FingerprintReport",
    "mahalanobis_vec", "mahalanobis_mat", "tv_gaussian_mc",
    "tv_product_exact", "tv_product_mc", "product_sd_upper",
    "run_tracing_attack",
]

# Names the package no longer exports, at the module path the tests, the demos
# and the benchmark's tracer import them from.
INTERNAL = {
    "privacy": ["zcdp_to_approx_dp", "gaussian_mechanism_vector",
                "gaussian_mechanism_symmetric"],
    "linalg": ["project_psd", "inv_sqrt_psd"],
    "histogram": ["HistogramResult", "stable_histogram_approx_dp",
                  "histogram_zcdp", "argmax_bucket"],
    "covariance": ["naive_pce", "weak_ppc"],
    "covariance_unbounded": ["TraceEstimate", "p_estimate_trace",
                             "weak_ppc_no_bound"],
    "product": ["tmean"],
    "metrics": ["tv_gaussian_same_cov", "chi2_kl_bernoulli",
                "gaussian_param_error"],
}
# fp_score_* are per-row references in tests/test_attacks.py; cov_packing is
# deleted.
GONE = ["fp_score_product", "fp_score_gaussian", "cov_packing"]


def _readme_names():
    """The backticked names on the bullet lines of the README's Public API
    section, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    bullets = [line for line in section.splitlines() if line.startswith("- ")]
    return [name for line in bullets for name in re.findall(r"`(\w+)`", line)]


def test_all_is_the_26_names_in_the_readmes_order():
    assert len(PUBLIC) == 26
    assert privest.__all__ == PUBLIC
    assert _readme_names() == PUBLIC


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from privest import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC)


@pytest.mark.parametrize("name", PUBLIC)
def test_exported_name_has_a_docstring(name):
    obj = getattr(privest, name)
    doc = inspect.getdoc(obj)
    assert doc, f"{name} has no docstring"
    # a dataclass without one gets its signature as __doc__
    assert not doc.startswith(f"{name}("), f"{name} has no docstring"


@pytest.mark.parametrize("module, name", [(m, n) for m, names in INTERNAL.items()
                                          for n in names])
def test_internal_name_imports_from_its_module(module, name):
    mod = importlib.import_module(f"privest.{module}")
    assert hasattr(mod, name)
    assert name not in privest.__all__
    assert not hasattr(privest, name)


def test_departed_names_number_21_and_moved_ones_are_gone():
    assert sum(map(len, INTERNAL.values())) + len(GONE) == 21
    attacks = importlib.import_module("privest.attacks")
    for name in GONE:
        assert not hasattr(attacks, name)
        assert not hasattr(privest, name)
    assert not hasattr(privest.FingerprintReport, "summary")
