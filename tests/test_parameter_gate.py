"""The parameter gate: every public estimator refuses a parameter outside its
domain (inf and NaN included) and a sample array with no column, before its
first noise draw."""

import math

import numpy as np
import pytest

from privest import (NoiseSource, learn_gaussian, learn_product_flip_heavy,
                     naive_pme, pgce, pgce_no_bound, pme, ppc, ppc_range, ppde,
                     univariate_mean)
from privest.covariance import naive_pce, weak_ppc
from privest.covariance_unbounded import p_estimate_trace
from privest.errors import EstimationFailedError, InvalidParameterError, check
from privest.histogram import histogram_zcdp
from privest.privacy import gaussian_mechanism_symmetric, gaussian_mechanism_vector

_rng = np.random.default_rng(0)
X = _rng.standard_normal((600, 2)) * [1.0, 30.0]
BITS = _rng.random((600, 2)) < 0.1
KEYS = _rng.integers(0, 4, 600)

# name: (estimator, data, keyword arguments inside every domain, whether the
# data are samples).  kappa = 1e5 makes ppc, pgce, pme and learn_gaussian run
# preconditioning rounds, which draw.
ESTIMATORS = {
    "naive_pce": (naive_pce, X, dict(rho=1.0, beta=0.05, kappa=10.0), True),
    "weak_ppc": (weak_ppc, X, dict(rho=1.0, beta=0.05, kappa=10.0, K=2.0), True),
    "ppc": (ppc, X, dict(rho=1.0, beta=0.05, kappa=1e5), True),
    "pgce": (pgce, X, dict(rho=1.0, beta=0.05, kappa=1e5), True),
    "p_estimate_trace": (p_estimate_trace, X, dict(eps=1.0, delta=1e-6, beta=0.05), True),
    "ppc_range": (ppc_range, X, dict(eps=1.0, delta=1e-6, beta=0.05), True),
    "pgce_no_bound": (pgce_no_bound, X, dict(eps=1.0, delta=1e-6, beta=0.05), True),
    "univariate_mean": (univariate_mean, X[:, 0],
                        dict(rho=1.0, beta=0.05, R=10.0, kappa=4.0), True),
    "naive_pme": (naive_pme, X, dict(rho=1.0, alpha=0.1, beta=0.05, R=10.0, kappa=4.0),
                  True),
    "pme": (pme, X, dict(rho=1.0, alpha=0.1, beta=0.05, R=10.0, kappa=1e5), True),
    "learn_gaussian": (learn_gaussian, X,
                       dict(rho=1.0, alpha=0.1, beta=0.05, R=10.0, kappa=1e5), True),
    "ppde": (ppde, BITS, dict(rho=1.0, alpha=0.1, beta=0.05, m=100), True),
    "learn_product_flip_heavy": (learn_product_flip_heavy, BITS,
                                 dict(rho=1.0, alpha=0.1, beta=0.05, m=100), True),
    "histogram_zcdp": (histogram_zcdp, KEYS, dict(lo=0, hi=4, rho=1.0, beta=0.05), False),
    "gaussian_mechanism_vector": (gaussian_mechanism_vector, np.zeros(3),
                                  dict(delta2=1.0, rho=1.0), False),
    "gaussian_mechanism_symmetric": (gaussian_mechanism_symmetric, np.eye(2),
                                     dict(delta_f=1.0, rho=1.0), False),
}

# The nearest value outside each domain; weak_ppc's kappa must exceed 1.
NEAREST_OUT = {"rho": 0.0, "eps": 0.0, "delta": 1.0, "beta": 1.0, "alpha": 1.0,
               "kappa": 0.5, "K": 0.5, "R": -1.0}


def _cases():
    for name, (_, data, params, samples) in ESTIMATORS.items():
        for p in [k for k in params if k in NEAREST_OUT]:
            edge = 1.0 if (name, p) == ("weak_ppc", "kappa") else NEAREST_OUT[p]
            for v in (math.inf, math.nan, edge):
                yield pytest.param(name, data, {p: v}, id=f"{name}-{p}={v}")
        if "m" in params:   # the product learners' block size: an integer >= 1
            for v in (0, 1.5):
                yield pytest.param(name, data, {"m": v}, id=f"{name}-m={v}")
        if samples:
            yield pytest.param(name, X[:, :0], {}, id=f"{name}-zero-columns")


@pytest.fixture
def draws(monkeypatch):
    """Names of the NoiseSource draws made, on any stream, children included."""
    made = []
    for method in ("uniform", "gaussian", "laplace", "integers"):
        def spy(self, *args, _draw=getattr(NoiseSource, method), _name=method, **kw):
            made.append(_name)
            return _draw(self, *args, **kw)
        monkeypatch.setattr(NoiseSource, method, spy)
    return made


@pytest.mark.parametrize("name, data, bad", _cases())
def test_rejected_before_any_draw(name, data, bad, draws):
    estimate, _, params, _ = ESTIMATORS[name]
    with pytest.raises(InvalidParameterError):
        estimate(data, noise=NoiseSource(0), **{**params, **bad})
    assert draws == []


@pytest.mark.parametrize("name", ESTIMATORS)
def test_in_domain_parameters_draw(name, draws):
    # the control: with every parameter inside its domain, each estimator draws
    estimate, data, params, _ = ESTIMATORS[name]
    try:
        estimate(data, noise=NoiseSource(0), **params)
    except EstimationFailedError:   # a vote may come back empty, after its draw
        pass
    assert draws


@pytest.mark.parametrize("values, named", [
    (dict(rho=math.inf), "rho must be finite, got inf"),
    (dict(eps=-1.0), "eps must be > 0, got -1.0"),
    (dict(delta=0.0), "delta must be in (0,1), got 0.0"),
    (dict(beta=2.0), "beta must be in (0,1), got 2.0"),
    (dict(alpha=math.nan), "alpha must be in (0,1), got nan"),
    (dict(kappa=0.5), "kappa must be >= 1, got 0.5"),
    (dict(K=math.inf), "K must be finite, got inf"),
    (dict(R=-math.inf), "R must be >= 0, got -inf"),
])
def test_messages(values, named):
    with pytest.raises(InvalidParameterError) as err:
        check(**values)
    assert str(err.value) == named


def test_domain_ends_that_belong():
    check(kappa=1.0, K=1, R=0.0, rho=1e-300, beta=0.5)
