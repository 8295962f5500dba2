import sys

import numpy as np
import pytest

from polaron2d import ModelParams, QuadratureSpec


@pytest.fixture
def params_m2() -> ModelParams:
    return ModelParams(2.0, -1.0)


@pytest.fixture
def tight_quad() -> QuadratureSpec:
    return QuadratureSpec(rel_tol=1e-13, abs_tol=1e-14, max_subdivisions=600)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def integrand_calls(monkeypatch):
    """Patch ``module.adaptive_gk15`` to record the size of every call of
    the integrand it is given; returns a function of the module that
    installs the patch and returns the list of sizes."""
    def install(module):
        calls = []
        real = module.adaptive_gk15

        def counting(f, *args, **kwargs):
            def counted(x):
                calls.append(len(x))
                return f(x)
            return real(counted, *args, **kwargs)

        monkeypatch.setattr(module, "adaptive_gk15", counting)
        return calls
    return install


@pytest.fixture
def quadrature_calls(monkeypatch):
    """Patch every ``polaron2d`` module's ``lockstep_gk15`` binding, the
    one bisection engine behind every adaptive quadrature, to record the
    interval of each call; returns the list of intervals."""
    import polaron2d._quad as _quad

    calls = []
    real = _quad.lockstep_gk15

    def counting(f, n, a, b, *args, **kwargs):
        calls.append((a, b))
        return real(f, n, a, b, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "polaron2d" and \
                getattr(module, "lockstep_gk15", None) is real:
            monkeypatch.setattr(module, "lockstep_gk15", counting)
    return calls
