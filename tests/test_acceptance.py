"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``) and
enforces its runtime limit.  Run the whole gate with

    pytest tests/test_acceptance.py -s
"""

import json
import math
import subprocess
import sys
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from polaron2d import (CSearchConfig, GridSpec, ModelParams, QuadratureSpec,
                       alpha_m, bound_lhs, bound_lhs_alt, c_integrand,
                       critical_mass, envelope_cutoff_integral, estimate_C,
                       inner_integral, solve_gamma, solve_mu, weight)
from polaron2d.verify import (_case_momentum_bounds, _case_resolvent_tail,
                              _case_sigma_minus, _case_u_integral,
                              verify_rearrangement)

from oracles import (alpha_quad, cartesian_annulus_integral,
                     critical_mass_grid, envelope_integral_radial)


class _Gate:
    def __init__(self, number, name, limit_s):
        self.number = number
        self.name = name
        self.limit = limit_s
        self.t0 = time.monotonic()

    def done(self):
        elapsed = time.monotonic() - self.t0
        ok = elapsed < self.limit
        status = "PASS" if ok else "FAIL (over time limit)"
        print(f"[ACCEPTANCE] criterion {self.number} ({self.name}): {status} "
              f"in {elapsed:.2f}s (limit {self.limit:.0f}s)", flush=True)
        assert ok, f"criterion {self.number} exceeded {self.limit}s"


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "polaron2d", *args],
                          capture_output=True, text=True, timeout=540)


def test_criterion_1_critical_mass():
    gate = _Gate(1, "critical mass", 1.0)
    m_star = critical_mass()
    assert m_star <= 1.225
    assert alpha_m(ModelParams(1.225, -1.0)) < 1.225 / 2.225
    assert abs(m_star - critical_mass_grid(1e-4)) <= 1e-4
    gate.done()


def test_criterion_2_alpha_oracle_equivalence():
    gate = _Gate(2, "alpha(M) oracle equivalence", 1.0)
    for M in (0.5, 1.0, 1.225, 2.0, 5.0, 50.0):
        assert abs(alpha_m(ModelParams(M, -1.0)) - alpha_quad(M)) <= 1e-10
    gate.done()


def test_criterion_3_bound_equation_structure():
    gate = _Gate(3, "bound equation structure", 5.0)
    rng = np.random.default_rng(101)

    # two algebraic forms agree to 1e-12 on 1e4 random inputs
    m_values = np.geomspace(0.2, 50.0, 16)
    alph = {float(m): alpha_m(ModelParams(float(m), -1.0)) for m in m_values}
    n = 10_000
    idx = rng.integers(0, len(m_values), n)
    eb = -(10.0 ** rng.uniform(-1, 1, n))
    lam = 10.0 ** rng.uniform(-2, 2, n)
    mu = eb * 10.0 ** rng.uniform(0.0, 3.0, n)
    worst = 0.0
    for j in range(n):
        pars = ModelParams(float(m_values[idx[j]]), float(eb[j]))
        a = alph[float(m_values[idx[j]])]
        f1 = bound_lhs(float(mu[j]), float(lam[j]), pars, a)
        f2 = bound_lhs_alt(float(mu[j]), float(lam[j]), pars, a)
        worst = max(worst, abs(f1 - f2) / max(1.0, abs(f1), abs(f2)))
    assert worst <= 1e-12

    # sign structure and monotonicity for (M=2, lam=1, E_B=-1)
    pars = ModelParams(2.0, -1.0)
    a = alpha_m(pars)
    assert bound_lhs(pars.binding_energy, 1.0, pars, a) < 0.0
    assert bound_lhs(1e6 * pars.binding_energy, 1.0, pars, a) > 0.0
    grid = pars.binding_energy * np.geomspace(1.0 + 1e-5, 1e3, 1000)
    h = 1e-6 * np.abs(grid)
    slope = (bound_lhs(grid + h, 1.0, pars, a)
             - bound_lhs(grid - h, 1.0, pars, a)) / (2 * h)
    assert np.all(slope < 0.0)
    gate.done()


def test_criterion_4_solver_cross_consistency():
    gate = _Gate(4, "solver cross-consistency", 5.0)
    for M in (1.5, 2.0, 5.0, 20.0):
        pars = ModelParams(M, -1.0)
        g = solve_gamma(M)
        assert g > 1.0
        mu_ratio = solve_mu(pars, 1.0).mu / pars.binding_energy
        assert abs(g - mu_ratio) <= 1e-8 * abs(g)
    base = solve_mu(ModelParams(2.0, -1.0), 1.0).mu
    for s in (0.1, 10.0):
        scaled = solve_mu(ModelParams(2.0, s * -1.0), s * 1.0).mu
        assert abs(scaled - s * base) <= 1e-8 * abs(scaled)
    gate.done()


def test_criterion_5_proof_constituents():
    gate = _Gate(5, "proof-constituent verification", 120.0)
    row = _case_resolvent_tail(100, 11, 1e-10)
    assert row.passed and row.max_violation <= 1e-10
    row = _case_sigma_minus(10_000, 12, 1e-8)
    assert row.passed and row.max_violation <= 1e-8
    row = _case_momentum_bounds(100_000, 13, 1e-12)
    assert row.passed and row.max_violation <= 1e-12
    row = _case_u_integral(100_000, 14, 1e-12)
    assert row.passed and row.max_violation <= 1e-12
    row = verify_rearrangement(1000, 15, tolerance=1e-8)
    assert row.passed and row.max_violation <= 1e-8
    # symmetrised-envelope closed form against scipy radial quadrature
    rng = np.random.default_rng(16)
    from polaron2d import KernelPoint
    for _ in range(100):
        pars = ModelParams(float(rng.uniform(0.2, 50.0)), -1.0)
        k = KernelPoint(u=float(rng.uniform(0, 1)),
                        tau=float(rng.uniform(0, 10)),
                        psq=float(rng.uniform(0, 100)),
                        mu=-float(10.0 ** rng.uniform(-1, 1)),
                        lam=float(10.0 ** rng.uniform(-1, 1)))
        closed = envelope_cutoff_integral(k, pars)
        assert abs(closed - envelope_integral_radial(k, pars)) <= 1e-8 * closed
    gate.done()


def test_criterion_6_c_estimator_properties():
    gate = _Gate(6, "C estimator properties", 600.0)
    pars = ModelParams(2.0, -1.0)
    cfg = CSearchConfig(
        mu=-1.0, lam=1.0, q_mag_max=400.0,
        tau_grid=GridSpec(1e-3, 1e3, 5, "log"),
        qmag_grid=GridSpec(0.0, 6.0, 3),
        ppar_grid=GridSpec(-6.0, 6.0, 5),
        pperp_grid=GridSpec(0.0, 6.0, 3),
        refine_iters=2)
    rng = np.random.default_rng(61)

    # rotational and reflection invariance of integrand and inner integral
    def rot(a, v):
        return np.array([math.cos(a) * v[0] - math.sin(a) * v[1],
                         math.sin(a) * v[0] + math.cos(a) * v[1]])
    p, Q, tau = np.array([1.0, 0.5]), np.array([2.0, 0.3]), 0.7
    q = np.array([1.5, -0.7])
    ang = float(rng.uniform(0, 2 * math.pi))
    ci = c_integrand(p, q, Q, tau, cfg, pars)
    ci_rot = c_integrand(rot(ang, p), rot(ang, q), rot(ang, Q), tau, cfg, pars)
    assert abs(ci_rot - ci) <= 1e-8 * ci
    ii = inner_integral(p, Q, tau, cfg, pars)
    ii_rot = inner_integral(rot(ang, p), rot(ang, Q), tau, cfg, pars)
    assert abs(ii_rot - ii) <= 1e-8 * ii
    ii_ref = inner_integral((p[0], -p[1]), (Q[0], -Q[1]), tau, cfg, pars)
    assert abs(ii_ref - ii) <= 1e-8 * ii

    # denominator positivity over 1e6 samples
    total = 0
    for M in (0.2, 0.7, 2.0, 10.0, 50.0):
        pm = ModelParams(M, -1.0)
        n = 200_000
        ps = rng.uniform(-8, 8, (n, 2))
        Qs = rng.uniform(-8, 8, (n, 2))
        taus = 10.0 ** rng.uniform(-3, 3, n)
        angs = rng.uniform(0, 2 * math.pi, n)
        mags = np.sqrt(rng.uniform(cfg.lam * 1.0001, cfg.q_mag_max ** 2, n))
        qs = np.stack([mags * np.cos(angs), mags * np.sin(angs)], axis=1)
        vals = c_integrand(ps, qs, Qs, taus, cfg, pm)
        assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
        total += n
    assert total == 1_000_000

    # refinement trace nondecreasing, final two levels within 2 percent
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = estimate_C(cfg, pars)
    levels = [v for _, v in est.refinement_trace]
    assert all(b >= a for a, b in zip(levels, levels[1:]))
    assert (levels[-1] - levels[-2]) <= 0.02 * levels[-1]

    # doubling the truncation radius moves the integral less than the bound
    v1, tail = inner_integral(p, Q, tau, cfg, pars, _with_tail=True)
    v2 = inner_integral(p, Q, tau, replace(cfg, q_mag_max=2 * cfg.q_mag_max),
                        pars)
    assert 0.0 <= v2 - v1 <= tail
    gate.done()


def test_criterion_7_cli_contract():
    gate = _Gate(7, "CLI contract", 60.0)
    assert _cli("bound", "--mass", "1.0", "--binding", "-1.0").returncode == 2
    proc = _cli("verify", "--suite", "monotonicity", "--samples", "50",
                "--seed", "1", "--tol", "1e-30", "--format", "json")
    assert proc.returncode == 4

    proc = _cli("bound", "--mass", "2.0", "--binding", "-1.0",
                "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert json.loads(json.dumps(payload)) == payload

    base = ("c-constant", "--mass", "2.0", "--grid", "coarse",
            "--format", "json")
    # --threads is still accepted, and ignored
    out1 = _cli(*base, "--threads", "1")
    out8 = _cli(*base, "--threads", "8")
    assert out1.returncode == 0 and out8.returncode == 0
    assert out1.stdout == out8.stdout
    est = json.loads(out1.stdout)
    assert est["C"] > 0 and len(est["refinement_trace"]) >= 2
    gate.done()
