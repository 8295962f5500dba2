import json
import math

import numpy as np
import pytest

from polaron2d import (KernelPoint, ModelParams, QuadratureSpec, a_scale,
                       alpha_m, bound_lhs, envelope_cutoff_integral, run_suite,
                       verify_bound_chain, verify_disk_area,
                       verify_momentum_bounds, verify_rearrangement,
                       verify_sigma_minus, verify_tail_integral,
                       verify_u_integral_bound)
from polaron2d import verify
from polaron2d.verify import (_envelope_circle_integral,
                              _shifted_envelope_integral)

from oracles import envelope_circle_quad


class TestTailIntegral:
    def test_reference_values(self):
        # antiderivative of (s - mu)^-2 gives pi/(lam - mu)
        row = verify_tail_integral(1.0, -1.0)
        assert row.passed
        assert row.worst_input["closed_form"] == pytest.approx(math.pi / 2)
        row = verify_tail_integral(2.0, -3.0)
        assert row.worst_input["closed_form"] == pytest.approx(math.pi / 5)

    def test_random_pairs(self, rng):
        for _ in range(20):
            lam = float(10 ** rng.uniform(-2, 2))
            mu = -float(10 ** rng.uniform(-2, 2))
            row = verify_tail_integral(lam, mu)
            assert row.max_violation < 1e-10

    def test_uncapped_tail_sample_count(self, monkeypatch):
        # every sample is checked, however many; one real tail check
        # stands in for each, so that 20001 samples stay cheap
        row = verify_tail_integral(1.0, -1.0)
        lams = []

        def stub(lam, mu, quad, tol):
            lams.append(lam)
            return row

        monkeypatch.setattr(verify, "verify_tail_integral", stub)
        report = run_suite("integrals", samples=20_001, seed=2)
        tail = next(c for c in report.cases
                    if c.name == "resolvent_tail_integral")
        assert tail.samples_run == len(lams) == 20_001


class TestDiskArea:
    @pytest.mark.parametrize("lam,expected", [(1.0, math.pi),
                                              (4.0, 4 * math.pi)])
    def test_reference_values(self, lam, expected):
        row = verify_disk_area(lam)
        assert row.passed
        assert row.worst_input["closed_form"] == pytest.approx(expected)

    def test_random(self, rng):
        for _ in range(10):
            row = verify_disk_area(float(10 ** rng.uniform(-2, 2)))
            assert row.max_violation < 1e-12


class TestSigmaMinus:
    def test_orthogonal_momenta_vanish(self, params_m2):
        row = verify_sigma_minus((1.0, 0.0), (0.0, 2.0), 3.0, params_m2)
        assert row.worst_input["closed_form"] == 0.0
        assert row.worst_input["difference_form"] == 0.0
        assert abs(row.worst_input["u_quadrature"]) < 1e-300

    def test_equal_momenta_no_offset(self):
        row = verify_sigma_minus((1.3, -0.4), (1.3, -0.4), 0.0,
                                 ModelParams(2.0, -1.0))
        assert row.max_violation < 1e-10

    def test_many_random(self, params_m2, rng):
        for _ in range(50):
            p = rng.uniform(-10, 10, 2)
            q = rng.uniform(-10, 10, 2)
            B = float(rng.uniform(0, 100))
            M = float(rng.uniform(0.2, 50))
            row = verify_sigma_minus(tuple(p), tuple(q), B,
                                     ModelParams(M, -1.0))
            assert row.max_violation < 1e-8


class TestUIntegralBound:
    def test_large_sample_run(self):
        row = verify_u_integral_bound(100_000, seed=11)
        assert row.passed
        assert row.max_violation <= 1e-12

    def test_orthogonal_case_equality(self):
        # b = 0 collapses the left side and the first comparison to zero
        x, w = np.polynomial.legendre.leggauss(64)
        D0 = 3.0 * 8.0 + 5.0  # (M+1) S + B with M=2, S=8, B=5
        lhs = 0.0 * np.sum(w / (D0 - x) ** 2)
        assert lhs == 0.0

    def test_huge_B_decay(self):
        row = verify_u_integral_bound(1000, seed=3)
        assert row.passed
        # direct check at B = 1e8: all three expressions tiny and ordered
        M, S, b = 2.0, 8.0, 2.0
        B = 1e8
        x, w = np.polynomial.legendre.leggauss(64)
        u = 0.5 * (x + 1.0)
        D0 = (M + 1) * S + B
        lhs = (b * 0.5 * w * (1 / (D0 + 2 * u * b) ** 2
                              + 1 / (D0 - 2 * u * b) ** 2)).sum()
        mid = b / D0 ** 2 + (b * 0.5 * w / (D0 - 2 * u * b) ** 2).sum()
        fin = (1 / (2 * (M + 1) * D0)
               + (0.5 * w / (2 * (M + 1 - u) * ((M + 1 - u) * S + B))).sum())
        assert lhs <= mid <= fin
        assert fin < 1e-8


class TestMomentumBounds:
    def test_large_sample_run(self):
        row = verify_momentum_bounds(100_000, seed=5)
        assert row.passed
        assert row.max_violation <= 1e-12

    def test_drop_shift_still_dominates(self, rng):
        # P = 0 keeps the left side above the middle term for p != 0
        for _ in range(100):
            M = float(rng.uniform(0.2, 50))
            u = float(rng.uniform(0, 1))
            psq = float(rng.uniform(0.1, 100))
            lhs = (M + 1 - u) * psq
            mid = M * (M + 1 - u) * (M + 2) / (M * M + 3 * M + 1 - u) * psq
            assert lhs > mid


class TestRearrangement:
    def test_sample_run(self):
        row = verify_rearrangement(60, seed=9)
        assert row.passed
        assert row.max_violation == 0.0

    def test_zero_shift_gap_formula(self, params_m2):
        # at v = 0 the gap is the inner-disk mass (pi/lam) int_0^lam f,
        # i.e. pi log(1 + lam/A) / (2 (M+1-u)^2 lam)
        k = KernelPoint(u=0.3, tau=0.5, psq=2.0, mu=-1.0, lam=1.5)
        quad = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-14,
                              max_subdivisions=400)
        rhs = envelope_cutoff_integral(k, params_m2)
        lhs = _shifted_envelope_integral((0.0, 0.0), k, params_m2, quad, rhs)
        from polaron2d import a_scale
        A = a_scale(k, params_m2)
        ku = params_m2.mass_ratio + 1 - k.u
        gap_expected = math.pi * math.log1p(k.lam / A) / (2 * ku * ku * k.lam)
        assert rhs - lhs == pytest.approx(gap_expected, rel=1e-8)
        assert lhs <= rhs

    def test_large_shift_has_wide_margin(self, params_m2):
        k = KernelPoint(u=0.2, tau=1.0, psq=4.0, mu=-1.0, lam=1.0)
        quad = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14,
                              max_subdivisions=400)
        rhs = envelope_cutoff_integral(k, params_m2)
        lhs = _shifted_envelope_integral((1e3, 0.0), k, params_m2, quad, rhs)
        assert lhs < 0.1 * rhs

    def test_circle_integral_matches_quadrature(self, rng):
        for _ in range(30):
            M = float(rng.uniform(0.2, 50.0))
            pars = ModelParams(M, -1.0)
            k = KernelPoint(u=float(rng.uniform(0, 1)),
                            tau=float(rng.uniform(0, 10)),
                            psq=float(rng.uniform(0, 100)),
                            mu=-float(10 ** rng.uniform(-1, 1)),
                            lam=float(10 ** rng.uniform(-1, 1)))
            ang = float(rng.uniform(0, 2 * math.pi))
            vmag = float(rng.choice([0.0, 1e-6, rng.uniform(0, 10)]))
            v = (vmag * math.cos(ang), vmag * math.sin(ang))
            A = a_scale(k, pars)
            for r in (1e-3, 0.5, vmag, 3.0, 1e3):
                got = _envelope_circle_integral(r, vmag, A, M + 1.0 - k.u)
                want = envelope_circle_quad(r, v, k, pars)
                assert got == pytest.approx(want, rel=1e-12)

    def test_uncapped_sample_count(self):
        report = run_suite("inequalities", samples=2500, seed=2)
        row = next(c for c in report.cases if c.name == "rearrangement")
        assert row.samples_run == 2500
        assert row.passed

    def test_radial_cost_of_one_sample(self, params_m2, integrand_calls):
        # one first pass plus at most one bisection at an unshifted point;
        # more calls mean the radial rule regressed
        calls = integrand_calls(verify)
        k = KernelPoint(u=0.3, tau=0.5, psq=2.0, mu=-1.0, lam=1.5)
        quad = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14,
                              max_subdivisions=400)
        rhs = envelope_cutoff_integral(k, params_m2)
        lhs = _shifted_envelope_integral((0.0, 0.0), k, params_m2, quad, rhs)
        assert 0.0 < lhs < rhs
        assert 1 <= len(calls) <= 3


class TestBoundChain:
    def test_equality_at_zero_and_domination(self, params_m2):
        mu_grid = params_m2.binding_energy * np.array([1.5, 2.0, 10.0])
        row = verify_bound_chain(params_m2, 1.0, mu_grid)
        assert row.passed
        assert row.max_violation < 1e-12

    def test_pre_minimisation_expression_strictly_larger(self, params_m2):
        # independent recoding of the spectral expression at tau = 1e3
        a = alpha_m(params_m2)
        M = params_m2.mass_ratio
        eb = params_m2.binding_energy
        mu, lam, tau = 2 * eb, 1.0, 1e3
        expr = math.pi * (M / (M + 1) * math.log((tau - mu) / -eb)
                          - math.sqrt(lam / -mu) - math.sqrt(lam / (lam - mu))
                          - a * (1 + math.log1p((tau - mu) / lam)))
        assert expr > math.pi * bound_lhs(mu, lam, params_m2, a) + 1.0

    def test_rejects_mu_above_binding_energy(self, params_m2):
        with pytest.raises(ValueError):
            verify_bound_chain(params_m2, 1.0, [-0.5])


class TestSuiteRunner:
    def test_deterministic_reports(self):
        r1 = run_suite("monotonicity", samples=300, seed=4)
        r2 = run_suite("monotonicity", samples=300, seed=4)
        assert json.dumps(r1.to_dict()) == json.dumps(r2.to_dict())

    def test_suite_passed_is_conjunction(self):
        report = run_suite("integrals", samples=30, seed=1)
        assert report.suite_passed == all(c.passed for c in report.cases)
        assert report.suite_passed

    def test_impossible_tolerance_fails(self):
        report = run_suite("monotonicity", samples=50, seed=1,
                           tol_override=1e-30)
        assert not report.suite_passed

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("everything")

    def test_group_selection(self):
        report = run_suite("chain", samples=10, seed=0)
        assert [c.name for c in report.cases] == ["tau_chain"]
