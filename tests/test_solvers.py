import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polaron2d import (BracketFailure, CutoffChoice, ModelParams, RangeError,
                       RootFindSpec, SupercriticalMass, alpha_m, bound_lhs,
                       critical_mass, optimize_lambda, solve_gamma, solve_mu,
                       verify_tail_integral)

import polaron2d.solvers as solvers
from oracles import (bisect, count_local_maxima, critical_mass_grid,
                     gamma_by_bisection, lambda_grid_scan, optimum_mpmath)

# BoundResult.iterations of solve_mu(ModelParams(M, E_B), ratio * |E_B|)
# as recorded when the left side was evaluated through the numpy bound_lhs
# and alpha(M) by GK15 quadrature; None where solve_mu raised BracketFailure
# because mu lies beyond the float range.
RECORDED_ITERATIONS = {
    (1.23, -1.0, 1e-2): None, (1.23, -1.0, 1.0): 277, (1.23, -1.0, 1e2): 15,
    (1.23, -1e6, 1e-2): None, (1.23, -1e6, 1.0): 277, (1.23, -1e6, 1e2): 15,
    (2.0, -1.0, 1e-2): 22, (2.0, -1.0, 1.0): 14, (2.0, -1.0, 1e2): 14,
    (2.0, -1e6, 1e-2): 22, (2.0, -1e6, 1.0): 14, (2.0, -1e6, 1e2): 14,
    (50.0, -1.0, 1e-2): 9, (50.0, -1.0, 1.0): 10, (50.0, -1.0, 1e2): 14,
    (50.0, -1e6, 1e-2): 9, (50.0, -1e6, 1.0): 10, (50.0, -1e6, 1e2): 14,
}
SOLVED = [key for key, n in RECORDED_ITERATIONS.items() if n is not None]


class TestSolveMu:
    def test_matches_bisection_oracle(self, params_m2):
        res = solve_mu(params_m2, 1.0)
        a = alpha_m(params_m2)
        oracle = bisect(lambda mu: bound_lhs(mu, 1.0, params_m2, a),
                        -1e4, params_m2.binding_energy * (1 + 1e-9), tol=1e-12)
        assert res.mu == pytest.approx(oracle, rel=1e-8)

    def test_mu_below_binding_energy(self, params_m2):
        res = solve_mu(params_m2, 1.0)
        assert res.mu < params_m2.binding_energy

    def test_result_invariants(self, params_m2):
        spec = RootFindSpec()
        res = solve_mu(params_m2, 1.0, spec)
        assert res.gamma == res.mu / params_m2.binding_energy
        assert res.gamma > 1.0
        assert abs(res.residual) <= spec.f_tol
        assert not res.optimized

    def test_scaling_covariance(self):
        # the equation only involves mu/E_B, lam/mu and lam/E_B, so the
        # root scales linearly with (E_B, lam)
        base = solve_mu(ModelParams(2.0, -1.0), 1.0).mu
        scaled = solve_mu(ModelParams(2.0, -2.0), 2.0).mu
        assert scaled == pytest.approx(2.0 * base, rel=1e-8)

    def test_supercritical_mass_rejected(self):
        with pytest.raises(SupercriticalMass):
            solve_mu(ModelParams(1.0, -1.0), 1.0)

    def test_near_critical_overflow_reported(self):
        # within ~1.5e-3 of the critical mass the root leaves float range
        from polaron2d import BracketFailure
        with pytest.raises(BracketFailure, match="floating-point range"):
            solve_mu(ModelParams(1.2242, -1.0), 1.0)

    def test_invalid_cutoff(self, params_m2):
        with pytest.raises(ValueError):
            solve_mu(params_m2, -1.0)
        with pytest.raises(ValueError, match="finite"):
            solve_mu(params_m2, math.inf)


class TestSolveGamma:
    def test_against_bisection_oracle(self):
        got = solve_gamma(2.0)
        oracle = gamma_by_bisection(2.0)
        assert got == pytest.approx(oracle, rel=1e-10)
        # desk estimate "about 20.3", refined by the oracle run
        assert got == pytest.approx(20.312228625, abs=1e-6)

    @pytest.mark.parametrize("M", [1.23, 1.5, 2.0, 5.0, 20.0, 50.0])
    def test_consistent_with_binding_scale_bound(self, M):
        # solve_gamma is solve_mu at lam = -E_B = 1, so the two agree exactly
        res = solve_mu(ModelParams(M, -1.0), 1.0)
        assert solve_gamma(M) == res.gamma

    def test_above_one_over_mass_scan(self):
        for M in np.linspace(1.3, 50.0, 25):
            assert solve_gamma(float(M)) > 1.0

    def test_supercritical(self):
        with pytest.raises(SupercriticalMass):
            solve_gamma(1.0)

    def test_huge_ratio_near_critical(self):
        # the bound deteriorates doubly exponentially towards the critical
        # mass but stays representable down to M* + ~1.5e-3
        g = solve_gamma(1.23)
        assert 1e70 < g < 1e90
        res = solve_mu(ModelParams(1.23, -1.0), 1.0)
        assert g == pytest.approx(res.mu / -1.0, rel=1e-8)

    def test_overflow_beyond_float_range(self):
        from polaron2d import BracketFailure
        with pytest.raises(BracketFailure, match="floating-point range"):
            solve_gamma(1.2242)

    def test_mu_vs_mass_observation(self, capsys):
        # larger mass weakens alpha(M), so the bound should improve; the
        # construction does not guarantee this, so report instead of assert
        masses = np.linspace(1.5, 20.0, 15)
        mus = [solve_gamma(float(M)) * -1.0 for M in masses]
        nondecreasing = all(b >= a for a, b in zip(mus, mus[1:]))
        print(f"mu(M) nondecreasing over scan: {nondecreasing}")
        assert all(math.isfinite(m) for m in mus)


class TestCriticalMass:
    def test_inside_expected_window(self):
        m_star = critical_mass()
        assert 1.20 <= m_star <= 1.225

    def test_threshold_is_sufficient(self):
        assert alpha_m(ModelParams(1.225, -1.0)) < 1.225 / 2.225

    def test_sign_change_definition(self):
        m_star = critical_mass()
        below = m_star - 0.01
        assert alpha_m(ModelParams(below, -1.0)) > below / (below + 1.0)
        above = m_star + 0.01
        assert alpha_m(ModelParams(above, -1.0)) < above / (above + 1.0)

    def test_matches_grid_scan_oracle(self):
        assert abs(critical_mass() - critical_mass_grid(1e-4)) <= 1e-4

    def test_deterministic(self):
        spec = RootFindSpec(x_tol=1e-10)
        assert critical_mass(spec) == critical_mass(spec)


class TestOptimizeLambda:
    def test_dominates_binding_scale(self, params_m2):
        choice = CutoffChoice.optimize(1e-3, 1e3)
        best = optimize_lambda(params_m2, choice)
        fixed = solve_mu(params_m2, 1.0)
        assert best.optimized
        assert best.mu >= fixed.mu - 1e-12

    def test_matches_grid_scan(self, params_m2):
        choice = CutoffChoice.optimize(1e-3, 1e3)
        best = optimize_lambda(params_m2, choice)
        lams, mus = lambda_grid_scan(params_m2, 1e-3, 1e3, 200, solve_mu)
        step = math.log(lams[1] / lams[0])
        i = int(np.argmax(mus))
        assert best.mu >= mus[i] - 1e-12
        assert abs(math.log(best.lambda_used / lams[i])) <= step
        # lam/|E_B| = x e^(k phi(x)) increases in x = lam/|mu| and phi has
        # one minimiser, so mu(lam) has a single interior maximum; the grid
        # cross-checks that
        assert count_local_maxima(mus) == 1

    def test_optimal_cutoff_scales_with_binding_energy(self):
        # (mu, lam, E_B) -> s(mu, lam, E_B) across the whole float range
        base = optimize_lambda(ModelParams(2.0, -1.0),
                               CutoffChoice.optimize(1e-3, 1e3))
        for s in (10.0, 1e-300, 1e-10, 1e-3, 1e6, 1e300):
            res = optimize_lambda(ModelParams(2.0, -s),
                                  CutoffChoice.optimize(1e-3 * s, 1e3 * s))
            assert res.mu / s == pytest.approx(base.mu, rel=1e-13), s
            assert res.lambda_used / s == pytest.approx(base.lambda_used,
                                                        rel=1e-13), s

    @pytest.mark.parametrize("M", [1.3, 2.0, 5.0])
    def test_matches_mpmath_optimum(self, M):
        lam, mu = optimum_mpmath(M)
        if M == 2.0:
            assert lam == pytest.approx(2.476847487165465688, rel=1e-15)
        pars = ModelParams(M, -1.0)
        best = optimize_lambda(pars, CutoffChoice.optimize(1e-3, 1e3))
        assert best.lambda_used == pytest.approx(lam, rel=1e-12)
        assert best.mu == pytest.approx(mu, rel=1e-14)
        assert abs(best.residual - bound_lhs(best.mu, best.lambda_used, pars,
                                             best.alpha_M)) <= 1e-12

    def test_near_critical_optimum_is_finite(self):
        # the fixed cutoff lam = -E_B overflows at M = 1.2242 (see
        # test_near_critical_overflow_reported), but the optimum does not:
        # it is solve_mu's root at the optimal cutoff
        pars = ModelParams(1.2242, -1.0)
        best = optimize_lambda(pars, CutoffChoice.optimize(1e-3, 1e3))
        assert best.mu == pytest.approx(solve_mu(pars, best.lambda_used).mu,
                                        rel=1e-13)

    def test_overflowing_optimum_reported(self):
        with pytest.raises(BracketFailure, match="floating-point range"):
            optimize_lambda(ModelParams(2.0, -1e308),
                            CutoffChoice.optimize(1e305, 1e308))

    @pytest.mark.parametrize("M", [1.3, 2.0, 20.0])
    def test_cost(self, M, monkeypatch):
        # the optimum is a closed form around one root in x = lam/|mu|;
        # it needs no solve of the bound equation
        calls = []
        real = solvers.solve_mu

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(solvers, "solve_mu", counting)
        best = optimize_lambda(ModelParams(M, -1.0),
                               CutoffChoice.optimize(1e-6, 1e6))
        assert calls == []
        assert best.iterations <= 20

    def test_boundary_maximum_is_reported(self, params_m2):
        with pytest.raises(RangeError):
            optimize_lambda(params_m2, CutoffChoice.optimize(100.0, 1000.0))


class TestFloatSolver:
    """solve_mu evaluates the bound equation on floats, with a closed-form
    alpha(M); the bracket and Brent path must be those of bound_lhs."""

    def test_recorded_iteration_counts(self):
        # The recorded quadrature alpha(M) is about 1e-15 relative off the
        # closed form.  Brent's last steps act on residuals at roundoff
        # level, where that can turn one interpolation step into a
        # bisection step (measured: +2 at M = 2, E_B = -1, ratio 1e-2).
        moved = 0
        for (M, eb, ratio), want in RECORDED_ITERATIONS.items():
            pars = ModelParams(M, eb)
            if want is None:
                with pytest.raises(BracketFailure, match="floating-point"):
                    solve_mu(pars, ratio * -eb)
                continue
            got = solve_mu(pars, ratio * -eb).iterations
            assert abs(got - want) <= 2, (M, eb, ratio, got, want)
            moved += got != want
        assert moved <= 1

    @pytest.mark.parametrize("M, eb, ratio", SOLVED)
    def test_residual_matches_bound_lhs(self, M, eb, ratio):
        pars = ModelParams(M, eb)
        lam = ratio * -eb
        res = solve_mu(pars, lam)
        assert abs(res.residual
                   - bound_lhs(res.mu, lam, pars, res.alpha_M)) <= 1e-12
        assert res.gamma == res.mu / eb

    @given(M=st.floats(1.3, 50.0), log_ratio=st.floats(-2.0, 2.0),
           s=st.floats(1.0, 1e6))
    @settings(max_examples=60, deadline=None)
    def test_scale_covariance(self, M, log_ratio, s):
        # the bound equation is invariant under (mu, lam, E_B) -> s(...)
        ratio = 10.0 ** log_ratio
        base = solve_mu(ModelParams(M, -1.0), ratio).mu
        scaled = solve_mu(ModelParams(M, -s), s * ratio).mu
        assert scaled == pytest.approx(s * base, rel=1e-10)

    @given(M=st.floats(1.3, 50.0, exclude_min=True),
           log_ratio=st.floats(-2.0, 2.0), log_s=st.floats(-300.0, 300.0))
    @settings(max_examples=100, deadline=None)
    def test_scale_covariance_over_the_float_range(self, M, log_ratio,
                                                   log_s):
        # Brent stops within x_tol |E_B| of the root, so gamma = mu/E_B has
        # the same tolerance at every scale: x_tol per solve, plus a few eps
        # of gamma times the condition number 1/(M/(M+1) - alpha) of the
        # root (the rounding of s moves the Brent path)
        ratio, s = 10.0 ** log_ratio, 10.0 ** log_s
        base = solve_mu(ModelParams(M, -1.0), ratio).gamma
        assume(base * s < 1e300)
        scaled = solve_mu(ModelParams(M, -s), s * ratio).gamma
        coef = M / (M + 1.0) - alpha_m(ModelParams(M, -1.0))
        eps = np.finfo(float).eps
        assert abs(scaled - base) <= (2.0 * RootFindSpec().x_tol
                                      + 8.0 * eps * base / coef)

    @given(M=st.floats(1.3, 50.0, exclude_min=True),
           log_ratio=st.floats(-2.0, 2.0), k=st.integers(-960, 960))
    @settings(max_examples=100, deadline=None)
    def test_power_of_two_scale_is_exact(self, M, log_ratio, k):
        # scaling by 2**k is exact in every step of the solve, the Brent
        # tolerance included, while everything stays a normal float
        ratio, s = 10.0 ** log_ratio, 2.0 ** k
        base = solve_mu(ModelParams(M, -1.0), ratio)
        assume(base.gamma * s < 1e300)
        scaled = solve_mu(ModelParams(M, -s), s * ratio)
        assert scaled.gamma == base.gamma
        assert scaled.iterations == base.iterations

    def test_no_quadrature_in_the_solvers(self, params_m2, quadrature_calls):
        alpha_m(params_m2)
        solve_mu(params_m2, 1.0)
        solve_gamma(2.0)
        critical_mass()
        optimize_lambda(params_m2, CutoffChoice.optimize(1e-3, 1e3))
        assert quadrature_calls == []
        # the counter does see quadratures made elsewhere in the package
        verify_tail_integral(1.0, -1.0)
        assert len(quadrature_calls) == 1


class TestCutoffChoice:
    def test_validation(self):
        with pytest.raises(ValueError):
            CutoffChoice.optimize(1.0, 0.5)
        with pytest.raises(ValueError):
            CutoffChoice.optimize(0.0, 1.0)
