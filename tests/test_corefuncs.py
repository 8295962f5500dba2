import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polaron2d import (KernelPoint, ModelParams, QuadratureSpec, a_scale,
                       alpha_m, beta, beta_kink, bound_lhs, bound_lhs_alt,
                       coupling_alpha, envelope_cutoff_integral, j_weight,
                       kernel_envelope)

from oracles import alpha_quad, envelope_integral_radial


class TestTypes:
    def test_model_params_validation(self):
        with pytest.raises(ValueError):
            ModelParams(-1.0, -1.0)
        with pytest.raises(ValueError):
            ModelParams(2.0, 0.5)
        with pytest.raises(ValueError):
            ModelParams(0.0, -1.0)

    @pytest.mark.parametrize("args, message", [
        ((math.inf, -1.0), "mass_ratio must be positive and finite, got inf"),
        ((2.0, -math.inf),
         "binding_energy must be negative and finite, got -inf"),
        ((np.array([2.0, math.inf, math.nan]), -1.0),
         "mass_ratio must be positive and finite, got inf"),
        ((2.0, np.array([-1.0, -2.0, -math.inf])),
         "binding_energy must be negative and finite, got -inf"),
    ], ids=["mass", "binding", "mass_array", "binding_array"])
    def test_model_params_rejects_non_finite(self, args, message):
        with pytest.raises(ValueError) as exc:
            ModelParams(*args)
        assert str(exc.value) == message

    def test_quadrature_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)

    def test_kernel_point_validation(self):
        with pytest.raises(ValueError):
            KernelPoint(u=1.5, tau=0.0, psq=0.0, mu=-1.0, lam=1.0)
        with pytest.raises(ValueError):
            KernelPoint(u=0.5, tau=-0.1, psq=0.0, mu=-1.0, lam=1.0)
        with pytest.raises(ValueError):
            KernelPoint(u=0.5, tau=0.0, psq=0.0, mu=0.0, lam=1.0)
        with pytest.raises(ValueError):
            KernelPoint(u=0.5, tau=0.0, psq=0.0, mu=-1.0, lam=0.0)


class TestBeta:
    def test_one_below_kink(self, params_m2):
        assert beta(0.0, params_m2) == 1.0

    def test_value_at_one(self, params_m2):
        # (M+2)/(M+3) after cancelling the common factor at u = 1
        assert beta(1.0, params_m2) == pytest.approx(0.8, abs=1e-15)

    def test_branches_cross_at_kink(self, params_m2):
        M = params_m2.mass_ratio
        u_star = beta_kink(params_m2)
        ratio = (M + 1 - u_star) * (M + 2) / (M * M + 3 * M + 1 - u_star)
        assert ratio == pytest.approx(1.0, abs=4e-16)
        assert beta(u_star, params_m2) == pytest.approx(1.0, abs=4e-16)

    def test_kink_machine_precision_both_sides(self, params_m2):
        u_star = beta_kink(params_m2)
        assert beta(u_star - 1e-9, params_m2) == 1.0
        assert beta(u_star + 1e-9, params_m2) < 1.0

    def test_domain_error(self, params_m2):
        with pytest.raises(ValueError):
            beta(-0.01, params_m2)
        with pytest.raises(ValueError):
            beta(1.01, params_m2)

    def test_continuity_across_kink(self, params_m2):
        u_star = beta_kink(params_m2)
        eps = np.geomspace(1e-12, 1e-4, 30)
        below = beta(u_star - eps, params_m2)
        above = beta(u_star + eps, params_m2)
        assert np.all(np.abs(below - above) < 1e-3)
        assert np.max(np.abs(beta(u_star + 1e-12, params_m2) - 1.0)) < 1e-11

    @given(u=st.floats(0.0, 1.0), M=st.floats(0.01, 100.0))
    @settings(max_examples=300)
    def test_range_and_plateau(self, u, M):
        pars = ModelParams(M, -1.0)
        b = beta(u, pars)
        assert 0.0 < b <= 1.0
        if u <= beta_kink(pars):
            assert b == 1.0


class TestAlphaM:
    @pytest.mark.parametrize("M", [0.5, 1.0, 1.225, 2.0, 5.0, 50.0,
                                   1e-3, 1e3, 1e6])
    def test_matches_closed_form(self, M):
        # the closed form against a quadrature of the defining integral
        got, want = alpha_m(ModelParams(M, -1.0)), alpha_quad(M)
        assert abs(got - want) < 1e-10
        assert abs(got - want) <= 1e-12 * want

    def test_threshold_margin(self):
        # the sufficient condition M > 1.225 must hold with a strict margin
        assert alpha_m(ModelParams(1.225, -1.0)) < 1.225 / 2.225

    def test_vanishes_for_heavy_impurity(self):
        assert alpha_m(ModelParams(1e6, -1.0)) < 1e-5

    def test_strictly_decreasing_with_single_crossing(self):
        m = np.geomspace(0.5, 50.0, 120)
        alphas = np.array([alpha_m(ModelParams(float(x), -1.0)) for x in m])
        hyp = m / (m + 1.0)
        assert np.all(np.diff(alphas) < 0)
        assert np.all(np.diff(hyp) > 0)
        assert np.sum(np.diff(np.sign(alphas - hyp)) != 0) == 1


class TestCouplingAlpha:
    def test_unit_binding(self):
        assert coupling_alpha(ModelParams(1.0, -1.0)) == 0.0

    def test_exponential_binding(self):
        got = coupling_alpha(ModelParams(1.0, -math.e))
        assert got == pytest.approx(-math.pi / 2, abs=1e-14)

    def test_heavy_impurity_limit(self):
        got = coupling_alpha(ModelParams(1e6, -math.exp(-1.0)))
        assert got == pytest.approx(math.pi, abs=1e-5)


class TestBoundLhs:
    def test_negative_at_binding_energy(self, params_m2):
        a = alpha_m(params_m2)
        val = bound_lhs(params_m2.binding_energy, 1.0, params_m2, a)
        assert val < 0.0

    def test_negative_on_whole_interval_above_eb(self, params_m2):
        a = alpha_m(params_m2)
        mu = -np.geomspace(1e-6, 1.0, 200)  # E_B <= mu < 0 for E_B = -1
        assert np.all(bound_lhs(mu, 1.0, params_m2, a) < 0.0)

    def test_positive_far_left(self, params_m2):
        a = alpha_m(params_m2)
        assert bound_lhs(1e6 * params_m2.binding_energy, 1.0, params_m2, a) > 0.0

    def test_forms_agree_on_random_inputs(self, rng):
        m_values = np.geomspace(0.2, 50.0, 16)
        alph = {float(m): alpha_m(ModelParams(float(m), -1.0))
                for m in m_values}
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
        assert worst < 1e-12

    def test_monotone_decreasing_in_mu(self, params_m2):
        a = alpha_m(params_m2)
        mu = params_m2.binding_energy * np.geomspace(1.0 + 1e-5, 1e3, 1000)
        h = 1e-6 * np.abs(mu)
        slope = (bound_lhs(mu + h, 1.0, params_m2, a)
                 - bound_lhs(mu - h, 1.0, params_m2, a)) / (2 * h)
        assert np.all(slope < 0.0)

    def test_domain_errors(self, params_m2):
        a = alpha_m(params_m2)
        with pytest.raises(ValueError):
            bound_lhs(0.0, 1.0, params_m2, a)
        with pytest.raises(ValueError):
            bound_lhs(1.0, 1.0, params_m2, a)
        with pytest.raises(ValueError):
            bound_lhs(-1.0, -1.0, params_m2, a)


class TestAScale:
    def test_simple_point(self, params_m2):
        k = KernelPoint(u=0.0, tau=0.0, psq=0.0, mu=-1.0, lam=1.0)
        assert a_scale(k, params_m2) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_point_at_u_one(self, params_m2):
        k = KernelPoint(u=1.0, tau=1.0, psq=1.0, mu=-1.0, lam=1.0)
        # beta(1) = 4/5, so A = 2 (1 + 4/5 + 1) / 2 = 14/5
        assert a_scale(k, params_m2) == pytest.approx(14.0 / 5.0, rel=1e-15)

    def test_dominated_by_unweighted_scale(self, rng):
        n = 100_000
        u = rng.uniform(0.0, 1.0, n)
        tau = rng.uniform(0.0, 100.0, n)
        psq = rng.uniform(0.0, 100.0, n)
        mu = -(10.0 ** rng.uniform(-2, 2, n))
        M = rng.uniform(0.2, 50.0, n)
        bet = np.minimum(1.0, (M + 1 - u) * (M + 2) / (M * M + 3 * M + 1 - u))
        A = M * (tau + bet * psq - mu) / (M + 1.0 - u)
        assert np.all(A <= tau + psq - mu + 1e-12 * (tau + psq - mu))
        # spot-check the vectorised formula against the public function
        for j in rng.integers(0, n, 200):
            k = KernelPoint(u=float(u[j]), tau=float(tau[j]),
                            psq=float(psq[j]), mu=float(mu[j]), lam=1.0)
            pars = ModelParams(float(M[j]), -1.0)
            assert a_scale(k, pars) == pytest.approx(float(A[j]), rel=1e-13)


class TestKernelEnvelope:
    def test_reference_value(self, params_m2):
        k = KernelPoint(u=0.0, tau=0.0, psq=0.0, mu=-1.0, lam=1.0)
        # A = 2/3, so the envelope at qsq = 0 is 1/(2 * 9 * 2/3) = 1/12
        assert kernel_envelope(0.0, k, params_m2) == pytest.approx(1.0 / 12.0,
                                                                   rel=1e-14)

    def test_monotone_decreasing(self, params_m2):
        k = KernelPoint(u=0.3, tau=0.5, psq=2.0, mu=-1.5, lam=1.0)
        s = np.geomspace(1e-6, 1e6, 100)
        vals = kernel_envelope(s, k, params_m2)
        assert np.all(np.diff(vals) < 0)

    @given(qsq=st.floats(0.0, 1e6), scale=st.floats(0.5, 4.0))
    @settings(max_examples=200)
    def test_inverse_scaling_in_qsq_and_scale(self, qsq, scale):
        # doubling (qsq, A) jointly halves the envelope: check through the
        # dependence on tau, which enters A linearly when psq = 0, u = 0
        pars = ModelParams(1.0, -1.0)
        k1 = KernelPoint(u=0.0, tau=1.0, psq=0.0, mu=-1.0, lam=1.0)
        A1 = a_scale(k1, pars)
        v1 = kernel_envelope(qsq, k1, pars)
        k2 = KernelPoint(u=0.0, tau=scale * (1.0 + 1.0) - 1.0, psq=0.0,
                         mu=-1.0, lam=1.0)
        assert a_scale(k2, pars) == pytest.approx(scale * A1, rel=1e-12)
        v2 = kernel_envelope(scale * qsq, k2, pars)
        assert v2 == pytest.approx(v1 / scale, rel=1e-12)


class TestJWeight:
    def test_inside_disk(self):
        assert j_weight(1.0, 2.0) == 0.5

    def test_outside_disk(self):
        assert j_weight(4.0, 1.0) == 0.25

    def test_continuous_at_boundary(self):
        assert j_weight(3.0, 3.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert j_weight(np.nextafter(3.0, 4.0), 3.0) == pytest.approx(
            1.0 / 3.0, rel=1e-14)

    def test_nonincreasing(self):
        s = np.linspace(0.0, 50.0, 1000)
        vals = j_weight(s, 2.5)
        assert np.all(np.diff(vals) <= 0)


class TestEnvelopeCutoffIntegral:
    def test_matches_radial_quadrature(self, rng):
        for _ in range(100):
            pars = ModelParams(float(rng.uniform(0.2, 50.0)), -1.0)
            k = KernelPoint(u=float(rng.uniform(0, 1)),
                            tau=float(rng.uniform(0, 10)),
                            psq=float(rng.uniform(0, 100)),
                            mu=-float(10.0 ** rng.uniform(-1, 1)),
                            lam=float(10.0 ** rng.uniform(-1, 1)))
            closed = envelope_cutoff_integral(k, pars)
            oracle = envelope_integral_radial(k, pars)
            assert closed == pytest.approx(oracle, rel=1e-8)

    def test_tiny_scale_no_overflow(self, params_m2):
        # A ~ 1e-12 lam exercises the log1p branch
        k = KernelPoint(u=0.0, tau=0.0, psq=0.0, mu=-1e-12, lam=1.0)
        val = envelope_cutoff_integral(k, params_m2)
        assert math.isfinite(val) and val > 0.0

    def test_huge_scale_asymptote(self, params_m2):
        # A ~ 1e12 lam: expansion of both logarithms gives
        # pi/(2 (M+1-u)^2 A) (1 + log(A/lam)) up to O(lam/A)
        k = KernelPoint(u=0.0, tau=1e12 * 1.5 - 1.0, psq=0.0, mu=-1.0, lam=1.0)
        A = a_scale(k, params_m2)
        assert A > 1e11
        ku = params_m2.mass_ratio + 1.0 - k.u
        asymptote = math.pi / (2 * ku * ku * A) * (1.0 + math.log(A / k.lam))
        assert envelope_cutoff_integral(k, params_m2) == pytest.approx(
            asymptote, rel=1e-6)


class TestBroadcasting:
    """Array fields of ModelParams and KernelPoint, one entry per sample:
    the values equal a loop of scalar calls bit for bit, and a bad entry
    raises the scalar call's error."""

    n = 2000

    @staticmethod
    def draw(rng, n):
        return {"u": rng.uniform(0.0, 1.0, n),
                "tau": rng.uniform(0.0, 10.0, n),
                "psq": rng.uniform(0.0, 100.0, n),
                "mu": -(10.0 ** rng.uniform(-6.0, 6.0, n)),
                "lam": 10.0 ** rng.uniform(-6.0, 6.0, n),
                "M": rng.uniform(0.2, 50.0, n),
                "eb": -(10.0 ** rng.uniform(-2.0, 2.0, n))}

    @pytest.fixture
    def draws(self, rng):
        return self.draw(rng, self.n)

    @staticmethod
    def scalar(d, i):
        k = KernelPoint(*(float(d[f][i])
                          for f in ("u", "tau", "psq", "mu", "lam")))
        return k, ModelParams(float(d["M"][i]), float(d["eb"][i]))

    @staticmethod
    def arrays(d):
        return (KernelPoint(d["u"], d["tau"], d["psq"], d["mu"], d["lam"]),
                ModelParams(d["M"], d["eb"]))

    @pytest.mark.parametrize("name", ["beta", "a_scale",
                                      "envelope_cutoff_integral",
                                      "bound_lhs", "bound_lhs_alt"])
    def test_equals_loop_of_scalar_calls(self, draws, name):
        calls = {
            "beta": lambda k, p: beta(k.u, p),
            "a_scale": a_scale,
            "envelope_cutoff_integral": envelope_cutoff_integral,
            # alpha(M) as a per-sample argument, as the callers pass it
            "bound_lhs": lambda k, p: bound_lhs(
                k.mu, k.lam, p, 0.1 + p.mass_ratio / 100.0),
            "bound_lhs_alt": lambda k, p: bound_lhs_alt(
                k.mu, k.lam, p, 0.1 + p.mass_ratio / 100.0),
        }
        call = calls[name]
        got = call(*self.arrays(draws))
        want = [call(*self.scalar(draws, i)) for i in range(self.n)]
        assert all(type(w) is float for w in want)
        assert got.shape == (self.n,)
        np.testing.assert_array_equal(got, np.array(want))

    def test_cutoff_integral_is_the_math_module_closed_form(self, rng):
        # the closed form on Python floats, with the C library's pow and
        # log1p, which numpy's SIMD kernels do not reproduce to the last
        # bit; enough samples that a squared or SIMD path would show
        n = 50000
        d = self.draw(rng, n)

        def closed_form(u, tau, psq, mu, lam, M):
            ku = M + 1.0 - u
            beta_u = min(1.0, ku * (M + 2.0) / (M * M + 3.0 * M + 1.0 - u))
            A = M * (tau + beta_u * psq - mu) / ku
            return (math.pi / (2.0 * ku ** 2 * A)
                    * ((A / lam) * math.log1p(lam / A) + math.log1p(A / lam)))

        cols = [d[f].tolist() for f in ("u", "tau", "psq", "mu", "lam", "M")]
        want = np.array([closed_form(*row) for row in zip(*cols)])
        np.testing.assert_array_equal(
            envelope_cutoff_integral(*self.arrays(d)), want)
        for i in range(0, n, 500):
            assert envelope_cutoff_integral(*self.scalar(d, i)) == want[i]

    @pytest.mark.parametrize("field,bad,later", [
        ("u", 1.5, 3.0), ("u", -0.25, 2.0), ("tau", -1.0, -2.0),
        ("psq", -2.0, -1.0), ("mu", 0.5, 0.0), ("lam", 0.0, -1.0),
        ("M", -3.0, 0.0), ("eb", 0.25, 0.0),
    ])
    def test_bad_entry_raises_the_scalar_error(self, draws, field, bad,
                                               later):
        # the message names the first of two bad entries
        j = 137
        draws[field][j] = bad
        draws[field][j + 500] = later
        with pytest.raises(ValueError) as want:
            self.scalar(draws, j)
        with pytest.raises(ValueError) as got:
            self.arrays(draws)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("name,arg,bad", [
        ("beta", 0, 2.0), ("bound_lhs", 0, 1.0), ("bound_lhs", 1, -1.0),
        ("bound_lhs_alt", 0, 0.0), ("bound_lhs_alt", 1, 0.0),
    ])
    def test_bad_argument_entry_raises_the_scalar_error(self, draws, name,
                                                        arg, bad):
        # the arguments no dataclass checks: u of beta, mu and lam of the
        # bound-equation forms
        fn = {"beta": lambda u, lam, p: beta(u, p),
              "bound_lhs": lambda mu, lam, p: bound_lhs(mu, lam, p, 0.3),
              "bound_lhs_alt": lambda mu, lam, p: bound_lhs_alt(mu, lam, p,
                                                                0.3)}[name]
        first = "u" if name == "beta" else "mu"
        j = 11
        draws[(first, "lam")[arg]][j] = bad
        with pytest.raises(ValueError) as want:
            fn(float(draws[first][j]), float(draws["lam"][j]),
               ModelParams(float(draws["M"][j]), float(draws["eb"][j])))
        with pytest.raises(ValueError) as got:
            fn(draws[first], draws["lam"], ModelParams(draws["M"], draws["eb"]))
        assert str(got.value) == str(want.value)
