import json
import math

import numpy as np
import pytest

from polaron2d import (KernelPoint, ModelParams, QuadratureError,
                       QuadratureSpec, a_scale, alpha_m, bound_lhs,
                       envelope_cutoff_integral, run_suite,
                       verify_bound_chain, verify_disk_area,
                       verify_momentum_bounds, verify_rearrangement,
                       verify_sigma_minus, verify_tail_integral,
                       verify_u_integral_bound)
from polaron2d import _quad, verify
from polaron2d.verify import (_envelope_circle_integral, _radial_ranges,
                              _shifted_envelope_integrals)

from oracles import envelope_circle_quad, gk15_heap

REARRANGEMENT_QUAD = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14,
                                    max_subdivisions=400)


@pytest.fixture
def lockstep_runs(monkeypatch):
    """Record every ``verify.lockstep_intervals`` call: its values, the
    rows it hands to ``lockstep_gk15`` and the integrand calls made there."""
    runs = []
    real_integrals = verify.lockstep_intervals
    real_lockstep = _quad.lockstep_gk15

    def lockstep(f, n, *args, **kwargs):
        run = runs[-1]
        run["rows"] += n

        def counted(x, rows):
            run["calls"] += 1
            return f(x, rows)

        return real_lockstep(counted, n, *args, **kwargs)

    def integrals(*args, **kwargs):
        runs.append({"rows": 0, "calls": 0})
        runs[-1]["values"] = real_integrals(*args, **kwargs)
        return runs[-1]["values"]

    monkeypatch.setattr(_quad, "lockstep_gk15", lockstep)
    monkeypatch.setattr(verify, "lockstep_intervals", integrals)
    return runs


# Per-sample loops of the three quadrature cases: the samples each case
# draws, one call of the scalar heap loop per sample.  Each returns the
# integral of every sample and the bisection rounds it took.

def _scalar(f, a, b, quad, panels=1):
    calls = []

    def counted(x):
        calls.append(len(x))
        return f(x)

    val = gk15_heap(counted, a, b, quad.rel_tol, quad.abs_tol,
                    quad.max_subdivisions, panels=panels)
    # a first pass, then two panel calls per bisection
    return val, (len(calls) - 1) // 2


def _tail_loop(samples, seed, quad):
    rng = np.random.default_rng(seed)
    lams = 10.0 ** rng.uniform(-2, 2, samples)
    mus = -(10.0 ** rng.uniform(-2, 2, samples))
    return [_scalar(lambda t, c=lam - mu: 1.0 / (c * (1.0 - t) + t) ** 2,
                    0.0, 1.0, quad)
            for lam, mu in zip(lams.tolist(), mus.tolist())]


def _disk_loop(samples, seed, quad):
    rng = np.random.default_rng(seed)
    lams = 10.0 ** rng.uniform(-2, 2, samples)
    return [_scalar(lambda th, lam=lam: 2.0 * lam * np.cos(th) ** 2,
                    -0.5 * math.pi, 0.5 * math.pi, quad)
            for lam in lams.tolist()]


def _rearrangement_constants(samples, seed, quad):
    """Per sample, by scalar calls: the right side, and |v|, A, M+1-u and
    the radial range [eta_lo, eta_hi] of the left side."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, samples)
    vmag = rng.uniform(0.0, 10.0, samples)
    u = rng.uniform(0.0, 1.0, samples)
    tau = rng.uniform(0.0, 10.0, samples)
    psq = rng.uniform(0.0, 100.0, samples)
    mu = -(10.0 ** rng.uniform(-1.0, 1.0, samples))
    lam = 10.0 ** rng.uniform(-1.0, 1.0, samples)
    M = rng.uniform(0.2, 50.0, samples)
    out = []
    for i in range(samples):
        pars = ModelParams(float(M[i]), -1.0)
        k = KernelPoint(u=float(u[i]), tau=float(tau[i]), psq=float(psq[i]),
                        mu=float(mu[i]), lam=float(lam[i]))
        ku = pars.mass_ratio + 1.0 - k.u
        A = a_scale(k, pars)
        vnorm = math.hypot(vmag[i] * math.cos(angles[i]),
                           vmag[i] * math.sin(angles[i]))
        rhs = envelope_cutoff_integral(k, pars)
        target = max(1e-3 * quad.rel_tol * rhs, 1e-280)
        R = max(2.0 * vnorm + 4.0 * math.sqrt(k.lam),
                math.sqrt(2.0 * math.pi / (ku * ku * target)))
        out.append((rhs, vnorm, A, ku, math.log(math.sqrt(k.lam)),
                    math.log(R)))
    return np.array(out).T


def _rearrangement_loop(samples, seed, quad):
    return [_scalar(lambda eta, v=vnorm, A=A, ku=ku:
                    _envelope_circle_integral(np.exp(eta), v, A, ku),
                    lo, hi, quad, panels=8)
            for _, vnorm, A, ku, lo, hi in
            _rearrangement_constants(samples, seed, quad).T.tolist()]


CASE_LOOPS = {
    "resolvent_tail_integral": (_tail_loop, QuadratureSpec()),
    "cutoff_disk_area": (_disk_loop, QuadratureSpec()),
    "rearrangement": (_rearrangement_loop, REARRANGEMENT_QUAD),
}


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

    def test_uncapped_tail_sample_count(self, lockstep_runs):
        # every sample is integrated, however many: the tail case, which
        # runs first, hands all 20001 rows to lockstep_gk15
        report = run_suite("integrals", samples=20_001, seed=2)
        tail = next(c for c in report.cases
                    if c.name == "resolvent_tail_integral")
        assert tail.samples_run == lockstep_runs[0]["rows"] == 20_001
        assert np.all(np.isfinite(lockstep_runs[0]["values"]))


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


def shifted_envelope_integral(vnorm, k, params, quad, rhs):
    """The left side of verify_rearrangement for one shift |v| and one
    kernel point."""
    ranges = _radial_ranges(vnorm, k, params, quad, rhs)
    return float(_shifted_envelope_integrals(
        *np.atleast_1d(vnorm, *ranges), quad)[0])


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
        lhs = shifted_envelope_integral(0.0, k, params_m2, quad, rhs)
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
        lhs = shifted_envelope_integral(1e3, k, params_m2, quad, rhs)
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

    def test_radial_cost_of_one_sample(self, params_m2, lockstep_runs):
        # one first pass plus at most one lockstep round at an unshifted
        # point; more calls mean the radial rule regressed
        k = KernelPoint(u=0.3, tau=0.5, psq=2.0, mu=-1.0, lam=1.5)
        quad = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14,
                              max_subdivisions=400)
        rhs = envelope_cutoff_integral(k, params_m2)
        lhs = shifted_envelope_integral(0.0, k, params_m2, quad, rhs)
        assert 0.0 < lhs < rhs
        (run,) = lockstep_runs
        assert run["rows"] == 1
        assert 1 <= run["calls"] <= 2


class TestLockstep:
    """The tail, disk and rearrangement cases integrate their samples in
    lockstep chunks; each must equal its per-sample loop."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(CASE_LOOPS))
    def test_values_equal_per_sample_loop(self, case, seed, lockstep_runs):
        loop, quad = CASE_LOOPS[case]
        _, tol, runner = verify._CASES[case]
        row = runner(500, seed, tol, None)
        want = np.array([val for val, _ in loop(500, seed, quad)])
        (run,) = lockstep_runs
        np.testing.assert_allclose(run["values"], want, rtol=1e-14, atol=0)
        assert row.samples_run == run["rows"] == 500
        assert row.passed

    @pytest.mark.parametrize("case", sorted(CASE_LOOPS))
    def test_integrand_calls_per_chunk(self, case, lockstep_runs):
        # a chunk costs one first pass plus one call per lockstep round,
        # and needs no more rounds than its slowest sample; a per-sample
        # loop makes at least one call per sample
        loop, quad = CASE_LOOPS[case]
        _, tol, runner = verify._CASES[case]
        runner(500, 1, tol, None)
        most_rounds = max(rounds for _, rounds in loop(500, 1, quad))
        chunks = -(-500 // _quad._ROW_CHUNK)
        (run,) = lockstep_runs
        assert run["rows"] == 500
        assert run["calls"] <= chunks * (1 + most_rounds)
        assert run["calls"] < run["rows"]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("case", ["rearrangement",
                                      "resolvent_tail_integral"])
    def test_error_of_the_first_failing_sample(self, case, seed):
        loop, _ = CASE_LOOPS[case]
        quad = QuadratureSpec(max_subdivisions=1)
        with pytest.raises(QuadratureError) as want:
            loop(500, seed, quad)
        with pytest.raises(QuadratureError) as got:
            verify._CASES[case][2](500, seed, 1.0, quad)
        assert str(got.value) == str(want.value)

    def test_disk_converges_on_one_bisection(self):
        # cos^2 needs at most one bisection, so no disk sample fails
        quad = QuadratureSpec(max_subdivisions=1)
        _disk_loop(500, 1, quad)
        assert verify._case_disk_area(500, 1, 1e-12, quad).passed


# The arguments of the public function behind each array case, drawn as
# its _CASES runner draws them.

def _tail_draw(samples, seed):
    rng = np.random.default_rng(seed)
    lams = 10.0 ** rng.uniform(-2, 2, samples)
    return lams, -(10.0 ** rng.uniform(-2, 2, samples))


def _disk_draw(samples, seed):
    rng = np.random.default_rng(seed)
    return (10.0 ** rng.uniform(-2, 2, samples),)


def _sigma_draw(samples, seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(-10, 10, (samples, 2))
    q = rng.uniform(-10, 10, (samples, 2))
    B = rng.uniform(0.0, 100.0, samples)
    M = rng.uniform(0.2, 50.0, samples)
    return p, q, B, ModelParams(M, -1.0)


# name -> (public function, draw, the one-row call at a worst_input)
PUBLIC_CASES = {
    "resolvent_tail_integral": (
        verify_tail_integral, _tail_draw,
        lambda f, w: f(w["lam"], w["mu"])),
    "cutoff_disk_area": (
        verify_disk_area, _disk_draw, lambda f, w: f(w["lam"])),
    "sigma_minus_identity": (
        verify_sigma_minus, _sigma_draw,
        lambda f, w: f(tuple(w["p"]), tuple(w["q"]), w["B"],
                       ModelParams(w["M"], -1.0))),
}


class TestPublicArrayCalls:
    """verify_tail_integral, verify_disk_area and verify_sigma_minus take
    per-sample arrays; the suite rows are their calls, and a single input
    is a one-row call."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(PUBLIC_CASES))
    def test_suite_row_is_the_public_call(self, case, seed):
        fn, draw, _ = PUBLIC_CASES[case]
        _, tol, runner = verify._CASES[case]
        assert fn(*draw(500, seed), tolerance=tol) == runner(500, seed, tol,
                                                             None)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(PUBLIC_CASES))
    def test_one_row_call_equals_its_batch_row(self, case, seed):
        fn, draw, one_row = PUBLIC_CASES[case]
        batch = fn(*draw(500, seed))
        one = one_row(fn, batch.worst_input)
        assert one.samples_run == 1
        assert one.name == batch.name and one.passed == batch.passed
        if case == "sigma_minus_identity":
            # elementwise formulas and a per-row Gauss-Legendre sum
            assert one.worst_input == batch.worst_input
            assert one.max_violation == batch.max_violation
            return
        # a lockstep row depends on its batch position in the last bits
        # (the BLAS summation order of the panel sums)
        value = "quadrature" if "quadrature" in one.worst_input else "cubature"
        for key in one.worst_input:
            if key != value:
                assert one.worst_input[key] == batch.worst_input[key]
        assert one.worst_input[value] == pytest.approx(
            batch.worst_input[value], rel=1e-14, abs=0)
        assert abs(one.max_violation - batch.max_violation) <= 1e-14

    @pytest.mark.parametrize("call, match", [
        (lambda: verify_tail_integral([1.0, 2.0], [-1.0, 0.0]),
         "need lam > 0 and mu < 0"),
        (lambda: verify_disk_area([1.0, -1.0]), "lam must be positive"),
        (lambda: verify_sigma_minus([(1.0, 0.0)] * 2, [(0.0, 1.0)] * 2,
                                    [1.0, -1.0], ModelParams(2.0, -1.0)),
         "B must be nonnegative"),
    ], ids=["tail", "disk", "sigma"])
    def test_one_invalid_row_rejects_the_call(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


class TestCallsCorefuncs:
    """The vectorised cases evaluate the corefuncs functions they import,
    not copies of their formulas: a perturbed function shows in the
    report."""

    def test_bound_lhs_forms_sees_bound_lhs_alt(self, monkeypatch):
        assert verify._case_lhs_forms(500, 1, 1e-12, None).passed
        real = verify.bound_lhs_alt
        monkeypatch.setattr(verify, "bound_lhs_alt",
                            lambda *args: real(*args) * (1.0 + 1e-9))
        row = verify._case_lhs_forms(500, 1, 1e-12, None)
        assert not row.passed
        assert row.max_violation > 1e-10

    @pytest.mark.parametrize("seed", [1, 2])
    def test_rearrangement_sees_envelope_cutoff_integral(self, monkeypatch,
                                                         seed):
        clean = verify._case_rearrangement(500, seed, 1e-8, None)
        real = verify.envelope_cutoff_integral

        def scaled(factor):
            monkeypatch.setattr(verify, "envelope_cutoff_integral",
                                lambda k, p: real(k, p) * factor)
            return verify._case_rearrangement(500, seed, 1e-8, None)

        # the right side moves by the factor; the tightest sample keeps a
        # margin of about 13 %, so this one still passes
        row = scaled(1.0 - 1e-6)
        assert row.worst_input["rhs"] != clean.worst_input["rhs"]
        assert row.worst_input["rhs"] == pytest.approx(
            clean.worst_input["rhs"] * (1.0 - 1e-6), rel=1e-13)
        assert row.passed
        # below that margin the inequality breaks
        assert not scaled(0.5).passed

    def test_rearrangement_constants_equal_scalar_calls(self, monkeypatch):
        # the right side and the radial ranges of every sample, bit for bit
        # against the per-sample loop of scalar corefuncs calls
        got = {}
        real_rhs = verify.envelope_cutoff_integral
        real_integrals = verify._shifted_envelope_integrals

        def rhs(k, p):
            got["rhs"] = real_rhs(k, p)
            return got["rhs"]

        def integrals(*args):
            got["ranges"] = args[:-1]
            return real_integrals(*args)

        monkeypatch.setattr(verify, "envelope_cutoff_integral", rhs)
        monkeypatch.setattr(verify, "_shifted_envelope_integrals", integrals)
        # enough samples to meet inputs where numpy's SIMD log or hypot
        # differs from the math module's in the last bit
        verify._case_rearrangement(10000, 3, 1e-8, None)
        want = _rearrangement_constants(10000, 3, REARRANGEMENT_QUAD)
        np.testing.assert_array_equal(got["rhs"], want[0])
        for g, w in zip(got["ranges"], want[1:]):
            np.testing.assert_array_equal(g, w)


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
