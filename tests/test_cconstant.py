import dataclasses
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polaron2d import (BoundaryMaximizerWarning, CEstimate, CSearchConfig,
                       GridSpec, ModelParams, QuadratureSpec,
                       TailBoundExceeded, c_integrand, coarse_config,
                       estimate_C, fine_config,
                       inner_integral, inner_integral_tail_bound, scan_C_vs_M,
                       weight)

from polaron2d import QuadratureError, cconstant
from polaron2d.cconstant import _angular_kernel, _objective_rows

from oracles import (c_integrand_scalar, cartesian_annulus_integral,
                     inner_integral_point, objective_point, scipy_minimize,
                     sigma_minus_circle_quad, tail_bound_point)


def rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def failing_stage(exc):
    """The stage at which inner_integral finds the error exc: the
    degenerate tail bound, the quadrature budget, the exceeded tail."""
    if isinstance(exc, QuadratureError):
        return 1
    return 0 if "degenerates" in str(exc) else 2


@pytest.fixture
def oracle_cfg():
    # smaller truncation radius keeps the test oracle cheap; the
    # comparison is domain-matched so the tail does not enter
    return replace(coarse_config(), q_mag_max=25.0,
                   quad=QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14,
                                       max_subdivisions=200,
                                       tail_truncation_rel=1e-1))


@pytest.fixture
def small_cfg():
    return CSearchConfig(
        mu=-1.0, lam=1.0, q_mag_max=400.0,
        qmag_grid=GridSpec(0.0, 6.0, 3),
        ppar_grid=GridSpec(-6.0, 6.0, 5),
        refine_iters=2)


class TestWeight:
    def test_unit_log_point(self):
        # s - mu = lam (e - 1) makes the log term exactly 1
        lam = 1.0
        s = lam * (math.e - 1.0) - 1.0
        assert weight(s, -1.0, lam) == pytest.approx(math.sqrt(math.e - 1.0),
                                                     rel=1e-14)

    def test_asymptotic_growth(self):
        # weight ~ sqrt(s / log s) for large s
        ratio = weight(1e8, -1.0, 1.0) / weight(1e6, -1.0, 1.0)
        predicted = math.sqrt((1e8 / math.log(1e8)) / (1e6 / math.log(1e6)))
        assert abs(ratio / predicted - 1.0) < 0.05

    def test_small_argument_limit(self):
        lam = 2.0
        got = weight(0.0, -1e-10 * lam, lam)
        assert got == pytest.approx(math.sqrt(lam), rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            weight(1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            weight(-1.0, -1.0, 1.0)


class TestCIntegrand:
    def test_zero_when_shifted_momenta_orthogonal(self, params_m2, small_cfg):
        M = params_m2.mass_ratio
        Q = np.array([2.0, 0.0])
        p = -Q / (M + 2.0)  # makes p_hat = 0
        q = np.array([1.7, 0.9])
        assert c_integrand(p, q, Q, 0.5, small_cfg, params_m2) == 0.0

    def test_rotation_invariance(self, params_m2, small_cfg, rng):
        for _ in range(200):
            p = rng.uniform(-5, 5, 2)
            q = rng.uniform(2, 5, 2)  # keeps q^2 > lam
            Q = rng.uniform(-5, 5, 2)
            tau = float(10 ** rng.uniform(-2, 2))
            R = rotation(float(rng.uniform(0, 2 * math.pi)))
            v1 = c_integrand(p, q, Q, tau, small_cfg, params_m2)
            v2 = c_integrand(R @ p, R @ q, R @ Q, tau, small_cfg, params_m2)
            assert v2 == pytest.approx(v1, rel=1e-12)

    def test_matches_scalar_recoding(self, params_m2, small_cfg, rng):
        for _ in range(200):
            p = rng.uniform(-5, 5, 2)
            q = rng.uniform(2, 5, 2)
            Q = rng.uniform(-5, 5, 2)
            tau = float(10 ** rng.uniform(-2, 2))
            v1 = c_integrand(p, q, Q, tau, small_cfg, params_m2)
            v2 = c_integrand_scalar(tuple(p), tuple(q), tuple(Q), tau,
                                    small_cfg, params_m2)
            assert v1 == pytest.approx(v2, rel=1e-13)

    def test_denominator_positive_on_million_samples(self, small_cfg, rng):
        total = 0
        for M in (0.2, 0.7, 2.0, 10.0, 50.0):
            pars = ModelParams(M, -1.0)
            n = 200_000
            p = rng.uniform(-8, 8, (n, 2))
            Q = rng.uniform(-8, 8, (n, 2))
            tau = 10.0 ** rng.uniform(-3, 3, n)
            ang = rng.uniform(0, 2 * math.pi, n)
            mag = np.sqrt(rng.uniform(small_cfg.lam * 1.0001,
                                      small_cfg.q_mag_max ** 2, n))
            q = np.stack([mag * np.cos(ang), mag * np.sin(ang)], axis=1)
            vals = c_integrand(p, q, Q, tau, small_cfg, pars)
            assert np.all(np.isfinite(vals))
            assert np.all(vals >= 0.0)
            # denominator positivity, checked through the printed form
            shift = 1.0 / (M + 2.0)
            ph = p + shift * Q
            qh = q + shift * Q
            b = (ph * qh).sum(axis=1)
            D = ((1 + 1 / M) * ((ph ** 2).sum(axis=1) + (qh ** 2).sum(axis=1))
                 + shift * (Q ** 2).sum(axis=1) + tau - small_cfg.mu)
            assert np.all(D * D - 4.0 * b * b / (M * M) > 0.0)
            total += n
        assert total == 1_000_000

    def test_domain_error_inside_cutoff(self, params_m2, small_cfg):
        with pytest.raises(ValueError):
            c_integrand(np.array([1.0, 0.0]), np.array([0.5, 0.0]),
                        np.array([0.0, 0.0]), 1.0, small_cfg, params_m2)


def _kernel_vs_oracle(r, p_hat, c_vec, B, M):
    got = _angular_kernel(np.asarray(r, dtype=float), p_hat, c_vec, B, M)
    want = np.array([sigma_minus_circle_quad(float(x), p_hat, c_vec, B, M)
                     for x in np.atleast_1d(r)])
    return np.max(np.abs(got - want) / want)


class TestAngularKernel:
    """The closed-form circle integral against scipy quadrature with the
    |.|-kinks as break points."""

    def test_random_inputs(self, rng):
        for _ in range(40):
            M = float(rng.uniform(0.2, 50.0))
            p_hat = tuple(rng.uniform(-5.0, 5.0, 2))
            c_vec = tuple(rng.uniform(-3.0, 3.0, 2))
            B = float(10 ** rng.uniform(-1, 2))
            r = np.geomspace(0.3, 300.0, 4) * float(rng.uniform(0.5, 2.0))
            assert _kernel_vs_oracle(r, p_hat, c_vec, B, M) <= 1e-12

    @pytest.mark.parametrize("php", [1e-2, 1e-6, 1e-12])
    def test_small_shifted_momentum(self, php, rng):
        # the two resolvent terms cancel to relative order |p_hat|
        for _ in range(5):
            ang = float(rng.uniform(0, 2 * math.pi))
            p_hat = (php * math.cos(ang), php * math.sin(ang))
            c_vec = tuple(rng.uniform(-3.0, 3.0, 2))
            r = np.array([0.5, 1.0, 2.0, 7.0, 40.0])
            assert _kernel_vs_oracle(r, p_hat, c_vec, 3.0, 2.0) <= 1e-12

    def test_zero_offset(self, rng):
        for _ in range(5):
            p_hat = tuple(rng.uniform(-5.0, 5.0, 2))
            r = np.geomspace(0.5, 50.0, 5)
            assert _kernel_vs_oracle(r, p_hat, (0.0, 0.0), 2.5, 1.5) <= 1e-12

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_arc_edges(self, side):
        # |p_hat . c| = r |p_hat| makes the zero set of b a single tangent
        # point: aoff = 0 (b <= 0 everywhere) or aoff = pi (b >= 0)
        p_hat = (0.8, -0.6)
        c_vec = (side * 1.5, 0.4)
        d = p_hat[0] * c_vec[0] + p_hat[1] * c_vec[1]
        r = abs(d) / math.hypot(*p_hat)
        assert _kernel_vs_oracle([r, r * (1 + 1e-9), r * (1 - 1e-9)],
                                 p_hat, c_vec, 1.2, 2.0) <= 1e-12


class TestInnerIntegral:
    def test_zero_at_vanishing_shifted_momentum(self, params_m2, small_cfg):
        M = params_m2.mass_ratio
        Q = np.array([2.0, 0.0])
        p = -Q / (M + 2.0)
        assert inner_integral(p, Q, 0.7, small_cfg, params_m2) == 0.0

    def test_truncation_refinement_within_tail_bound(self, params_m2):
        cfg = coarse_config()
        p, Q, tau = np.array([1.0, 0.5]), np.array([2.0, 0.0]), 0.7
        v1, tail = inner_integral(p, Q, tau, cfg, params_m2, _with_tail=True)
        cfg2 = replace(cfg, q_mag_max=2 * cfg.q_mag_max)
        v2 = inner_integral(p, Q, tau, cfg2, params_m2)
        assert 0.0 <= v2 - v1 <= tail

    def test_matches_cartesian_oracle(self, params_m2, oracle_cfg, rng):
        for _ in range(10):
            p = rng.uniform(-3, 3, 2)
            Q = rng.uniform(-3, 3, 2)
            tau = float(10 ** rng.uniform(-2, 1))
            prod = inner_integral(p, Q, tau, oracle_cfg, params_m2)
            orac = cartesian_annulus_integral(tuple(p), tuple(Q), tau,
                                              oracle_cfg, params_m2,
                                              epsrel=1e-9)
            assert prod == pytest.approx(orac, rel=1e-6)

    def test_rotation_invariance(self, params_m2, small_cfg, rng):
        p, Q, tau = np.array([1.0, 0.5]), np.array([2.0, 0.3]), 0.7
        base = inner_integral(p, Q, tau, small_cfg, params_m2)
        for _ in range(5):
            R = rotation(float(rng.uniform(0, 2 * math.pi)))
            rot = inner_integral(R @ p, R @ Q, tau, small_cfg, params_m2)
            assert rot == pytest.approx(base, rel=1e-8)

    def test_reflection_invariance(self, params_m2, small_cfg):
        val_up = inner_integral((1.3, 0.8), (2.0, 0.0), 0.4, small_cfg,
                                params_m2)
        val_dn = inner_integral((1.3, -0.8), (2.0, 0.0), 0.4, small_cfg,
                                params_m2)
        assert val_dn == pytest.approx(val_up, rel=1e-10)

    def test_tail_bound_raises_when_radius_too_small(self, params_m2):
        cfg = CSearchConfig(q_mag_max=3.0)
        with pytest.raises(TailBoundExceeded):
            inner_integral((1.0, 0.5), (2.0, 0.0), 0.7, cfg, params_m2)

    def test_radial_cost_at_argmax(self, params_m2, monkeypatch):
        # one vectorised first pass settles the coarse M = 2 maximiser;
        # more calls mean the radial rule regressed
        calls = []
        real = cconstant._radial

        def counting(*args):
            calls.append(args[0].shape)
            return real(*args)

        monkeypatch.setattr(cconstant, "_radial", counting)
        val = inner_integral((-1.6507057666234086, 0.0),
                             (0.4466941348501683, 0.0), 1e-3,
                             coarse_config(), params_m2)
        assert val > 0.0
        assert 1 <= len(calls) <= 3

    @pytest.mark.parametrize("M", [0.5, 2.0, 5.0])
    def test_matches_per_point_reference(self, M, rng):
        # the one-row lockstep call against the scalar path it replaced,
        # with Q in every direction, bit for bit
        params, cfg = ModelParams(M, -1.0), coarse_config()
        for _ in range(200):
            p, Q = rng.uniform(-6, 6, 2), rng.uniform(-6, 6, 2)
            tau = float(10 ** rng.uniform(-3, 3))
            got = inner_integral(p, Q, tau, cfg, params, _with_tail=True)
            want = inner_integral_point(p, Q, tau, cfg, params,
                                        _with_tail=True)
            assert got[1] == want[1]
            assert got[0] == want[0]

    @given(M=st.sampled_from([0.5, 2.0, 5.0]), n=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_any_batch_row_equals_its_one_row_call(self, M, n, seed):
        # every radial row of a lockstep batch of rows that do not fail,
        # at every position, equals its one-row call: value and tail bit
        # for bit.  With the failing rows (with tau up to 1e6, about a
        # sixth of the rows exceed the tail allowance) the batch raises
        # the one-row error of the first row of the earliest failing stage
        params, cfg = ModelParams(M, -1.0), coarse_config()
        rng = np.random.default_rng(seed)
        p, Q = rng.uniform(-6, 6, (n, 2)), rng.uniform(-6, 6, (n, 2))
        tau = 10.0 ** rng.uniform(-3, 6, n)
        alone, errors = [], {}
        for i in range(n):
            try:
                alone.append(inner_integral(p[i], Q[i], float(tau[i]), cfg,
                                            params, _with_tail=True))
            except (TailBoundExceeded, QuadratureError) as exc:
                errors[i] = exc
        ok = np.array([i not in errors for i in range(n)])
        vals, tails = cconstant._inner_rows(p[ok], Q[ok], tau[ok], cfg,
                                            params)
        assert list(zip(vals, tails)) == alone
        if errors:
            want = min(errors.items(),
                       key=lambda e: (failing_stage(e[1]), e[0]))[1]
            with pytest.raises(type(want)) as got:
                cconstant._inner_rows(p, Q, tau, cfg, params)
            assert str(got.value) == str(want)

    @pytest.mark.parametrize("change, args, error, match", [
        ({}, ((1.0, 0.5), (2.0, 0.0), 1e6), TailBoundExceeded,
         "exceeds allowance"),
        ({"q_mag_max": 250.0}, ((1.0, 0.5), (600.0, 1.0), 1.0),
         TailBoundExceeded, "degenerates"),
        ({"quad": replace(coarse_config().quad, max_subdivisions=1)},
         ((0.3, 2.0), (6.0, 3.0), 1e-3), QuadratureError,
         "did not converge"),
    ], ids=["exceeded_tail", "degenerate_tail", "budget"])
    def test_raises_as_per_point_reference(self, params_m2, change, args,
                                           error, match):
        cfg = replace(coarse_config(), **change)
        with pytest.raises(error, match=match) as want:
            inner_integral_point(*args, cfg, params_m2)
        with pytest.raises(error) as got:
            inner_integral(*args, cfg, params_m2)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_tail_bound_positive_and_finite(self, params_m2, small_cfg):
        tb = inner_integral_tail_bound((1.0, 0.5), (2.0, 0.0), 0.7,
                                       small_cfg, params_m2)
        assert 0.0 < tb < 1e-3

    @pytest.mark.parametrize("M", [0.5, 2.0, 5.0])
    def test_tail_bounds_equal_per_point_reference(self, M, rng):
        # the array tail bound of every row that does not degenerate, bit
        # for bit, against the scalar path, and with the degenerate rows
        # the scalar error of the first one; rows with p_hat = 0 give 0
        # even where the bound degenerates
        params = ModelParams(M, -1.0)
        cfg = replace(coarse_config(), q_mag_max=60.0)
        n = 2000
        Q = rng.uniform(-300, 300, (n, 2))
        p = rng.uniform(-40, 40, (n, 2))
        p[::7] = -Q[::7] / (M + 2.0)
        tau = 10.0 ** rng.uniform(-3, 3, n)
        ok, want, errors = np.ones(n, dtype=bool), [], []
        for i in range(n):
            try:
                want.append(tail_bound_point(p[i], Q[i], tau[i], cfg,
                                             params))
            except TailBoundExceeded as exc:
                ok[i] = False
                errors.append(exc)
        got = cconstant._tail_bounds(p[ok], Q[ok], tau[ok], cfg, params)
        assert got.tolist() == want
        assert 0.0 in want and max(want) > 0.0 and errors
        with pytest.raises(TailBoundExceeded) as first:
            cconstant._tail_bounds(p, Q, tau, cfg, params)
        assert str(first.value) == str(errors[0])


# A 4-D box and two test functions whose minimiser c lies above the box in
# the third coordinate.  The weighted Chebyshev distance is not smooth, so
# contractions fail and the simplex shrinks: its first shrink starts after
# 30 evaluations.
NM_LO = np.array([-1.0, -1.0, 0.0, -2.0])
NM_HI = np.array([1.0, 2.0, 1.0, 0.5])
NM_C = np.array([0.3, -0.4, 1.5, 0.0])
NM_W = np.array([1.0, 2.0, 1.0, 3.0])
NM_SIMPLEX = np.array([[0.5, 0.5, 0.5, 0.0], [0.9, 0.5, 0.5, 0.0],
                       [0.5, 1.3, 0.5, 0.0], [0.5, 0.5, 0.8, 0.0],
                       [0.5, 0.5, 0.5, -1.0]])


def chebyshev(x):
    return float(np.max(NM_W * np.abs(x - NM_C)))


def quadratic(x):
    return float(np.sum(NM_W * (x - NM_C) ** 2))


def plateaus(x):
    # the quadratic rounded down to a multiple of 1/2: many vertices tie,
    # and a stable sort would order them differently from np.argsort
    return math.floor(2.0 * quadratic(x)) / 2.0


def poking_simplex():
    # two vertices above the upper bound, in the second and fourth axes
    sim = NM_SIMPLEX.copy()
    sim[2, 1], sim[4, 3] = 2.6, 0.9
    return sim


class TestNelderMead:
    """cconstant.minimize against scipy's bounded Nelder-Mead, exactly."""

    CASES = {
        "bound_active": (chebyshev, NM_SIMPLEX, 300, 1e-8, 1e-12),
        "simplex_above_upper_bound": (quadratic, poking_simplex(), 100,
                                      1e-8, 1e-12),
        "maxfev_in_shrink": (chebyshev, NM_SIMPLEX, 32, 1e-8, 1e-12),
        "maxfev_in_first_evaluations": (quadratic, NM_SIMPLEX, 3, 1e-8,
                                        1e-12),
        "converges": (quadratic, NM_SIMPLEX, 1000, 1e-4, 1e-8),
        "tied_values": (plateaus, NM_SIMPLEX, 100, 1e-8, 1e-12),
    }

    @staticmethod
    def run(minimize, case):
        fun, sim, maxfev, xatol, fatol = TestNelderMead.CASES[case]
        points = []

        def logged(x):
            points.append(x.copy())
            return fun(x)

        res = minimize(logged, sim[0], bounds=list(zip(NM_LO, NM_HI)),
                       initial_simplex=sim, maxfev=maxfev, xatol=xatol,
                       fatol=fatol)
        return res, np.array(points)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_scipy(self, case):
        res, points = self.run(cconstant.minimize, case)
        ref, ref_points = self.run(scipy_minimize, case)
        assert np.array_equal(res.x, ref.x)
        assert res.fun == ref.fun
        assert res.nfev == ref.nfev
        # the same points were evaluated, in the same order
        assert np.array_equal(points, ref_points)
        assert np.all((points >= NM_LO) & (points <= NM_HI))

    def test_cases_reach_their_branch(self):
        # what makes each case the case its name says
        res, _ = self.run(cconstant.minimize, "bound_active")
        assert res.x[2] == NM_HI[2] and res.nfev < 300
        assert np.any(poking_simplex() > NM_HI)
        res, _ = self.run(cconstant.minimize, "maxfev_in_shrink")
        assert res.nfev == 32
        res, _ = self.run(cconstant.minimize, "maxfev_in_first_evaluations")
        assert res.nfev == 3
        res, _ = self.run(cconstant.minimize, "converges")
        assert res.nfev < 1000

    def test_lockstep_matches_each_start_alone(self):
        # the six cases as the starts of one lockstep run: they stop at
        # different rounds (convergence, maxfev in the first evaluations,
        # maxfev in a shrink, ...), and each must descend as it does alone
        cases = sorted(self.CASES)
        alone = [self.run(cconstant.minimize, case) for case in cases]
        assert len({len(points) for _, points in alone}) >= 4
        batches = []

        def batch(X):
            # round r holds the r-th point of every start still running
            r = len(batches)
            running = [i for i, (_, points) in enumerate(alone)
                       if len(points) > r]
            batches.append(X.copy())
            assert np.array_equal(X, [alone[i][1][r] for i in running])
            return [self.CASES[cases[i]][0](x) for i, x in zip(running, X)]

        descents = []
        for case in cases:
            _, sim, maxfev, xatol, fatol = self.CASES[case]
            descents.append(cconstant._descent(
                sim[0], bounds=list(zip(NM_LO, NM_HI)), initial_simplex=sim,
                maxfev=maxfev, xatol=xatol, fatol=fatol))
        results = cconstant._lockstep(descents, batch)
        assert len(batches) == max(len(points) for _, points in alone)
        for res, (ref, _) in zip(results, alone, strict=True):
            assert np.array_equal(res.x, ref.x)
            assert res.fun == ref.fun
            assert res.nfev == ref.nfev

    def test_rejects_inconsistent_shapes(self):
        bounds = list(zip(NM_LO, NM_HI))
        with pytest.raises(ValueError):
            cconstant.minimize(quadratic, NM_SIMPLEX[0, :3], bounds=bounds,
                               initial_simplex=NM_SIMPLEX, maxfev=10,
                               xatol=1e-8, fatol=1e-8)
        with pytest.raises(ValueError):
            cconstant.minimize(quadratic, NM_SIMPLEX[0], bounds=bounds,
                               initial_simplex=NM_SIMPLEX[:4], maxfev=10,
                               xatol=1e-8, fatol=1e-8)
        with pytest.raises(ValueError):
            cconstant.minimize(quadratic, NM_SIMPLEX[0],
                               bounds=list(zip(NM_HI, NM_LO)),
                               initial_simplex=NM_SIMPLEX, maxfev=10,
                               xatol=1e-8, fatol=1e-8)


def scalar_neg_objective(cfg, params):
    """The refinement's objective on the plane p_perp = 0, tau = 0, point
    by point on the scalar path."""
    def neg_obj(x):
        return -objective_point((x[0], x[1], 0.0, 0.0), cfg, params)
    return neg_obj


def record(log, results):
    log.extend(results)
    return results


def sequential_refinement(monkeypatch, minimize, neg_obj, log=None):
    """Make estimate_C run the descents of each level one after another,
    each as minimize(neg_obj, x0, **options) with the descent's own
    arguments, and log their results."""
    descent, lockstep, args = cconstant._descent, cconstant._lockstep, {}

    def spy(x0, **options):
        gen = descent(x0, **options)
        args[gen] = (x0, options)
        return gen

    def sequential(descents, batch):
        # cconstant.minimize runs on _lockstep: give it the real one
        with monkeypatch.context() as m:
            m.setattr(cconstant, "_lockstep", lockstep)
            results = [minimize(neg_obj, args[d][0], **args[d][1])
                       for d in descents]
        return record([] if log is None else log, results)

    monkeypatch.setattr(cconstant, "_descent", spy)
    monkeypatch.setattr(cconstant, "_lockstep", sequential)


class TestEstimateC:
    def test_estimate_properties(self, params_m2, small_cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = estimate_C(small_cfg, params_m2)
        assert est.value > 0.0
        assert est.prefactor == pytest.approx(
            math.pi / (1.0 + 1.0 / params_m2.mass_ratio), rel=1e-15)
        assert est.ratio == pytest.approx(est.value / est.prefactor, rel=1e-15)
        # running maximum never decreases and has >= 2 levels
        levels = [v for _, v in est.refinement_trace]
        assert len(levels) >= 2
        assert all(b >= a for a, b in zip(levels, levels[1:]))
        assert est.truncation_error_bound >= 0.0
        assert est.mu == small_cfg.mu and est.lam == small_cfg.lam

    def test_dominates_every_grid_point(self):
        # estimate_C searches only the plane p_perp = 0, tau = 0.  That the
        # maximum over the box lies on it is a numerical observation at
        # these masses, not a theorem: no point of a 4-D mesh off the plane
        # beats the estimate, and neither does a 4-D descent started at the
        # argmax with p_perp and tau free
        cfg = coarse_config()
        lo = np.array([0.0, -8.0, 0.0, 0.0])
        hi = np.array([8.0, 8.0, 8.0, 1e3])
        for M in (0.25, 0.5, 2.0, 5.0):
            params = ModelParams(M, -1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                est = estimate_C(cfg, params)
            am = est.argmax
            assert am["p_perp"] == 0.0 and am["tau"] == 0.0
            axes = [np.append(np.linspace(0.0, 8.0, 5), am["Q_mag"]),
                    np.append(np.linspace(-8.0, 8.0, 9), am["p_par"]),
                    [1e-3, 0.1, 1.0, 4.0, 8.0],
                    [1e-3, 1e-1, 10.0, 1e3]]
            mesh = np.stack(np.meshgrid(*axes, indexing="ij"),
                            axis=-1).reshape(-1, 4)
            values = _objective_rows(mesh, cfg, params)
            assert np.all(est.value >= values
                          - 1e-12 * np.maximum(1.0, values)), M

            x0 = np.array([am["Q_mag"], am["p_par"], 0.0, 0.0])
            simplex = np.vstack([x0, x0 + 0.05 * np.eye(4)])
            descent = cconstant._descent(
                x0, bounds=list(zip(lo, hi)), initial_simplex=simplex,
                maxfev=200, xatol=1e-10, fatol=1e-15)
            res, = cconstant._lockstep(
                [descent], lambda X: -_objective_rows(X, cfg, params))
            assert -res.fun <= est.value * (1.0 + 1e-12), M

    def test_argmax_objective_rotation_invariant(self, params_m2, small_cfg,
                                                 rng):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = estimate_C(small_cfg, params_m2)
        am = est.argmax
        p = np.array([am["p_par"], am["p_perp"]])
        Q = np.array([am["Q_mag"], 0.0])
        w = weight(am["tau"] + p @ p, small_cfg.mu, small_cfg.lam)
        base = w * inner_integral(p, Q, am["tau"], small_cfg, params_m2)
        R = rotation(float(rng.uniform(0, 2 * math.pi)))
        rot = w * inner_integral(R @ p, R @ Q, am["tau"], small_cfg, params_m2)
        assert rot == pytest.approx(base, rel=1e-10)
        assert base == pytest.approx(est.value, rel=1e-9)

    @pytest.mark.parametrize("M", [0.5, 2.0, 5.0])
    def test_equals_scipy_refinement(self, M, small_cfg, monkeypatch):
        # the lockstep refinement against every start run alone by scipy
        # on the scalar objective: each start's result, and the estimate
        params = ModelParams(M, -1.0)
        got, want = [], []
        lockstep = cconstant._lockstep
        monkeypatch.setattr(cconstant, "_lockstep", lambda descents, batch:
                            record(got, lockstep(descents, batch)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = estimate_C(small_cfg, params)
            sequential_refinement(monkeypatch, scipy_minimize,
                                  scalar_neg_objective(small_cfg, params),
                                  want)
            ref = estimate_C(small_cfg, params)
        assert len(got) == len(want) == 2 * 5
        for res, sci in zip(got, want):
            assert np.array_equal(res.x, sci.x)
            assert res.fun == sci.fun and res.nfev == sci.nfev
        for f in dataclasses.fields(CEstimate):
            assert getattr(est, f.name) == getattr(ref, f.name), f.name

    def test_coarse_m2_values(self, params_m2):
        # the plane estimate, bit for bit, with no warning: C is 8.0e-5
        # above the 0.444255852439488 of the 4-D search, whose descents
        # ran into the tau floor 1e-3 (scipy's Nelder-Mead on the scalar
        # objective gives the same bits, test_equals_scipy_refinement)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_C(coarse_config(), params_m2)
        assert est.value == 0.4442915743317202
        assert tuple(v for _, v in est.refinement_trace) == (
            0.4257328044864369, 0.4442915743317201, 0.4442915743317202)
        assert est.argmax == {"Q_mag": 0.44662955095189927,
                              "p_par": -1.6504131454947553,
                              "p_perp": 0.0, "tau": 0.0}

    def test_descents_stop_on_their_tolerances(self, params_m2,
                                               monkeypatch):
        # every 2-D descent of both coarse levels converges under xatol and
        # fatol before its budget of 200 evaluations
        results, lockstep = [], cconstant._lockstep
        monkeypatch.setattr(cconstant, "_lockstep", lambda descents, batch:
                            record(results, lockstep(descents, batch)))
        estimate_C(coarse_config(), params_m2)
        assert len(results) == 2 * 5
        assert max(res.nfev for res in results) < 200

    def test_boundary_maximiser_warns(self, params_m2, small_cfg):
        # the maximiser at p_par = -1.65 lies below this box
        cfg = replace(small_cfg, ppar_grid=GridSpec(-1.0, 0.0, 5))
        with pytest.warns(BoundaryMaximizerWarning, match="p_par low"):
            estimate_C(cfg, params_m2)


def grid_mesh(cfg):
    """estimate_C's grid scan: its (|Q|, p_par) plane mesh as objective
    rows (|Q|, p_par, 0, 0)."""
    axes = [cfg.qmag_grid.values(), cfg.ppar_grid.values(), [0.0], [0.0]]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)


def objective_mesh(cfg):
    """Objective rows (|Q|, p_par, p_perp, tau) on the plane grid of cfg
    and off it: p_perp in {0, 3, 6} and tau in {0, 1e-3, 1, 1e3}."""
    axes = [cfg.qmag_grid.values(), cfg.ppar_grid.values(), [0.0, 3.0, 6.0],
            [0.0, 1e-3, 1.0, 1e3]]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)


def first_loop_error(mesh, cfg, params):
    """The error the per-point loop [objective_point(z) for z in mesh]
    raises."""
    for z in mesh:
        try:
            objective_point(z, cfg, params)
        except Exception as exc:  # noqa: BLE001 - the error is the result
            return exc
    return None


# Most lockstep rounds the small-config plane grid needs at M = 2 after
# its first pass (it needs 5)
_SMALL_GRID_MAX_ROUNDS = 5


class TestGridScan:
    """The lockstep objective rows against the per-point loop they
    replace, and the grid scan as one batch of them."""

    @pytest.mark.parametrize("M", [0.5, 2.0, 5.0])
    def test_matches_per_point_loop(self, M, small_cfg):
        params = ModelParams(M, -1.0)
        mesh = objective_mesh(small_cfg)
        loop = np.array([objective_point(z, small_cfg, params)
                         for z in mesh])
        batched = _objective_rows(mesh, small_cfg, params)
        assert np.any(loop == 0.0)  # the mesh holds p_hat = 0 points
        assert np.all((batched == 0.0) == (loop == 0.0))
        assert np.max(np.abs(batched - loop) / np.maximum(loop, 1e-300)) \
            <= 1e-14
        # the rows include tau = 0, the edge of the domain on which
        # estimate_C searches
        assert np.any(loop[mesh[:, 3] == 0.0] > 0.0)

    def test_radial_calls_of_the_grid_batch(self, params_m2, small_cfg,
                                            monkeypatch):
        # the grid scan is one batch: one integrand call for its first pass
        # and one per lockstep round; the per-point loop makes one per
        # point per panel
        calls = []
        real = cconstant._radial

        def counting(*args):
            calls.append(args[0].shape)
            return real(*args)

        monkeypatch.setattr(cconstant, "_radial", counting)
        _objective_rows(grid_mesh(small_cfg), small_cfg, params_m2)
        assert 1 <= len(calls) <= 1 + _SMALL_GRID_MAX_ROUNDS

    @pytest.mark.parametrize("at", [0, 13, 31])
    def test_exceeded_tail_raises_as_inner_integral(self, params_m2,
                                                    small_cfg, at):
        # at q_mag_max = 250 no row of the small mesh exceeds its tail
        # allowance; a row with tau = 1e6 does
        cfg = replace(small_cfg, q_mag_max=250.0)
        rows = objective_mesh(cfg)[:32].copy()
        assert first_loop_error(rows, cfg, params_m2) is None
        rows[at] = (2.0, 1.0, 0.5, 1e6)
        with pytest.raises(TailBoundExceeded) as want:
            inner_integral((1.0, 0.5), (2.0, 0.0), 1e6, cfg, params_m2)
        with pytest.raises(TailBoundExceeded) as got:
            _objective_rows(rows, cfg, params_m2)
        assert str(got.value) == str(want.value)
        assert "exceeds allowance" in str(got.value)

    @pytest.mark.parametrize("degenerate_first", [True, False])
    def test_raises_at_the_stage_that_finds_it(self, params_m2, small_cfg,
                                               degenerate_first):
        # |Q| = 600 and 700 make the tail bound degenerate at q_mag_max =
        # 250, which is found before any integral runs; tau = 1e6 exceeds
        # the tail allowance, found after them.  The first degenerate row
        # is raised, wherever the exceeded row lies
        cfg = replace(small_cfg, q_mag_max=250.0)
        batch = objective_mesh(cfg)[:32].copy()
        rows = [(600.0, 1.0, 0.5, 1.0), (2.0, 1.0, 0.5, 1e6)]
        batch[[5, 20]] = rows if degenerate_first else rows[::-1]
        batch[25] = (700.0, 1.0, 0.5, 1.0)
        with pytest.raises(TailBoundExceeded, match="degenerates") as want:
            inner_integral((1.0, 0.5), (600.0, 0.0), 1.0, cfg, params_m2)
        with pytest.raises(TailBoundExceeded) as got:
            _objective_rows(batch, cfg, params_m2)
        assert str(got.value) == str(want.value)

    def test_budget_exhaustion_raises_as_scalar_path(self, params_m2,
                                                     small_cfg):
        cfg = replace(small_cfg, quad=replace(small_cfg.quad,
                                              max_subdivisions=1))
        mesh = grid_mesh(cfg)
        want = first_loop_error(mesh, cfg, params_m2)
        assert isinstance(want, QuadratureError)
        with pytest.raises(QuadratureError) as got:
            estimate_C(cfg, params_m2)
        assert str(got.value) == str(want)


class TestRefinementErrors:
    def test_error_of_the_first_failing_round(self, params_m2, small_cfg,
                                              monkeypatch):
        # start 3 fails at round 10 of level 1 and start 1 at round 30: the
        # lockstep rounds meet start 3's failure first and raise it there,
        # so no later round runs
        real_rows = cconstant._objective_rows
        rounds = []

        def recording(rows, cfg, params):
            if len(rows) <= 5:  # a refinement round, not the grid scan
                rounds.append(rows.copy())
            return real_rows(rows, cfg, params)

        monkeypatch.setattr(cconstant, "_objective_rows", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            estimate_C(small_cfg, params_m2)
        assert len(rounds[10]) == len(rounds[30]) == 5
        bad = {tuple(rounds[10][3]): "injected: start 3, round 10",
               tuple(rounds[30][1]): "injected: start 1, round 30"}

        seen = []

        def failing_rows(rows, cfg, params):
            if len(rows) <= 5:
                seen.append(rows.copy())
            for z in rows:
                if tuple(z) in bad:
                    raise TailBoundExceeded(bad[tuple(z)])
            return real_rows(rows, cfg, params)

        monkeypatch.setattr(cconstant, "_objective_rows", failing_rows)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(TailBoundExceeded) as got:
                estimate_C(small_cfg, params_m2)
            row, = scan_C_vs_M([params_m2.mass_ratio], small_cfg)
        assert str(got.value) == "injected: start 3, round 10"
        assert np.array_equal(seen[10], rounds[10]) and len(seen) == 2 * 11
        assert row["error"] == str(got.value) and row["C"] is None


class TestScan:
    def test_rows_positive_and_error_capture(self, small_cfg):
        tiny = replace(small_cfg,
                       qmag_grid=GridSpec(0.0, 4.0, 2),
                       ppar_grid=GridSpec(-4.0, 4.0, 3),
                       refine_iters=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = scan_C_vs_M([2.0, 3.0], tiny)
        for row in rows:
            assert row["error"] is None
            assert row["C"] > 0.0
            assert row["prefactor"] > 0.0
            assert math.isfinite(row["ratio"]) and row["ratio"] > 0.0

    def test_failed_row_does_not_abort(self, small_cfg):
        bad = replace(small_cfg, q_mag_max=3.0,
                      refine_iters=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = scan_C_vs_M([2.0], bad)
        assert rows[0]["error"] is not None
        assert rows[0]["C"] is None

    def test_empty_scan_rejected(self, small_cfg):
        with pytest.raises(ValueError):
            scan_C_vs_M([], small_cfg)


class TestConfigValidation:
    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            CSearchConfig(mu=0.5)
        with pytest.raises(ValueError):
            CSearchConfig(lam=-1.0)
        with pytest.raises(ValueError):
            CSearchConfig(q_mag_max=0.5, lam=1.0)
        for field in ({"mu": -math.inf}, {"lam": math.inf}):
            with pytest.raises(ValueError, match="finite"):
                CSearchConfig(**field)

    def test_grid_spec(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 5, "log")
        assert GridSpec(1.0, 1.0, 1).values().tolist() == [1.0]
        # one point is lo, for either spacing
        assert GridSpec(0.3, 7.0, 1).values().tolist() == [0.3]
        assert GridSpec(0.3, 7.0, 1, "log").values().tolist() == [0.3]
        vals = GridSpec(1.0, 100.0, 3, "log").values()
        assert vals.tolist() == pytest.approx([1.0, 10.0, 100.0])

    def test_fine_config_valid(self):
        cfg = fine_config(mu=-2.0, lam=0.5)
        assert cfg.mu == -2.0 and cfg.lam == 0.5
        assert cfg.refine_iters == 3
