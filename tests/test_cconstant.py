import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from polaron2d import (BoundaryMaximizerWarning, CSearchConfig, GridSpec,
                       ModelParams, QuadratureSpec, TailBoundExceeded,
                       c_integrand, coarse_config, estimate_C, fine_config,
                       inner_integral, inner_integral_tail_bound, scan_C_vs_M,
                       weight)

from polaron2d import cconstant
from polaron2d.cconstant import _angular_kernel

from oracles import (c_integrand_scalar, cartesian_annulus_integral,
                     sigma_minus_circle_quad)


def rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


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
        tau_grid=GridSpec(1e-3, 1e3, 4, "log"),
        qmag_grid=GridSpec(0.0, 6.0, 3),
        ppar_grid=GridSpec(-6.0, 6.0, 5),
        pperp_grid=GridSpec(0.0, 6.0, 3),
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

    def test_radial_cost_at_argmax(self, params_m2, integrand_calls):
        # one vectorised first pass settles the coarse M = 2 maximiser;
        # more calls mean the radial rule regressed
        calls = integrand_calls(cconstant)
        val = inner_integral((-1.6507057666234086, 0.0),
                             (0.4466941348501683, 0.0), 1e-3,
                             coarse_config(), params_m2)
        assert val > 0.0
        assert 1 <= len(calls) <= 3

    def test_tail_bound_positive_and_finite(self, params_m2, small_cfg):
        tb = inner_integral_tail_bound((1.0, 0.5), (2.0, 0.0), 0.7,
                                       small_cfg, params_m2)
        assert 0.0 < tb < 1e-3


class TestEstimateC:
    def test_estimate_properties(self, params_m2, small_cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = estimate_C(small_cfg, params_m2, threads=2)
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

    def test_dominates_every_grid_point(self, params_m2, small_cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = estimate_C(small_cfg, params_m2)
        for qm in small_cfg.qmag_grid.values():
            for pl in small_cfg.ppar_grid.values():
                for pp in small_cfg.pperp_grid.values():
                    for tau in small_cfg.tau_grid.values():
                        psq = pl * pl + pp * pp
                        obj = (weight(tau + psq, small_cfg.mu, small_cfg.lam)
                               * inner_integral((pl, pp), (qm, 0.0),
                                                float(tau), small_cfg,
                                                params_m2))
                        assert est.value >= obj - 1e-12 * max(1.0, obj)

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

    def test_thread_count_invariance(self, params_m2, small_cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            e1 = estimate_C(small_cfg, params_m2, threads=1)
            e4 = estimate_C(small_cfg, params_m2, threads=4)
        assert e1 == e4

    def test_boundary_maximiser_warns(self, params_m2, small_cfg):
        # for this mass the objective keeps growing towards the tau floor
        with pytest.warns(BoundaryMaximizerWarning):
            estimate_C(small_cfg, params_m2)


class TestScan:
    def test_rows_positive_and_error_capture(self, small_cfg):
        tiny = replace(small_cfg,
                       tau_grid=GridSpec(1e-2, 1e2, 3, "log"),
                       qmag_grid=GridSpec(0.0, 4.0, 2),
                       ppar_grid=GridSpec(-4.0, 4.0, 3),
                       pperp_grid=GridSpec(0.0, 4.0, 2),
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
        with pytest.raises(ValueError):
            CSearchConfig(pperp_grid=GridSpec(-1.0, 1.0, 3))
        with pytest.raises(ValueError):
            CSearchConfig(tau_grid=GridSpec(1e-3, 1e3, 5, "linear"))

    def test_grid_spec(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 5, "log")
        assert GridSpec(1.0, 1.0, 1).values().tolist() == [1.0]
        vals = GridSpec(1.0, 100.0, 3, "log").values()
        assert vals.tolist() == pytest.approx([1.0, 10.0, 100.0])

    def test_fine_config_valid(self):
        cfg = fine_config(mu=-2.0, lam=0.5)
        assert cfg.mu == -2.0 and cfg.lam == 0.5
        assert cfg.refine_iters == 3
