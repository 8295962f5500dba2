"""Numerical verification of the scalar identities and inequalities that
back the energy bound.

Every case compares two independently coded evaluation paths (quadrature
against closed form, or a difference form against an integral form); no
case compares a function with itself.  Random domains are bounded boxes
with documented ranges: |p|, |q|, |P|, |v| in [0, 10], B in [0, 100],
u in [0, 1], M in [0.2, 50].  The checked statements are homogeneous or
asymptotically trivial outside these boxes, and the boxes keep the
quadratures well conditioned.  Reports are reproducible bit for bit from
(seed, samples, tolerances).  The tail, disk and sigma^- checks take
per-sample arrays, and their suite rows are their calls on the drawn
samples; the tail and disk integrals run in lockstep
(``_quad.lockstep_intervals``), and the u-integral of sigma^- by 64-node
Gauss-Legendre.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._quad import leggauss, lockstep_intervals
from .corefuncs import (KernelPoint, ModelParams, QuadratureSpec, _check,
                        _math_map, a_scale, alpha_m, bound_lhs, bound_lhs_alt,
                        envelope_cutoff_integral)

__all__ = [
    "CaseResult", "VerificationReport",
    "verify_tail_integral", "verify_disk_area", "verify_sigma_minus",
    "verify_u_integral_bound", "verify_momentum_bounds",
    "verify_rearrangement", "verify_bound_chain",
    "SUITES", "run_suite",
]

_M_BOX = (0.2, 50.0)
_VEC_BOX = 10.0
_B_BOX = 100.0


@dataclass
class CaseResult:
    """One report row.  max_violation <= tolerance iff passed."""

    name: str
    samples_run: int
    max_violation: float
    worst_input: dict
    passed: bool
    tolerance: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class VerificationReport:
    cases: list
    suite_passed: bool

    def to_dict(self) -> dict:
        return {"cases": [c.to_dict() for c in self.cases],
                "suite_passed": self.suite_passed}


def _result(name, n, violation, worst, tol) -> CaseResult:
    return CaseResult(name=name, samples_run=int(n),
                      max_violation=float(violation), worst_input=worst,
                      passed=bool(violation <= tol), tolerance=float(tol))


# ---------------------------------------------------------------------------
# checks on per-sample arrays; a single input is a one-row call


def verify_tail_integral(lam, mu, quad: QuadratureSpec | None = None,
                         tolerance: float = 1e-10) -> CaseResult:
    """Radial quadrature of the plane integral of (p^2 - mu)^-2 over
    p^2 > lam against the closed form pi/(lam - mu), at every pair
    (lam[i], mu[i]).

    The substitution s = lam + t/(1-t) maps the semi-infinite radial
    integral onto [0, 1] with a smooth rational integrand; the pairs are
    integrated in lockstep (:func:`lockstep_intervals`).
    """
    lam, mu = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (lam, mu))
    _check((lam > 0) & (mu < 0), None, "need lam > 0 and mu < 0")
    quad = quad or QuadratureSpec()
    c = lam - mu

    def integrand(t, rows):
        return 1.0 / (c[rows, None] * (1.0 - t) + t) ** 2

    n = len(c)
    val = math.pi * lockstep_intervals(integrand, np.zeros(n), np.ones(n),
                                       quad.rel_tol, quad.abs_tol,
                                       quad.max_subdivisions)
    exact = math.pi / c
    viol = np.abs(val - exact) / exact
    w = int(np.argmax(viol))
    return _result("resolvent_tail_integral", n, viol[w],
                   {"lam": float(lam[w]), "mu": float(mu[w]),
                    "quadrature": float(val[w]),
                    "closed_form": float(exact[w])},
                   tolerance)


def verify_disk_area(lam, quad: QuadratureSpec | None = None,
                     tolerance: float = 1e-12) -> CaseResult:
    """Cubature of the cutoff disk q^2 <= lam against its area pi*lam, at
    every lam[i].

    This pins the norm value sqrt(pi*lam) of the low-momentum modes that
    enters the square-root terms of the bound equation.  The y extent is
    reduced exactly to the chord length 2 sqrt(lam - x^2); the x integral
    is adaptive, taken in x = sqrt(lam) sin(theta), where the chord's
    square-root endpoint singularities become the smooth integrand
    2 lam cos^2(theta) on [-pi/2, pi/2].
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    _check(lam > 0, None, "lam must be positive")
    quad = quad or QuadratureSpec()

    def chord(theta, rows):
        # chord times the jacobian dx/dtheta = sqrt(lam) cos(theta)
        return 2.0 * lam[rows, None] * np.cos(theta) ** 2

    n = len(lam)
    val = lockstep_intervals(chord, np.full(n, -0.5 * math.pi),
                             np.full(n, 0.5 * math.pi), quad.rel_tol,
                             quad.abs_tol, quad.max_subdivisions)
    exact = math.pi * lam
    viol = np.abs(val - exact) / exact
    w = int(np.argmax(viol))
    return _result("cutoff_disk_area", n, viol[w],
                   {"lam": float(lam[w]), "cubature": float(val[w]),
                    "closed_form": float(exact[w])},
                   tolerance)


def verify_sigma_minus(p, q, B, params: ModelParams,
                       tolerance: float = 1e-8) -> CaseResult:
    """Three-way agreement for the antisymmetric kernel part sigma^-, at
    every input row.

    p and q are 2-vectors or (n, 2) arrays; B and params.mass_ratio are
    floats or (n,) arrays.  (a) half difference of the two resolvent
    signs, (b) 64-node Gauss-Legendre quadrature of
    M (p.q) int_-1^1 du [(M+1)(p^2+q^2) - 2u p.q + B]^-2, (c) the
    closed-form antiderivative evaluated at the endpoints.  Comparisons
    are relative to |sigma^-|, floored at 1e-6 times the size of sigma
    itself where the antisymmetric part cancels to zero.
    """
    p = np.asarray(p, dtype=float).reshape(-1, 2)
    q = np.asarray(q, dtype=float).reshape(-1, 2)
    B = np.broadcast_to(np.asarray(B, dtype=float), len(p))
    _check(B >= 0, None, "B must be nonnegative")
    M = np.broadcast_to(params.mass_ratio, len(p))
    (px, py), (qx, qy) = p.T, q.T
    S = px * px + py * py + qx * qx + qy * qy
    b = px * qx + py * qy
    sig_plus = 1.0 / ((1.0 + 1.0 / M) * S + (2.0 / M) * b + B / M)
    sig_minus = 1.0 / ((1.0 + 1.0 / M) * S - (2.0 / M) * b + B / M)
    diff_form = 0.5 * (sig_minus - sig_plus)

    a = (M + 1.0) * S + B
    x, w = leggauss(64)
    den = a[:, None] - 2.0 * x * b[:, None]
    u_int = M * b * ((w / (den * den)).sum(axis=-1))

    closed = 2.0 * M * b / (a * a - 4.0 * b * b)
    magnitude = 1.0 / ((1.0 + 1.0 / M) * S + B / M)
    scale = np.maximum(np.abs(closed), 1e-6 * magnitude)
    viol = np.maximum(np.abs(diff_form - closed),
                      np.maximum(np.abs(u_int - closed),
                                 np.abs(diff_form - u_int))) / scale
    worst = int(np.argmax(viol))
    return _result("sigma_minus_identity", len(p), float(viol[worst]),
                   {"p": p[worst].tolist(), "q": q[worst].tolist(),
                    "B": float(B[worst]), "M": float(M[worst]),
                    "difference_form": float(diff_form[worst]),
                    "u_quadrature": float(u_int[worst]),
                    "closed_form": float(closed[worst])},
                   tolerance)


def verify_u_integral_bound(samples: int, seed: int,
                            tolerance: float = 1e-12) -> CaseResult:
    """Two-step domination of the u-integral with the shifted momenta.

    For random (p_hat, q_hat, B, M), with the common positive 1/q^2
    prefactor dropped, checks

      int_-1^1 du |b| / D(u)^2
        <= |b|/D(0)^2 + int_0^1 du |b| / (D(0) - 2u|b|)^2
        <= 1/(2(M+1) D(0)) + int_0^1 du / (2(M+1-u)[(M+1-u)S + B])

    with b = p_hat.q_hat, S = p_hat^2 + q_hat^2, D(u) = (M+1)S - 2ub + B.
    Shared Gauss-Legendre nodes on the half intervals make the discrete
    comparison inherit the pointwise inequalities exactly, so violations
    beyond rounding indicate a genuine formula error.
    """
    rng = np.random.default_rng(seed)
    ph = rng.uniform(-_VEC_BOX, _VEC_BOX, (samples, 2))
    qh = rng.uniform(-_VEC_BOX, _VEC_BOX, (samples, 2))
    B = rng.uniform(0.0, _B_BOX, samples)
    M = rng.uniform(*_M_BOX, samples)

    S = (ph ** 2).sum(axis=1) + (qh ** 2).sum(axis=1)
    b = np.abs(ph[:, 0] * qh[:, 0] + ph[:, 1] * qh[:, 1])
    D0 = (M + 1.0) * S + B

    x, w = leggauss(64)
    u_pos = 0.5 * (x + 1.0)          # nodes on [0, 1]
    w_half = 0.5 * w
    # LHS split at u = 0; the sign of b only mirrors u, so |b| is general
    den_neg = D0[:, None] + 2.0 * u_pos * b[:, None]   # u in [-1, 0]
    den_pos = D0[:, None] - 2.0 * u_pos * b[:, None]   # u in [0, 1]
    lhs = (b[:, None] * w_half * (1.0 / den_neg ** 2 + 1.0 / den_pos ** 2)).sum(axis=1)

    mid = b / D0 ** 2 + (b[:, None] * w_half / den_pos ** 2).sum(axis=1)

    ku = M[:, None] + 1.0 - u_pos
    fin = (1.0 / (2.0 * (M + 1.0) * D0)
           + (w_half / (2.0 * ku * (ku * S[:, None] + B[:, None]))).sum(axis=1))

    scale = np.maximum(fin, 1e-300)
    viol = np.maximum((lhs - mid) / scale, (mid - fin) / scale)
    worst = int(np.argmax(viol))
    violation = max(0.0, float(viol[worst]))
    return _result("u_integral_bound", samples, violation,
                   {"p_hat": ph[worst].tolist(), "q_hat": qh[worst].tolist(),
                    "B": float(B[worst]), "M": float(M[worst]),
                    "lhs": float(lhs[worst]), "middle": float(mid[worst]),
                    "final": float(fin[worst])},
                   tolerance)


def verify_momentum_bounds(samples: int, seed: int,
                           tolerance: float = 1e-12) -> CaseResult:
    """Shifted-momentum lower bounds and their sharpness.

    For random p, P, u and p_hat = p + P/(M+2):

      (M+1-u) p_hat^2 + (M/(M+2)) P^2
        >= M(M+1-u)(M+2)/(M^2+3M+1-u) p^2 >= M beta(u) p^2,

    with the u = 0 case additionally dominating M p^2.  The first constant
    is sharp: the quadratic minimiser P* = -p (M+1-u)(M+2)/(M^2+3M+1-u)
    attains the middle expression, which is checked to 1e-10 relative.
    """
    rng = np.random.default_rng(seed)
    p = rng.uniform(-_VEC_BOX, _VEC_BOX, (samples, 2))
    P = rng.uniform(-_VEC_BOX, _VEC_BOX, (samples, 2))
    u = rng.uniform(0.0, 1.0, samples)
    u[: samples // 10] = 0.0  # exercise the u = 0 specialisation
    M = rng.uniform(*_M_BOX, samples)

    psq = (p ** 2).sum(axis=1)
    denom = M * M + 3.0 * M + 1.0 - u
    mid_const = M * (M + 1.0 - u) * (M + 2.0) / denom

    def left_side(Pvec):
        ph = p + Pvec / (M + 2.0)[:, None]
        return ((M + 1.0 - u) * (ph ** 2).sum(axis=1)
                + (M / (M + 2.0)) * (Pvec ** 2).sum(axis=1))

    lhs = left_side(P)
    mid = mid_const * psq
    beta_u = np.minimum(1.0, (M + 1.0 - u) * (M + 2.0) / denom)
    low = M * beta_u * psq

    scale = np.maximum.reduce([lhs, mid, np.ones_like(lhs)])
    viol = np.maximum((mid - lhs) / scale, (low - mid) / scale)
    viol = np.maximum(viol, np.where(u == 0.0, (M * psq - mid) / scale, 0.0))

    P_star = -p * ((M + 1.0 - u) * (M + 2.0) / denom)[:, None]
    sharp_gap = np.abs(left_side(P_star) - mid) / np.maximum(mid, 1e-300)
    # sharpness has its own, looser tolerance 1e-10; fold it into one margin
    viol = np.maximum(viol, sharp_gap * (tolerance / 1e-10))

    worst = int(np.argmax(viol))
    violation = max(0.0, float(viol[worst]))
    return _result("momentum_shift_bounds", samples, violation,
                   {"p": p[worst].tolist(), "P": P[worst].tolist(),
                    "u": float(u[worst]), "M": float(M[worst]),
                    "lhs": float(lhs[worst]), "middle": float(mid[worst]),
                    "lower": float(low[worst]),
                    "sharpness_gap": float(sharp_gap[worst])},
                   tolerance)


def _envelope_circle_integral(r, vnorm: float, A: float, ku: float):
    """Integral of kernel_envelope(|q+v|^2) over the circle |q| = r.

    The envelope is 1/(2 ku^2 (|q+v|^2 + A)) and |q+v|^2 = r^2 + v^2 +
    2 r |v| cos(theta), so the angle integrates to 2 pi / sqrt(D^2 - (2r|v|)^2)
    with D = r^2 + v^2 + A.  Factored as ((r-|v|)^2 + A)((r+|v|)^2 + A),
    the difference of squares has no cancellation.
    """
    return math.pi / (ku * ku * np.sqrt(((r - vnorm) ** 2 + A)
                                        * ((r + vnorm) ** 2 + A)))


def _radial_ranges(vnorm, k: KernelPoint, params: ModelParams,
                   quad: QuadratureSpec, rhs_scale) -> tuple:
    """Constants of the radial integrals, one entry per sample of ``k``
    and ``params``: (A, M+1-u) and the range [log sqrt(lam), log R] in
    eta = log r.

    R is the radius whose discarded tail is below
    1e-3 * quad.rel_tol * rhs_scale by the comparison bound
    2 pi / ((M+1-u)^2 R^2).
    """
    ku = params.mass_ratio + 1.0 - k.u
    A = a_scale(k, params)
    tail_target = np.maximum(1e-3 * quad.rel_tol * rhs_scale, 1e-280)
    R = np.maximum(2.0 * vnorm + 4.0 * np.sqrt(k.lam),
                   np.sqrt(2.0 * math.pi / (ku * ku * tail_target)))
    return (A, ku, _math_map(math.log, np.sqrt(k.lam)),
            _math_map(math.log, R))


def _shifted_envelope_integrals(vnorm, A, ku, lo, hi,
                                quad: QuadratureSpec) -> np.ndarray:
    """Cubature of int_{q^2 > lam} kernel_envelope(|q+v|^2) / q^2 dq, one
    per entry of the arrays |v|, A, M+1-u, eta_lo and eta_hi.

    Polar coordinates; the angular integral is the closed form of
    :func:`_envelope_circle_integral`, and the radial integral runs
    adaptively in eta = log r over [eta_lo, eta_hi] (the range of
    :func:`_radial_ranges`), first pass eight equal GK15 panels.
    """

    def radial(eta, rows):
        # dq = r dr dtheta and the integrand carries 1/r^2; in eta = log r
        # the jacobian r cancels one power
        return _envelope_circle_integral(np.exp(eta), vnorm[rows, None],
                                         A[rows, None], ku[rows, None])

    return lockstep_intervals(radial, lo, hi, quad.rel_tol, quad.abs_tol,
                              quad.max_subdivisions, panels=8)


def verify_rearrangement(samples: int, seed: int,
                         quad: QuadratureSpec | None = None,
                         tolerance: float = 1e-8) -> CaseResult:
    """Shifted envelope integral never exceeds its symmetrised closed form.

    For random shifts v and kernel points k:

      int (1-chi_lam(q))/q^2 * envelope(|q+v|^2) dq
        <= int j_weight(q^2) * envelope(q^2) dq  (closed form).

    Left side by radial quadrature of the closed-form circle integral,
    the samples in lockstep chunks; right side by envelope_cutoff_integral,
    evaluated on the arrays of all samples at once.
    """
    quad = quad or QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14,
                                  max_subdivisions=400)
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, samples)
    vmag = rng.uniform(0.0, _VEC_BOX, samples)
    u = rng.uniform(0.0, 1.0, samples)
    tau = rng.uniform(0.0, 10.0, samples)
    psq = rng.uniform(0.0, 100.0, samples)
    mu = -(10.0 ** rng.uniform(-1.0, 1.0, samples))
    lam = 10.0 ** rng.uniform(-1.0, 1.0, samples)
    M = rng.uniform(*_M_BOX, samples)

    pars = ModelParams(M, -1.0)
    k = KernelPoint(u=u, tau=tau, psq=psq, mu=mu, lam=lam)
    rhs = envelope_cutoff_integral(k, pars)
    vx = vmag * _math_map(math.cos, angles)
    vy = vmag * _math_map(math.sin, angles)
    vnorm = _math_map(math.hypot, vx, vy)
    lhs = _shifted_envelope_integrals(
        vnorm, *_radial_ranges(vnorm, k, pars, quad, rhs), quad)
    viol = (lhs - rhs) / rhs
    worst = int(np.argmax(viol))
    violation = max(0.0, float(viol[worst]))
    return _result("rearrangement", samples, violation,
                   {"v": [float(vx[worst]), float(vy[worst])],
                    "u": float(u[worst]), "tau": float(tau[worst]),
                    "psq": float(psq[worst]), "mu": float(mu[worst]),
                    "lam": float(lam[worst]), "M": float(M[worst]),
                    "lhs": float(lhs[worst]), "rhs": float(rhs[worst])},
                   tolerance)


def _pre_minimization_expression(tau, mu: float, lam: float,
                                 params: ModelParams, alpham: float):
    """Spectral lower-bound expression before minimising over tau >= 0."""
    M = params.mass_ratio
    eb = params.binding_energy
    return math.pi * ((M / (M + 1.0)) * np.log((tau - mu) / (-eb))
                      - math.sqrt(lam / -mu)
                      - math.sqrt(lam / (lam - mu))
                      - alpham * (1.0 + np.log1p((tau - mu) / lam)))


def verify_bound_chain(params: ModelParams, lam: float, mu_grid,
                       tolerance: float = 1e-12) -> CaseResult:
    """The bound equation is the tau-minimum of the spectral expression.

    With the total momentum set to zero and the free fermion energy
    scalarised to tau, the pre-minimisation expression equals pi times
    the bound-equation left side at tau = 0 and dominates it for every
    tau >= 0 (checked on tau = 0 and 49 points log spaced from 1e-6|E_B|
    to 1e6|E_B|).
    """
    alpham = alpha_m(params)
    eb = params.binding_energy
    tau_grid = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 49) * (-eb)])
    violation = 0.0
    worst = {}
    for mu in np.asarray(mu_grid, dtype=float):
        if not mu < eb:
            raise ValueError("mu grid must lie strictly below E_B")
        base = math.pi * bound_lhs_alt(mu, lam, params, alpham)
        expr = _pre_minimization_expression(tau_grid, mu, lam, params, alpham)
        scale = max(1.0, abs(base))
        eq_gap = abs(expr[0] - base) / scale  # tau_grid[0] = 0
        dom_gap = float(np.max(base - expr)) / scale
        for gap, kind in ((eq_gap, "tau0_equality"), (max(0.0, dom_gap), "domination")):
            if gap > violation:
                violation = gap
                worst = {"mu": float(mu), "lam": lam,
                         "M": params.mass_ratio, "check": kind,
                         "base": base}
    return _result("tau_chain", np.size(mu_grid) * len(tau_grid), violation,
                   worst, tolerance)


# ---------------------------------------------------------------------------
# suite assembly


def _case_resolvent_tail(samples, seed, tol, quad):
    rng = np.random.default_rng(seed)
    lams = 10.0 ** rng.uniform(-2, 2, samples)
    mus = -(10.0 ** rng.uniform(-2, 2, samples))
    return verify_tail_integral(lams, mus, quad, tol)


def _case_disk_area(samples, seed, tol, quad):
    rng = np.random.default_rng(seed)
    lams = 10.0 ** rng.uniform(-2, 2, samples)
    return verify_disk_area(lams, quad, tol)


def _case_sigma_minus(samples, seed, tol, quad):
    rng = np.random.default_rng(seed)
    p = rng.uniform(-_VEC_BOX, _VEC_BOX, (samples, 2))
    q = rng.uniform(-_VEC_BOX, _VEC_BOX, (samples, 2))
    B = rng.uniform(0.0, _B_BOX, samples)
    M = rng.uniform(*_M_BOX, samples)
    return verify_sigma_minus(p, q, B, ModelParams(M, -1.0), tol)


def _case_momentum_bounds(samples, seed, tol, quad):
    return verify_momentum_bounds(samples, seed, tolerance=tol)


def _case_u_integral(samples, seed, tol, quad):
    return verify_u_integral_bound(samples, seed, tolerance=tol)


def _case_rearrangement(samples, seed, tol, quad):
    return verify_rearrangement(samples, seed, quad=quad, tolerance=tol)


def _case_lhs_forms(samples, seed, tol, quad):
    """Both algebraic forms of the bound-equation left side agree."""
    rng = np.random.default_rng(seed)
    m_values = np.geomspace(*_M_BOX, 32)
    alphas = np.array([alpha_m(ModelParams(float(m), -1.0))
                       for m in m_values])
    idx = rng.integers(0, len(m_values), samples)
    eb = -(10.0 ** rng.uniform(-1, 1, samples))
    lam = 10.0 ** rng.uniform(-2, 2, samples)
    mu = eb * (10.0 ** rng.uniform(0.0, 3.0, samples))

    pars = ModelParams(m_values[idx], eb)
    f1 = bound_lhs(mu, lam, pars, alphas[idx])
    f2 = bound_lhs_alt(mu, lam, pars, alphas[idx])
    gap = np.abs(f1 - f2) / np.maximum(np.maximum(1.0, np.abs(f1)),
                                       np.abs(f2))
    # the first largest gap, and no row when none is positive
    j = int(np.argmax(gap))
    if not gap[j] > 0.0:
        return _result("bound_lhs_forms", samples, 0.0, {}, tol)
    return _result("bound_lhs_forms", samples, gap[j],
                   {"M": float(pars.mass_ratio[j]), "E_B": float(eb[j]),
                    "lam": float(lam[j]), "mu": float(mu[j]),
                    "primary": float(f1[j]), "alternate": float(f2[j])},
                   tol)


def _case_lhs_monotone(samples, seed, tol, quad):
    """Finite-difference slope of the bound-equation left side in mu is
    negative everywhere on (-inf, E_B]."""
    rng = np.random.default_rng(seed)
    n_sets = 10
    grid_per_set = max(10, samples // n_sets)
    violation, worst, total = 0.0, {}, 0
    for _ in range(n_sets):
        M = float(rng.uniform(1.3, 50.0))
        eb = -float(10.0 ** rng.uniform(-1, 1))
        lam = float(10.0 ** rng.uniform(-2, 2))
        pars = ModelParams(M, eb)
        a = alpha_m(pars)
        mu = eb * np.geomspace(1.0 + 1e-5, 1e3, grid_per_set)
        h = 1e-6 * np.abs(mu)
        slope = (bound_lhs(mu + h, lam, pars, a)
                 - bound_lhs(mu - h, lam, pars, a)) / (2.0 * h)
        total += grid_per_set
        j = int(np.argmax(slope))
        if slope[j] > violation:
            violation = float(slope[j])
            worst = {"M": M, "E_B": eb, "lam": lam, "mu": float(mu[j]),
                     "slope": float(slope[j])}
    return _result("bound_lhs_monotone", total, max(0.0, violation), worst, tol)


def _case_alpha_monotone(samples, seed, tol, quad):
    """alpha(M) strictly decreasing, M/(M+1) increasing, and their
    difference changes sign exactly once on [0.5, 50]."""
    n = int(min(max(samples, 50), 400))
    m_grid = np.geomspace(0.5, 50.0, n)
    alphas = np.array([alpha_m(ModelParams(float(m), -1.0))
                       for m in m_grid])
    hyp = m_grid / (m_grid + 1.0)
    d_alpha = np.diff(alphas)
    margin = alphas - hyp
    sign_changes = int(np.sum(np.diff(np.sign(margin)) != 0))
    violation = max(0.0, float(np.max(d_alpha)))
    if sign_changes != 1:
        violation = max(violation, 1.0)
    worst_j = int(np.argmax(d_alpha))
    return _result("alpha_monotone", n, violation,
                   {"M": float(m_grid[worst_j]),
                    "alpha_step": float(d_alpha[worst_j]),
                    "sign_changes": sign_changes},
                   tol)


def _case_tau_chain(samples, seed, tol, quad):
    violation, worst, total = 0.0, {}, 0
    for M in (1.5, 2.0, 5.0, 20.0):
        pars = ModelParams(M, -1.0)
        for lam in (0.5, 1.0, 2.0):
            mu_grid = pars.binding_energy * np.array([1.5, 2.0, 5.0, 10.0, 100.0])
            row = verify_bound_chain(pars, lam, mu_grid, tolerance=tol)
            total += row.samples_run
            if row.max_violation > violation:
                violation = row.max_violation
                worst = row.worst_input
    return _result("tau_chain", total, violation, worst, tol)


# name -> (suite group, default tolerance, runner)
_CASES = {
    "resolvent_tail_integral": ("integrals", 1e-10, _case_resolvent_tail),
    "cutoff_disk_area": ("integrals", 1e-12, _case_disk_area),
    "sigma_minus_identity": ("integrals", 1e-8, _case_sigma_minus),
    "momentum_shift_bounds": ("inequalities", 1e-12, _case_momentum_bounds),
    "u_integral_bound": ("inequalities", 1e-12, _case_u_integral),
    "rearrangement": ("inequalities", 1e-8, _case_rearrangement),
    "bound_lhs_forms": ("monotonicity", 1e-12, _case_lhs_forms),
    "bound_lhs_monotone": ("monotonicity", 1e-8, _case_lhs_monotone),
    "alpha_monotone": ("monotonicity", 1e-12, _case_alpha_monotone),
    "tau_chain": ("chain", 1e-12, _case_tau_chain),
}

SUITES = ("all", "integrals", "inequalities", "monotonicity", "chain")


def run_suite(suite: str = "all", samples: int = 10000, seed: int = 0,
              tol_override: float | None = None) -> VerificationReport:
    """Run the selected verification cases and assemble the report.

    tol_override replaces every case tolerance (useful for exercising the
    failure path).  Reports are deterministic for fixed (suite, samples,
    seed).
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of {SUITES}")
    rows = []
    for name, (group, default_tol, runner) in _CASES.items():
        if suite != "all" and group != suite:
            continue
        tol = tol_override if tol_override is not None else default_tol
        rows.append(runner(samples, seed, tol, None))
    return VerificationReport(cases=rows,
                              suite_passed=all(r.passed for r in rows))
