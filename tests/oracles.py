"""Independent oracles for the test suite.

Everything here is deliberately coded on a different path from the
package: closed-form antiderivatives, plain bisection, brute-force grid
scans, scipy.integrate quadrature (the package integrates with its own
Gauss-Kronrod routines, and evaluates alpha(M) in closed form),
scipy.optimize's Nelder-Mead (the package carries its own copy),
40-digit mpmath roots of the original bound equation (the package
reduces the cutoff optimum to a root in lam/|mu|), and radial
quadratures of the rearrangement check's left side (the package has it
in closed form).  The exceptions are the per-point references of two
lockstep paths, which share the rules they apply with the package so
that their values can be compared bit for bit.  ``gk15_heap`` is the
scalar heap loop of worst-panel bisection: it shares the package's GK15
panel sums (``_quad._gk15``) and convergence test and keeps its own panel
order, in a heap where the package keeps an array store.
``inner_integral_point`` and ``objective_point`` are the C objective one
point at a time: they share the radial integrand and run the radial
integral by ``gk15_heap``, where the package integrates many points as
the rows of one batch.  ``tail_bound_point`` is their certified tail
bound on plain floats, where the package evaluates it on the columns of
a batch.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
from scipy import integrate, optimize

from polaron2d._quad import _budget_error, _converged, _gk15, _nodes
from polaron2d.cconstant import (TailBoundExceeded, _radial, _shift,
                                 _tail_exceeded, weight)


def alpha_quad(M: float) -> float:
    """Mass constant from its defining integral, by scipy.integrate.quad.

        alpha(M) = 1/(2(M+1)) + (1/2) int_0^1 du / (beta(u) (M+1-u)),
        beta(u) = min{1, (M+1-u)(M+2)/(M^2+3M+1-u)}.

    beta is recoded here, and the kink u* = 1/(M+1) where its two branches
    cross is passed to QUADPACK as a break point.
    """
    def integrand(u):
        b = min(1.0, (M + 1.0 - u) * (M + 2.0) / (M * M + 3.0 * M + 1.0 - u))
        return 1.0 / (b * (M + 1.0 - u))

    val, _ = integrate.quad(integrand, 0.0, 1.0, points=[1.0 / (M + 1.0)],
                            epsabs=0.0, epsrel=1e-13, limit=200)
    return 0.5 / (M + 1.0) + 0.5 * val


def scipy_minimize(fun, x0, *, bounds, initial_simplex, maxfev, xatol,
                   fatol):
    """cconstant.minimize's call, answered by scipy's bounded Nelder-Mead."""
    return optimize.minimize(
        fun, x0, method="Nelder-Mead", bounds=bounds,
        options={"initial_simplex": initial_simplex, "maxfev": maxfev,
                 "xatol": xatol, "fatol": fatol, "adaptive": False})


def _heap(edges, ik, err):
    heap = [(-e, i, lo, hi, k, e) for i, (lo, hi, k, e) in enumerate(
        zip(edges[:-1], edges[1:], ik.tolist(), err.tolist()))]
    heapq.heapify(heap)
    return heap


def _first_pass(f, a: float, b: float, panels: int):
    """``panels`` equal GK15 panels of [a, b] in one call of ``f``.

    Returns the bisection heap and the running totals of the Kronrod
    values, error estimates and |f| integrals.
    """
    edges = np.linspace(a, b, panels + 1)
    x, half = _nodes(edges[:-1], edges[1:])
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    ik, err, resabs = _gk15(y, half)
    return (_heap(edges.tolist(), ik, err), float(ik.sum()), float(err.sum()),
            float(resabs.sum()))


def _halves(f, lo: float, mid: float, hi: float):
    """GK15 sums of the panels [lo, mid] and [mid, hi], one call of ``f``
    each, as three pairs: Kronrod values, error estimates, |f| integrals.
    ``_gk15`` sums each panel on its own, so these are the bits a round of
    ``lockstep_gk15`` gives the same two panels.
    """
    x, half = _nodes(np.array([lo, mid]), np.array([mid, hi]))
    y = np.stack([np.asarray(f(x[0]), dtype=float),
                  np.asarray(f(x[1]), dtype=float)])
    return (v.tolist() for v in _gk15(y, half))


def gk15_heap(f, a: float, b: float, rel_tol: float, abs_tol: float,
              max_subdivisions: int = 200, panels: int = 1) -> float:
    """``_quad.adaptive_gk15``'s worst-panel bisection as a scalar heap loop.

    The first pass evaluates ``panels`` equal panels in one call of ``f``;
    bisection of the worst panel (largest error, lowest heap counter on
    ties) then proceeds one panel pair at a time, one call of ``f`` per
    half.  Raises the package's QuadratureError when the budget runs out.
    """
    if a == b:
        return 0.0
    heap, total, total_err, total_abs = _first_pass(f, a, b, panels)
    counter = panels
    for _ in range(max_subdivisions):
        if _converged(total, total_err, total_abs, rel_tol, abs_tol):
            return total
        _, _, lo, hi, ik0, err0 = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        (ik1, ik2), (err1, err2), (ra1, ra2) = _halves(f, lo, mid, hi)
        total += ik1 + ik2 - ik0
        total_err += err1 + err2 - err0
        total_abs += ra1 + ra2  # monotone overestimate is fine for the floor
        heapq.heappush(heap, (-err1, counter, lo, mid, ik1, err1))
        heapq.heappush(heap, (-err2, counter + 1, mid, hi, ik2, err2))
        counter += 2
    if _converged(total, total_err, total_abs, rel_tol, abs_tol):
        return total
    raise _budget_error(a, b, total_err, max_subdivisions)


def tail_bound_point(p, Q, tau: float, cfg, params) -> float:
    """``cconstant.inner_integral_tail_bound`` for one point, on plain
    floats with ``math``: the scalar path the package's array evaluation
    replaced.  Same error and message."""
    M = params.mass_ratio
    p_hat = _shift(p, Q, M)
    php = math.hypot(float(p_hat[0]), float(p_hat[1]))
    if php == 0.0:
        return 0.0
    cnorm = math.hypot(float(Q[0]), float(Q[1])) / (M + 2.0)
    R = cfg.q_mag_max
    if R <= 2.0 * cnorm:
        raise TailBoundExceeded(
            f"truncation radius {R} is too small for |Q| = {cnorm * (M + 2.0):.3g}; "
            "the certified tail bound degenerates")
    w_top = math.sqrt(1.0 + (tau - cfg.mu) / R ** 2)
    w_bot = math.sqrt(math.log1p((R ** 2 - cfg.mu) / cfg.lam))
    return 2.0 * math.pi * php * w_top / ((M + 2.0) * w_bot * (R - cnorm) ** 2)


def inner_integral_point(p, Q, tau: float, cfg, params,
                         _with_tail: bool = False):
    """``cconstant.inner_integral`` for one point, on plain floats.

    The package integrates every point as a row of a lockstep batch; this
    is the scalar path it replaced, with the radial integral run by
    :func:`gk15_heap`.  Same checks, errors and messages.
    """
    M = params.mass_ratio
    p = np.asarray(p, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    c_vec = Q / (M + 2.0)
    p_hat = p + c_vec
    php = math.hypot(float(p_hat[0]), float(p_hat[1]))
    if php == 0.0:
        return (0.0, 0.0) if _with_tail else 0.0
    tail = tail_bound_point(p, Q, tau, cfg, params)
    B = (M / (M + 2.0)) * float(Q @ Q) + M * (tau - cfg.mu)
    quad = cfg.quad
    ph = (float(p_hat[0]), float(p_hat[1]))
    cv = (float(c_vec[0]), float(c_vec[1]))
    val = gk15_heap(lambda eta: _radial(eta, ph, cv, B, tau, M, cfg),
                    math.log(cfg.lam), 2.0 * math.log(cfg.q_mag_max),
                    quad.rel_tol, quad.abs_tol, quad.max_subdivisions,
                    panels=8)
    if tail > quad.tail_truncation_rel * val + quad.abs_tol:
        raise _tail_exceeded(tail, val, quad)
    if _with_tail:
        return val, tail
    return val


def objective_point(z, cfg, params) -> float:
    """The C objective weight(tau + p^2) * inner_integral at one point
    z = (|Q|, p_par, p_perp, tau), by :func:`inner_integral_point`."""
    q_mag, p_par, p_perp, tau = z
    psq = p_par * p_par + p_perp * p_perp
    inner = inner_integral_point((p_par, p_perp), (q_mag, 0.0), tau, cfg,
                                 params)
    return weight(tau + psq, cfg.mu, cfg.lam) * inner


def bisect(f, a: float, b: float, tol: float = 1e-12, max_iter: int = 400):
    """Plain bisection; endpoints must straddle a root."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    assert fa * fb < 0, "bisection endpoints must straddle a root"
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0 or (b - a) < tol:
            return m
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return 0.5 * (a + b)


def gamma_equation(g: float, M: float, alpham: float) -> float:
    """Dimensionless bound equation, recoded from scratch."""
    return ((M / (M + 1.0) - alpham) * math.log(g)
            - 1.0 / math.sqrt(g) - 1.0 / math.sqrt(1.0 + g)
            - alpham * math.log(1.0 + 1.0 / g) - alpham)


def gamma_by_bisection(M: float, tol: float = 1e-12) -> float:
    """Bisection root of the dimensionless equation with quadrature alpha."""
    a = alpha_quad(M)
    lo, hi = 1.0 + 1e-12, 2.0
    while gamma_equation(hi, M, a) < 0:
        hi *= 2.0
        assert hi < 1e300
    return bisect(lambda g: gamma_equation(g, M, a), lo, hi, tol)


def critical_mass_grid(step: float = 1e-4, lo: float = 1.0,
                       hi: float = 1.5) -> float:
    """Brute-force sign-change scan of alpha(M) - M/(M+1)."""
    m = np.arange(lo, hi + step, step)
    margin = np.array([alpha_quad(float(x)) for x in m]) - m / (m + 1.0)
    sign_flip = np.nonzero(np.diff(np.sign(margin)) != 0)[0]
    assert len(sign_flip) == 1, "expected exactly one sign change"
    i = int(sign_flip[0])
    return 0.5 * (float(m[i]) + float(m[i + 1]))


def envelope_integral_radial(k, params) -> float:
    """Radial scipy quadrature of the symmetrised envelope integral.

    pi [ (1/lam) int_0^lam f(s) ds + int_lam^inf f(s)/s ds ]
    with f the kernel envelope; the angular integral is the trivial
    half-circle factor after s = q^2.
    """
    from polaron2d import a_scale

    M = params.mass_ratio
    A = a_scale(k, params)
    ku = M + 1.0 - k.u

    def f(s):
        return 1.0 / (2.0 * ku * ku * (s + A))

    inner, _ = integrate.quad(f, 0.0, k.lam, epsabs=1e-14, epsrel=1e-12)
    outer, _ = integrate.quad(lambda s: f(s) / s, k.lam, np.inf,
                              epsabs=1e-14, epsrel=1e-12)
    return math.pi * (inner / k.lam + outer)


def c_integrand_scalar(p, q, Q, tau, cfg, params) -> float:
    """The C integrand recoded in plain scalar arithmetic.

    Written from the explicit denominator-difference form
    (D^2 - (4/M^2)(p_hat.q_hat)^2 with D the full shifted denominator),
    a different grouping than the package uses.
    """
    M = params.mass_ratio
    mu, lam = cfg.mu, cfg.lam
    qsq = q[0] * q[0] + q[1] * q[1]
    shift = 1.0 / (M + 2.0)
    phx, phy = p[0] + shift * Q[0], p[1] + shift * Q[1]
    qhx, qhy = q[0] + shift * Q[0], q[1] + shift * Q[1]
    php = phx * phx + phy * phy
    qhp = qhx * qhx + qhy * qhy
    bb = phx * qhx + phy * qhy
    Qsq = Q[0] * Q[0] + Q[1] * Q[1]
    D = (1.0 + 1.0 / M) * (php + qhp) + shift * Qsq + tau - mu
    x = (tau + qsq - mu) / lam
    w = math.sqrt(lam * x / math.log1p(x))
    return w * (2.0 / M) * abs(bb) / ((D * D - 4.0 * bb * bb / (M * M)) * qsq)


def cartesian_annulus_integral(p, Q, tau, cfg, params,
                               epsrel: float = 1e-10) -> float:
    """Iterated Cartesian scipy quadrature of the C integrand over the
    annulus lam < q^2 <= q_mag_max^2.

    The inner y integral is split at the straight line where the shifted
    momenta become orthogonal (the |.| kink of the integrand); the outer
    x integral is split where the inner disk starts and ends.
    """
    M = params.mass_ratio
    lam, R = cfg.lam, cfg.q_mag_max
    rad_in = math.sqrt(lam)
    c_vec = (Q[0] / (M + 2.0), Q[1] / (M + 2.0))
    p_hat = (p[0] + c_vec[0], p[1] + c_vec[1])

    def integrand(y, x):
        return c_integrand_scalar(p, (x, y), Q, tau, cfg, params)

    def kink_y(x):
        # p_hat . (q + c) = 0 solved for y at fixed x
        if p_hat[1] == 0.0:
            return None
        return -c_vec[1] - p_hat[0] * (x + c_vec[0]) / p_hat[1]

    def y_integral(x):
        y_out = math.sqrt(max(R * R - x * x, 0.0))
        segments = []
        if abs(x) < rad_in:
            y_in = math.sqrt(lam - x * x)
            segments = [(-y_out, -y_in), (y_in, y_out)]
        else:
            segments = [(-y_out, y_out)]
        total = 0.0
        for lo, hi in segments:
            if hi <= lo:
                continue
            yk = kink_y(x)
            pts = [yk] if yk is not None and lo < yk < hi else None
            val, _ = integrate.quad(integrand, lo, hi, args=(x,),
                                    points=pts, limit=200,
                                    epsabs=1e-14, epsrel=epsrel)
            total += val
        return total

    total = 0.0
    for lo, hi in ((-R, -rad_in), (-rad_in, rad_in), (rad_in, R)):
        val, _ = integrate.quad(y_integral, lo, hi, limit=200,
                                epsabs=1e-13, epsrel=epsrel)
        total += val
    return total


def sigma_minus_circle_quad(r: float, p_hat, c_vec, B: float,
                            M: float) -> float:
    """scipy quadrature of the circle integral of |sigma^-| at radius r.

    q_hat(theta) = r (cos theta, sin theta) + c_vec, and |sigma^-| is
    recoded as 2M|b| / ((a - 2b)(a + 2b)), which stays accurate when the
    two resolvents nearly cancel (small |p_hat|).  The |.|-kinks,
    where p_hat . q_hat changes sign, are found by a sign scan plus
    bisection and passed to quad as break points.
    """
    def b(theta):
        return (p_hat[0] * (r * math.cos(theta) + c_vec[0])
                + p_hat[1] * (r * math.sin(theta) + c_vec[1]))

    def integrand(theta):
        qx = r * math.cos(theta) + c_vec[0]
        qy = r * math.sin(theta) + c_vec[1]
        S = p_hat[0] ** 2 + p_hat[1] ** 2 + qx * qx + qy * qy
        a = (M + 1.0) * S + B
        bb = p_hat[0] * qx + p_hat[1] * qy
        return 2.0 * M * abs(bb) / ((a - 2.0 * bb) * (a + 2.0 * bb))

    grid = np.linspace(-math.pi, math.pi, 2049)
    vals = np.array([b(t) for t in grid])
    kinks = [bisect(b, float(grid[i]), float(grid[i + 1]), tol=1e-15)
             for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0)]
    val, _ = integrate.quad(integrand, -math.pi, math.pi,
                            points=kinks or None, limit=400,
                            epsabs=0.0, epsrel=1e-13)
    return val


def envelope_circle_integral(r, vnorm: float, A: float, ku: float):
    """Integral of kernel_envelope(|q+v|^2) over the circle |q| = r.

    The envelope is 1/(2 ku^2 (|q+v|^2 + A)) and |q+v|^2 = r^2 + v^2 +
    2 r |v| cos(theta), so the angle integrates to 2 pi / sqrt(D^2 - (2r|v|)^2)
    with D = r^2 + v^2 + A.  Factored as ((r-|v|)^2 + A)((r+|v|)^2 + A),
    the difference of squares has no cancellation.
    """
    return math.pi / (ku * ku * np.sqrt(((r - vnorm) ** 2 + A)
                                        * ((r + vnorm) ** 2 + A)))


def shifted_envelope_quad(vnorm: float, A: float, ku: float, lam: float,
                          rhs_scale: float, quad) -> float:
    """Cubature of int_{q^2 > lam} kernel_envelope(|q+v|^2) / q^2 dq.

    Polar coordinates; the angular integral is the closed form of
    :func:`envelope_circle_integral`, and the radial integral runs by
    :func:`gk15_heap` in eta = log r over [log sqrt(lam), log R], first
    pass eight equal GK15 panels.  R is the radius whose discarded tail is
    below 1e-3 * quad.rel_tol * rhs_scale by the comparison bound
    2 pi / (ku^2 R^2).
    """
    tail_target = max(1e-3 * quad.rel_tol * rhs_scale, 1e-280)
    R = max(2.0 * vnorm + 4.0 * math.sqrt(lam),
            math.sqrt(2.0 * math.pi / (ku * ku * tail_target)))

    def radial(eta):
        # dq = r dr dtheta and the integrand carries 1/r^2; in eta = log r
        # the jacobian r cancels one power
        return envelope_circle_integral(np.exp(eta), vnorm, A, ku)

    return gk15_heap(radial, math.log(math.sqrt(lam)), math.log(R),
                     quad.rel_tol, quad.abs_tol, quad.max_subdivisions,
                     panels=8)


def shifted_envelope_mpmath(vnorm: float, A: float, ku: float, lam: float,
                            dps: int = 30) -> float:
    """int_{q^2 > lam} kernel_envelope(|q+v|^2) / q^2 dq by mpmath.quad.

    The circle integral of :func:`envelope_circle_integral` in s = r^2
    leaves (pi / ku^2) int_lam^inf ds / (2 s sqrt(P(s))) with
    P(s) = s^2 + 2(A - v^2) s + (A + v^2)^2; its peak near s = v^2, of
    width about |v| sqrt(A), is passed to quad as break points.
    """
    import mpmath as mp

    with mp.workdps(dps):
        v, A, ku, lam = (mp.mpf(x) for x in (vnorm, A, ku, lam))
        S = A + v * v

        def f(s):
            return 1 / (2 * s * mp.sqrt(s * s + 2 * (A - v * v) * s + S * S))

        width = v * mp.sqrt(A)
        peak = [v * v + k * width for k in (-10, -1, 0, 1, 10)]
        points = [lam] + sorted(p for p in peak if p > lam)
        points += [2 * points[-1] + 1, mp.inf]
        return float(mp.pi / (ku * ku) * mp.quad(f, points))


def envelope_circle_quad(r: float, v, k, params) -> float:
    """scipy quadrature of the package's kernel_envelope(|q + v|^2) over
    the circle |q| = r."""
    from polaron2d import kernel_envelope

    def integrand(theta):
        qx = r * math.cos(theta) + v[0]
        qy = r * math.sin(theta) + v[1]
        return kernel_envelope(qx * qx + qy * qy, k, params)

    val, _ = integrate.quad(integrand, 0.0, 2.0 * math.pi, limit=400,
                            epsabs=0.0, epsrel=1e-13)
    return val


def lambda_grid_scan(params, lam_min: float, lam_max: float, n: int,
                     solve_mu, spec=None):
    """Brute-force log-grid scan of mu(lam); returns (lams, mus)."""
    lams = np.geomspace(lam_min, lam_max, n)
    mus = np.array([solve_mu(params, float(l), spec).mu for l in lams])
    return lams, mus


def count_local_maxima(values) -> int:
    v = np.asarray(values)
    interior = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
    return int(np.sum(interior))


def optimum_mpmath(M: float, eb: float = -1.0, dps: int = 40):
    """Optimal cutoff and bound, (lam, mu), by 40-digit mpmath.

    Works on the original form of the bound equation F(mu, lam) = 0 with
    alpha(M) from its defining integral: mu(lam) is the root of F in mu,
    found in log(mu/E_B), and the optimum is the root of
    dmu/dlam = -F_lam/F_mu, i.e. of F_lam(mu(lam), lam), bracketed in
    [1e-2, 1e2] |E_B|.
    """
    import mpmath as mp

    with mp.workdps(dps):
        M, eb = mp.mpf(M), mp.mpf(eb)

        def beta(u):
            return min(1, (M + 1 - u) * (M + 2) / (M * M + 3 * M + 1 - u))

        a = 1 / (2 * (M + 1)) + mp.quad(
            lambda u: 1 / (beta(u) * (M + 1 - u)), [0, 1 / (M + 1), 1]) / 2

        def F(mu, lam):
            return ((M / (M + 1) - a) * mp.log(mu / eb)
                    - mp.sqrt(lam / -mu) - mp.sqrt(lam / (lam - mu))
                    - a * mp.log(eb * (1 / mu - 1 / lam)) - a)

        def mu_of(lam):
            def f(s):
                return F(eb * mp.exp(s), lam)
            hi = mp.mpf(1)
            while f(hi) < 0:
                hi *= 2
            return eb * mp.exp(mp.findroot(f, (mp.mpf(10) ** -30, hi),
                                           solver="anderson"))

        def slope(lam):
            mu = mu_of(lam)
            return mp.diff(lambda l: F(mu, l), lam)

        lo, hi = mp.mpf("1e-2") * -eb, mp.mpf("1e2") * -eb
        assert slope(lo) * slope(hi) < 0, "optimum not inside the bracket"
        lam = mp.findroot(slope, (lo, hi), solver="anderson")
        return float(lam), float(mu_of(lam))
