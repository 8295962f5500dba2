"""Numerical estimation of the spectral coupling constant C.

C is a supremum over (p, Q, tau) of a weighted two-dimensional momentum
integral.  Comparing C with the prefactor pi/(1+1/M) of the logarithmic
free term gives an empirical criterion for extending the energy bound to
mass ratios below the analytic threshold.  By rotational invariance the
total momentum Q is aligned with the first axis and by reflection symmetry
the transverse component of p is kept nonnegative, which leaves the four
coordinates (|Q|, p_par, p_perp, tau).  Scaling (mu, lam, tau) by s and
the momenta by sqrt(s) leaves the objective unchanged, so C depends on M
and x = lam/|mu| alone: the estimate runs at mu = -1, lam = x.  It
searches the plane p_perp = 0, tau = 0: inside the search box the
maximiser lies on it at every mass tried, and the objective falls
quadratically in p_perp and linearly in tau off it.  That is a numerical
observation, checked by the tests against a four-dimensional scan and
descent at fixed masses, not a theorem.  Beyond the box a regime with p
against Q and tau growing like |Q|^2 can win at small M or x; a probe at
the box's |Q| edge reports it, and warns.  The estimate is the objective
at the best point found: a lower bound of the supremum up to quadrature
error, with no claim that the maximum found is the global one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._quad import lockstep_gk15
from .corefuncs import ModelParams, QuadratureSpec

__all__ = [
    "GridSpec", "CSearchConfig", "CEstimate",
    "TailBoundExceeded", "BoundaryMaximizerWarning",
    "weight", "c_integrand", "inner_integral", "inner_integral_tail_bound",
    "estimate_C", "scan_C_vs_M", "coarse_config", "fine_config",
]

_MU = -1.0  # the trial energy of every C evaluation; lam is x = lam/|mu|


class TailBoundExceeded(RuntimeError):
    """The certified truncation tail exceeds the configured allowance."""


class BoundaryMaximizerWarning(UserWarning):
    """The estimated maximiser sits on the search-box boundary."""


@dataclass(frozen=True)
class SimplexResult:
    """Outcome of :func:`minimize`: best vertex, its value, evaluations."""

    x: np.ndarray
    fun: float
    nfev: int


class _BudgetSpent(Exception):
    """The objective was called maxfev times."""


def _descent(x0, *, bounds, initial_simplex, maxfev, xatol, fatol):
    """:func:`minimize` as a generator: it yields each trial point (a fresh
    copy), must be sent that point's value before it yields the next one,
    and returns the SimplexResult.  The first ``next`` checks the input."""
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    lo, hi = (np.array(b, dtype=float) for b in zip(*bounds))
    sim = np.array(initial_simplex, dtype=float)
    n = sim.shape[1]
    if sim.shape != (n + 1, n) or np.shape(x0) != (n,) or lo.shape != (n,):
        raise ValueError("need an (n+1, n) simplex, n-vector x0, n bounds")
    if np.any(lo > hi):
        raise ValueError("a lower bound exceeds its upper bound")
    sim = np.clip(np.where(sim > hi, 2 * hi - sim, sim), lo, hi)
    fsim = np.full(n + 1, np.inf)
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return (yield np.copy(x))

    def step():
        # one iteration, updating sim and fsim in place
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = np.clip((1 + rho) * xbar - rho * sim[-1], lo, hi)
        fxr = yield from f(xr)
        if fxr < fsim[0]:
            xe = np.clip((1 + rho * chi) * xbar - rho * chi * sim[-1], lo, hi)
            fxe = yield from f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:  # outside contraction
            xc = np.clip((1 + psi * rho) * xbar - psi * rho * sim[-1], lo, hi)
            fxc = yield from f(xc)
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                yield from shrink()
        else:  # inside contraction
            xcc = np.clip((1 - psi) * xbar + psi * sim[-1], lo, hi)
            fxcc = yield from f(xcc)
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                yield from shrink()

    def shrink():
        for j in range(1, n + 1):
            sim[j] = np.clip(sim[0] + sigma * (sim[j] - sim[0]), lo, hi)
            fsim[j] = yield from f(sim[j])

    def by_value(sim, fsim):
        ind = np.argsort(fsim)
        return sim[ind], fsim[ind]

    try:
        for k in range(n + 1):
            fsim[k] = yield from f(sim[k])
    except _BudgetSpent:
        pass
    # sorted twice, as scipy does: argsort may reorder ties again
    sim, fsim = by_value(*by_value(sim, fsim))
    while nfev < maxfev:
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        try:
            yield from step()
        except _BudgetSpent:
            pass
        sim, fsim = by_value(sim, fsim)
    return SimplexResult(x=sim[0], fun=np.min(fsim), nfev=nfev)


def minimize(fun, x0, *, bounds, initial_simplex, maxfev, xatol, fatol):
    """Minimise fun by bounded Nelder-Mead descent, operation for operation
    as scipy.optimize.minimize(method="Nelder-Mead") with the same bounds,
    initial_simplex, maxfev, xatol and fatol (the tests hold the two to
    each other).  No production code calls it: the benchmark harness
    traces it by name."""
    descent = _descent(x0, bounds=bounds, initial_simplex=initial_simplex,
                       maxfev=maxfev, xatol=xatol, fatol=fatol)
    value = None
    try:
        while True:
            value = fun(descent.send(value))
    except StopIteration as stop:
        return stop.value


# The Newton refinement of estimate_C: the stencil step h, absolute in the
# plane coordinates; the most rounds it runs; the predicted gain, relative
# to the value, below which a start has converged.  A step shorter than h**2,
# the stencil's resolution of the maximiser, no longer moves a start.
_STENCIL_H = 1e-3
_MAX_ROUNDS = 40
_GAIN_RTOL = 1e-15
# centre, +-e1, +-e2, (+,+) and (-,-)
_STENCIL = _STENCIL_H * np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1],
                                  [1, 1], [-1, -1]], dtype=float)


class _Start:
    """One start of the Newton refinement: its best point x and value fx,
    the stencil gradient g and Hessian H there, its trust radius and its
    pending trial point."""

    def __init__(self, x, radius):
        self.x = self.trial = x
        self.fx, self.radius, self.active = -math.inf, radius, True

    def update(self, f, lo, hi):
        """Take the stencil values f at the trial point; set the next trial
        point, or retire the start."""
        f0, fxp, fxm, fyp, fym, fpp, fmm = f
        if f0 > self.fx:  # central differences at the new best point
            hxy = 0.5 * (fpp + fmm - fxp - fxm - fyp - fym + 2.0 * f0)
            self.H = np.array([[fxp - 2.0 * f0 + fxm, hxy],
                               [hxy, fyp - 2.0 * f0 + fym]]) / _STENCIL_H ** 2
            self.g = np.array([fxp - fxm, fyp - fym]) / (2.0 * _STENCIL_H)
            self.x, self.fx = self.trial, f0
        else:
            self.radius = 0.25 * np.hypot(*(self.trial - self.x))
        # a coordinate on a box edge whose gradient points out stays put.
        # On the others: Newton where the Hessian is negative definite,
        # else its eigenvalues shifted down until the step fits the radius
        x, g = self.x, self.g
        free = ~(((x <= lo) & (g < 0)) | ((x >= hi) & (g > 0)))
        e, V = np.linalg.eigh(self.H[np.ix_(free, free)])
        gt = V.T @ g[free]
        concave = len(e) > 0 and e.max() < 0.0
        shift = 0.0 if concave else np.max(e, initial=0.0) + (
            np.linalg.norm(gt) / self.radius)
        step = np.zeros(2)
        step[free] = V @ np.divide(gt, shift - e, out=np.zeros(len(e)),
                                   where=shift > e)
        step *= min(1.0, self.radius / max(np.hypot(*step), 1e-300))
        self.trial = np.clip(x + step, lo, hi)
        step = self.trial - x
        gain = g @ step + 0.5 * step @ self.H @ step
        self.active = np.hypot(*step) > _STENCIL_H ** 2 and not (
            concave and gain <= _GAIN_RTOL * abs(self.fx))


@dataclass(frozen=True)
class GridSpec:
    """One search-grid axis."""

    lo: float
    hi: float
    count: int
    spacing: str = "linear"

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.hi < self.lo:
            raise ValueError("need lo <= hi")
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"unknown spacing {self.spacing!r}")
        if self.spacing == "log" and not self.lo > 0:
            raise ValueError("log spacing requires lo > 0")

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.lo, self.hi, self.count)
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class CSearchConfig:
    """Search configuration for the C estimate.

    lam is the evaluation point x = lam/|mu| at mu = -1: scaling
    (mu, lam, tau) by s and the momenta by sqrt(s) leaves C unchanged, so x
    is its one degree of freedom, recorded in every estimate.  q_mag_max
    truncates the momentum integral; the truncation carries a certified
    closed-form tail bound, and q_mag_max**4 must be finite.  qmag_grid and
    ppar_grid span the searched plane p_perp = 0, tau = 0: their mesh is the
    grid scan, their ends bound the Newton refinement, and the
    large-momentum probe sits at their |Q| end.
    """

    lam: float = 1.0
    q_mag_max: float = 1000.0
    qmag_grid: GridSpec = field(default_factory=lambda: GridSpec(0.0, 8.0, 5))
    ppar_grid: GridSpec = field(default_factory=lambda: GridSpec(-8.0, 8.0, 9))
    quad: QuadratureSpec = field(default_factory=lambda: QuadratureSpec(
        rel_tol=1e-7, abs_tol=1e-13, max_subdivisions=80,
        tail_truncation_rel=1e-2))

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError("lam must be positive and finite")
        q_sq = self.q_mag_max * self.q_mag_max  # ** raises on overflow
        if not math.isfinite(q_sq * q_sq):  # _angular_kernel squares it
            raise ValueError(f"q_mag_max**4 must be finite, got q_mag_max = "
                             f"{self.q_mag_max:.3g} at lam = {self.lam:.3g}")
        if not q_sq > self.lam:
            raise ValueError("q_mag_max**2 must exceed lam")


def coarse_config(lam: float = 1.0) -> CSearchConfig:
    """Default coarse search box, scaled to the evaluation point."""
    s = math.sqrt(max(lam, 1.0))
    return CSearchConfig(
        lam=lam, q_mag_max=1000.0 * s,
        qmag_grid=GridSpec(0.0, 8.0 * s, 5),
        ppar_grid=GridSpec(-8.0 * s, 8.0 * s, 9),
    )


def fine_config(lam: float = 1.0) -> CSearchConfig:
    """Denser grids, a larger truncation radius and a tighter quadrature."""
    s = math.sqrt(max(lam, 1.0))
    return CSearchConfig(
        lam=lam, q_mag_max=3000.0 * s,
        qmag_grid=GridSpec(0.0, 8.0 * s, 9),
        ppar_grid=GridSpec(-8.0 * s, 8.0 * s, 17),
        quad=QuadratureSpec(rel_tol=1e-9, abs_tol=1e-14,
                            max_subdivisions=160, tail_truncation_rel=1e-3),
    )


@dataclass(frozen=True)
class CEstimate:
    """Result of the supremum search.

    refinement_trace holds the best value after the grid scan (round 0)
    and after each Newton round; it is nondecreasing by construction.
    truncation_error_bound is the certified tail bound of the momentum
    integral at the maximiser.
    """

    value: float
    argmax: dict
    prefactor: float
    ratio: float
    refinement_trace: tuple
    truncation_error_bound: float
    lam: float
    mass_ratio: float

    def row(self) -> dict:
        """Table row: M, mu, lambda, C, prefactor, ratio and the argmax."""
        return {"M": self.mass_ratio, "mu": _MU, "lambda": self.lam,
                "C": self.value, "prefactor": self.prefactor,
                "ratio": self.ratio, **self.argmax}


def weight(s, mu: float, lam: float):
    """Spectral weight sqrt((s - mu)/log(1 + (s - mu)/lam)).

    Finite and positive for all s >= 0 because -mu > 0; tends to
    sqrt(lam) as (s - mu)/lam -> 0 and grows like sqrt(s/log s).
    """
    if not mu < 0:
        raise ValueError("mu must be negative")
    if not lam > 0:
        raise ValueError("lam must be positive")
    sa = np.asarray(s, dtype=float)
    if np.any(sa < 0):
        raise ValueError("s must be nonnegative")
    x = (sa - mu) / lam
    out = np.sqrt(lam * x / np.log1p(x))
    if np.ndim(s) == 0:
        return float(out)
    return out


def _abs_sigma_minus(php_sq, b, qhsq, B, M):
    """|sigma^-| = 2M|b| / (a^2 - 4b^2) with a = (M+1)(p_hat^2+q_hat^2) + B.

    The denominator is strictly positive: a >= 2(M+1)|b| > 2|b| by
    Cauchy-Schwarz, and B >= 0.
    """
    a = (M + 1.0) * (php_sq + qhsq) + B
    return 2.0 * M * np.abs(b) / (a * a - 4.0 * b * b)


def _shift(vec, Q, M):
    return np.asarray(vec, dtype=float) + np.asarray(Q, dtype=float) / (M + 2.0)


def c_integrand(p, q, Q, tau, cfg: CSearchConfig, params: ModelParams):
    """Integrand of the momentum integral inside the supremum.

    weight(tau + q^2) / q^2 * (2/M)|p_hat . q_hat| /
        (D^2 - (4/M^2)(p_hat . q_hat)^2),

    where p_hat = p + Q/(M+2), q_hat = q + Q/(M+2) and
    D = (1+1/M)(p_hat^2 + q_hat^2) + Q^2/(M+2) + tau - mu.  Defined on the
    integration domain q^2 > lam only.  Broadcasts over leading axes of
    p, q, Q (shape (..., 2)) and tau.
    """
    M = params.mass_ratio
    q = np.asarray(q, dtype=float)
    qsq = q[..., 0] ** 2 + q[..., 1] ** 2
    if np.any(qsq <= cfg.lam):
        raise ValueError("q**2 must exceed the infrared cutoff lam")
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("tau must be nonnegative")
    Q = np.asarray(Q, dtype=float)
    p_hat = _shift(p, Q, M)
    q_hat = _shift(q, Q, M)
    php_sq = p_hat[..., 0] ** 2 + p_hat[..., 1] ** 2
    qhsq = q_hat[..., 0] ** 2 + q_hat[..., 1] ** 2
    b = p_hat[..., 0] * q_hat[..., 0] + p_hat[..., 1] * q_hat[..., 1]
    Qsq = Q[..., 0] ** 2 + Q[..., 1] ** 2
    B = (M / (M + 2.0)) * Qsq + M * (tau - _MU)
    val = (weight(tau + qsq, _MU, cfg.lam) / qsq
           * _abs_sigma_minus(php_sq, b, qhsq, B, M))
    if val.ndim == 0:
        return float(val)
    return val


def _tail_bounds(p: np.ndarray, Q: np.ndarray, tau: np.ndarray,
                 cfg: CSearchConfig, params: ModelParams) -> np.ndarray:
    """:func:`inner_integral_tail_bound` at every row of p and Q (shape
    (n, 2)) and tau; raises for the first degenerate row.  ``math.hypot``
    and the C library's pow keep the bits of a scalar evaluation."""
    M = params.mass_ratio
    x, y = np.concatenate([_shift(p, Q, M), Q]).T.tolist()
    php, qnorm = np.fromiter(map(math.hypot, x, y), float).reshape(2, -1)
    cnorm = qnorm / (M + 2.0)
    R = cfg.q_mag_max
    fits = R > 2.0 * cnorm
    # p_hat = 0 gives 0, even where the bound would degenerate: there the
    # gap is taken as infinite
    bad = np.flatnonzero((php != 0.0) & ~fits)
    if len(bad):
        raise TailBoundExceeded(
            f"truncation radius {R} is too small for "
            f"|Q| = {cnorm[bad[0]] * (M + 2.0):.3g}; "
            "the certified tail bound degenerates")
    w_top = np.sqrt(1.0 + (tau - _MU) / R ** 2)
    w_bot = math.sqrt(math.log1p((R ** 2 - _MU) / cfg.lam))
    gap_sq = np.float_power(np.where(fits, R - cnorm, np.inf), 2)
    return 2.0 * math.pi * php * w_top / ((M + 2.0) * w_bot * gap_sq)


def inner_integral_tail_bound(p, Q, tau: float, cfg: CSearchConfig,
                              params: ModelParams) -> float:
    """Closed-form bound on the integral mass beyond |q| = q_mag_max.

    Pointwise, the integrand is at most
        weight(tau+q^2) / q^2 * 2|p_hat| / ((M+2) |q_hat|^3),
    and integrating the radial comparison function gives

        2 pi |p_hat| sqrt(1 + (tau-mu)/R^2)
        / ((M+2) sqrt(log(1 + (R^2-mu)/lam)) (R - |Q|/(M+2))^2).

    Valid for R > 2|Q|/(M+2).  The one-row call of :func:`_tail_bounds`.
    """
    return float(_tail_bounds(
        np.array([p], dtype=float), np.array([Q], dtype=float),
        np.array([tau], dtype=float), cfg, params)[0])


def _angular_kernel(r: np.ndarray, p_hat, c_vec, B,
                    M: float) -> np.ndarray:
    """Circle integral of |sigma^-| at radii r, in closed form (batched).

    The components of p_hat and c_vec and B are floats, or arrays that
    broadcast against r (one row per integrand of a lockstep batch); every
    operation is elementwise.

    With q_hat = r e(theta) + c, both a -+ 2b equal alpha -+ 2d + beta.e
    with d = p_hat.c and beta = 2r((M+1)c -+ p_hat), and alpha > |beta|.
    The circle splits at the two zeros of b = p_hat.q_hat, where
    |sigma^-| = +-(M/2)[1/(a-2b) - 1/(a+2b)].  On each arc put
    theta = psi0 + 2h, with psi0 the direction of p_hat or its opposite so
    that |h| <= pi/2; then (Gradshteyn & Ryzhik 2.553)

        int dtheta / (alpha + beta.e) = (2/s) atan2(R sin h + Q cos h, s cos h)

    with s^2 = alpha^2 - |beta|^2, R = alpha - beta.u and Q = beta.u_perp
    (u = e(psi0)).  The two terms cancel when |p_hat| is small, so their
    difference is formed from the analytic differences
    R_- - R_+ = 4(+-r|p_hat| - d), Q_- = Q_+ and
    s_+^2 - s_-^2 = 8d((M+1)(|p_hat|^2 + |c|^2 - r^2) + B), and the two
    angles are subtracted as the argument of z_- conj(z_+).  Anchoring the
    arcs at p_hat keeps the result equivariant under joint rotations.
    """
    php = np.hypot(p_hat[0], p_hat[1])
    ux, uy = p_hat[0] / php, p_hat[1] / php
    d = p_hat[0] * c_vec[0] + p_hat[1] * c_vec[1]
    c_par = c_vec[0] * ux + c_vec[1] * uy
    c_perp = c_vec[1] * ux - c_vec[0] * uy
    aoff = np.arccos(np.clip(-d / (r * php), -1.0, 1.0))
    csq = c_vec[0] ** 2 + c_vec[1] ** 2
    alpha = (M + 1.0) * (php * php + r * r + csq) + B
    alpha_plus, alpha_minus = alpha + 2.0 * d, alpha - 2.0 * d
    beta_c = 2.0 * (M + 1.0) * r * c_par
    beta_p = 2.0 * r * php
    ds_sq = 8.0 * d * ((M + 1.0) * (php * php + csq - r * r) + B)
    total = 0.0
    # b > 0 on the arc centred on p_hat, b < 0 on the opposite arc
    for sign, half_arc in ((1.0, 0.5 * aoff), (-1.0, 0.5 * (math.pi - aoff))):
        P_p = sign * (beta_c + beta_p)
        P_m = sign * (beta_c - beta_p)
        Q = sign * 2.0 * (M + 1.0) * r * c_perp
        R_p, R_m = alpha_plus - P_p, alpha_minus - P_m
        s_p = np.sqrt(R_p * (alpha_plus + P_p) - Q * Q)
        s_m = np.sqrt(R_m * (alpha_minus + P_m) - Q * Q)
        dR = 4.0 * (sign * r * php - d)          # R_- - R_+
        ds = ds_sq / (s_p + s_m)                 # s_+ - s_-

        def antiderivative(h):
            # F_- - F_+ at half-angle h
            sh, ch = np.sin(h), np.cos(h)
            y_p = R_p * sh + Q * ch
            y_m = R_m * sh + Q * ch
            im = ch * (sh * (dR * s_p + R_p * ds) + Q * ch * ds)
            re = s_m * s_p * ch * ch + y_m * y_p
            return (2.0 / s_m) * (np.arctan2(im, re)
                                  + np.arctan2(y_p, s_p * ch) * ds / s_p)

        total = total + sign * (antiderivative(half_arc)
                                - antiderivative(-half_arc))
    return 0.5 * M * total


def _radial(eta, p_hat, c_vec, B, tau, M: float, cfg: CSearchConfig):
    """Radial integrand of :func:`inner_integral` at eta = log(q^2).

    p_hat, c_vec, B and tau are columns, one row per integrand of a
    lockstep batch (:func:`_inner_rows`).
    """
    s = np.exp(eta)
    r = np.sqrt(s)
    circ = _angular_kernel(r, p_hat, c_vec, B, M)
    # measure: dq = (1/2) ds dtheta in s = q^2; the 1/q^2 of the
    # integrand cancels the jacobian of eta = log s
    return 0.5 * weight(tau + s, _MU, cfg.lam) * circ


def _tail_exceeded(tail: float, val: float, quad: QuadratureSpec):
    return TailBoundExceeded(
        f"certified tail {tail:.3e} exceeds allowance "
        f"{quad.tail_truncation_rel:.1e} relative to integral {val:.3e}; "
        "increase q_mag_max")


def _inner_rows(p: np.ndarray, Q: np.ndarray, tau: np.ndarray,
                cfg: CSearchConfig, params: ModelParams):
    """:func:`inner_integral` at every row of p and Q (shape (n, 2)) and tau:
    the values and the certified tails.  The radial integrals of all rows
    run in lockstep (:func:`lockstep_gk15`).  Each failure raises at the
    stage that finds it, for the first row that has it.
    """
    M = params.mass_ratio
    quad = cfg.quad
    c_vec = Q / (M + 2.0)
    p_hat = p + c_vec
    tails = _tail_bounds(p, Q, tau, cfg, params)
    # rows to integrate; p_hat = 0 gives 0.  The mask is not tails > 0: the
    # bound of a tiny |p_hat| can underflow to 0
    live = np.flatnonzero(p_hat.any(axis=1))
    # |Q|^2 per row as a dot product, the bits of Q @ Q for one vector (an
    # elementwise sum can differ by 1 ulp and move a value by 3 ulp)
    qsq = (Q[:, None, :] @ Q[:, :, None])[:, 0, 0]
    B = (M / (M + 2.0)) * qsq + M * (tau - _MU)
    cols = [v[live, None] for v in (*p_hat.T, *c_vec.T, B, tau)]

    def radial(eta, rows):
        px, py, cx, cy, b, t = (v[rows] for v in cols)
        return _radial(eta, (px, py), (cx, cy), b, t, M, cfg)

    vals, failures = lockstep_gk15(
        radial, len(live), math.log(cfg.lam), 2.0 * math.log(cfg.q_mag_max),
        quad.rel_tol, quad.abs_tol, quad.max_subdivisions, panels=8)
    first = next(filter(None, failures), None)
    if first is not None:
        raise first
    inner = np.zeros(len(tau))
    inner[live] = vals
    over = np.flatnonzero(tails > quad.tail_truncation_rel * inner
                          + quad.abs_tol)
    if len(over):
        raise _tail_exceeded(tails[over[0]], inner[over[0]], quad)
    return inner, tails


def inner_integral(p, Q, tau: float, cfg: CSearchConfig, params: ModelParams):
    """Momentum integral of :func:`c_integrand` over lam < q^2 <= q_mag_max^2.

    Evaluated in polar coordinates: the closed-form angular integral of
    :func:`_angular_kernel` inside an adaptive radial integral in log(q^2)
    whose first pass is eight equal GK15 panels.  The discarded tail
    carries the certified bound of :func:`inner_integral_tail_bound`; if
    that bound exceeds the configured relative allowance,
    TailBoundExceeded is raised rather than silently accepting the
    truncation.  This is the one-row call of :func:`_inner_rows`.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    (val,), _ = _inner_rows(
        np.array([p], dtype=float), np.array([Q], dtype=float),
        np.array([tau], dtype=float), cfg, params)
    return float(val)


def _objective_rows(rows: np.ndarray, cfg: CSearchConfig,
                    params: ModelParams) -> np.ndarray:
    """weight(tau + p^2) * inner_integral at every row
    (|Q|, p_par, p_perp, tau) of rows, with Q on the first axis."""
    q_mag, p_par, p_perp, tau = rows.T
    inner, _ = _inner_rows(
        np.column_stack([p_par, p_perp]),
        np.column_stack([q_mag, np.zeros(len(rows))]), tau, cfg, params)
    psq = p_par * p_par + p_perp * p_perp
    return weight(tau + psq, _MU, cfg.lam) * inner


def _refine(points, objective, lo, hi):
    """Batched trust-region Newton rounds from each of points, rows of
    (|Q|, p_par) in the box [lo, hi]: each round evaluates the stencil of
    every active start at its trial point in one call objective(X).  A
    start within h of a better start's point retires.  Returns the
    :class:`_Start` objects and the best value after each round."""
    starts = [_Start(x, 0.2 * np.hypot(*(hi - lo))) for x in points]
    best = []
    for _ in range(_MAX_ROUNDS):
        active = [start for start in starts if start.active]
        if not active:
            break
        values = objective(np.concatenate(
            [start.trial + _STENCIL for start in active]))
        for start, f in zip(active, values.reshape(len(active), -1)):
            start.update(f, lo, hi)
        for start in active:
            start.active &= not any(
                other.fx > start.fx
                and np.max(np.abs(other.x - start.x)) <= _STENCIL_H
                for other in starts)
        best.append(max(start.fx for start in starts))
    return starts, best


def estimate_C(cfg: CSearchConfig, params: ModelParams) -> CEstimate:
    """Estimate C = sup weight(tau + p^2) * inner_integral on the plane
    p_perp = 0, tau = 0 of the search box (see the module docstring).

    One :func:`_objective_rows` batch evaluates the (|Q|, p_par) mesh and
    the 48 rows of the large-momentum probe; the five best mesh points
    start :func:`_refine`, whose rounds are calls of at most 35 rows.  If
    the probe beats the plane, its value and point are reported, with a
    BoundaryMaximizerWarning.  The reported value is a lower bound of the
    supremum up to quadrature error, with no claim of global optimality.
    """
    M = params.mass_ratio
    qmag = cfg.qmag_grid.values()
    ppar = cfg.ppar_grid.values()
    mesh = np.stack(np.meshgrid(qmag, ppar, indexing="ij"),
                    axis=-1).reshape(-1, 2)

    # the large-momentum probe: |Q| = q, p = -kappa Q, tau = theta |Q|^2
    q = cfg.qmag_grid.hi
    kappa, theta = (a.ravel() for a in np.meshgrid(
        np.linspace(0.8, 1.3, 6), np.geomspace(0.1, 3.0, 8), indexing="ij"))
    probe = np.column_stack([np.full(48, q), -q * kappa, np.zeros(48),
                             q * q * theta])
    values, probe_values = np.split(_objective_rows(
        np.vstack([np.pad(mesh, ((0, 0), (0, 2))), probe]), cfg, params),
        [len(mesh)])
    lo = np.array([qmag[0], ppar[0]])
    hi = np.array([qmag[-1], ppar[-1]])
    order = np.argsort(-values, kind="stable")
    starts, rounds = _refine(mesh[order[:5]], lambda X: _objective_rows(
        np.pad(X, ((0, 0), (0, 2))), cfg, params), lo, hi)
    top = max(starts, key=lambda start: start.fx)
    i = np.argmax(probe_values)
    trace = [(k, max(v, probe_values[i]))
             for k, v in enumerate([values[order[0]], *rounds])]

    if probe_values[i] > top.fx:
        best_val = probe_values[i]
        q_best, ppar_best, _, tau_best = probe[i].tolist()
        warnings.warn(
            "the large-momentum regime beats the plane p_perp = 0, tau = 0: "
            f"maximiser at |Q| = {q_best:.6g}, p = {ppar_best / q_best:.3g} "
            f"Q, tau = {tau_best / q_best ** 2:.3g} |Q|^2; the reported "
            "value may underestimate the supremum", BoundaryMaximizerWarning,
            stacklevel=2)
    else:
        best_val, (q_best, ppar_best), tau_best = top.fx, top.x.tolist(), 0.0
        # flag maximisers on genuine box boundaries (the lower edge of |Q|
        # is a symmetry reduction, not a boundary of the search space)
        span = hi - lo
        checks = [("q_mag high", hi[0] - q_best, span[0]),
                  ("p_par low", ppar_best - lo[1], span[1]),
                  ("p_par high", hi[1] - ppar_best, span[1])]
        edges = [name for name, dist, width in checks
                 if width > 0 and dist < 1e-6 * width]
        if edges:
            warnings.warn(
                f"maximiser sits on the search-box boundary "
                f"({', '.join(edges)}); the reported value may "
                "underestimate the supremum", BoundaryMaximizerWarning,
                stacklevel=2)
    tail = inner_integral_tail_bound((ppar_best, 0.0), (q_best, 0.0),
                                     tau_best, cfg, params)
    if top.active:
        warnings.warn(
            f"refinement not yet stable: the best start was still moving "
            f"after {_MAX_ROUNDS} rounds", UserWarning, stacklevel=2)

    prefactor = math.pi / (1.0 + 1.0 / M)
    return CEstimate(
        value=float(best_val),
        argmax={"Q_mag": q_best, "p_par": ppar_best, "p_perp": 0.0,
                "tau": tau_best},
        prefactor=prefactor,
        ratio=float(best_val) / prefactor,
        refinement_trace=tuple((int(l), float(v)) for l, v in trace),
        truncation_error_bound=tail,
        lam=cfg.lam, mass_ratio=M,
    )


def scan_C_vs_M(M_values, cfg: CSearchConfig) -> list[dict]:
    """One C estimate per mass ratio at E_B = -1: :meth:`CEstimate.row`
    plus an error column, where row errors are captured, not raised.  The
    ratio column C/(pi/(1+1/M)) supports an empirical critical-mass
    readout (smallest M with ratio < 1).
    """
    if len(M_values) == 0:
        raise ValueError("M_values must be nonempty")
    rows = []
    for M in map(float, M_values):
        try:
            row = estimate_C(cfg, ModelParams(M, -1.0)).row()
            row["error"] = None
        except Exception as exc:  # noqa: BLE001 - per-row capture is the contract
            row = {"M": M, "mu": _MU, "lambda": cfg.lam, "C": None,
                   "prefactor": math.pi / (1.0 + 1.0 / M) if M > 0 else None,
                   "ratio": None, "Q_mag": None, "p_par": None, "p_perp": None,
                   "tau": None, "error": str(exc)}
        rows.append(row)
    return rows
