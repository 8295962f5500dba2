"""Numerical estimation of the spectral coupling constant C.

C is a supremum over (p, Q, tau) of a weighted two-dimensional momentum
integral.  Comparing C with the prefactor pi/(1+1/M) of the logarithmic
free term gives an empirical criterion for extending the energy bound to
mass ratios below the analytic threshold.  By rotational invariance the
total momentum Q is aligned with the first axis and by reflection symmetry
the transverse component of p is kept nonnegative, which leaves the four
coordinates (|Q|, p_par, p_perp, tau).  The search runs on the plane
p_perp = 0, tau = 0 of these: at every mass tried the maximiser in the
search box lies on it, and the objective falls quadratically in p_perp
and linearly in tau off it.  That is a numerical observation, checked by
the tests against a four-dimensional scan and descent at fixed masses,
not a theorem.
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
    """Bounded Nelder-Mead descent, as a generator: the algorithm of
    :func:`minimize` with the objective left outside.

    It yields each trial point (a fresh copy), must be sent that point's
    value before it yields the next one, and returns the SimplexResult.
    Input errors are raised by the first ``next``.
    """
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
    """Minimise the scalar function fun by bounded Nelder-Mead descent.

    The standard simplex method (Lagarias, Reeds, Wright & Wright, SIAM J.
    Optim. 9 (1998)) with reflection, expansion, contraction and shrink
    coefficients rho = 1, chi = 2, psi = 1/2, sigma = 1/2.  bounds is a
    sequence of (lo, hi) pairs, one per coordinate.  Vertices of
    initial_simplex above hi are first reflected into the box (2 hi - x),
    then the simplex is clipped to [lo, hi], and so is every trial point:
    reflection, expansion, both contractions and the shrink.  fun is never
    called more than maxfev times, even when the budget runs out in the
    middle of the first evaluations or of a shrink step.  The descent stops
    there, or once every vertex lies within xatol of the best one and every
    value within fatol of the best value.  x0 must be the length of a
    vertex; the descent starts from initial_simplex.

    This reproduces scipy.optimize.minimize(method="Nelder-Mead",
    adaptive=False) with the same bounds and options operation for
    operation, down to sorting the vertices with np.argsort (not a stable
    sort) where scipy does, so that the C estimate and its refinement
    trace stay bit-identical to the scipy implementation it replaces,
    without loading scipy at run time.  The tests hold it to scipy.

    It is the one-start call of :func:`_lockstep`, which
    :func:`estimate_C` uses to run several descents at once; exceptions
    raised by fun propagate unchanged.
    """
    descent = _descent(x0, bounds=bounds, initial_simplex=initial_simplex,
                       maxfev=maxfev, xatol=xatol, fatol=fatol)
    (result,) = _lockstep([descent], lambda X: [fun(X[0])])
    return result


def _lockstep(descents, batch):
    """Run the :func:`_descent` generators together; return their results.

    Each round, the pending trial points of the running descents, in
    start order, go to one call batch(X), which returns a value per row
    of X; an error it raises propagates.
    """
    results = [None] * len(descents)
    points = {}  # start index -> pending trial point

    def advance(i, value):
        try:
            points[i] = descents[i].send(value)
        except StopIteration as stop:
            results[i] = stop.value

    for i in range(len(descents)):
        advance(i, None)
    while points:
        starts = sorted(points)
        values = batch(np.array([points.pop(i) for i in starts]))
        for i, value in zip(starts, values):
            advance(i, value)
    return results


# estimate_C warns when its last refinement level still raised C by more
# than this fraction: a moving maximum means the descents have not settled.
_STABILITY_REL_TOL = 0.02


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

    mu and lam are recorded in every estimate: the construction does not
    single out a canonical evaluation point, so both stay explicit
    configuration.  q_mag_max truncates the momentum integral; the
    truncation carries a certified closed-form tail bound.  qmag_grid and
    ppar_grid span the searched plane p_perp = 0, tau = 0, and their ends
    are the bounds of the refinement.
    """

    mu: float = -1.0
    lam: float = 1.0
    q_mag_max: float = 1000.0
    qmag_grid: GridSpec = field(default_factory=lambda: GridSpec(0.0, 8.0, 5))
    ppar_grid: GridSpec = field(default_factory=lambda: GridSpec(-8.0, 8.0, 9))
    refine_iters: int = 2
    quad: QuadratureSpec = field(default_factory=lambda: QuadratureSpec(
        rel_tol=1e-7, abs_tol=1e-13, max_subdivisions=80,
        tail_truncation_rel=1e-2))

    def __post_init__(self):
        if not -math.inf < self.mu < 0:
            raise ValueError("mu must be negative and finite")
        if not 0 < self.lam < math.inf:
            raise ValueError("lam must be positive and finite")
        if not self.q_mag_max ** 2 > self.lam:
            raise ValueError("q_mag_max**2 must exceed lam")
        if self.refine_iters < 0:
            raise ValueError("refine_iters must be >= 0")


def coarse_config(mu: float = -1.0, lam: float = 1.0) -> CSearchConfig:
    """Default coarse search box, scaled to the evaluation point."""
    s = math.sqrt(max(lam, -mu))
    return CSearchConfig(
        mu=mu, lam=lam, q_mag_max=1000.0 * s,
        qmag_grid=GridSpec(0.0, 8.0 * s, 5),
        ppar_grid=GridSpec(-8.0 * s, 8.0 * s, 9),
        refine_iters=2,
    )


def fine_config(mu: float = -1.0, lam: float = 1.0) -> CSearchConfig:
    """Denser grids, larger truncation radius, one extra refinement round."""
    s = math.sqrt(max(lam, -mu))
    return CSearchConfig(
        mu=mu, lam=lam, q_mag_max=3000.0 * s,
        qmag_grid=GridSpec(0.0, 8.0 * s, 9),
        ppar_grid=GridSpec(-8.0 * s, 8.0 * s, 17),
        refine_iters=3,
        quad=QuadratureSpec(rel_tol=1e-9, abs_tol=1e-14,
                            max_subdivisions=160, tail_truncation_rel=1e-3),
    )


@dataclass(frozen=True)
class CEstimate:
    """Result of the supremum search.

    refinement_trace holds the running maximum per refinement level and is
    nondecreasing by construction.  truncation_error_bound is the certified
    tail bound of the momentum integral at the maximiser.
    """

    value: float
    argmax: dict
    prefactor: float
    ratio: float
    refinement_trace: tuple
    truncation_error_bound: float
    mu: float
    lam: float
    mass_ratio: float

    def row(self) -> dict:
        """Table row: M, mu, lambda, C, prefactor, ratio and the argmax."""
        return {"M": self.mass_ratio, "mu": self.mu, "lambda": self.lam,
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
    B = (M / (M + 2.0)) * Qsq + M * (tau - cfg.mu)
    val = (weight(tau + qsq, cfg.mu, cfg.lam) / qsq
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
    w_top = np.sqrt(1.0 + (tau - cfg.mu) / R ** 2)
    w_bot = math.sqrt(math.log1p((R ** 2 - cfg.mu) / cfg.lam))
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
    return 0.5 * weight(tau + s, cfg.mu, cfg.lam) * circ


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
    B = (M / (M + 2.0)) * qsq + M * (tau - cfg.mu)
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


def inner_integral(p, Q, tau: float, cfg: CSearchConfig, params: ModelParams,
                   _with_tail: bool = False):
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
    (val,), (tail,) = _inner_rows(
        np.array([p], dtype=float), np.array([Q], dtype=float),
        np.array([tau], dtype=float), cfg, params)
    return (float(val), float(tail)) if _with_tail else float(val)


def _objective_rows(rows: np.ndarray, cfg: CSearchConfig,
                    params: ModelParams) -> np.ndarray:
    """weight(tau + p^2) * inner_integral at every row
    (|Q|, p_par, p_perp, tau) of rows, with Q on the first axis."""
    q_mag, p_par, p_perp, tau = rows.T
    inner, _ = _inner_rows(
        np.column_stack([p_par, p_perp]),
        np.column_stack([q_mag, np.zeros(len(rows))]), tau, cfg, params)
    psq = p_par * p_par + p_perp * p_perp
    return weight(tau + psq, cfg.mu, cfg.lam) * inner


def estimate_C(cfg: CSearchConfig, params: ModelParams) -> CEstimate:
    """Estimate C = sup weight(tau + p^2) * inner_integral over the plane
    p_perp = 0, tau = 0 of the search box (see the module docstring).

    Grid scan over (|Q|, p_par), evaluated as one :func:`_objective_rows`
    batch, followed by refine_iters levels of simplex descent restarted
    from the best five points.  The running maximum per level is recorded
    in refinement_trace.  The five descents of a level run in lockstep
    (:func:`_lockstep`): each round evaluates their pending trial points,
    at most five, in one :func:`_objective_rows` call.  No row's value
    depends on its batch, so the values are those of five sequential
    :func:`minimize` runs.  The tail bound at the maximiser comes from one
    last :func:`inner_integral`.  The argmax reports p_perp and tau as 0.
    """
    M = params.mass_ratio
    qmag = cfg.qmag_grid.values()
    ppar = cfg.ppar_grid.values()
    mesh = np.stack(np.meshgrid(qmag, ppar, indexing="ij"),
                    axis=-1).reshape(-1, 2)

    def plane_rows(X):
        return _objective_rows(np.column_stack([X, np.zeros((len(X), 2))]),
                               cfg, params)

    values = plane_rows(mesh)

    order = np.argsort(-values, kind="stable")
    candidates = [(float(values[i]), tuple(mesh[i].tolist()))
                  for i in order[:5]]
    trace = [(0, candidates[0][0])]

    lo = np.array([qmag[0], ppar[0]])
    hi = np.array([qmag[-1], ppar[-1]])

    for level in range(1, cfg.refine_iters + 1):
        shrink = 0.25 ** (level - 1)
        descents = []
        for val0, z0 in candidates:
            x0 = np.array(z0)
            simplex = [x0]
            for i in range(2):
                step = 0.2 * shrink * (hi[i] - lo[i])
                v = x0.copy()
                v[i] = v[i] + step if v[i] + step <= hi[i] else v[i] - step
                simplex.append(v)
            descents.append(_descent(
                x0, bounds=list(zip(lo, hi)),
                initial_simplex=np.array(simplex), maxfev=200, xatol=1e-8,
                fatol=1e-14))
        # every vertex of a descent lies in the box
        new_candidates = [(float(-res.fun), tuple(res.x.tolist()))
                          for res in _lockstep(descents,
                                               lambda X: -plane_rows(X))]
        candidates = sorted(candidates + new_candidates,
                            key=lambda t: -t[0])[:5]
        trace.append((level, candidates[0][0]))

    best_val, (q_best, ppar_best) = candidates[0]
    _, tail = inner_integral((ppar_best, 0.0), (q_best, 0.0), 0.0,
                             cfg, params, _with_tail=True)

    # flag maximisers on genuine box boundaries (the lower edge of |Q| is a
    # symmetry reduction, not a boundary of the search space)
    edges = []
    span = hi - lo
    checks = [("q_mag high", hi[0] - q_best, span[0]),
              ("p_par low", ppar_best - lo[1], span[1]),
              ("p_par high", hi[1] - ppar_best, span[1])]
    for name, dist, width in checks:
        if width > 0 and dist < 1e-6 * width:
            edges.append(name)
    if edges:
        warnings.warn(
            f"maximiser sits on the search-box boundary ({', '.join(edges)}); "
            "the reported value may underestimate the supremum",
            BoundaryMaximizerWarning, stacklevel=2)
    if len(trace) >= 2:
        v_prev, v_last = trace[-2][1], trace[-1][1]
        if v_last > 0 and (v_last - v_prev) > _STABILITY_REL_TOL * v_last:
            warnings.warn(
                f"refinement not yet stable: last two levels differ by "
                f"{(v_last - v_prev) / v_last:.2%}", UserWarning, stacklevel=2)

    prefactor = math.pi / (1.0 + 1.0 / M)
    return CEstimate(
        value=best_val,
        argmax={"Q_mag": q_best, "p_par": ppar_best, "p_perp": 0.0,
                "tau": 0.0},
        prefactor=prefactor,
        ratio=best_val / prefactor,
        refinement_trace=tuple((int(l), float(v)) for l, v in trace),
        truncation_error_bound=tail,
        mu=cfg.mu, lam=cfg.lam, mass_ratio=M,
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
    for M in M_values:
        try:
            row = estimate_C(cfg, ModelParams(float(M), -1.0)).row()
            row["error"] = None
        except Exception as exc:  # noqa: BLE001 - per-row capture is the contract
            row = {"M": float(M), "mu": cfg.mu, "lambda": cfg.lam, "C": None,
                   "prefactor": math.pi / (1.0 + 1.0 / M), "ratio": None,
                   "Q_mag": None, "p_par": None, "p_perp": None, "tau": None,
                   "error": str(exc)}
        rows.append(row)
    return rows
