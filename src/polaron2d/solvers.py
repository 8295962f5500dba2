"""Root finding and cutoff optimisation for the polaron energy bound.

solve_mu produces the bound mu < E_B for a given infrared cutoff,
solve_gamma the dimensionless ratio gamma = mu/E_B obtained by tying the
cutoff to the binding energy, critical_mass the mass ratio at which the
bound's hypothesis alpha(M) < M/(M+1) starts to hold, and optimize_lambda
the cutoff that maximises the bound.

solve_mu is the one root solver of the bound equation, and solve_gamma
is solve_mu at E_B = -1, lam = 1.  optimize_lambda solves no bound
equation: the optimal cutoff is the root of a monotone function of
lam/|mu| that depends on M alone, and the bound follows in closed form.
Everything runs on plain floats with ``math``, and alpha(M) is a closed
form, so no solver runs a quadrature.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .corefuncs import ModelParams, alpha_m

__all__ = [
    "RootFindSpec", "CutoffChoice", "BoundResult",
    "SupercriticalMass", "BracketFailure", "NonConvergence", "RangeError",
    "solve_mu", "solve_gamma", "critical_mass", "optimize_lambda",
]

_EPS = 7.0 / 3 - 4.0 / 3 - 1.0  # float64 machine epsilon
_LOG_MAX = math.log(sys.float_info.max)


class SupercriticalMass(ValueError):
    """alpha(M) >= M/(M+1): the bound's hypothesis fails for this mass."""


class BracketFailure(RuntimeError):
    """No sign change found within the allowed bracket expansions."""


class NonConvergence(RuntimeError):
    """Root refinement did not meet the requested tolerances."""


class RangeError(RuntimeError):
    """The cutoff optimum lies outside the search range."""


@dataclass(frozen=True)
class RootFindSpec:
    # the bound ratio grows like exp(alpha/(M/(M+1) - alpha)) towards the
    # critical mass, so the bracket budget must cover the full float range
    x_tol: float = 1e-12
    f_tol: float = 1e-10
    max_iter: int = 1200
    bracket_growth: float = 2.0

    def __post_init__(self):
        if not (self.x_tol > 0 and self.f_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.bracket_growth > 1.0:
            raise ValueError("bracket_growth must exceed 1")


@dataclass(frozen=True)
class CutoffChoice:
    """How the infrared cutoff is chosen: fixed value, tied to the binding
    energy (lam = -E_B), or optimised over a range."""

    mode: str
    lam: float | None = None
    lambda_min: float | None = None
    lambda_max: float | None = None

    def __post_init__(self):
        if self.mode not in ("fixed", "binding_scale", "optimize"):
            raise ValueError(f"unknown cutoff mode {self.mode!r}")
        if self.mode == "fixed" and not (self.lam and self.lam > 0):
            raise ValueError("fixed mode requires lam > 0")
        if self.mode == "optimize":
            if self.lambda_min is None or self.lambda_max is None:
                raise ValueError("optimize mode requires a lambda range")
            if not 0 < self.lambda_min < self.lambda_max:
                raise ValueError("need 0 < lambda_min < lambda_max")

    @classmethod
    def fixed(cls, lam: float) -> "CutoffChoice":
        return cls(mode="fixed", lam=lam)

    @classmethod
    def binding_scale(cls) -> "CutoffChoice":
        return cls(mode="binding_scale")

    @classmethod
    def optimize(cls, lambda_min: float, lambda_max: float) -> "CutoffChoice":
        return cls(mode="optimize", lambda_min=lambda_min, lambda_max=lambda_max)


@dataclass(frozen=True)
class BoundResult:
    """Solved energy bound.  mu < E_B strictly, gamma = mu/E_B > 1."""

    mu: float
    lambda_used: float
    gamma: float
    alpha_M: float
    residual: float
    iterations: int
    optimized: bool


def _brent(f, a: float, b: float, fa: float, fb: float,
           x_tol: float, max_iter: int):
    """Bisection-safeguarded inverse-quadratic/secant root refinement.

    [a, b] must bracket a root (fa*fb < 0).  Returns (root, f(root), evals).
    """
    if fa * fb > 0:
        raise BracketFailure("endpoints do not bracket a root")
    c, fc = a, fa
    e = d = b - a
    evals = 0
    for _ in range(max_iter):
        if fb * fc > 0:
            c, fc = a, fa
            e = d = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * x_tol
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b, fb, evals
        if abs(e) < tol or abs(fa) <= abs(fb):
            e = d = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e = d
                d = p / q
            else:
                e = d = m
        a, fa = b, fb
        b += d if abs(d) > tol else (tol if m > 0 else -tol)
        fb = f(b)
        evals += 1
    raise NonConvergence(f"root refinement exceeded {max_iter} iterations")


def _require_subcritical(mass_ratio: float, alpham: float):
    hyp = mass_ratio / (mass_ratio + 1.0)
    if alpham >= hyp:
        raise SupercriticalMass(
            f"alpha(M) = {alpham:.6f} >= M/(M+1) = {hyp:.6f} for M = {mass_ratio}; "
            "no N-independent bound is available below the critical mass")


def _bound_equation(params: ModelParams, lam: float, alpham: float):
    """The left side of the bound equation as a float function of mu < 0:
    :func:`corefuncs.bound_lhs` without its array handling and checks."""
    eb = params.binding_energy
    coeff = params.mass_ratio / (params.mass_ratio + 1.0) - alpham
    inv_lam = 1.0 / lam

    def f(mu):
        return (coeff * math.log(mu / eb)
                - math.sqrt(lam / -mu)
                - math.sqrt(lam / (lam - mu))
                - alpham * math.log(eb * (1.0 / mu - inv_lam))
                - alpham)
    return f


def solve_mu(params: ModelParams, lam: float,
             spec: RootFindSpec | None = None,
             alpham: float | None = None) -> BoundResult:
    """Solve the bound equation for mu < E_B at a fixed cutoff lam.

    The root is bracketed between E_B(1 + 1e-9), where the left side is
    negative, and a geometrically expanded left endpoint where it turns
    positive, then refined by bisection-safeguarded interpolation.  The
    left side is :func:`corefuncs.bound_lhs`, evaluated here on floats;
    the bracket keeps mu < 0, so the inputs are checked once.
    """
    spec = spec or RootFindSpec()
    if not lam > 0:
        raise ValueError("lam must be positive")
    if alpham is None:
        alpham = alpha_m(params)
    _require_subcritical(params.mass_ratio, alpham)
    eb = params.binding_energy
    f = _bound_equation(params, lam, alpham)
    right = eb * (1.0 + 1e-9)
    f_right = f(right)
    iterations = 1
    if f_right >= 0.0:
        raise BracketFailure(
            "left side not negative just below E_B; equation malformed")
    left = eb
    f_left = f_right
    for _ in range(spec.max_iter):
        if abs(left) > 1e307 / spec.bracket_growth:
            raise BracketFailure(
                "bound exceeds the floating-point range; the mass ratio is "
                "too close to the critical mass")
        left *= spec.bracket_growth
        f_left = f(left)
        iterations += 1
        if f_left > 0.0:
            break
    else:
        raise BracketFailure(
            f"no sign change within {spec.max_iter} bracket expansions")

    root, fres, evals = _brent(f, left, right, f_left, f_right,
                               spec.x_tol * max(1.0, abs(eb)), spec.max_iter)
    iterations += evals
    if abs(fres) > spec.f_tol:
        raise NonConvergence(
            f"residual {fres:.3e} exceeds f_tol {spec.f_tol:.3e}")
    if not root < eb:
        raise NonConvergence("solved mu does not lie strictly below E_B")
    return BoundResult(mu=root, lambda_used=lam, gamma=root / eb,
                       alpha_M=alpham, residual=fres, iterations=iterations,
                       optimized=False)


def solve_gamma(mass_ratio: float,
                spec: RootFindSpec | None = None,
                alpham: float | None = None) -> float:
    """Solve for the dimensionless ratio gamma_M > 1.

    gamma_M is the unique positive root of

        (M/(M+1) - a) log(g) - 1/sqrt(g) - 1/sqrt(1+g) - a log(1 + 1/g) = a,

    with a = alpha(M).  This is the bound equation with the cutoff tied to
    the binding energy, lam = -E_B, in units where E_B = -1; so gamma_M is
    solve_mu at E_B = -1, lam = 1, and its errors are solve_mu's.
    """
    return solve_mu(ModelParams(mass_ratio, -1.0), 1.0, spec,
                    alpham=alpham).gamma


# Mass-ratio bracket of the critical mass M* (about 1.22).
_CRITICAL_MASS_BRACKET = (1.0, 1.5)


def critical_mass(spec: RootFindSpec | None = None) -> float:
    """Mass ratio M* at which alpha(M) = M/(M+1).

    The hypothesis margin h(M) = alpha(M) - M/(M+1) is monotone decreasing
    across the bracket [1.0, 1.5]; a coarse scan guards against a second
    root before Brent refinement.
    """
    spec = spec or RootFindSpec()
    lo, hi = _CRITICAL_MASS_BRACKET

    def h(m):
        return alpha_m(ModelParams(m, -1.0)) - m / (m + 1.0)

    n_guard = 11
    vals = [h(lo + (hi - lo) * i / (n_guard - 1)) for i in range(n_guard)]
    if any(b >= a for a, b in zip(vals, vals[1:])):
        raise NonConvergence(
            "hypothesis margin is not monotone across the bracket; "
            "cannot certify a unique critical mass")
    f_lo, f_hi = vals[0], vals[-1]
    if not (f_lo > 0.0 > f_hi):
        raise NonConvergence(
            f"bracket [{lo}, {hi}] does not straddle the critical mass")
    root, fres, _ = _brent(h, lo, hi, f_lo, f_hi, spec.x_tol, spec.max_iter)
    if abs(fres) > spec.f_tol:
        raise NonConvergence(
            f"residual {fres:.3e} exceeds f_tol {spec.f_tol:.3e}")
    return root


def optimize_lambda(params: ModelParams, choice: CutoffChoice,
                    spec: RootFindSpec | None = None) -> BoundResult:
    """Maximise the bound mu over the cutoff range of an ``optimize`` choice.

    With g = mu/E_B, x = lam/|mu|, a = alpha(M) and k = (M+1)/M the bound
    equation reads log g = k phi(x), where

        phi(x) = sqrt(x) + sqrt(x/(1+x)) + a log(1 + 1/x) + a.

    lam/|E_B| = x e^(k phi(x)) increases strictly in x, so the best cutoff
    is the minimiser x* of phi, the one root of

        h(x) = (sqrt(x)/2) ((1+x) + (1+x)^(-1/2)) - a = x (1+x) phi'(x).

    h increases strictly, and h(a^2/4) < 0 < h(4a^2) since a < 1, so Brent
    refines y = log x* in that fixed bracket.  x* depends on M alone; mu and
    lam follow in closed form, and everything up to them stays in logs.
    An optimum outside the range raises RangeError rather than being
    clipped to an edge.
    """
    spec = spec or RootFindSpec()
    if choice.mode != "optimize":
        raise ValueError("optimize_lambda requires an 'optimize' cutoff choice")
    alpham = alpha_m(params)
    _require_subcritical(params.mass_ratio, alpham)

    def h(y):
        x = math.exp(y)
        return (0.5 * math.sqrt(x) * (1.0 + x + 1.0 / math.sqrt(1.0 + x))
                - alpham)

    lo, hi = math.log(0.25 * alpham * alpham), math.log(4.0 * alpham * alpham)
    y, _, evals = _brent(h, lo, hi, h(lo), h(hi), spec.x_tol, spec.max_iter)
    x = math.exp(y)
    t = ((params.mass_ratio + 1.0) / params.mass_ratio
         * (math.sqrt(x) + math.sqrt(x / (1.0 + x))
            + alpham * math.log1p(1.0 / x) + alpham))
    eb = params.binding_energy
    log_mu = t + math.log(-eb)  # log |mu|; t < 5 for every subcritical M
    if log_mu > _LOG_MAX:
        raise BracketFailure(
            "bound exceeds the floating-point range; |E_B| is too large")
    if not (math.log(choice.lambda_min) <= y + log_mu
            <= math.log(choice.lambda_max)):
        raise RangeError(
            f"cutoff optimum lam = exp({y + log_mu:.6f}) lies outside the "
            f"search range [{choice.lambda_min:.3e}, "
            f"{choice.lambda_max:.3e}]; widen the range")
    gamma = math.exp(t)
    mu = eb * gamma
    lam = -x * mu
    return BoundResult(mu=mu, lambda_used=lam, gamma=gamma, alpha_M=alpham,
                       residual=_bound_equation(params, lam, alpham)(mu),
                       iterations=evals + 2, optimized=True)
