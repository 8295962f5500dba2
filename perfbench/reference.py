"""Reference values that check the benchmark's outputs.

Nothing here imports polaron2d or the repository's tests.  The mass constant
is its elementary closed form, roots come from plain bisection, and the C
integral is a scipy.integrate cubature of the integrand written out afresh
from its definition.
"""

from __future__ import annotations

import math


def alpha(M: float) -> float:
    """alpha(M) = 1/(2(M+1)) + (1/2) int_0^1 du / (beta(u)(M+1-u)) in closed form.

    beta = 1 for u <= k = 1/(M+1); beyond k the integrand splits as
    1/((M+2)(M+1-u)) + M/(M+1-u)^2.
    """
    k = 1.0 / (M + 1.0)
    u_int = (math.log((M + 1.0) / (M + 1.0 - k)) + 1.0 - M / (M + 1.0 - k)
             + math.log((M + 1.0 - k) / M) / (M + 2.0))
    return 0.5 / (M + 1.0) + 0.5 * u_int


def _bisect(f, lo: float, hi: float) -> float:
    """Root of an increasing f with f(lo) < 0 < f(hi), to the last bit."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid


def critical_mass() -> float:
    """M* where alpha(M) = M/(M+1); the margin M/(M+1) - alpha increases."""
    return _bisect(lambda m: m / (m + 1.0) - alpha(m), 1.0, 1.5)


def log_gamma(M: float, l: float) -> float:
    """t = log(mu/E_B) solving the bound equation with cutoff lam = l|E_B|.

    With g = mu/E_B = e^t the equation is scale free:
    (M/(M+1) - a) t - sqrt(l) e^{-t/2} - (1 + e^t/l)^{-1/2}
        - a log(e^{-t} + 1/l) - a = 0,   a = alpha(M).
    """
    a = alpha(M)
    c = M / (M + 1.0) - a
    if not c > 0.0:
        raise ValueError(f"M = {M} is not above the critical mass")

    def f(t):
        e = math.exp(-t)
        return (c * t - math.sqrt(l * e) - math.sqrt(l * e / (l * e + 1.0))
                - a * math.log(e + 1.0 / l) - a)

    hi = 1.0
    while f(hi) <= 0.0:
        hi *= 2.0
    return _bisect(f, 0.0, hi)


def c_value(M: float, q_mag: float, p_par: float, p_perp: float, tau: float,
            mu: float = -1.0, lam: float = 1.0, radius: float = 1000.0) -> float:
    """weight(tau + p^2) times the momentum integral over lam < q^2 <= radius^2.

    The integrand is weight(tau + q^2)/q^2 * (2/M)|b| / (D^2 - 4 b^2/M^2) with
    b = p_hat.q_hat, shifted momenta x_hat = x + Q/(M+2), Q = (q_mag, 0) and
    D = (1 + 1/M)(p_hat^2 + q_hat^2) + Q^2/(M+2) + tau - mu.  Nested
    scipy.integrate.quad in polar coordinates (log q^2 outside, the angle
    inside, split where b changes sign).
    """
    from scipy.integrate import quad

    def weight(s):
        x = (s - mu) / lam
        return math.sqrt(lam * x / math.log1p(x))

    shift = q_mag / (M + 2.0)
    phx, phy = p_par + shift, p_perp
    php = math.hypot(phx, phy)
    psi = math.atan2(phy, phx)
    base = (1.0 + 1.0 / M) * php * php + q_mag * q_mag / (M + 2.0) + tau - mu

    def circle(r):
        def sigma(theta):
            qhx = r * math.cos(theta) + shift
            qhy = r * math.sin(theta)
            b = phx * qhx + phy * qhy
            D = base + (1.0 + 1.0 / M) * (qhx * qhx + qhy * qhy)
            return (2.0 / M) * abs(b) / (D * D - 4.0 * b * b / (M * M))

        kappa = -phx * shift / (r * php)
        kinks = ([psi - math.acos(kappa), psi + math.acos(kappa)]
                 if abs(kappa) < 1.0 else None)
        return quad(sigma, psi - math.pi, psi + math.pi, points=kinks,
                    epsabs=0.0, epsrel=1e-11, limit=200)[0]

    def radial(eta):
        # dq = (1/2) ds dtheta with s = q^2 = e^eta; ds/s cancels the 1/q^2
        s = math.exp(eta)
        return 0.5 * weight(tau + s) * circle(math.sqrt(s))

    inner = quad(radial, math.log(lam), 2.0 * math.log(radius),
                 epsabs=0.0, epsrel=1e-10, limit=200)[0]
    return weight(tau + p_par * p_par + p_perp * p_perp) * inner
