"""Scalar building blocks of the two-dimensional Fermi polaron bound.

The energy bound is the root of a transcendental equation assembled from
the mass constant ``alpha_m``, the piecewise coefficient ``beta`` and a
family of cutoff kernel integrals.  Everything here is a pure function of
its arguments; momenta enter only through their squared magnitudes.  The
functions of a momentum or energy argument broadcast over numpy arrays and
return plain floats for scalar input.  ``beta``, ``a_scale``,
``envelope_cutoff_integral``, ``bound_lhs`` and ``bound_lhs_alt`` also
broadcast over arrays held in the fields of ``ModelParams`` and
``KernelPoint``, one entry per sample.  Such an array evaluation equals
the loop of scalar calls bit for bit, and an array with an out-of-range
entry raises the ValueError of the scalar call on the first such entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import QuadratureError

__all__ = [
    "ModelParams", "QuadratureSpec", "KernelPoint", "QuadratureError",
    "beta", "beta_kink", "alpha_m", "coupling_alpha",
    "bound_lhs", "bound_lhs_alt",
    "a_scale", "kernel_envelope", "j_weight", "envelope_cutoff_integral",
]


@dataclass(frozen=True)
class ModelParams:
    """Physical inputs.

    mass_ratio: impurity mass in units of the fermion mass (M > 0).
    binding_energy: two-body ground-state energy E_B < 0; the free
    coupling parameter of the model.
    Either field may be an array of per-sample values (module docstring).
    """

    mass_ratio: float
    binding_energy: float

    def __post_init__(self):
        ok_m, ok_eb = self.mass_ratio > 0, self.binding_energy < 0
        if ok_m is not True or ok_eb is not True:  # invalid, or arrays
            _check(ok_m, self.mass_ratio, "mass_ratio must be positive, got {}")
            _check(ok_eb, self.binding_energy,
                   "binding_energy must be negative, got {}")


@dataclass(frozen=True)
class QuadratureSpec:
    """Numeric tolerances shared by all quadrature-backed operations.

    tail_truncation_rel is the relative tail mass at which semi-infinite
    radial integrals may be truncated.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-13
    max_subdivisions: int = 400
    tail_truncation_rel: float = 1e-2

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if not self.tail_truncation_rel > 0:
            raise ValueError("tail_truncation_rel must be positive")


@dataclass(frozen=True)
class KernelPoint:
    """Scalar evaluation point for the cutoff kernel functions.

    tau is a spectral value of the free fermion energy, psq a squared
    momentum, mu the (negative) trial energy and lam the infrared cutoff,
    a squared-momentum threshold.  The fields may be arrays of per-sample
    values (module docstring).
    """

    u: float
    tau: float
    psq: float
    mu: float
    lam: float

    def __post_init__(self):
        _check((0.0 <= self.u) & (self.u <= 1.0), self.u,
               "u must lie in [0, 1], got {}")
        _check(np.logical_not((self.tau < 0) | (self.psq < 0)), None,
               "tau and psq must be nonnegative")
        _check(self.mu < 0, self.mu, "mu must be negative, got {}")
        _check(self.lam > 0, self.lam, "lam must be positive, got {}")


def _check(ok, value, message: str) -> None:
    """Raise ValueError(message) unless ``ok`` holds everywhere.

    ``ok`` is a test of ``value``: a bool for scalar input, an array of
    them for array input.  The message is formatted with the first entry
    of ``value`` that fails, so an array fails as the scalar call would.
    """
    if ok is True:
        return
    ok = np.asarray(ok)
    if ok.all():
        return
    if value is not None and ok.ndim:
        value = np.broadcast_to(value, ok.shape)[~ok][0].item()
    raise ValueError(message.format(value))


def _math_map(fn, *args):
    """The ``math`` function ``fn`` applied entry by entry to arrays.

    numpy's SIMD kernels for log, log1p and hypot differ from the C
    library's in the last bit on some inputs (on AVX-512 hosts about 2 %
    of log1p values), and the scalar paths use ``math``; this keeps an
    array evaluation equal to the loop of scalar calls.
    """
    arrays = np.broadcast_arrays(*args)
    flat = (a.ravel().tolist() for a in arrays)
    return np.fromiter(map(fn, *flat), float,
                       arrays[0].size).reshape(arrays[0].shape)


def _match(out):
    """Return a bare float when the result is 0-d."""
    if np.ndim(out) == 0:
        return float(out)
    return out


def beta_kink(params: ModelParams) -> float:
    """Location u* = 1/(M+1) where the two branches of beta cross."""
    return 1.0 / (params.mass_ratio + 1.0)


def beta(u, params: ModelParams):
    """Piecewise coefficient beta(u) = min{1, (M+1-u)(M+2)/(M^2+3M+1-u)}.

    Equals 1 exactly for u <= 1/(M+1) and decreases smoothly to
    (M+2)/(M+3) at u = 1.  Continuous on [0, 1], values in (0, 1].
    """
    M = params.mass_ratio
    ua = np.asarray(u, dtype=float)
    if np.any((ua < 0.0) | (ua > 1.0)):
        raise ValueError("u must lie in [0, 1]")
    ratio = (M + 1.0 - ua) * (M + 2.0) / (M * M + 3.0 * M + 1.0 - ua)
    return _match(np.minimum(1.0, ratio))


def alpha_m(params: ModelParams) -> float:
    """Mass constant alpha(M) = 1/(2(M+1)) + (1/2) int_0^1 du/(beta(u)(M+1-u)).

    The integral has an elementary closed form once it is split at the
    kink u* = 1/(M+1).  On [0, u*] beta = 1 and the integrand 1/(M+1-u)
    gives log((M+1)/(M+1-u*)) = log1p(1/(M(M+2))).  On [u*, 1] the
    substitution v = M+1-u turns the integrand into M/v^2 + 1/((M+2)v)
    over v in [M, M(M+2)/(M+1)], which gives 1/(M+2) + log1p(1/(M+1))/(M+2).
    Hence

        alpha(M) = 1/(2(M+1)) + (1/2) [ log1p(1/(M(M+2))) + 1/(M+2)
                                        + log1p(1/(M+1))/(M+2) ].

    Every term is positive and both logarithms go through log1p, so the
    form is free of cancellation for all M > 0.
    """
    M = params.mass_ratio
    return (0.5 / (M + 1.0)
            + 0.5 * (math.log1p(1.0 / (M * (M + 2.0)))
                     + 1.0 / (M + 2.0)
                     + math.log1p(1.0 / (M + 1.0)) / (M + 2.0)))


def coupling_alpha(params: ModelParams) -> float:
    """Coupling strength -(pi/(1+1/M)) log|E_B| fixed by the binding energy."""
    M = params.mass_ratio
    return -(math.pi / (1.0 + 1.0 / M)) * math.log(abs(params.binding_energy))


def _check_mu_lam(mu, lam):
    if np.any(np.asarray(mu) >= 0.0):
        raise ValueError("mu must be negative")
    _check(lam > 0.0, lam, "lam must be positive")


def bound_lhs(mu, lam: float, params: ModelParams, alpham: float):
    """Left side of the bound equation whose root is the energy bound.

    (M/(M+1) - a) log(mu/E_B) - sqrt(lam/-mu) - sqrt(lam/(lam-mu))
        - a log(E_B (1/mu - 1/lam)) - a,   with a = alpha(M).

    Both logarithm arguments are positive for mu < 0: mu/E_B > 0 and
    E_B (1/mu - 1/lam) = |E_B| (1/|mu| + 1/lam) > 0.  alpha(M) is taken
    as an argument so one value serves a whole grid of mu.  The root
    solvers evaluate the same expression on plain floats; this vectorised
    form is the reference they are tested against.
    """
    _check_mu_lam(mu, lam)
    M = params.mass_ratio
    eb = params.binding_energy
    mua = np.asarray(mu, dtype=float)
    frac = M / (M + 1.0)
    val = ((frac - alpham) * np.log(mua / eb)
           - np.sqrt(lam / (-mua))
           - np.sqrt(lam / (lam - mua))
           - alpham * np.log(eb * (1.0 / mua - 1.0 / lam))
           - alpham)
    return _match(val)


def bound_lhs_alt(mu, lam: float, params: ModelParams, alpham: float):
    """Algebraically equivalent form of :func:`bound_lhs`.

    (M/(M+1)) log(mu/E_B) - sqrt(lam/-mu) - sqrt(lam/(lam-mu))
        - a log(1 - mu/lam) - a.

    Used as an independent cross-check; log1p keeps the last logarithm
    accurate when |mu| << lam.
    """
    _check_mu_lam(mu, lam)
    M = params.mass_ratio
    eb = params.binding_energy
    mua = np.asarray(mu, dtype=float)
    frac = M / (M + 1.0)
    val = (frac * np.log(mua / eb)
           - np.sqrt(lam / (-mua))
           - np.sqrt(lam / (lam - mua))
           - alpham * np.log1p(-mua / lam)
           - alpham)
    return _match(val)


def a_scale(k: KernelPoint, params: ModelParams) -> float:
    """Effective squared-momentum scale A(u) = M(tau + beta(u) psq - mu)/(M+1-u).

    Strictly positive, and bounded above by tau + psq - mu.
    """
    M = params.mass_ratio
    _check(k.u < M + 1.0, None, "u must be smaller than M+1")
    return M * (k.tau + beta(k.u, params) * k.psq - k.mu) / (M + 1.0 - k.u)


def kernel_envelope(qsq, k: KernelPoint, params: ModelParams):
    """Radial kernel envelope 1/(2 (M+1-u)^2 (qsq + A(u))).

    Symmetric decreasing in the momentum, homogeneous of degree -1 in
    (qsq, A).
    """
    A = a_scale(k, params)
    M = params.mass_ratio
    denom = 2.0 * (M + 1.0 - k.u) ** 2
    qa = np.asarray(qsq, dtype=float)
    if np.any(qa < 0.0):
        raise ValueError("qsq must be nonnegative")
    return _match(1.0 / (denom * (qa + A)))


def j_weight(qsq, lam: float):
    """Symmetric decreasing cutoff weight: 1/lam inside the disk q^2 <= lam,
    1/q^2 outside.  Continuous at the boundary."""
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    qa = np.asarray(qsq, dtype=float)
    if np.any(qa < 0.0):
        raise ValueError("qsq must be nonnegative")
    return _match(1.0 / np.where(qa <= lam, lam, qa))


def envelope_cutoff_integral(k: KernelPoint, params: ModelParams) -> float:
    """Closed form of the plane integral of j_weight times kernel_envelope.

    pi/(2 (M+1-u)^2 A) * ( (A/lam) log(1 + lam/A) + log(1 + A/lam) ),
    with A = a_scale(k).  Both logarithms go through log1p so the extreme
    regimes A << lam and A >> lam evaluate without cancellation.
    """
    M = params.mass_ratio
    A = a_scale(k, params)
    lam = k.lam
    # float_power is the C library's pow, as ** on Python floats; numpy's
    # ** 2 squares instead, which differs in the last bit on some inputs
    pref = math.pi / (2.0 * np.float_power(M + 1.0 - k.u, 2) * A)
    return _match(pref * ((A / lam) * _math_map(math.log1p, lam / A)
                          + _math_map(math.log1p, A / lam)))
