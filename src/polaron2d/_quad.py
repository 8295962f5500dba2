"""Adaptive Gauss-Kronrod quadrature on vectorised callables.

Every integral the package does not have in closed form goes through the
one algorithm here, ``lockstep_gk15``: worst-panel bisection of GK15
panels, run for many integrands over one interval at once, each row with
the bits of its one-row run.  The C estimate calls it for every radial
integral (``cconstant._inner_rows``: the grid scan, the Nelder-Mead
refinement and the one-row ``inner_integral``).  ``lockstep_intervals``
gives each row its own interval, for the tail and disk checks of
``verify``; the rearrangement check and the angular integrals of the C
estimate are closed forms.
``adaptive_gk15``, the one-row call, and ``arc_adaptive_batch``,
``lockstep_intervals`` on (m, k) arrays, have no production caller: the
benchmark tracer in perfbench/ resolves both by name, and the tests use
them, so they stay until the tracer counts lockstep rounds instead.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["QuadratureError", "adaptive_gk15", "arc_adaptive_batch",
           "leggauss", "lockstep_gk15", "lockstep_intervals"]


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance."""


# 15-point Kronrod extension of 7-point Gauss on [-1, 1], nodes ascending.
# The embedded Gauss nodes are the odd-indexed Kronrod nodes.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])

_EPS = np.finfo(float).eps


@lru_cache(maxsize=None)
def leggauss(n: int):
    """Cached Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


def _converged(total, total_err, total_abs, rel_tol: float,
               abs_tol: float):
    """The convergence test, on floats or on arrays of per-row totals."""
    # round-off floor: below this the error estimate is noise
    floor = 50.0 * _EPS * total_abs
    # fmax passes over a NaN operand, as max(abs_tol, ...) would
    return total_err <= np.fmax(np.fmax(abs_tol, rel_tol * np.abs(total)),
                                floor)


def _budget_error(a: float, b: float, total_err: float,
                  max_subdivisions: int) -> QuadratureError:
    return QuadratureError(
        f"integral over [{a}, {b}] did not converge: "
        f"estimated error {total_err:.3e} after {max_subdivisions} subdivisions"
    )


def _gk15(y, half):
    """Kronrod values, error estimates and |f| integrals of GK15 panels
    whose 15 node values lie along the last axis of ``y``.  einsum
    (without ``optimize``, so never BLAS) sums every panel in one order:
    a panel's sums do not depend on the number or position of the others.
    """
    ik = half * np.einsum("...j,j->...", y, _WK)
    err = np.abs(ik - half * np.einsum("...j,j->...", y[..., 1::2], _WG))
    resabs = half * np.einsum("...j,j->...", np.abs(y), _WK)
    return ik, err, resabs


def _nodes(lo, hi):
    """GK15 nodes of the panels [lo, hi] (one row each) and half-widths."""
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi))[:, None] + half[:, None] * _XK, half


def adaptive_gk15(f, a: float, b: float, rel_tol: float, abs_tol: float,
                  max_subdivisions: int = 200, panels: int = 1) -> float:
    """Integrate ``f`` over [a, b] to the requested tolerance.

    ``f`` must accept a 1-D numpy array of abscissae and return values of
    the same shape.  This is :func:`lockstep_gk15` with one integrand: the
    first pass evaluates ``panels`` equal panels of [a, b] in one call of
    ``f``, and every bisection then evaluates both halves of the worst
    panel in one call of 30 points.  Raises QuadratureError if
    ``max_subdivisions`` bisection steps do not suffice.
    """
    (value,), (failure,) = lockstep_gk15(
        lambda x, rows: f(x[0]), 1, a, b, rel_tol, abs_tol,
        max_subdivisions, panels)
    if failure is not None:
        raise failure
    return float(value)


def lockstep_gk15(f, n: int, a: float, b: float, rel_tol: float,
                  abs_tol: float, max_subdivisions: int = 200,
                  panels: int = 1):
    """Integrate ``n`` integrands over [a, b], all in lockstep.

    ``f(x, rows)`` evaluates integrand ``rows[i]`` at the abscissae
    ``x[i]``: ``x`` is 2-D with one row per entry of the integer array
    ``rows``, and the values come back in the same shape.

    Each integrand runs its own worst-panel bisection (Piessens et al.,
    QUADPACK, 1983).  The first pass splits [a, b] into ``panels`` equal
    GK15 panels.  An integrand has converged once its summed error
    estimate is at most the largest of ``abs_tol``, ``rel_tol`` times its
    |value| and a round-off floor of 50 eps times its integral of |f|.
    Until then each round bisects its worst panel, the first maximum of
    the error estimates in order of creation (the first-pass panels left
    to right, then the two halves of each bisected panel), so ties go to
    the oldest panel.  After ``max_subdivisions`` bisections it fails.
    One call of ``f`` evaluates the first pass of all integrands, then
    one per round both halves (30 points) of every unconverged one.  A
    row's panel sums do not depend on the other rows (:func:`_gk15`), so
    every row equals its one-row run bit for bit.

    The state lives in numpy arrays: the running totals, and a panel
    store with one row per unconverged integrand and one column per panel
    in creation order.  A bisected panel is masked out, converged rows
    leave, and the store grows by doubling, never to the budget up front.

    Returns ``(values, failures)``: an (n,) array, and a list holding
    ``None`` for each converged integrand and a QuadratureError naming
    [a, b] for each other one.  Raising is left to the caller, so that
    :func:`lockstep_intervals` can name the failing row's own interval.
    """
    failures = [None] * n
    if a == b or n == 0:
        return np.zeros(n), failures
    edges = np.linspace(a, b, panels + 1)
    x, half = _nodes(edges[:-1], edges[1:])
    rows = np.arange(n)
    y = np.asarray(f(np.broadcast_to(x.ravel(), (n, x.size)), rows),
                   dtype=float).reshape(n, *x.shape)
    ik, err, resabs = _gk15(y, half)
    total, total_err, total_abs = (v.sum(axis=1) for v in (ik, err, resabs))
    # store[:, i, j]: (lo, hi, Kronrod value, error) of panel j of rows[i]
    store = np.empty((4, n, panels + 2))
    store[0, :, :panels] = edges[:-1]
    store[1, :, :panels] = edges[1:]
    store[2, :, :panels] = ik
    store[3, :, :panels] = err
    used = panels
    for _ in range(max_subdivisions):
        keep = ~_converged(total[rows], total_err[rows], total_abs[rows],
                           rel_tol, abs_tol)
        if not keep.all():
            rows, store = rows[keep], store[:, keep]
            if not len(rows):
                break
        if used + 2 > store.shape[2]:
            grown = np.empty(store.shape[:2] + (2 * store.shape[2],))
            grown[:, :, :used] = store[:, :, :used]
            store = grown
        m = len(rows)
        worst = np.arange(m), store[3, :, :used].argmax(axis=1)
        lo, hi, ik0, err0 = store[:, worst[0], worst[1]]
        store[3][worst] = -np.inf
        mid = 0.5 * (lo + hi)
        x, half = _nodes(np.column_stack([lo, mid]).ravel(),
                         np.column_stack([mid, hi]).ravel())
        y = np.asarray(f(x.reshape(m, -1), rows), dtype=float).reshape(x.shape)
        ik, err, resabs = (v.reshape(m, 2) for v in _gk15(y, half))
        total[rows] += ik[:, 0] + ik[:, 1] - ik0
        total_err[rows] += err[:, 0] + err[:, 1] - err0
        total_abs[rows] += resabs[:, 0] + resabs[:, 1]
        store[:, :, used] = lo, mid, ik[:, 0], err[:, 0]
        store[:, :, used + 1] = mid, hi, ik[:, 1], err[:, 1]
        used += 2
    for i in rows[~_converged(total[rows], total_err[rows], total_abs[rows],
                              rel_tol, abs_tol)]:
        failures[i] = _budget_error(a, b, float(total_err[i]),
                                    max_subdivisions)
    return total, failures


def lockstep_intervals(f, lo, hi, rel_tol: float, abs_tol: float,
                       max_subdivisions: int = 200) -> np.ndarray:
    """Integral of integrand i over [lo[i], hi[i]], for every i.

    ``f(x, rows)`` evaluates the integrands ``rows`` at the abscissae
    ``x``, one row of ``x`` per integrand.  Each interval is mapped
    affinely onto [0, 1] (x = lo + (hi - lo) s, the integrand times
    hi - lo), and all integrands run in one :func:`lockstep_gk15` batch,
    each with the bits of its one-row call.  Fails as a loop of
    :func:`adaptive_gk15` calls would: the error of the first failing
    integrand is raised, with its own interval in the message.
    """
    width = hi - lo

    def mapped(s, rows):
        w = width[rows, None]
        return w * f(lo[rows, None] + w * s, rows)

    values, failures = lockstep_gk15(mapped, len(lo), 0.0, 1.0, rel_tol,
                                     abs_tol, max_subdivisions)
    for i, exc in enumerate(failures):
        if exc is not None:
            raise QuadratureError(str(exc).replace(
                "[0.0, 1.0]", f"[{float(lo[i])}, {float(hi[i])}]", 1))
    return values


def arc_adaptive_batch(f, lo, hi, rel_tol: float, abs_tol: float,
                       max_subdivisions: int = 200):
    """Integrate ``f`` over [lo[i], hi[i]] for every row i.

    ``f`` maps an (m, k) array of abscissae to an (m, k) array of values.
    Rows refine independently, by :func:`lockstep_intervals`; each call of
    ``f`` still gets all m rows, those not evaluated at their interval
    midpoints.  Returns an (m,) array.  No production integral uses it
    (the angular integrals it served have closed forms); the benchmark
    tracer in perfbench/ resolves it by name.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid = 0.5 * (lo + hi)[:, None]

    def rows_f(x, rows):
        full = np.repeat(mid, x.shape[1], axis=1)
        full[rows] = x
        return np.asarray(f(full), dtype=float)[rows]

    return lockstep_intervals(rows_f, lo, hi, rel_tol, abs_tol,
                              max_subdivisions)
