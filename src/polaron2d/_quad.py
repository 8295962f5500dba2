"""Adaptive Gauss-Kronrod quadrature on vectorised callables.

Every integral the package does not have in closed form goes through the
routines here; the angular integrals of the C estimate and of the
rearrangement check are elementary and are evaluated exactly by their
callers.  The test suite deliberately uses scipy.integrate for its
oracles, so the two integration paths never share code.
"""

from __future__ import annotations

import heapq
from functools import lru_cache

import numpy as np

__all__ = ["QuadratureError", "adaptive_gk15", "arc_adaptive_batch", "leggauss"]


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
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _panel(f, lo: float, hi: float):
    half = 0.5 * (hi - lo)
    x = 0.5 * (hi + lo) + half * _XK
    y = np.asarray(f(x), dtype=float)
    ik = half * float(_WK @ y)
    ig = half * float(_WG @ y[1::2])
    resabs = half * float(_WK @ np.abs(y))
    return ik, abs(ik - ig), resabs


def _first_pass(f, a: float, b: float, panels: int):
    """``panels`` equal GK15 panels of [a, b] in one call of ``f``.

    Returns the bisection heap and the running totals of the Kronrod
    values, error estimates and |f| integrals.
    """
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    x = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * _XK
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    ik = half * (y @ _WK)
    err = np.abs(ik - half * (y[:, 1::2] @ _WG))
    resabs = half * (np.abs(y) @ _WK)
    heap = [(-e, i, lo, hi, k, e) for i, (lo, hi, k, e) in enumerate(
        zip(edges[:-1].tolist(), edges[1:].tolist(), ik.tolist(),
            err.tolist()))]
    heapq.heapify(heap)
    return heap, float(ik.sum()), float(err.sum()), float(resabs.sum())


def adaptive_gk15(f, a: float, b: float, rel_tol: float, abs_tol: float,
                  max_subdivisions: int = 200, panels: int = 1) -> float:
    """Integrate ``f`` over [a, b] to the requested tolerance.

    ``f`` must accept a 1-D numpy array of abscissae and return values of
    the same shape.  The first pass splits [a, b] into ``panels`` equal
    panels and evaluates all of them in one call of ``f``; bisection of the
    worst panel then proceeds one panel pair at a time.  Raises
    QuadratureError if ``max_subdivisions`` bisection steps do not suffice.
    """
    if a == b:
        return 0.0
    if panels == 1:
        # one panel needs no batching; this keeps the scalar callers' cost
        ik, err, resabs = _panel(f, a, b)
        heap = [(-err, 0, a, b, ik, err)]
        total, total_err, total_abs = ik, err, resabs
    else:
        heap, total, total_err, total_abs = _first_pass(f, a, b, panels)
    counter = panels
    for _ in range(max_subdivisions):
        # round-off floor: below this the error estimate is noise
        floor = 50.0 * _EPS * total_abs
        if total_err <= max(abs_tol, rel_tol * abs(total), floor):
            return total
        neg_err, _, lo, hi, ik0, err0 = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        ik1, err1, ra1 = _panel(f, lo, mid)
        ik2, err2, ra2 = _panel(f, mid, hi)
        total += ik1 + ik2 - ik0
        total_err += err1 + err2 - err0
        total_abs += ra1 + ra2  # monotone overestimate is fine for the floor
        heapq.heappush(heap, (-err1, counter, lo, mid, ik1, err1))
        heapq.heappush(heap, (-err2, counter + 1, mid, hi, ik2, err2))
        counter += 2
    floor = 50.0 * _EPS * total_abs
    if total_err <= max(abs_tol, rel_tol * abs(total), floor):
        return total
    raise QuadratureError(
        f"integral over [{a}, {b}] did not converge: "
        f"estimated error {total_err:.3e} after {max_subdivisions} subdivisions"
    )


def arc_adaptive_batch(f, lo, hi, rel_tol: float, abs_tol: float,
                       max_subdivisions: int = 200):
    """Batched adaptive quadrature over a family of intervals.

    Integrates ``f`` over [lo[i], hi[i]] for every row i simultaneously.
    ``f`` maps an (m, k) array of abscissae to an (m, k) array of values.
    Subdivision happens in a shared normalised coordinate, so every row is
    refined in lockstep; the row with the worst error drives refinement.
    Returns an (m,) array.  No production integral uses it any more (the
    angular integrals it served have closed forms); the benchmark tracer
    in perfbench/ still resolves it by name.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    span = hi - lo

    def panel(x0: float, x1: float):
        halfxi = 0.5 * (x1 - x0)
        xi = 0.5 * (x1 + x0) + halfxi * _XK
        theta = lo[:, None] + span[:, None] * xi[None, :]
        y = np.asarray(f(theta), dtype=float)
        scale = span * halfxi
        ik = scale * (y @ _WK)
        ig = scale * (y[:, 1::2] @ _WG)
        resabs = np.abs(scale) * (np.abs(y) @ _WK)
        return ik, np.abs(ik - ig), resabs

    ik, err, resabs = panel(0.0, 1.0)
    intervals = [(0.0, 1.0, ik, err)]
    total_abs = resabs
    for _ in range(max_subdivisions):
        total = sum(iv[2] for iv in intervals)
        total_err = sum(iv[3] for iv in intervals)
        floor = 50.0 * _EPS * total_abs
        tol = np.maximum(np.maximum(abs_tol, rel_tol * np.abs(total)), floor)
        if np.all(total_err <= tol):
            return total
        worst = max(range(len(intervals)),
                    key=lambda i: float(np.max(intervals[i][3])))
        x0, x1, _, _ = intervals.pop(worst)
        xm = 0.5 * (x0 + x1)
        ik1, err1, ra1 = panel(x0, xm)
        ik2, err2, ra2 = panel(xm, x1)
        total_abs = total_abs + ra1 + ra2
        intervals.append((x0, xm, ik1, err1))
        intervals.append((xm, x1, ik2, err2))
    total = sum(iv[2] for iv in intervals)
    total_err = sum(iv[3] for iv in intervals)
    floor = 50.0 * _EPS * total_abs
    tol = np.maximum(np.maximum(abs_tol, rel_tol * np.abs(total)), floor)
    if np.all(total_err <= tol):
        return total
    raise QuadratureError(
        f"batched arc integral did not converge: worst estimated error "
        f"{float(np.max(total_err)):.3e} after {max_subdivisions} subdivisions"
    )
