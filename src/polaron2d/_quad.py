"""Adaptive Gauss-Kronrod quadrature on vectorised callables.

Every integral the package does not have in closed form goes through the
routines here; the angular integrals of the C estimate and of the
rearrangement check are elementary and are evaluated exactly by their
callers.  ``adaptive_gk15`` integrates one function; ``lockstep_gk15``
runs the same algorithm for many integrands at once, batching only their
evaluations.  The lockstep users are the C estimate, for the radial
integrals of its grid scan and of its Nelder-Mead refinement
(``cconstant._objective_rows``), and the resolvent tail, cutoff disk and
rearrangement cases of the verification suite
(``verify._lockstep_integrals``); ``adaptive_gk15`` serves single
integrals such as ``cconstant.inner_integral`` and ``verify_sigma_minus``.
Both share one convergence test and one failure message.  The test suite
deliberately uses scipy.integrate for its oracles, so the two integration
paths never share code.
"""

from __future__ import annotations

import heapq
from functools import lru_cache

import numpy as np

__all__ = ["QuadratureError", "adaptive_gk15", "arc_adaptive_batch",
           "leggauss", "lockstep_gk15"]


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
    whose 15 node values lie along the last axis of ``y``."""
    ik = half * (y @ _WK)
    err = np.abs(ik - half * (y[..., 1::2] @ _WG))
    resabs = half * (np.abs(y) @ _WK)
    return ik, err, resabs


def _nodes(lo, hi):
    """GK15 nodes of the panels [lo, hi] (one row each) and half-widths."""
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi))[:, None] + half[:, None] * _XK, half


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

    The sums of both halves are one product, as in a round of
    :func:`lockstep_gk15`, so that a single integrand gets the same bits
    from both routines.
    """
    x, half = _nodes(np.array([lo, mid]), np.array([mid, hi]))
    y = np.stack([np.asarray(f(x[0]), dtype=float),
                  np.asarray(f(x[1]), dtype=float)])
    return (v.tolist() for v in _gk15(y, half))


def adaptive_gk15(f, a: float, b: float, rel_tol: float, abs_tol: float,
                  max_subdivisions: int = 200, panels: int = 1) -> float:
    """Integrate ``f`` over [a, b] to the requested tolerance.

    ``f`` must accept a 1-D numpy array of abscissae and return values of
    the same shape.  The first pass splits [a, b] into ``panels`` equal
    panels and evaluates all of them in one call of ``f``; bisection of the
    worst panel then proceeds one panel pair at a time, one call of ``f``
    per half.  Raises QuadratureError if ``max_subdivisions`` bisection
    steps do not suffice.
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


def lockstep_gk15(f, n: int, a: float, b: float, rel_tol: float,
                  abs_tol: float, max_subdivisions: int = 200,
                  panels: int = 1):
    """Integrate ``n`` integrands over [a, b], all in lockstep.

    ``f(x, rows)`` evaluates integrand ``rows[i]`` at the abscissae
    ``x[i]``: ``x`` is 2-D with one row per entry of the integer array
    ``rows``, and the values come back in the same shape.  Every integrand
    runs exactly the algorithm of :func:`adaptive_gk15` (first pass,
    worst-panel order, convergence test and budget); only the evaluations
    are batched, into one call of ``f`` for the first pass of all
    integrands and then one call per round for the two halves of the worst
    panel of every integrand not yet converged.  With one integrand the
    values are those of :func:`adaptive_gk15` bit for bit.  With several,
    the panel sums of a round are one matrix product, and BLAS may sum a
    row in an order that depends on its position, so the rows agree with
    :func:`adaptive_gk15` to the last bits.

    The per-integrand state lives in numpy arrays: the running totals, and
    a panel store with one row per unconverged integrand and one column
    per panel in the order of :func:`adaptive_gk15`'s heap counter (the
    first-pass panels left to right, then the two halves of each bisected
    panel).  A bisected panel is masked out of the store, and the worst
    panel is the first maximum of the error estimates, so ties go to the
    lowest counter as in the heap.  Converged rows leave the store, and it
    grows by doubling as rounds are added, never to the budget up front.

    Returns ``(values, failures)``: an (n,) array, and a list holding
    ``None`` for each converged integrand and the QuadratureError that
    :func:`adaptive_gk15` would raise for each other one.  Raising is left
    to the caller, which may have to order these against its own errors.
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
