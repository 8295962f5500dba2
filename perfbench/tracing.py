"""Outside-in tracing of polaron2d's public functions for the traced run.

The wrappers are installed from outside, after the package is imported: each
traced function is replaced in every ``polaron2d`` module namespace that
holds it by name (``adaptive_gk15`` lives in ``_quad``, ``corefuncs``,
``cconstant`` and ``verify``; ``minimize`` is scipy's, as bound in
``cconstant``).  Nothing under ``src/`` changes, and untraced runs never
import this module.

Spans are kept in memory as flat columns (name id, start, end, parent span)
and written out when the run ends.  A span's self time is its duration
minus the time its child spans cover; the process is single-threaded, so
children never overlap.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# Per-layer metrics of the traced run, by name; the unit follows the suffix.
LAYER_METRICS = [
    "import.numpy.cum_s", "import.scipy.optimize.cum_s",
    "import.polaron2d.cli.cum_s", "import.polaron2d.self_s",
    *(f"_quad.{fn}.{stat}" for fn in ("arc_adaptive_batch", "adaptive_gk15")
      for stat in ("calls", "self_s", "total_s", "panels", "points", "failed")),
    "corefuncs.alpha_m.calls", "corefuncs.alpha_m.total_s",
    "corefuncs.bound_lhs.calls", "corefuncs.bound_lhs.total_s",
    "corefuncs.kernel_envelope.calls", "corefuncs.kernel_envelope.points",
    "solvers.solve_mu.calls", "solvers.solve_mu.total_s",
    "solvers.solve_mu.iterations", "solvers.solve_mu.failed",
    "solvers.solve_gamma.calls", "solvers.solve_gamma.total_s",
    "solvers.solve_gamma.failed",
    "solvers.optimize_lambda.calls", "solvers.optimize_lambda.total_s",
    "solvers.optimize_lambda.evaluations", "solvers.optimize_lambda.failed",
    "solvers.critical_mass.calls", "solvers.critical_mass.total_s",
    "solvers.critical_mass.failed",
    "cconstant.estimate_C.total_s",
    "cconstant.inner_integral.calls", "cconstant.inner_integral.self_s",
    "cconstant.inner_integral.total_s", "cconstant.inner_integral.grid_calls",
    "cconstant.inner_integral.refine_calls",
    "cconstant.minimize.calls", "cconstant.minimize.total_s",
    "cconstant.minimize.nfev", "cconstant.minimize.improved_share",
    "verify.run_suite.total_s", "verify.run_suite.self_s",
    "verify.verify_tail_integral.calls", "verify.verify_tail_integral.total_s",
    "verify.verify_disk_area.calls", "verify.verify_disk_area.total_s",
    "verify.verify_rearrangement.total_s",
    "verify.verify_momentum_bounds.total_s",
    "verify.verify_u_integral_bound.total_s",
    "verify.verify_bound_chain.calls", "verify.verify_bound_chain.total_s",
    "_parallel.parallel_map.calls", "_parallel.parallel_map.items",
    "_parallel.parallel_map.total_s",
    "cli.main.total_s",
    "trace.overhead_s",
]


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


class Tracer:
    """Span recorder and counters for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self._best = -math.inf  # running maximum of the C search
        self._nm_state: dict = {}

    def wrap(self, name, fn, on_call=None, on_result=None):
        nid = len(self.names)
        self.names.append(name)
        counts = self.counts

        def traced(*args, **kwargs):
            if on_call is not None:
                args = on_call(args)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".failed"] += 1
                raise
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def count(self, name, fn):
        """Count the calls of ``fn`` and the points of its first argument."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name + ".calls"] += 1
            counts[name + ".points"] += np.size(args[0])
            return fn(*args, **kwargs)

        return counted

    def _count_integrand(self, name):
        counts = self.counts

        def on_call(args):
            f = args[0]

            def integrand(x):
                counts[name + ".panels"] += 1
                counts[name + ".points"] += np.size(x)
                return f(x)

            return (integrand,) + args[1:]

        return on_call

    def _add(self, key, attr):
        def on_result(args, result):
            self.counts[key] += getattr(result, attr)
        return on_result

    def _minimize_call(self, args):
        """Record the start value of each Nelder-Mead run (its first
        evaluation is at x0) by wrapping the objective passed in."""
        fun, state = args[0], {}

        def objective(x):
            val = fun(x)
            state.setdefault("start", -val)
            return val

        self._nm_state = state
        return (objective,) + args[1:]

    def _minimize_result(self, args, res):
        """A run is useful when it raises the running maximum by more than
        the coarse estimator's quadrature tolerance (1e-7 relative)."""
        self.counts["cconstant.minimize.nfev"] += res.nfev
        best = max(self._best, self._nm_state.get("start", -math.inf))
        if -res.fun > best + 1e-7 * abs(best):
            self.counts["cconstant.minimize.improved"] += 1
        self._best = max(best, -res.fun)

    def install(self):
        """Replace the traced functions in every polaron2d namespace."""
        import polaron2d.cli  # noqa: F401 - loads every traced module

        mods = [m for k, m in sys.modules.items()
                if k == "polaron2d" or k.startswith("polaron2d.")]
        targets = {
            ("_quad", "adaptive_gk15"): dict(on_call=self._count_integrand(
                "_quad.adaptive_gk15")),
            ("_quad", "arc_adaptive_batch"): dict(on_call=self._count_integrand(
                "_quad.arc_adaptive_batch")),
            ("corefuncs", "alpha_m"): {},
            ("corefuncs", "bound_lhs"): {},
            ("solvers", "solve_mu"): dict(on_result=self._add(
                "solvers.solve_mu.iterations", "iterations")),
            ("solvers", "solve_gamma"): {},
            ("solvers", "optimize_lambda"): dict(on_result=self._add(
                "solvers.optimize_lambda.evaluations", "iterations")),
            ("solvers", "critical_mass"): {},
            ("cconstant", "estimate_C"): {},
            ("cconstant", "inner_integral"): {},
            ("cconstant", "minimize"): dict(on_call=self._minimize_call,
                                            on_result=self._minimize_result),
            ("verify", "run_suite"): {},
            ("verify", "verify_tail_integral"): {},
            ("verify", "verify_disk_area"): {},
            ("verify", "verify_rearrangement"): {},
            ("verify", "verify_momentum_bounds"): {},
            ("verify", "verify_u_integral_bound"): {},
            ("verify", "verify_bound_chain"): {},
            ("_parallel", "parallel_map"): dict(on_call=self._count_items),
            ("cli", "main"): {},
        }
        replacements = {}
        for (mod, fn), hooks in targets.items():
            orig = getattr(sys.modules[f"polaron2d.{mod}"], fn)
            replacements[id(orig)] = self.wrap(f"{mod}.{fn}", orig, **hooks)
        envelope = sys.modules["polaron2d.corefuncs"].kernel_envelope
        replacements[id(envelope)] = self.count("corefuncs.kernel_envelope",
                                                envelope)
        for m in mods:
            for attr, val in list(vars(m).items()):
                if id(val) in replacements:
                    setattr(m, attr, replacements[id(val)])

    def _count_items(self, args):
        items = list(args[1])
        self.counts["_parallel.parallel_map.items"] += len(items)
        return (args[0], items) + args[2:]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals from the spans and counters."""
        nid = np.frombuffer(self.name_id, dtype=np.uint16)
        start = np.frombuffer(self.start)
        dur = np.frombuffer(self.end) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        covered = np.zeros_like(dur)
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_t = dur - covered

        out = dict(self.counts)
        for i, name in enumerate(self.names):
            sel = nid == i
            out[name + ".calls"] = float(np.count_nonzero(sel))
            out[name + ".total_s"] = float(dur[sel].sum())
            out[name + ".self_s"] = float(self_t[sel].sum())

        # inner_integral calls under the grid scan (parallel_map) or under
        # the Nelder-Mead refinement (minimize), found by walking parents
        ids = {n: i for i, n in enumerate(self.names)}
        grid = refine = 0
        for idx in np.flatnonzero(nid == ids["cconstant.inner_integral"]):
            p = parent[idx]
            while p >= 0 and nid[p] not in (ids["_parallel.parallel_map"],
                                            ids["cconstant.minimize"]):
                p = parent[p]
            if p >= 0 and nid[p] == ids["cconstant.minimize"]:
                refine += 1
            elif p >= 0:
                grid += 1
        out["cconstant.inner_integral.grid_calls"] = float(grid)
        out["cconstant.inner_integral.refine_calls"] = float(refine)
        runs = out["cconstant.minimize.calls"]
        out["cconstant.minimize.improved_share"] = (
            out.get("cconstant.minimize.improved", 0.0) / runs if runs else 0.0)
        return out

    def dump(self, path):
        """Write the spans out: names, and one row per span."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32))


def parse_importtime(stderr: str) -> dict[str, float]:
    """``import.*`` metrics from ``python -X importtime`` output (in us)."""
    rows = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, name = (part.strip() for part in
                                 line[len("import time:"):].split("|"))
        if self_us.isdigit():
            rows.setdefault(name, (int(self_us) * 1e-6, int(cum_us) * 1e-6))
    get = lambda name, k: rows.get(name, (0.0, 0.0))[k]  # noqa: E731
    return {"import.numpy.cum_s": get("numpy", 1),
            "import.scipy.optimize.cum_s": get("scipy.optimize", 1),
            "import.polaron2d.cli.cum_s": get("polaron2d.cli", 1),
            "import.polaron2d.self_s": get("polaron2d", 0)}
