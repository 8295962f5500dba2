"""Benchmark of polaron2d: three real uses, timed end to end and per layer.

    python3 perfbench/run.py --workload bounds|c_constant|verify_all \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``src/``.
Every workload process is a fresh single-threaded Python process
(``child.py``).  ``--trace 0`` repeats the workload within ``--seconds`` and
prints the end-to-end metrics (medians over the processes).
``--trace 1`` runs plain and traced processes in pairs and prints the
per-layer metrics, with the traced-minus-plain wall time as tracing
overhead.  Outputs are checked against ``reference.py`` after each process
and outside its timed region.  The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the outputs
and machine facts are written beside the timings in ``perfbench/results/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from tracing import LAYER_METRICS, layer_unit, parse_importtime

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
WORKLOADS = ("bounds", "c_constant", "verify_all")
ENTRY = {"bounds": "polaron2d", "c_constant": "polaron2d.cli",
         "verify_all": "polaron2d.cli"}
SIZES = {"full": {"bounds_ops": 4000, "verify_samples": 500},
         "tiny": {"bounds_ops": 60, "verify_samples": 20}}
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "compute_s": "s",
             "peak_rss_mb": "MB", "ops_per_s": "1/s", "op_p50_ms": "ms",
             "op_p99_ms": "ms"}
SETUP_PROBES = 4        # import-only processes per run, besides the workload's
IMPORTTIME_PROBES = 3
RUN_BUDGET_S = 150.0    # start no process that would end the run after this
RUN_DEADLINE_S = 175.0  # kill a process still running this long into the run
# a reported mu or gamma beyond this makes the solvers' bracket overflow
BRACKET_LIMIT = math.log(5e306)


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# inputs


def draw_bounds(seed: int, n: int) -> list[list]:
    """Seeded mix of solver calls: three fixed anchors, then a shuffled draw.

    Masses come from three bands, near-critical (M*, 1.3], (1.3, 5] and
    (5, 50]; binding energies are log-uniform over 1e-12..1e6 in magnitude,
    with lam = |E_B| 10^U(-2, 2).  optimize_lambda keeps to M > 1.3: near M*
    each of its ~57 inner solves doubles a bracket ~1/(M - M*) times, and a
    few such draws would swamp the run.  Every uniform is stratified (one
    draw per equal stratum), so seeds differ in the inputs but hardly in the
    mix of costs and of known defects.
    """
    rng = random.Random(seed)
    bands = [(reference.critical_mass(), 1.3), (1.3, 5.0), (5.0, 50.0)]

    def uniforms(k):
        u = [(i + rng.random()) / k for i in range(k)]
        rng.shuffle(u)
        return u

    def masses(k, first_band=0):
        nb = len(bands) - first_band
        out = []
        for u in uniforms(k):
            lo, hi = bands[first_band + int(u * nb)]
            out.append(hi - (hi - lo) * (u * nb % 1.0))  # in (lo, hi]
        return out

    def bindings(k):
        return [-(10.0 ** (18.0 * u - 12.0)) for u in uniforms(k)]

    ops = [["solve_gamma", 2.0, -1.0, 1.0], ["critical_mass", 0.0, 0.0, 0.0],
           ["optimize_lambda", 2.0, -1.0, 1.0]]
    n_opt, n_crit, n_gamma = max(1, 3 * n // 100), 4, 3 * n // 10
    n_mu = n - len(ops) - n_opt - n_crit - n_gamma
    body = [["optimize_lambda", M, eb, 0.0]
            for M, eb in zip(masses(n_opt, 1), bindings(n_opt))]
    body += [["critical_mass", 0.0, 0.0, 0.0] for _ in range(n_crit)]
    body += [["solve_gamma", M, -1.0, 1.0] for M in masses(n_gamma)]
    body += [["solve_mu", M, eb, -eb * 10.0 ** (4.0 * u - 2.0)]
             for M, eb, u in zip(masses(n_mu), bindings(n_mu), uniforms(n_mu))]
    rng.shuffle(body)
    return ops + body


def job_for(workload: str, seed: int, size: str, spans: Path) -> dict:
    if workload == "bounds":
        return {"ops": draw_bounds(seed, SIZES[size]["bounds_ops"]),
                "spans": str(spans)}
    if workload == "c_constant":  # deterministic: the seed is not used
        argv = ["c-constant", "--mass", "2", "--grid", "coarse"]
    else:
        argv = ["verify", "--suite", "all",
                "--samples", str(SIZES[size]["verify_samples"]),
                "--seed", str(seed)]
    return {"argv": argv + ["--format", "json", "--threads", "1"],
            "tiny": size == "tiny", "spans": str(spans)}


# ---------------------------------------------------------------------------
# output checks (outside the timed region)


class BoundsChecker:
    """Classify each solver call: correct value, known defect, or failure.

    Known defects are the two in ROADMAP item 3: NonConvergence for
    |E_B| < 1 (the Brent tolerance is an absolute floor there) and
    BracketFailure when the true mu or gamma lies beyond the float range.
    They are typed errors the seed documents, so they are counted apart and
    do not make the run incorrect.
    """

    def __init__(self, ops):
        self.ops = ops
        self.m_star = reference.critical_mass()
        self._ref: dict[int, float] = {}

    def _t(self, i, M, lam_ratio):
        key = (i, lam_ratio)
        if key not in self._ref:
            self._ref[key] = reference.log_gamma(M, lam_ratio)
        return self._ref[key]

    def classify(self, i: int, value, error) -> str:
        kind, M, eb, lam = self.ops[i]
        if kind == "critical_mass":
            ok = error is None and abs(value - self.m_star) <= 1e-9
            return "ok" if ok else "failed"
        if kind == "solve_gamma":  # gamma = mu/E_B with E_B = -1, lam = 1
            eb, lam = -1.0, 1.0
            value = None if value is None else -value
        if kind == "optimize_lambda":
            return self._classify_optimum(i, value, error)
        t_ref = self._t(i, M, lam / -eb)
        if error is not None:
            if error == "NonConvergence" and -eb < 1.0:
                return "known:NonConvergence |E_B|<1"
            if (error == "BracketFailure"
                    and t_ref + math.log(-eb) >= BRACKET_LIMIT - 1e-6):
                return "known:BracketFailure beyond float range"
            return "failed"
        return "ok" if self._matches(value, eb, t_ref) else "failed"

    @staticmethod
    def _matches(mu, eb, t_ref) -> bool:
        if mu is None or not mu < eb:
            return False
        if math.isinf(mu):  # an overflowing bound may be reported as inf
            return t_ref + math.log(-eb) > math.log(sys.float_info.max)
        return abs(math.log(mu / eb) - t_ref) <= 1e-6

    def _classify_optimum(self, i, value, error) -> str:
        _, M, eb, _ = self.ops[i]
        if error == "RangeError":
            # correct when mu still rises towards an edge of [1e-3, 1e3]|E_B|
            at_edge = any(self._t(i, M, edge) < self._t(i, M, edge * inward)
                          for edge, inward in ((1e-3, math.exp(0.01)),
                                               (1e3, math.exp(-0.01))))
            return "ok" if at_edge else "failed"
        if error is not None:
            if error == "NonConvergence" and -eb < 1.0:
                return "known:NonConvergence |E_B|<1"
            return "failed"
        mu, lam = value
        if not 1e-3 * -eb <= lam <= 1e3 * -eb:
            return "failed"
        t_opt = self._t(i, M, lam / -eb)
        if not self._matches(mu, eb, t_opt):
            return "failed"
        # the optimum maximises mu, i.e. minimises t = log(mu/E_B)
        others = (lam / -eb * math.exp(0.05), lam / -eb * math.exp(-0.05), 1.0)
        if any(self._t(i, M, r) < math.log(mu / eb) - 1e-9 for r in others):
            return "failed"
        return "ok"


def check_c_constant(rep: dict, seed_ref: dict, size: str,
                     cache: dict) -> tuple[bool, dict]:
    if rep["rc"] != 0:
        return False, {"error": rep["error"] or rep["stderr"][-500:]}
    out = json.loads(rep["stdout"])
    arg = (out["Q_mag"], out["p_par"], out["p_perp"], out["tau"])
    if arg not in cache:
        cache[arg] = reference.c_value(out["M"], *arg, mu=out["mu"],
                                       lam=out["lambda"])
    # the estimator's radial rule runs at rel_tol 1e-7; a better search may
    # raise C, but it must not fall below the seed's value
    floor = seed_ref["c_constant"][size] * (1.0 - 1e-7)
    ok = (out["C"] >= floor and abs(out["C"] - cache[arg]) <= 1e-6 * cache[arg])
    return ok, {"C": out["C"], "C_cubature": cache[arg], "ratio": out["ratio"],
                "argmax": dict(zip(("Q_mag", "p_par", "p_perp", "tau"), arg)),
                "refinement_trace": out["refinement_trace"],
                "truncation_error_bound": out["truncation_error_bound"]}


def check_verify(rep: dict, seed_ref: dict, size: str) -> tuple[bool, dict]:
    if rep["rc"] != 0 or rep["error"]:
        return False, {"rc": rep["rc"], "error": rep["error"]}
    out = json.loads(rep["stdout"])
    cases = {c["name"]: c for c in out["cases"]}
    least = seed_ref["verify_all"][size]
    ok = (out["suite_passed"] and set(cases) == set(least)
          and all(cases[n]["samples_run"] >= least[n] for n in least))
    return ok, {n: {"max_violation": c["max_violation"],
                    "samples_run": c["samples_run"]} for n, c in cases.items()}


# ---------------------------------------------------------------------------
# processes


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


# ---------------------------------------------------------------------------
# one run


class Run:
    def __init__(self, args):
        self.workload, self.size = args.workload, args.size
        root = Path.cwd().resolve()
        self.src = root / "src"
        if not (self.src / "polaron2d" / "__init__.py").is_file():
            raise HarnessError(f"no polaron2d package under {self.src}; run "
                               "from the root of a polaron2d checkout")
        self.env = child_env(self.src)
        self.out_dir = HERE / "results"
        self.out_dir.mkdir(exist_ok=True)
        tag = f"{self.workload}-seed{args.seed}-trace{args.trace}"
        self.record_path = self.out_dir / f"{tag}.json"
        self.job = job_for(self.workload, args.seed, self.size,
                           self.out_dir / f"spans-{tag}.npz")
        self.seed_ref = json.loads((HERE / "seed_reference.json").read_text())
        self.bounds = (BoundsChecker(self.job["ops"])
                       if self.workload == "bounds" else None)
        self.c_cache: dict = {}
        self.attempted = self.failed = 0
        self.known: dict[str, int] = {}
        self.outputs: dict = {}
        self.samples: list[dict] = []
        self.t_start = self.t_measure = time.monotonic()

    def _python(self, args: list[str], stdin: str = ""):
        left = RUN_DEADLINE_S - (time.monotonic() - self.t_start)
        try:
            proc = subprocess.run([sys.executable, *args], input=stdin,
                                  text=True, capture_output=True, env=self.env,
                                  timeout=max(1.0, left))
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"{self.workload}: {args[:3]} timed out") from exc
        if proc.returncode != 0:
            raise HarnessError(f"{self.workload}: {args[:3]} exited "
                               f"{proc.returncode}: {proc.stderr[-2000:]}")
        return proc

    def spawn(self, mode: str, trace: bool = False) -> dict:
        """One fresh process; times are measured from just before the spawn."""
        t0 = time.monotonic()
        proc = self._python([str(CHILD), mode, ENTRY[self.workload],
                             str(int(trace))],
                            json.dumps(self.job) if mode == "work" else "")
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(rep["entry_file"]).resolve().is_relative_to(self.src):
            raise HarnessError(f"polaron2d was imported from "
                               f"{rep['entry_file']}, not from {self.src}")
        rep["setup_s"] = rep["t_imp"] - t0
        if "t_end" in rep:
            rep["wall_s"] = rep["t_end"] - t0
            rep["compute_s"] = rep["t_end"] - rep["t_imp"]
        return rep

    def importtime(self) -> dict:
        entry = ENTRY[self.workload]
        proc = self._python(["-X", "importtime", "-c", f"import {entry}"])
        return parse_importtime(proc.stderr)

    def work(self, trace: bool = False) -> dict:
        rep = self.spawn("work", trace)
        rep["traced"] = trace
        self.check(rep)
        return rep

    def check(self, rep: dict):
        """Check one process's outputs; count attempts and failures."""
        if self.workload == "bounds":
            done = 0
            for i, (value, error, _) in enumerate(rep["ops"]):
                verdict = self.bounds.classify(i, value, error)
                if verdict == "ok":
                    done += 1
                elif verdict == "failed":
                    self.failed += 1
                else:
                    label = verdict.removeprefix("known:")
                    self.known[label] = self.known.get(label, 0) + 1
            self.attempted += len(rep["ops"])
            rep["completed"] = done
            rep["latencies_ms"] = [dt * 1e3 for _, _, dt in rep["ops"]]
            if not self.outputs:
                gamma, m_star, opt = (rep["ops"][k][0] for k in range(3))
                self.outputs = {"gamma_2": gamma, "M_star": m_star,
                                "mu_opt_M2_EB-1": opt and opt[0],
                                "lambda_opt_M2_EB-1": opt and opt[1]}
            del rep["ops"]
            return
        if self.workload == "c_constant":
            ok, outputs = check_c_constant(rep, self.seed_ref, self.size,
                                           self.c_cache)
        else:
            ok, outputs = check_verify(rep, self.seed_ref, self.size)
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.outputs = self.outputs or outputs
        rep["completed"] = 1 if ok else 0
        rep["latencies_ms"] = [rep["compute_s"] * 1e3]
        del rep["stdout"]

    def keep_going(self, seconds: float, last: float) -> bool:
        """Start another process only if, lasting as long as the last one,
        it ends within ``seconds``; a slow host then costs processes, not
        run time."""
        now = time.monotonic()
        return (now - self.t_measure + last <= seconds
                and now - self.t_start + last < RUN_BUDGET_S)

    def plain(self, seconds: float) -> dict:
        self.spawn("setup")  # warm caches
        setups = [self.spawn("setup")["setup_s"] for _ in range(SETUP_PROBES)]
        self.t_measure = time.monotonic()
        procs = [self.work()]
        while self.keep_going(seconds, procs[-1]["wall_s"]):
            procs.append(self.work())
        med = lambda key: statistics.median(p[key] for p in procs)  # noqa: E731
        lat = sorted(x for p in procs for x in p["latencies_ms"])
        self.samples = procs
        return {
            "setup_s": statistics.median(setups + [p["setup_s"] for p in procs]),
            "wall_s": med("wall_s"),
            "compute_s": med("compute_s"),
            "peak_rss_mb": statistics.median(p["rss_kb"] / 1024 for p in procs),
            "ops_per_s": statistics.median(p["completed"] / p["compute_s"]
                                           for p in procs),
            "op_p50_ms": statistics.median(lat),
            "op_p99_ms": lat[math.ceil(0.99 * len(lat)) - 1],  # nearest rank
        }

    def traced(self, seconds: float) -> dict:
        self.spawn("setup")  # warm caches
        probes = [self.importtime() for _ in range(IMPORTTIME_PROBES)]
        self.t_measure = time.monotonic()
        pairs = []
        while not pairs or self.keep_going(
                seconds, pairs[-1][0]["wall_s"] + pairs[-1][1]["wall_s"]):
            pairs.append((self.work(), self.work(trace=True)))
        self.samples = [rep for pair in pairs for rep in pair]
        metrics = {name: statistics.median(t["layers"].get(name, 0.0)
                                           for _, t in pairs)
                   for name in LAYER_METRICS}
        for name in probes[0]:
            metrics[name] = statistics.median(p[name] for p in probes)
        metrics["trace.overhead_s"] = statistics.median(
            t["wall_s"] - p["wall_s"] for p, t in pairs)
        return metrics

    def record(self, trace: int, seed: int, metrics: dict):
        import numpy
        import scipy

        known = sum(self.known.values())
        record = {
            "workload": self.workload, "seed": seed, "trace": trace,
            "size": self.size,
            "machine": {"nproc": os.cpu_count(),
                        "python": platform.python_version(),
                        "numpy": numpy.__version__, "scipy": scipy.__version__,
                        "platform": platform.platform()},
            "outputs": self.outputs,
            "attempted": self.attempted, "failed": self.failed,
            "known_defects": self.known,
            "error_rate": (self.failed + known) / self.attempted,
            "metrics": metrics,
            "processes": [{k: v for k, v in p.items()
                           if k not in ("latencies_ms", "layers")}
                          for p in self.samples],
        }
        self.record_path.write_text(json.dumps(record, indent=1) + "\n")
        sys.stderr.write(json.dumps({k: record[k] for k in (
            "workload", "outputs", "attempted", "failed", "known_defects",
            "error_rate", "machine")}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="'tiny' shrinks every workload for the smoke test")
    args = parser.parse_args(argv)
    try:
        run = Run(args)
        if args.trace:
            metrics = run.traced(args.seconds)
            units = {name: layer_unit(name) for name in LAYER_METRICS}
        else:
            metrics = run.plain(args.seconds)
            units = E2E_UNITS
        run.record(args.trace, args.seed, metrics)
    except HarnessError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 1
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
