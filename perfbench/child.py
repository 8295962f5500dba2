"""One benchmark process: import the entry module, run a workload, report.

    python3 child.py setup|work <entry module> <trace 0|1>

``setup`` stops once the workload's entry module is imported; ``work`` then
runs the workload on the job read as JSON from stdin (its inputs, and where
a traced run writes its spans).  The report is one JSON object on stdout.
Clock readings are ``time.monotonic()``, the clock the parent reads before
spawning, so it can measure from the spawn on.  Only ``sys`` and ``time``
are imported before the entry module.
"""

import sys
import time


def run_bounds(ops):
    """Call the solvers once per drawn operation; keep value or error type."""
    pkg = sys.modules["polaron2d"]
    solvers = sys.modules["polaron2d.solvers"]
    out = []
    for kind, M, eb, lam in ops:
        t0 = time.perf_counter()
        try:
            if kind == "solve_mu":
                value = solvers.solve_mu(pkg.ModelParams(M, eb), lam).mu
            elif kind == "solve_gamma":
                value = solvers.solve_gamma(M)
            elif kind == "optimize_lambda":
                res = solvers.optimize_lambda(
                    pkg.ModelParams(M, eb),
                    pkg.CutoffChoice.optimize(1e-3 * abs(eb), 1e3 * abs(eb)))
                value = [res.mu, res.lambda_used]
            else:
                value = solvers.critical_mass()
            error = None
        except Exception as exc:  # noqa: BLE001 - the parent classifies it
            value, error = None, type(exc).__name__
        out.append([value, error, time.perf_counter() - t0])
    return {"ops": out}


def tiny_coarse_config(mu=-1.0, lam=1.0):
    """A small search box for the harness smoke test (a few seconds)."""
    cc = sys.modules["polaron2d.cconstant"]
    return cc.CSearchConfig(
        mu=mu, lam=lam, q_mag_max=1000.0,
        tau_grid=cc.GridSpec(1e-3, 1.0, 2, "log"),
        qmag_grid=cc.GridSpec(0.0, 1.0, 2),
        ppar_grid=cc.GridSpec(-2.0, 0.0, 2),
        pperp_grid=cc.GridSpec(0.0, 1.0, 2), refine_iters=1)


def run_cli(argv, tiny):
    import contextlib
    import io

    cli = sys.modules["polaron2d.cli"]
    if tiny:
        cli.coarse_config = tiny_coarse_config
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
        error = None
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        rc, error = None, repr(exc)
    return {"rc": rc, "error": error, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue()}


def main():
    mode, entry, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    __import__(entry)
    t_imp = time.monotonic()
    import json
    import resource

    report = {"t_imp": t_imp, "entry_file": sys.modules[entry].__file__}
    if mode == "work":
        job = json.loads(sys.stdin.read())
        tracer = None
        if trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        if "ops" in job:
            report.update(run_bounds(job["ops"]))
        else:
            report.update(run_cli(job["argv"], job["tiny"]))
        report["t_end"] = time.monotonic()
        if tracer is not None:
            report["layers"] = tracer.layer_metrics()
            tracer.dump(job["spans"])
    report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
