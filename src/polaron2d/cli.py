"""Command-line interface.

Subcommands: bound, gamma, critical-mass, c-constant, verify.  Every
subcommand honours --format json|csv|human; JSON output is a single
well-formed document on stdout and diagnostics go to stderr only.

Exit codes: 0 success, 1 usage error, 2 hypothesis violation
(supercritical mass), 3 numerical non-convergence, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import warnings

from ._parallel import parallel_map
from ._quad import QuadratureError
from .cconstant import (GridSpec, TailBoundExceeded, coarse_config,
                        estimate_C, fine_config, scan_C_vs_M)
from .corefuncs import ModelParams, alpha_m
from .solvers import (BracketFailure, CutoffChoice, NonConvergence, RangeError,
                      RootFindSpec, SupercriticalMass, critical_mass,
                      optimize_lambda, solve_gamma, solve_mu)
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SUPERCRITICAL = 2
EXIT_NONCONVERGENCE = 3
EXIT_VERIFY_FAILED = 4

_NUMERIC_ERRORS = (NonConvergence, BracketFailure, QuadratureError,
                   TailBoundExceeded, RangeError)


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; the contract here is 1.
    Its negative-number pattern lacks an exponent, so -1e-3 would be read
    as an option; this one has it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def _emit_json(obj):
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _emit_csv(header: list[str], rows: list[list]):
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([("" if v is None else repr(v) if isinstance(v, float)
                          else v) for v in row])


def _emit_human(lines):
    for line in lines:
        sys.stdout.write(line + "\n")


def _diag(msg: str):
    sys.stderr.write(msg + "\n")


def _scan_masses(scan, spacing: str = "linear"):
    """Mass ratios of a --scan START:STOP:STEPS."""
    start, stop, steps = scan
    if not start < stop:
        raise ValueError("scan needs start < stop")
    if steps < 2:
        raise ValueError("scan needs at least 2 steps")
    return GridSpec(start, stop, steps, spacing).values()


def _parse_scan(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("scan must look like start:stop:steps")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _bound_payload(params: ModelParams, res) -> dict:
    return {
        "mass_ratio": params.mass_ratio,
        "binding_energy": params.binding_energy,
        "lambda": res.lambda_used,
        "mu": res.mu,
        "gamma": res.gamma,
        "alpha_M": res.alpha_M,
        "residual": res.residual,
        "iterations": res.iterations,
        "optimized": res.optimized,
    }


def cmd_bound(args) -> int:
    params = ModelParams(args.mass, args.binding)
    spec = RootFindSpec()
    try:
        if args.optimize_lambda:
            lo = args.lambda_min if args.lambda_min is not None \
                else 1e-3 * abs(args.binding)
            hi = args.lambda_max if args.lambda_max is not None \
                else 1e3 * abs(args.binding)
            res = optimize_lambda(params, CutoffChoice.optimize(lo, hi), spec)
        else:
            lam = args.lam if args.lam is not None else -args.binding
            res = solve_mu(params, lam, spec)
    except SupercriticalMass as exc:
        _diag(f"supercritical mass: {exc}")
        return EXIT_SUPERCRITICAL
    except _NUMERIC_ERRORS as exc:
        _diag(f"solver failure: {exc}")
        return EXIT_NONCONVERGENCE

    payload = _bound_payload(params, res)
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        _emit_csv(["M", "E_B", "lambda", "mu", "gamma", "alpha_M", "residual"],
                  [[params.mass_ratio, params.binding_energy, res.lambda_used,
                    res.mu, res.gamma, res.alpha_M, res.residual]])
    else:
        _emit_human([
            f"mass ratio            M      = {params.mass_ratio}",
            f"binding energy        E_B    = {params.binding_energy}",
            f"infrared cutoff       lambda = {res.lambda_used}"
            + ("  (optimised)" if res.optimized else ""),
            f"energy lower bound    mu     = {res.mu}",
            f"ratio                 gamma  = {res.gamma}",
            f"mass constant         alpha  = {res.alpha_M}",
            f"equation residual            = {res.residual:.3e}",
        ])
    return EXIT_OK


def _gamma_row(mass: float, spec: RootFindSpec) -> dict:
    row = {"M": mass, "gamma": None, "alpha_M": None, "error": None}
    try:
        alpham = alpha_m(ModelParams(mass, -1.0))
        row["alpha_M"] = alpham
        row["gamma"] = solve_gamma(mass, spec, alpham=alpham)
    except (SupercriticalMass, *_NUMERIC_ERRORS) as exc:
        row["error"] = exc
    return row


def cmd_gamma(args) -> int:
    spec = RootFindSpec()
    if args.scan:
        rows = parallel_map(lambda m: _gamma_row(float(m), spec),
                            _scan_masses(args.scan, args.spacing))
        for row in rows:
            if row["error"]:
                _diag(f"M = {row['M']}: {row['error']}")
        gammas = [r["gamma"] for r in rows if r["error"] is None]
        decreasing = all(a > b for a, b in zip(gammas, gammas[1:]))
        _diag(f"gamma column strictly decreasing: {decreasing} "
              "(empirical observation, not asserted)")
    else:
        row = _gamma_row(args.mass, spec)
        if row["error"]:
            _diag(f"M = {row['M']}: {row['error']}")
            supercritical = isinstance(row["error"], SupercriticalMass)
            return EXIT_SUPERCRITICAL if supercritical else EXIT_NONCONVERGENCE
        rows = [row]

    if args.format == "json":
        _emit_json([{**r, "error": r["error"] and str(r["error"])}
                    for r in rows])
    elif args.format == "csv":
        _emit_csv(["M", "gamma", "alpha_M"],
                  [[r["M"], r["gamma"], r["alpha_M"]]
                   for r in rows if r["error"] is None])
    else:
        _emit_human([f"M = {r['M']:<12.6g} gamma = {r['gamma']!r}  "
                     f"alpha(M) = {r['alpha_M']!r}" if r["error"] is None
                     else f"M = {r['M']:.6g}: {r['error']}" for r in rows])
    return EXIT_OK


def cmd_critical_mass(args) -> int:
    spec = RootFindSpec(x_tol=args.tol, f_tol=1e-9)
    try:
        m_star = critical_mass(spec)
    except _NUMERIC_ERRORS as exc:
        _diag(f"solver failure: {exc}")
        return EXIT_NONCONVERGENCE
    alpha_at = alpha_m(ModelParams(m_star, -1.0))
    residual = alpha_at - m_star / (m_star + 1.0)
    if args.format == "json":
        _emit_json({"m_star": m_star, "alpha_at_m_star": alpha_at,
                    "residual": residual})
    elif args.format == "csv":
        _emit_csv(["m_star", "alpha_at_m_star", "residual"],
                  [[m_star, alpha_at, residual]])
    else:
        _emit_human([
            f"critical mass ratio  M* = {m_star!r}",
            f"alpha(M*)               = {alpha_at!r}",
            f"residual alpha - M/(M+1) = {residual:.3e}",
            "the bound exists for every M > M*",
        ])
    return EXIT_OK


_CCONST_CSV = ["M", "mu", "lambda", "C", "prefactor", "ratio",
               "Q_mag", "p_par", "p_perp", "tau"]


def cmd_cconstant(args) -> int:
    make_cfg = fine_config if args.grid == "fine" else coarse_config
    cfg = make_cfg(mu=args.mu, lam=args.lam)
    with warnings.catch_warnings():
        # boundary-maximiser and stability warnings belong on stderr
        warnings.simplefilter("always")

        def to_stderr(message, category, filename, lineno, file=None, line=None):
            _diag(f"warning: {message}")
        warnings.showwarning = to_stderr
        try:
            if args.scan:
                rows = scan_C_vs_M(_scan_masses(args.scan), cfg)
                for row in rows:
                    if row["error"]:
                        _diag(f"M = {row['M']}: {row['error']}")
                if args.format == "json":
                    _emit_json(rows)
                elif args.format == "csv":
                    _emit_csv(_CCONST_CSV,
                              [[row[k] for k in _CCONST_CSV]
                               for row in rows if row["error"] is None])
                else:
                    _emit_human(
                        [f"M = {row['M']:.6g}  C = {row['C']!r}  "
                         f"prefactor = {row['prefactor']!r}  ratio = {row['ratio']!r}"
                         if row["error"] is None else
                         f"M = {row['M']:.6g}: {row['error']}" for row in rows])
                return EXIT_OK

            est = estimate_C(cfg, ModelParams(args.mass, -1.0))
        except TailBoundExceeded as exc:
            _diag(f"truncation failure: {exc}")
            return EXIT_NONCONVERGENCE
        except _NUMERIC_ERRORS as exc:
            _diag(f"estimator failure: {exc}")
            return EXIT_NONCONVERGENCE

    if args.format == "json":
        payload = est.row()
        payload["refinement_trace"] = [list(t) for t in est.refinement_trace]
        payload["truncation_error_bound"] = est.truncation_error_bound
        _emit_json(payload)
    elif args.format == "csv":
        row = est.row()
        _emit_csv(_CCONST_CSV, [[row[k] for k in _CCONST_CSV]])
    else:
        _emit_human([
            f"mass ratio        M   = {args.mass}",
            f"evaluation point (mu, lambda) = ({est.mu}, {est.lam})",
            f"estimate          C   = {est.value!r}",
            f"prefactor   pi/(1+1/M) = {est.prefactor!r}",
            f"ratio  C / prefactor  = {est.ratio!r}",
            f"argmax (|Q|, p_par, p_perp, tau) = ({est.argmax['Q_mag']:.6g}, "
            f"{est.argmax['p_par']:.6g}, {est.argmax['p_perp']:.6g}, "
            f"{est.argmax['tau']:.6g})",
            f"refinement trace  = {[v for _, v in est.refinement_trace]}",
            f"truncation tail bound = {est.truncation_error_bound:.3e}",
        ])
    return EXIT_OK


def cmd_verify(args) -> int:
    report = run_suite(suite=args.suite, samples=args.samples, seed=args.seed,
                       tol_override=args.tol)
    if args.format == "json":
        _emit_json(report.to_dict())
    elif args.format == "csv":
        _emit_csv(["name", "samples_run", "max_violation", "tolerance",
                   "passed", "worst_input"],
                  [[c.name, c.samples_run, c.max_violation, c.tolerance,
                    c.passed, json.dumps(c.worst_input)]
                   for c in report.cases])
    else:
        lines = []
        for c in report.cases:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"{status}  {c.name:<26} samples={c.samples_run:<8} "
                         f"max_violation={c.max_violation:.3e} "
                         f"tol={c.tolerance:.1e}")
            if not c.passed:
                lines.append(f"      worst input: {json.dumps(c.worst_input)}")
        lines.append("suite " + ("PASSED" if report.suite_passed else "FAILED"))
        _emit_human(lines)
    return EXIT_OK if report.suite_passed else EXIT_VERIFY_FAILED


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("json", "csv", "human"),
                   default="human", help="output format (default: human)")
    p.add_argument("--threads", type=int,
                   help="ignored; accepted for older scripts (the package "
                        "is single-threaded)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="polaron2d",
                     description="Energy lower bounds for the 2D Fermi polaron")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", parents=[], help="solve the energy bound mu")
    p.add_argument("--mass", type=float, required=True, help="mass ratio M > 0")
    p.add_argument("--binding", type=float, required=True,
                   help="two-body binding energy E_B < 0")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="infrared cutoff (default: -E_B)")
    p.add_argument("--optimize-lambda", action="store_true",
                   help="maximise mu over a cutoff range")
    p.add_argument("--lambda-min", type=float, default=None)
    p.add_argument("--lambda-max", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("gamma", help="dimensionless bound gamma_M = mu/E_B")
    p.add_argument("--mass", type=float, help="single mass ratio")
    p.add_argument("--scan", type=_parse_scan, default=None,
                   metavar="START:STOP:STEPS", help="mass-ratio scan")
    p.add_argument("--spacing", choices=("linear", "log"), default="linear")
    _add_common(p)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("critical-mass",
                       help="mass ratio where the bound hypothesis starts to hold")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="absolute tolerance on M*")
    _add_common(p)
    p.set_defaults(func=cmd_critical_mass)

    p = sub.add_parser("c-constant",
                       help="estimate the spectral coupling constant C")
    p.add_argument("--mass", type=float, help="mass ratio M > 0")
    p.add_argument("--mu", type=float, default=-1.0,
                   help="trial energy of the evaluation point (default -1)")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="infrared cutoff of the evaluation point (default 1)")
    p.add_argument("--grid", choices=("coarse", "fine"), default="coarse")
    p.add_argument("--scan", type=_parse_scan, default=None,
                   metavar="START:STOP:STEPS", help="mass-ratio scan")
    _add_common(p)
    p.set_defaults(func=cmd_cconstant)

    p = sub.add_parser("verify", help="run the proof-identity verification suite")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None,
                   help="override every case tolerance")
    _add_common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("gamma", "c-constant") and \
            (args.mass is None) == (args.scan is None):
        parser.error(f"{args.command} needs exactly one of --mass or --scan")
    if args.command == "bound":
        if not args.mass > 0:
            parser.error("--mass must be positive")
        if not args.binding < 0:
            parser.error("--binding must be negative")
        if args.lam is not None and not args.lam > 0:
            parser.error("--lambda must be positive")
    try:
        return args.func(args)
    except ValueError as exc:
        _diag(f"invalid input: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
