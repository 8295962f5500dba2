import ast
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from polaron2d.cli import build_parser, main


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "polaron2d", *args],
                          capture_output=True, text=True, timeout=300)


SMALL_C_RUN = """
import sys, warnings
from dataclasses import replace
from polaron2d import GridSpec, ModelParams, coarse_config, estimate_C
cfg = replace(coarse_config(), qmag_grid=GridSpec(0.0, 4.0, 2),
              ppar_grid=GridSpec(-4.0, 4.0, 3))
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    estimate_C(cfg, ModelParams(2.0, -1.0))
print("scipy" in sys.modules)
"""


class TestStartup:
    # scipy is a test dependency only: importing scipy.optimize takes
    # longer than most commands run
    def test_cli_import_does_not_load_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, polaron2d.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_c_refinement_does_not_load_scipy(self):
        proc = subprocess.run([sys.executable, "-c", SMALL_C_RUN],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_no_module_imports_scipy(self):
        import polaron2d

        sources = sorted(Path(polaron2d.__file__).parent.glob("*.py"))
        assert len(sources) > 5
        for path in sources:
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not any(n.split(".")[0] == "scipy" for n in names), \
                    f"{path.name}:{node.lineno} imports scipy"

    def test_cli_import_does_not_load_concurrent_futures(self):
        # the package is single-threaded and needs no executor
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, polaron2d.cli; "
             "print('concurrent.futures' in sys.modules)"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_parallel_map_is_loaded_by_the_cli(self):
        # the benchmark tracer (perfbench/tracing.py, Tracer.install) looks
        # up polaron2d._parallel.parallel_map by name in sys.modules and
        # fails if it is gone
        import polaron2d.cli  # noqa: F401

        assert callable(sys.modules["polaron2d._parallel"].parallel_map)

    def test_minimize_is_a_module_attribute(self):
        # the benchmark tracer (perfbench/tracing.py, Tracer.install) looks
        # up cconstant.minimize by name and fails if it is gone
        from polaron2d import cconstant

        assert callable(cconstant.minimize)

    def test_benchmark_tracer_resolves_its_names(self):
        # perfbench/tracing.py's Tracer.install looks up the functions it
        # traces by name in the polaron2d modules and fails on any that is
        # gone, which breaks every traced benchmark run
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root / "perfbench")]))
        # the suite's tail and disk rows come from the public functions the
        # tracer wraps, so it counts one call of each
        script = "\n".join([
            "from tracing import Tracer",
            "tracer = Tracer()",
            "tracer.install()",
            "from polaron2d.verify import run_suite",
            "run_suite('integrals', samples=20, seed=1)",
            "m = tracer.layer_metrics()",
            "print(m['verify.verify_tail_integral.calls'],",
            "      m['verify.verify_disk_area.calls'])",
        ])
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=300,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1.0", "1.0"]

    def test_refinement_batches_its_objective(self, monkeypatch):
        # the grid scan is one batch of the plane mesh and the 48 probe
        # rows; each Newton round evaluates the 7-point stencils of at most
        # 5 starts in one call, and there are at most _MAX_ROUNDS rounds;
        # no scalar inner_integral runs, and the tail at the maximiser is
        # one closed-form bound
        from polaron2d import GridSpec, ModelParams, coarse_config, estimate_C
        from polaron2d import cconstant

        scalar, tails, rows = [], [], []
        real_rows = cconstant._objective_rows
        real_tail = cconstant.inner_integral_tail_bound

        def counting_tail(*args):
            tails.append(args)
            return real_tail(*args)

        def counting_rows(chunk, *args):
            rows.append(len(chunk))
            return real_rows(chunk, *args)

        monkeypatch.setattr(cconstant, "inner_integral",
                            lambda *args: scalar.append(args))
        monkeypatch.setattr(cconstant, "inner_integral_tail_bound",
                            counting_tail)
        monkeypatch.setattr(cconstant, "_objective_rows", counting_rows)
        cfg = replace(coarse_config(), qmag_grid=GridSpec(0.0, 4.0, 2),
                      ppar_grid=GridSpec(-4.0, 4.0, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = estimate_C(cfg, ModelParams(2.0, -1.0))
        assert len(scalar) == 0 and len(tails) == 1
        assert rows[0] == 2 * 3 + 48  # the plane mesh and the probe
        refine = rows[1:]
        assert 0 < len(refine) <= cconstant._MAX_ROUNDS
        assert max(refine) <= 5 * 7 and all(n % 7 == 0 for n in refine)
        assert est.value > 0.0


class TestBound:
    def test_json_payload(self):
        proc = run_cli("bound", "--mass", "2.0", "--binding", "-1.0",
                       "--lambda", "1.0", "--format", "json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert set(payload) == {"mass_ratio", "binding_energy", "lambda",
                                "mu", "gamma", "alpha_M", "residual",
                                "iterations", "optimized"}
        assert payload["mu"] < -1.0
        assert payload["gamma"] > 1.0
        assert not payload["optimized"]

    def test_supercritical_exit_code(self):
        proc = run_cli("bound", "--mass", "1.0", "--binding", "-1.0")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "supercritical" in proc.stderr

    def test_optimize_dominates_fixed(self):
        fixed = json.loads(run_cli("bound", "--mass", "2.0", "--binding",
                                   "-1.0", "--lambda", "1.0", "--format",
                                   "json").stdout)
        best = json.loads(run_cli("bound", "--mass", "2.0", "--binding",
                                  "-1.0", "--optimize-lambda", "--format",
                                  "json").stdout)
        assert best["optimized"]
        assert best["mu"] >= fixed["mu"]

    def test_csv_header(self):
        proc = run_cli("bound", "--mass", "2.0", "--binding", "-1.0",
                       "--format", "csv")
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "M,E_B,lambda,mu,gamma,alpha_M,residual"
        assert len(lines) == 2

    def test_json_round_trips(self):
        out1 = run_cli("bound", "--mass", "2.0", "--binding", "-1.0",
                       "--format", "json").stdout
        out2 = run_cli("bound", "--mass", "2.0", "--binding", "-1.0",
                       "--format", "json").stdout
        assert out1 == out2
        payload = json.loads(out1)
        assert json.loads(json.dumps(payload)) == payload

    def test_usage_errors(self):
        assert run_cli("bound", "--binding", "-1.0").returncode == 1
        assert run_cli("bound", "--mass", "2.0",
                       "--binding", "1.0").returncode == 1
        assert run_cli("bound", "--mass", "2.0", "--binding", "-1.0",
                       "--lambda", "-3").returncode == 1

    def test_negative_value_with_exponent(self, capsys):
        assert main(["bound", "--mass", "2", "--binding", "-1e-3",
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["binding_energy"] == -0.001
        args = build_parser().parse_args(["bound", "--mass", "2",
                                          "--binding", "-2e0"])
        assert args.binding == -2.0

    @pytest.mark.parametrize("args", [
        ["--mass", "inf", "--binding", "-1"],
        ["--mass", "2", "--binding=-inf"],
        ["--mass", "2", "--binding", "-1", "--lambda", "inf"],
    ], ids=["mass", "binding", "lambda"])
    def test_non_finite_input_is_usage_error(self, args, capsys):
        assert main(["bound", *args]) == 1
        assert "invalid input" in capsys.readouterr().err


class TestGamma:
    def test_single_mass(self):
        proc = run_cli("gamma", "--mass", "2.0", "--format", "json")
        assert proc.returncode == 0
        rows = json.loads(proc.stdout)
        assert len(rows) == 1
        assert rows[0]["gamma"] == pytest.approx(20.312228625, abs=1e-6)

    def test_scan_csv(self):
        proc = run_cli("gamma", "--scan", "1.3:5.0:10", "--format", "csv")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "M,gamma,alpha_M"
        assert len(lines) == 11
        gammas = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a > b for a, b in zip(gammas, gammas[1:]))
        assert "strictly decreasing" in proc.stderr

    def test_scan_supercritical_rows_continue(self):
        proc = run_cli("gamma", "--scan", "1.0:2.0:5", "--format", "json")
        assert proc.returncode == 0
        rows = json.loads(proc.stdout)
        assert rows[0]["error"] is not None
        assert rows[-1]["error"] is None

    def test_supercritical_single_exit(self):
        assert run_cli("gamma", "--mass", "1.0").returncode == 2

    @pytest.mark.parametrize("mass, code", [("1.225", 3), ("1.2242", 3),
                                            ("1.2", 2)])
    def test_single_mass_solver_failure_exits_3(self, mass, code, capsys):
        # a numerical failure above the critical mass is not a hypothesis
        # violation: it exits 3, as bound does on the same failure
        assert main(["gamma", "--mass", mass]) == code
        assert f"M = {mass}: " in capsys.readouterr().err

    def test_needs_exactly_one_mode(self):
        assert run_cli("gamma").returncode == 1
        assert run_cli("gamma", "--mass", "2.0",
                       "--scan", "1.3:2:3").returncode == 1

    @pytest.mark.parametrize("command, scan, named", [
        ("gamma", "1.3:inf:3", "scan stop must be finite, got inf"),
        ("gamma", "nan:2:3", "scan start must be finite, got nan"),
        ("c-constant", "0.5:inf:3", "scan stop must be finite, got inf"),
    ])
    def test_non_finite_scan_bound_is_usage_error(self, command, scan,
                                                  named):
        # rejected before np.linspace turns it into a nan mass
        proc = run_cli(command, f"--scan={scan}")
        assert proc.returncode == 1
        assert named in proc.stderr
        assert "RuntimeWarning" not in proc.stderr and proc.stdout == ""


class TestCriticalMass:
    def test_json_schema_and_window(self):
        proc = run_cli("critical-mass", "--format", "json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert set(payload) == {"m_star", "alpha_at_m_star", "residual"}
        assert 1.20 <= payload["m_star"] <= 1.225

    def test_loose_tolerance(self, capsys):
        # the residual check loosens with --tol: |h'| < 1 on the bracket
        assert main(["critical-mass", "--tol", "1e-3", "--format",
                     "json"]) == 0
        m_star = json.loads(capsys.readouterr().out)["m_star"]
        assert abs(m_star - 1.2241333187320396) <= 1e-3

    @pytest.mark.parametrize("tol", ["inf", "0", "nan", "-1e-3"])
    def test_bad_tolerance_is_usage_error(self, tol, capsys):
        assert main(["critical-mass", "--tol", tol]) == 1
        assert "--tol must be positive and finite" in capsys.readouterr().err

    def test_deterministic_to_ten_digits(self):
        out1 = run_cli("critical-mass", "--tol", "1e-10",
                       "--format", "json").stdout
        out2 = run_cli("critical-mass", "--tol", "1e-10",
                       "--format", "json").stdout
        assert out1 == out2


class TestVerify:
    def test_integrals_pass(self):
        proc = run_cli("verify", "--suite", "integrals", "--samples", "100",
                       "--seed", "7", "--format", "json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["suite_passed"]
        names = {c["name"] for c in report["cases"]}
        assert names == {"resolvent_tail_integral", "cutoff_disk_area",
                         "sigma_minus_identity"}
        assert all(c["max_violation"] < 1e-10 for c in report["cases"]
                   if c["name"] == "resolvent_tail_integral")

    def test_byte_identical_reports(self):
        args = ("verify", "--suite", "monotonicity", "--samples", "200",
                "--seed", "7", "--format", "json")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_impossible_tolerance_exits_4(self):
        proc = run_cli("verify", "--suite", "monotonicity", "--samples", "50",
                       "--seed", "1", "--tol", "1e-30", "--format", "json")
        assert proc.returncode == 4
        report = json.loads(proc.stdout)
        assert not report["suite_passed"]
        failing = [c for c in report["cases"] if not c["passed"]]
        assert failing and all(c["worst_input"] for c in failing)

    def test_samples_must_be_positive(self, capsys):
        assert main(["verify", "--samples", "0"]) == 1
        assert "samples" in capsys.readouterr().err

    def test_nan_tolerance_is_usage_error(self, capsys):
        assert main(["verify", "--samples", "20", "--tol", "nan"]) == 1
        assert "tol" in capsys.readouterr().err

    def test_csv_format(self):
        proc = run_cli("verify", "--suite", "chain", "--samples", "10",
                       "--format", "csv")
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "name,samples_run,max_violation,tolerance,passed,worst_input"
        assert proc.returncode == 0


class TestCConstantFlags:
    def test_needs_mass_or_scan(self):
        assert run_cli("c-constant").returncode == 1

    def test_mass_and_scan_together_rejected(self):
        proc = run_cli("c-constant", "--mass", "2", "--scan", "0.5:3:6")
        assert proc.returncode == 1
        assert "exactly one of --mass or --scan" in proc.stderr
        assert proc.stdout == ""

    def test_bad_scan_spec(self):
        assert run_cli("c-constant", "--scan", "nonsense").returncode == 1
        assert run_cli("c-constant", "--scan", "2:1:5").returncode == 1

    def test_non_finite_input_is_usage_error(self, capsys):
        assert main(["c-constant", "--mass", "inf"]) == 1
        assert "invalid input" in capsys.readouterr().err

    def test_mu_flag_is_gone(self):
        # C depends on mu and lambda only through x = lambda/|mu|, so
        # --lambda is x at mu = -1 and there is no --mu
        proc = run_cli("c-constant", "--mass", "2", "--mu", "-1")
        assert proc.returncode == 1
        assert "unrecognized arguments: --mu" in proc.stderr
        assert proc.stdout == ""
        assert "--mu" not in run_cli("c-constant", "--help").stdout

    def test_overflowing_search_box_is_usage_error(self):
        # the box scales by sqrt(max(lambda, 1)), and the angular kernel
        # squares (M+1) q_mag_max**2: the input is refused with one message
        # before any numpy overflow
        proc = run_cli("c-constant", "--mass", "2", "--lambda=1e300")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "invalid input: q_mag_max**4 must be finite, got q_mag_max = "
            "1e+153 at lam = 1e+300"]

    def test_scan_over_non_positive_masses(self):
        # each row fails and is reported; no division by zero, no numpy
        # warning, and no prefactor
        proc = run_cli("c-constant", "--scan=-1:0:2", "--format", "json")
        assert proc.returncode == 0
        rows = json.loads(proc.stdout)
        assert [row["M"] for row in rows] == [-1.0, 0.0]
        assert all(row["prefactor"] is None and row["error"] for row in rows)
        assert proc.stderr.splitlines() == [
            f"M = {M}: mass_ratio must be positive and finite, got {M}"
            for M in (-1.0, 0.0)]


class TestCConstantOutput:
    def test_coarse_m2_json_on_the_plane(self, capsys):
        # the search runs on the plane p_perp = 0, tau = 0; the maximiser
        # lies inside the box, so nothing is flagged on stderr
        assert main(["c-constant", "--mass", "2", "--format", "json"]) == 0
        out, err = capsys.readouterr()
        est = json.loads(out)
        assert est["p_perp"] == 0.0 and est["tau"] == 0.0
        assert est["C"] == pytest.approx(0.44429157433172, rel=1e-12)
        assert err == ""


class TestGlobalContract:
    def test_unknown_command_is_usage_error(self):
        assert run_cli("frobnicate").returncode == 1

    def test_json_stdout_clean_despite_diagnostics(self):
        proc = run_cli("gamma", "--scan", "1.0:2.0:4", "--format", "json")
        json.loads(proc.stdout)  # must parse as a single document
        assert proc.stderr != ""
