"""Command-line interface tests: formats, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import jacprop
from jacprop.activations import Activation
from jacprop.analysis import fit_exponential
from jacprop.cli import main, parse_activation, parse_mode
from jacprop.meanfield import Hyper, NormMode, trace


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    comments, header, rows = [], None, []
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return comments, header, rows


def run_fresh(code, **env):
    """stdout of ``code`` run in a fresh interpreter that imports this jacprop."""
    src = os.path.dirname(os.path.dirname(jacprop.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               **env)
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env).stdout


#: Every theory command, in one interpreter, then the scipy modules it loaded.
THEORY_COMMANDS = """
import os, sys, jacprop
from jacprop.cli import main
trace = os.path.join({tmp!r}, "trace.csv")
runs = [
    ["theory-trace", "--act", "erf", "--sw", "0.886", "--sb", "0", "--depth", "300",
     "-o", trace],
    ["theory-trace", "--act", "gelu", "--mode", "pre-ln", "--sw", "1.3", "--sb", "0.4",
     "--depth", "5", "-o", os.devnull],
    ["critical", "--point", "--act", "erf", "-o", os.devnull],
    ["critical", "--point", "--act", "gelu", "-o", os.devnull],
    ["phase-diagram", "--act", "gelu", "--resolution", "4", "-o", os.devnull],
    ["fit", "--series", trace, "--j-col", "J", "--l-min", "50", "-o", os.devnull],
]
runs += [["critical", "--line", "--act", act, "--mode", mode, "--sw-steps", "6",
          "-o", os.devnull]
         for act in ("relu", "erf", "gelu") for mode in ("vanilla", "pre-ln", "post-ln")]
codes = [main(argv) for argv in runs]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_the_theory_half_loads_no_scipy(tmp_path):
    out = run_fresh(THEORY_COMMANDS.format(tmp=str(tmp_path)))
    assert out.strip() == f"{[0] * 15} []"


def test_a_monte_carlo_erf_run_loads_scipy_special():
    # the counter-check: the Monte-Carlo half takes its erf bits from scipy
    code = """
import os, sys
from jacprop.cli import main
before = "scipy.special" in sys.modules
code = main(["mc", "chi", "--act", "erf", "--sw", "1", "--sb", "0", "--width", "16",
             "--input-dim", "8", "--depth", "4", "--n-init", "2", "-o", os.devnull])
print(before, code, "scipy.special" in sys.modules, "scipy.optimize" in sys.modules)
"""
    assert run_fresh(code).split() == ["False", "0", "True", "False"]


def test_a_lazy_erf_import_in_worker_threads_keeps_the_bits():
    # the first scipy.special import happens inside the pool's threads
    code = """
import sys
from jacprop import Activation, EnsembleConfig, Hyper, NormMode, empirical_chi
cfg = EnsembleConfig(width=64, input_dim=16, depth=6, n_init=6, seed=5, hyper=Hyper(1.2, 0.3),
                     norm=NormMode.PRE_LN, act=Activation.erf())
assert "scipy.special" not in sys.modules
est = empirical_chi(cfg)
print(est.mean.hex(), est.stderr.hex())
"""
    one = run_fresh(code, JACPROP_WORKERS="1")
    assert run_fresh(code, JACPROP_WORKERS="2") == one


class TestParsers:
    def test_activation_vocabulary(self):
        assert parse_activation("relu").family == "scale_invariant"
        assert parse_activation("erf").family == "erf"
        assert parse_activation("gelu").family == "gelu"
        act = parse_activation("scale-invariant:1.5:0.5")
        assert (act.a_plus, act.a_minus) == (1.5, 0.5)
        with pytest.raises(Exception):
            parse_activation("tanh")

    def test_mode_vocabulary(self):
        assert parse_mode("pre-ln").name == "PRE_LN"
        with pytest.raises(Exception):
            parse_mode("batch-norm")


class TestTheoryTrace:
    def test_relu_critical_unit_multipliers(self, capsys):
        code, out, _ = run_cli(
            ["theory-trace", "--act", "relu", "--mode", "vanilla",
             "--sw", "1.4142135", "--sb", "0", "--depth", "50"], capsys)
        assert code == 0
        comments, header, rows = parse_csv(out)
        assert header == ["l", "K", "chi_j", "chi_delta", "J", "Theta"]
        assert len(rows) == 50
        chi_col = [float(r[2]) for r in rows]
        assert all(abs(c - 1.0) < 1e-6 for c in chi_col)
        assert any("config:" in c for c in comments)

    def test_post_ln_kernel_column_constant(self, capsys):
        code, out, _ = run_cli(
            ["theory-trace", "--act", "erf", "--mode", "post-ln",
             "--sw", "1", "--sb", "2", "--depth", "10"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        ks = [float(r[1]) for r in rows]
        assert ks[1:] == [5.0] * 9

    def test_missing_depth_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["theory-trace", "--act", "relu", "--sw", "1", "--sb", "0"])
        assert exc.value.code == 2

    @staticmethod
    def _usage_error(capsys, flags) -> str:
        # checked by the flags' types, like --depth
        with pytest.raises(SystemExit) as exc:
            main(["theory-trace", *flags, "--sw", "1", "--sb", "0", "--depth", "5"])
        assert exc.value.code == 2
        return capsys.readouterr().err

    def test_unknown_activation_is_usage_error(self, capsys):
        err = self._usage_error(capsys, ["--act", "tanh", "--mode", "vanilla"])
        assert "unknown activation 'tanh'" in err
        err = self._usage_error(capsys, ["--act", "scale-invariant:1:x"])
        assert "expected scale-invariant:a+:a-" in err

    def test_unknown_mode_is_usage_error(self, capsys):
        err = self._usage_error(capsys, ["--act", "relu", "--mode", "batch-norm"])
        assert "unknown mode 'batch-norm'" in err

    def test_nan_k0_fails_without_rows(self, capsys):
        code, out, err = run_cli(
            ["theory-trace", "--act", "erf", "--sw", "1", "--sb", "0",
             "--depth", "5", "--k0", "nan"], capsys)
        assert code != 0
        assert "k0" in err
        assert parse_csv(out)[2] == []

    @pytest.mark.parametrize("sw,depth", [(2.0, 1200), (1.0, 40)])
    def test_result_line_reports_the_trace(self, capsys, sw, depth):
        code, out, _ = run_cli(
            ["theory-trace", "--act", "relu", "--sw", str(sw), "--sb", "0",
             "--depth", str(depth)], capsys)
        assert code == 0
        comments, _, rows = parse_csv(out)
        assert comments[2].startswith("# config:")
        tr = trace(Activation.relu(), NormMode.VANILLA, Hyper(sw, 0.0), depth, 1.0)
        assert tr.diverged == (sw == 2.0)  # one run of inf rows, one finite
        assert comments[3] == (
            f"# result: diverged={tr.diverged} truncated_at={tr.truncated_at}")
        assert len(rows) == depth

    def test_floats_round_trip(self, capsys):
        code, out, _ = run_cli(
            ["theory-trace", "--act", "gelu", "--mode", "vanilla",
             "--sw", "1.7", "--sb", "0.3", "--depth", "5"], capsys)
        _, _, rows = parse_csv(out)
        val = rows[3][1]
        assert float(val) == float(f"{float(val):.17g}")


class TestCritical:
    def test_relu_point_row(self, capsys):
        code, out, _ = run_cli(["critical", "--point", "--act", "relu"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0][0]) == pytest.approx(1.414214, abs=1e-6)
        assert float(rows[0][1]) == 0.0

    def test_gelu_two_point_rows(self, capsys):
        code, out, _ = run_cli(["critical", "--point", "--act", "gelu"], capsys)
        _, _, rows = parse_csv(out)
        assert len(rows) == 2
        assert float(rows[0][0]) == pytest.approx(2.0, abs=1e-5)
        assert float(rows[1][0]) == pytest.approx(1.408, abs=1e-3)
        assert float(rows[1][1]) == pytest.approx(0.416, abs=1e-3)

    def test_header_has_no_tolerance(self, capsys):
        _, out, _ = run_cli(["critical", "--point", "--act", "gelu"], capsys)
        comments, _, _ = parse_csv(out)
        assert comments[2] == "# config: act=gelu mode=vanilla"
        with pytest.raises(SystemExit) as exc:
            main(["critical", "--point", "--act", "gelu", "--tol", "1e-9"])
        assert exc.value.code == 2

    def test_erf_pre_ln_line_slope(self, capsys):
        code, out, _ = run_cli(
            ["critical", "--line", "--act", "erf", "--mode", "pre-ln",
             "--sw-min", "0.5", "--sw-max", "3", "--sw-steps", "6"], capsys)
        _, _, rows = parse_csv(out)
        slopes = [float(r[1]) / float(r[0]) for r in rows]
        for s in slopes:
            assert s == pytest.approx(0.324, abs=1e-3)

    def test_no_slope_means_no_critical_point_or_line(self, capsys):
        # phi' = 0: --point and --line both report "no solution" rows, exit 0
        act = ["--act", "scale-invariant:0:0"]
        code_p, out_p, err_p = run_cli(["critical", "--point", *act], capsys)
        code_l, out_l, err_l = run_cli(["critical", "--line", *act, "--sw-steps", "3"], capsys)
        assert (code_p, err_p, code_l, err_l) == (0, "", 0, "")
        (point,) = parse_csv(out_p)[2]
        assert point == ["nan"] * 4
        lines = parse_csv(out_l)[2]
        assert [r[0] for r in lines] == ["0.5", "1.75", "3"]
        assert all(r[1:] == ["nan"] * 3 for r in lines)


    @pytest.mark.parametrize("bounds, flag, value", [
        (["--sw-min", "nan"], "--sw-min", "nan"),
        (["--sw-min", "inf", "--sw-max", "inf"], "--sw-min", "inf"),
        (["--sw-max=-inf"], "--sw-max", "-inf"),
        (["--sw-min", "-1"], "--sw-min", "-1.0"),
    ])
    def test_bad_sweep_bound_fails_without_rows(self, capsys, bounds, flag, value):
        # a NaN or infinite bound once came back as "no solution" rows, exit 0
        code, out, err = run_cli(["critical", "--line", "--act", "erf", *bounds], capsys)
        assert code == 1
        assert f"{flag} must be finite and nonnegative, got {value}" in err
        assert out == ""


class TestPhaseDiagram:
    @pytest.mark.parametrize("flag, value", [
        ("--sw2-min", "-1"), ("--sw2-max", "nan"), ("--sb2-min", "-0.5"), ("--sb2-max", "inf"),
    ])
    def test_bad_grid_bound_fails_without_rows(self, capsys, flag, value):
        # a negative bound once warned and then reported "sigma_w ... got nan"
        code, out, err = run_cli(["phase-diagram", "--act", "relu", "--resolution", "2",
                                  flag, value], capsys)
        assert code == 1
        assert f"{flag} must be finite and nonnegative, got {float(value)}" in err
        assert out == ""

    def test_relu_grid_bias_independent_and_shape(self, capsys):
        code, out, _ = run_cli(
            ["phase-diagram", "--act", "relu", "--mode", "vanilla",
             "--sw2-min", "0.5", "--sw2-max", "4", "--sb2-min", "0",
             "--sb2-max", "1", "--resolution", "4"], capsys)
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["sigma_w_sq", "sigma_b_sq", "chi", "diverged"]
        assert len(rows) == 16
        by_sw = {}
        for r in rows:
            by_sw.setdefault(r[0], set()).add(r[2])
        for chis in by_sw.values():
            assert len(chis) == 1  # independent of sigma_b
        for r in rows:
            assert float(r[2]) == pytest.approx(float(r[0]) / 2, rel=1e-10)
            # the ReLU kernel runs away exactly when sigma_w^2 > 2
            assert r[3] == ("1" if float(r[0]) > 2 else "0")


class TestMonteCarlo:
    ARGS = ["mc", "chi", "--act", "relu", "--mode", "vanilla",
            "--sw", "1.4142135623730951", "--sb", "0",
            "--width", "64", "--input-dim", "16", "--depth", "8",
            "--n-init", "4", "--seed", "11"]

    def test_chi_json_payload(self, capsys):
        code, out, _ = run_cli(self.ARGS, capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "mc chi"
        assert doc["config"]["seed"] == 11
        assert 0.2 < doc["mean"] < 3.0
        assert doc["n"] == 4

    def test_deterministic_given_seed(self, capsys):
        _, out1, _ = run_cli(self.ARGS, capsys)
        _, out2, _ = run_cli(self.ARGS, capsys)
        assert out1 == out2

    def test_profile_writes_series(self, capsys, tmp_path):
        series = tmp_path / "prof.csv"
        args = ["mc", "profile", "--act", "erf", "--mode", "vanilla",
                "--sw", "1.0", "--sb", "0.2", "--width", "48",
                "--input-dim", "12", "--depth", "6", "--n-init", "3",
                "--seed", "2", "--series-out", str(series),
                "--out", str(tmp_path / "prof.json")]
        assert main(args) == 0
        text = series.read_text()
        _, header, rows = parse_csv(text)
        assert header == ["l", "J_mean", "J_stderr"]
        assert len(rows) == 6

    def test_profile_l0_outside_the_network_fails(self, capsys):
        # it once exited with "list index out of range"
        for l0 in ("7", "6", "-1"):
            code, out, err = run_cli(
                ["mc", "profile", "--act", "relu", "--sw", "1.4", "--sb", "0.1",
                 "--width", "8", "--input-dim", "4", "--depth", "6", "--n-init", "2",
                 "--l0", l0], capsys)
            assert code == 1 and out == ""
            assert f"l0 must satisfy 0 <= l0 < depth (6), got {l0}" in err

    @pytest.mark.parametrize("task", ["chi", "ntk", "n0check"])
    @pytest.mark.parametrize("flag, value", [("--l0", "9"), ("--series-out", "s.csv")])
    def test_profile_flags_are_usage_errors_elsewhere(self, capsys, tmp_path, task, flag, value):
        # they were once accepted and ignored, and l0 recorded in the config
        argv = ["mc", task, "--act", "relu", "--sw", "1.4", "--sb", "0.1",
                "--width", "8", "--input-dim", "4", "--depth", "4", "--n-init", "2"]
        code, out, err = run_cli(argv + [flag, value], capsys)
        assert code == 2 and out == ""
        assert f"{flag} applies only to mc profile" in err
        config = tmp_path / "c.json"
        config.write_text(json.dumps({flag[2:]: value}))
        code, out, err = run_cli(["--config", str(config)] + argv, capsys)
        assert code == 2 and out == "" and flag in err

    def test_l0_recorded_only_for_profile(self, capsys, tmp_path):
        argv = ["--act", "relu", "--sw", "1.4", "--sb", "0.1", "--width", "8",
                "--input-dim", "4", "--depth", "4", "--n-init", "2"]
        _, out, _ = run_cli(["mc", "chi"] + argv, capsys)
        assert "l0" not in json.loads(out)["config"]
        _, out, _ = run_cli(["mc", "profile", "--l0", "1", "--series-out",
                             str(tmp_path / "s.csv")] + argv, capsys)
        assert json.loads(out)["config"]["l0"] == 1
        _, out, _ = run_cli(["mc", "profile", "--series-out", str(tmp_path / "s.csv")] + argv,
                            capsys)
        assert json.loads(out)["config"]["l0"] == 0

    def test_ntk_runs_past_the_dense_size_limit(self, capsys):
        # the driver draws no whole layer; only the explicit empirical_ntk
        # keeps the 256-wide, 12-deep limit
        code, out, _ = run_cli(["mc", "ntk", "--act", "relu", "--sw", "1.4", "--sb", "0.1",
                                "--width", "300", "--input-dim", "4", "--depth", "3",
                                "--n-init", "1"], capsys)
        assert code == 0
        assert json.loads(out)["n"] == 1

    def test_ntk_task(self, capsys):
        args = ["mc", "ntk", "--act", "erf", "--mode", "pre-ln",
                "--sw", "1.2", "--sb", "0.4", "--width", "32",
                "--input-dim", "8", "--depth", "4", "--n-init", "3",
                "--seed", "3"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["mean"] > 0

    def test_ntk_independent_of_worker_count(self, capsys, monkeypatch):
        args = ["mc", "ntk", "--act", "gelu", "--mode", "post-ln",
                "--sw", "1.3", "--sb", "0.2", "--width", "24",
                "--input-dim", "8", "--depth", "4", "--n-init", "5",
                "--seed", "9"]
        outs = []
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("JACPROP_WORKERS", workers)
            code, out, _ = run_cli(args, capsys)
            assert code == 0
            outs.append(out)
        assert outs[1:] == outs[:1] * 2

    def test_malformed_worker_count_is_usage_error(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("JACPROP_WORKERS", "two")
        out = tmp_path / "chi.json"
        code, _, err = run_cli(self.ARGS + ["-o", str(out)], capsys)
        assert code == 2
        assert "JACPROP_WORKERS" in err
        assert not out.exists()

    def test_n0check_task(self, capsys):
        args = ["mc", "n0check", "--act", "erf", "--mode", "vanilla",
                "--sw", "1.0", "--sb", "0", "--width", "256",
                "--input-dim", "8", "--depth", "2", "--n-init", "8",
                "--seed", "4"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) >= {"measured", "corrected_pred", "uncorrected_pred"}

    def test_n0check_resample_inputs(self, capsys):
        # each member sees its own input, and so do the predictions: at this
        # seed those of member 0's input alone read 12 standard errors off
        args = ["mc", "n0check", "--act", "erf", "--sw", "1.0", "--sb", "0",
                "--width", "1024", "--input-dim", "16", "--depth", "2", "--n-init", "200",
                "--seed", "3", "--resample-inputs"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["resample_inputs"] is True
        assert doc["err_corrected"] <= 4 * doc["measured_stderr"], doc
        assert doc["err_corrected"] < doc["err_uncorrected"]

    def test_non_finite_input_file_exits_one(self, capsys, tmp_path):
        x = np.ones(16, dtype="<f4")
        x[3] = np.nan
        path = tmp_path / "input.bin"
        x.tofile(path)
        out = tmp_path / "chi.json"
        code, _, err = run_cli(self.ARGS + ["--input-file", str(path), "-o", str(out)],
                               capsys)
        assert code == 1
        assert "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--groups", "0"), ("--width", "0"), ("--input-dim", "0"), ("--depth", "1"),
    ])
    def test_bad_size_exits_one_naming_the_field(self, capsys, tmp_path, flag, value):
        out = tmp_path / "chi.json"
        code, _, err = run_cli(self.ARGS + [flag, value, "-o", str(out)], capsys)
        assert code == 1
        assert f"{flag[2:].replace('-', '_')} must be" in err
        assert not out.exists()

    def test_one_unit_groups_exit_one(self, capsys, tmp_path):
        # 16 groups of one unit normalize to 0: a constant network, not a measurement
        out = tmp_path / "chi.json"
        args = ["mc", "chi", "--act", "relu", "--mode", "pre-ln", "--sw", "1.4", "--sb", "0",
                "--width", "16", "--input-dim", "4", "--depth", "4", "--n-init", "2",
                "--seed", "1", "--groups", "16", "-o", str(out)]
        code, _, err = run_cli(args, capsys)
        assert code == 1
        assert "groups (16)" in err
        assert not out.exists()

    def test_run_larger_than_memory_exits_one(self, capsys, tmp_path):
        out = tmp_path / "profile.json"
        series = tmp_path / "profile.csv"
        args = ["mc", "profile", "--act", "erf", "--mode", "vanilla", "--sw", "1", "--sb", "0",
                "--width", "2000000", "--input-dim", "1000000", "--depth", "3",
                "--n-init", "1", "--seed", "1", "--series-out", str(series), "-o", str(out)]
        code, _, err = run_cli(args, capsys)
        assert code == 1
        assert "physical memory" in err
        assert not out.exists() and not series.exists()

    def test_negative_seed_exits_one(self, capsys, tmp_path):
        out = tmp_path / "chi.json"
        args = self.ARGS[:-1] + ["-1", "-o", str(out)]  # the seed is the last flag
        code, _, err = run_cli(args, capsys)
        assert code == 1
        assert "seed must be >= 0, got -1" in err
        assert not out.exists()

    def test_one_member_stderr_is_nan(self, capsys, tmp_path):
        argv = ["--act", "relu", "--sw", "1.4", "--sb", "0.1", "--width", "8",
                "--input-dim", "4", "--depth", "4", "--n-init", "1"]
        for task in ("chi", "ntk"):
            _, out, _ = run_cli(["mc", task] + argv, capsys)
            assert json.loads(out)["stderr"] == "nan"
        series = tmp_path / "s.csv"
        _, out, _ = run_cli(["mc", "profile", "--series-out", str(series)] + argv, capsys)
        assert json.loads(out)["stderr"] == "nan"
        _, header, rows = parse_csv(series.read_text())
        assert header[2] == "J_stderr" and [row[2] for row in rows] == ["nan"] * 4

    def test_runtime_error_exits_one(self, capsys):
        args = ["mc", "chi", "--act", "relu", "--mode", "vanilla",
                "--sw", "1", "--sb", "0", "--width", "16",
                "--input-dim", "4", "--depth", "4", "--n-init", "1",
                "--seed", "1", "--input-file", "/nonexistent/input.bin"]
        code, _, err = run_cli(args, capsys)
        assert code == 1
        assert "error" in err


class TestFitCommand:
    def _write_series(self, tmp_path, fn):
        path = tmp_path / "series.csv"
        lines = ["# synthetic", "l,J_mean"]
        for l in range(1, 200):
            lines.append(f"{l},{fn(l):.17g}")
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_power_fit_exact(self, capsys, tmp_path):
        path = self._write_series(tmp_path, lambda l: 4.0 * l**-1.5)
        code, out, _ = run_cli(
            ["fit", "--series", path, "--kind", "power", "--l-min", "10"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["zeta"] == pytest.approx(1.5, abs=1e-10)

    def test_exponential_fit(self, capsys, tmp_path):
        path = self._write_series(tmp_path, lambda l: math.exp(-l / 4.0))
        code, out, _ = run_cli(
            ["fit", "--series", path, "--kind", "exp", "--l-min", "5"], capsys)
        doc = json.loads(out)
        assert doc["xi"] == pytest.approx(4.0, abs=1e-8)
        assert doc["phase"] == "ordered"

    def test_default_window_is_deep(self, capsys, tmp_path):
        path = self._write_series(tmp_path, lambda l: 2.0 / l)
        code, out, _ = run_cli(["fit", "--series", path], capsys)
        doc = json.loads(out)
        assert doc["window"][0] >= 100

    @pytest.mark.parametrize("flag, column", [("--j-col", "J"), ("--l-col", "layer")])
    def test_missing_column_is_named(self, capsys, tmp_path, flag, column):
        path = self._write_series(tmp_path, lambda l: 2.0 / l)
        out = tmp_path / "fit.json"
        code, _, err = run_cli(["fit", "--series", path, flag, column, "-o", str(out)], capsys)
        assert code == 1
        assert f"column '{column}' not found in {path}, whose header is 'l,J_mean'" in err
        assert not out.exists()

    @pytest.mark.parametrize("row, problem", [
        ("2", "no J_mean cell: '2'"),
        ("2,abc", "J_mean cell 'abc' is not a number"),
        ("5.7,0.2", "l cell '5.7' is not a whole layer"),
        ("5,99.0", "layer 5 repeats line 7"),
    ], ids=["short", "not-a-number", "fractional-layer", "repeated-layer"])
    def test_malformed_row_is_named(self, capsys, tmp_path, row, problem):
        path = self._write_series(tmp_path, lambda l: 2.0 / l)
        with open(path, "a") as f:
            f.write(row + "\n")
        out = tmp_path / "fit.json"
        code, _, err = run_cli(["fit", "--series", path, "-o", str(out)], capsys)
        assert code == 1
        assert f"{path}, line 202: {problem}" in err
        assert not out.exists()

    def test_unused_layers_of_a_trace_are_skipped(self, capsys, tmp_path):
        # J reads NaN for l <= l0; the fit is the library's fit of the trace
        trace_csv = tmp_path / "trace.csv"
        assert main(["theory-trace", "--act", "erf", "--sw", "1.2", "--sb", "0.3",
                     "--depth", "60", "--l0", "3", "--out", str(trace_csv)]) == 0
        code, out, _ = run_cli(["fit", "--series", str(trace_csv), "--j-col", "J",
                                "--l-min", "1", "--kind", "exp"], capsys)
        assert code == 0
        doc = json.loads(out)
        tr = trace(Activation.erf(), NormMode.VANILLA, Hyper(1.2, 0.3), 60, 1.0, l0=3)
        want = fit_exponential(tr.J, 1)
        assert doc["slope"] == want.slope and doc["window"] == [4, 60]
        assert doc["phase"] == "ordered"

    def test_truncated_trace_is_refused(self, capsys, tmp_path):
        trace_csv, out = tmp_path / "trace.csv", tmp_path / "fit.json"
        assert main(["theory-trace", "--act", "relu", "--sw", "3", "--sb", "0",
                     "--depth", "800", "--out", str(trace_csv)]) == 0
        tr = trace(Activation.relu(), NormMode.VANILLA, Hyper(3.0, 0.0), 800, 1.0)
        first = int(np.argmax(np.isinf(tr.J)))
        assert 400 < first < 800
        code, _, err = run_cli(["fit", "--series", str(trace_csv), "--j-col", "J",
                                "--l-min", "400", "-o", str(out)], capsys)
        assert code == 1
        assert f"infinite at layer {first}" in err
        assert not out.exists()

    def test_trace_to_fit_pipeline(self, capsys, tmp_path):
        # a deep critical trace piped through the power-law fit recovers
        # the unit exponent
        trace_csv = tmp_path / "trace.csv"
        code = main(["theory-trace", "--act", "erf", "--mode", "vanilla",
                     "--sw", str(math.sqrt(math.pi / 4)), "--sb", "0",
                     "--depth", "250", "--k0", "0.3", "--out", str(trace_csv)])
        assert code == 0
        code, out, _ = run_cli(
            ["fit", "--series", str(trace_csv), "--kind", "power",
             "--l-min", "100", "--j-col", "J"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["zeta"] == pytest.approx(1.0, abs=0.06)


class TestEmptySweep:
    CASES = [(["critical", "--line", "--act", "erf"], "sw_steps"),
             (["phase-diagram", "--act", "erf"], "resolution")]

    @pytest.mark.parametrize("command,key", CASES, ids=["line", "grid"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_flag_is_usage_error(self, capsys, tmp_path, command, key, value):
        out = tmp_path / "out.csv"
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            main([*command, flag, value, "-o", str(out)])
        assert exc.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,key", CASES, ids=["line", "grid"])
    def test_config_is_usage_error(self, capsys, tmp_path, command, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: 0}))
        out = tmp_path / "out.csv"
        code, _, err = run_cli(["--config", str(cfg), *command, "-o", str(out)], capsys)
        assert code == 2
        assert repr(key) in err
        assert not out.exists()


class TestConfigFile:
    def test_config_overrides_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"depth": 7, "sb": 0.5}))
        code, out, _ = run_cli(
            ["--config", str(cfg), "theory-trace", "--act", "relu",
             "--mode", "vanilla", "--sw", "1", "--sb", "0", "--depth", "99"],
            capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 7
        comments = [line for line in out.splitlines() if line.startswith("#")]
        assert any("sb=0.5" in c for c in comments)

    @pytest.mark.parametrize("key", ["depht", "width"])  # a typo, another command's flag
    def test_unknown_key_is_usage_error(self, capsys, tmp_path, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: 7}))
        code, out, err = run_cli(
            ["--config", str(cfg), "theory-trace", "--act", "relu",
             "--sw", "1", "--sb", "0", "--depth", "9"], capsys)
        assert code == 2
        assert repr(key) in err
        assert out == ""

    def test_removed_tolerance_is_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tol": 1e-9}))
        code, out, err = run_cli(
            ["--config", str(cfg), "critical", "--point", "--act", "gelu"], capsys)
        assert code == 2
        assert "'tol'" in err
        assert out == ""

    @pytest.mark.parametrize("value", ["7", 7])
    def test_value_parsed_like_the_flag(self, capsys, tmp_path, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"depth": value}))
        code, out, _ = run_cli(
            ["--config", str(cfg), "theory-trace", "--act", "relu",
             "--sw", "1", "--sb", "0", "--depth", "9"], capsys)
        flag = run_cli(["theory-trace", "--act", "relu", "--sw", "1", "--sb", "0",
                        "--depth", "7"], capsys)
        assert (code, out) == flag[:2]

    @pytest.mark.parametrize("entry, argv", [
        ({"depth": "seven"}, ["theory-trace", "--act", "relu", "--sw", "1", "--sb", "0",
                              "--depth", "9"]),
        ({"depth": 7.9}, ["theory-trace", "--act", "relu", "--sw", "1", "--sb", "0",
                          "--depth", "9"]),
        ({"point": "no"}, ["critical", "--act", "relu", "--line"]),
        ({"mode": "pre_ln"}, ["theory-trace", "--act", "relu", "--sw", "1", "--sb", "0",
                              "--depth", "9"]),
    ], ids=["depth-seven", "depth-7.9", "point-no", "mode-pre_ln"])
    def test_bad_value_is_usage_error(self, capsys, tmp_path, entry, argv):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(entry))
        out = tmp_path / "out.csv"
        code, _, err = run_cli(["--config", str(cfg), *argv, "-o", str(out)], capsys)
        assert code == 2
        assert not out.exists()
        key, = entry
        assert repr(key) in err

    @pytest.mark.parametrize("entry", [{"mode": "foo"}, {"act": "tanh"},
                                       {"act": "scale-invariant:1"}, {"act": 1}])
    def test_bad_vocabulary_names_the_key(self, capsys, tmp_path, entry):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(entry))
        code, out, err = run_cli(
            ["--config", str(cfg), "theory-trace", "--act", "relu",
             "--sw", "1", "--sb", "0", "--depth", "9"], capsys)
        key, = entry
        assert code == 2
        assert out == ""
        assert f"for key {key!r}" in err
