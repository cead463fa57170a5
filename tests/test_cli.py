"""CLI behavior: config resolution, output documents, exit codes,
byte-for-byte reproducibility from the embedded config echo."""

import csv
import dataclasses
import hashlib
import inspect
import io
import json
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate

import dressedcool
from dressedcool import cli, lindblad, sweep
from dressedcool.cli import (
    EXIT_INVALID_INPUT,
    EXIT_OK,
    EXIT_ORACLE,
    EXIT_PHYSICS,
    main,
)
from dressedcool.config import (
    PARAM_KEY_NAMES,
    ConfigError,
    parse_config_text,
    resolve_config,
    schema_for,
)
from dressedcool.lindblad import converged_steady_state
from dressedcool.sweep import SweepSpec, list_presets, preset_sweeps

# a cold, well-converged operating point used throughout
BASE_FLAGS = [
    "--omega", "5", "--delta", "0", "--nu", "10", "--eta", "0.02",
    "--gamma-plus", "1", "--gamma-minus", "0.2", "--gamma-zero", "0.2",
]

BASE_CFG_TEXT = """\
# base operating point
omega = 5
delta = 0
nu = 10
eta = 0.02
gamma_plus = 1
gamma_minus = 0.2   # trailing comment
gamma_zero = 0.2
"""

# (eta*omega)**2 * gamma_perp * (r11 - r22), the divisor of n_s, underflows
UNDERFLOW = {"omega": "1e-160", "delta": "12", "nu": "1.1e154", "eta": "5",
             "gamma_plus": "1e-160", "gamma_minus": "12", "gamma_zero": "5"}


def base_flags(**changes):
    """BASE_FLAGS with the named values replaced."""
    args = list(BASE_FLAGS)
    for name, value in changes.items():
        args[args.index("--" + name.replace("_", "-")) + 1] = value
    return args


def no_oracle(*args, **kwargs):
    raise AssertionError("the oracle must not run")


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def echo_to_config_lines(echo: dict) -> str:
    lines = []
    for name, value in echo.items():
        if name == "subcommand" or value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{name} = {value}")
    return "\n".join(lines) + "\n"


class TestConfigParsing:
    def test_comments_blanks_and_spacing(self):
        got = parse_config_text(BASE_CFG_TEXT)
        assert got["omega"] == "5"
        assert got["gamma_minus"] == "0.2"
        assert len(got) == 7

    def test_hash_inside_value_is_kept(self):
        # '#' starts a comment only at the start of a line or after
        # whitespace
        got = parse_config_text("output = runs#1.json\n"
                                "format = csv\t# tab-separated comment\n"
                                "#omega = 5\n"
                                "   # indented comment\n")
        assert got == {"output": "runs#1.json", "format": "csv"}

    def test_duplicate_key_rejected_with_line_number(self):
        with pytest.raises(ConfigError, match=r"line 3: duplicate key 'a'"):
            parse_config_text("a = 1\nb = 2\na = 3\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="expected key = value"):
            parse_config_text("omega 5\n")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_config_text("= 5\n")

    def test_unknown_key_lists_known_ones(self):
        with pytest.raises(ConfigError, match="unknown config key.*bogus"):
            resolve_config("steady", {"bogus": "1"}, {})
        with pytest.raises(ConfigError, match="known keys: omega"):
            resolve_config("steady", {"bogus": "1"}, {})

    def test_bad_number_bool_choice(self):
        base = parse_config_text(BASE_CFG_TEXT)
        with pytest.raises(ConfigError, match="omega: not a number"):
            resolve_config("steady", {**base, "omega": "five"}, {})
        with pytest.raises(ConfigError, match="expected true or false"):
            resolve_config("trajectory", {**base, "t_end": "1", "n0": "0",
                                          "ode": "yes"}, {})
        with pytest.raises(ConfigError, match="format: expected one of"):
            resolve_config("steady", {**base, "format": "xml"}, {})

    def test_missing_required_names_key_and_flag(self):
        with pytest.raises(ConfigError, match="'eta'.*--eta"):
            resolve_config("steady", {
                "omega": "5", "delta": "0", "nu": "10", "gamma_plus": "1",
                "gamma_minus": "0.2", "gamma_zero": "0.2"}, {})

    def test_flags_override_file(self):
        cfg = resolve_config("steady", parse_config_text(BASE_CFG_TEXT),
                             {"eta": 0.05})
        assert cfg["eta"] == 0.05
        assert cfg["omega"] == 5.0
        assert "eta" in cfg.provided
        assert "margin" not in cfg.provided
        assert cfg["margin"] == 10.0

    def test_schema_for_unknown_subcommand(self):
        with pytest.raises(ConfigError, match="unknown subcommand"):
            schema_for("paint")


class TestFockBudgetDefaults:
    def test_config_defaults_are_the_library_defaults(self):
        def config_default(subcommand, name):
            return next(key.default for key in schema_for(subcommand)
                        if key.name == name)

        # each default is the lindblad constant itself, not a copy that
        # happens to agree with the others
        oracle = inspect.signature(converged_steady_state).parameters
        spec = {f.name: f.default for f in dataclasses.fields(SweepSpec)}
        preset = inspect.signature(preset_sweeps).parameters["oracle_n_max"]
        starts = {
            "validate.n_max": config_default("validate", "n_max"),
            "sweep.oracle_n_max": config_default("sweep", "oracle_n_max"),
            "SweepSpec.oracle_n_max": spec["oracle_n_max"],
            "preset_sweeps(oracle_n_max)": preset.default,
            "converged_steady_state(n_max_start)":
                oracle["n_max_start"].default,
        }
        budgets = {
            "validate.dim_cap": config_default("validate", "dim_cap"),
            "converged_steady_state(dim_cap)": oracle["dim_cap"].default,
        }
        assert starts == dict.fromkeys(starts, lindblad.N_MAX_START)
        assert budgets == dict.fromkeys(budgets, lindblad.DIM_BUDGET)
        dim_cap_help = next(key.help for key in schema_for("validate")
                            if key.name == "dim_cap")
        assert dim_cap_help.endswith(
            f"({lindblad.total_dim(lindblad.N_MAX_FLOOR)}-"
            f"{lindblad.DEFAULT_DIM_CAP})")


class TestExitCodes:
    def test_each_error_family_carries_its_code(self):
        invalid = (dressedcool.ConfigError, dressedcool.InvalidParamsError,
                   dressedcool.InvalidGridError,
                   dressedcool.UnknownPresetError)
        for name in dressedcool.__all__:
            cls = getattr(dressedcool, name)
            if not (isinstance(cls, type)
                    and issubclass(cls, dressedcool.DressedCoolError)):
                continue
            if issubclass(cls, invalid):
                assert cls.exit_code == EXIT_INVALID_INPUT, name
            elif issubclass(cls, dressedcool.OracleError):
                assert cls.exit_code == EXIT_ORACLE, name
            else:
                assert cls.exit_code == EXIT_PHYSICS, name

    def test_invalid_param_is_1_and_names_field(self, capsys):
        code, _, err = run_cli(
            ["steady", "--omega", "-1"] + BASE_FLAGS[2:], capsys)
        assert code == EXIT_INVALID_INPUT
        assert "omega" in err

    def test_heating_steady_is_0_with_sentinel(self, capsys):
        args = ["steady", "--omega", "5", "--delta", "0", "--nu", "10",
                "--eta", "0.1", "--gamma-plus", "1", "--gamma-minus", "1",
                "--gamma-zero", "0.2"]
        code, out, _ = run_cli(args, capsys)
        assert code == EXIT_OK
        assert json.loads(out)["result"]["n_s"] == "HEATING"

    def test_zero_coupling_validate_is_2(self, capsys):
        args = ["validate"] + BASE_FLAGS[:]
        args[args.index("--eta") + 1] = "0"
        code, _, err = run_cli(args, capsys)
        assert code == EXIT_PHYSICS
        assert "phonon decoupled" in err

    def test_heating_validate_is_2(self, capsys):
        args = ["validate", "--omega", "5", "--delta", "0", "--nu", "10",
                "--eta", "0.1", "--gamma-plus", "1", "--gamma-minus", "1",
                "--gamma-zero", "0.2"]
        code, _, err = run_cli(args, capsys)
        assert code == EXIT_PHYSICS
        assert "heating point" in err

    def test_zero_phonon_validate_is_2_before_oracle(self, capsys,
                                                     monkeypatch):
        # no heating channel: the closed-form n_s is exactly 0, so the
        # relative error against it is undefined
        monkeypatch.setattr(cli, "converged_steady_state", no_oracle)
        args = ["validate", "--omega", "5", "--delta", "0", "--nu", "10",
                "--eta", "0.02", "--gamma-plus", "1", "--gamma-minus", "0",
                "--gamma-zero", "0"]
        code, out, err = run_cli(args, capsys)
        assert code == EXIT_PHYSICS
        assert out == ""
        assert err.startswith("error: ") and "phonon number is 0" in err

    def test_oracle_failure_validate_is_3(self, capsys):
        code, _, err = run_cli(
            ["validate"] + BASE_FLAGS + ["--n-max", "8", "--dim-cap", "8"],
            capsys)
        assert code == EXIT_ORACLE
        assert "oracle error" in err

    def test_trajectory_ode_failure_is_3(self, capsys, monkeypatch):
        # the reduced phonon ODE's integrator reports failure
        monkeypatch.setattr(
            scipy.integrate, "solve_ivp", lambda *args, **kwargs:
            SimpleNamespace(success=False, message="step size too small"))
        code, out, err = run_cli(
            ["trajectory", *BASE_FLAGS, "--t-end", "1", "--n0", "1",
             "--ode", "true"], capsys)
        assert code == EXIT_ORACLE
        assert out == ""
        assert err == ("oracle error: reduced-model integration failed: "
                       "step size too small\n")

    @pytest.mark.parametrize("changes, flags, code, line", [
        # n0 near the double limit: DOP853's stages overflow to nan
        ({}, ["--t-end", "5", "--n0", "1e308"], EXIT_INVALID_INPUT,
         "error: inputs too large to evaluate: n_ode evaluates to nan"),
        # C = -0.0070: e^{|C| t} overflows long before t_end, refused
        # before any step as the closed form writes n = +inf there
        ({"gamma_minus": "2"}, ["--t-end", "1e6", "--n0", "1"],
         EXIT_INVALID_INPUT, "error: inputs too large to evaluate: n_ode "
         "grows by 7.02e+03 e-folds, beyond double range (709.78)"),
        # the same C over 702 e-folds, from n0 = 1e10: 702 + ln(1e10)
        # passes 709.78, refused before DOP853's step size collapses
        ({"gamma_minus": "2"}, ["--t-end", "1e5", "--n0", "1e10"],
         EXIT_INVALID_INPUT, "error: inputs too large to evaluate: n_ode "
         "grows by 702 e-folds, beyond double range (709.78) from "
         "n0 + A_plus/|C| = 1e+10\n"),
        # half an e-fold inside that bound n is finite, but DOP853's stages
        # step past DBL_MAX: the same overflow, not an n of nan
        ({"gamma_minus": "2"}, ["--t-end", "97791.6028297619", "--n0", "1e10"],
         EXIT_INVALID_INPUT, "error: inputs too large to evaluate: n_ode "
         "grows by 686 e-folds, beyond double range (709.78) from "
         "n0 + A_plus/|C| = 1e+10\n"),
    ], ids=["n0-near-limit", "growing-overflow", "growing-from-large-n0",
            "growing-near-the-bound"])
    def test_trajectory_ode_overflow_writes_one_line(self, changes, flags,
                                                     code, line):
        # a fresh interpreter, so that scipy's RuntimeWarnings would show
        # on stderr as they do for a user
        args = [*base_flags(**changes), *flags, "--samples", "3",
                "--ode", "true"]
        proc = subprocess.run(
            [sys.executable, "-m", "dressedcool.cli", "trajectory", *args],
            capture_output=True, text=True)
        assert proc.returncode == code
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(line)

    @pytest.mark.parametrize("count", [2 ** 62, 2 ** 63])
    @pytest.mark.parametrize("argv", [
        ["sweep", *BASE_FLAGS, "--out-dir", "{tmp}", "--variable", "delta",
         "--grid-min", "0", "--grid-max", "1", "--grid-count"],
        ["trajectory", *BASE_FLAGS, "--t-end", "1", "--n0", "1",
         "--samples"],
    ], ids=["sweep", "trajectory"])
    def test_grid_count_beyond_memory_is_1(self, argv, count, capsys,
                                           tmp_path):
        # refused before any point is made; never test a count the
        # machine could try to allocate
        code, out, err = run_cli(
            [a.replace("{tmp}", str(tmp_path)) for a in argv] + [str(count)],
            capsys)
        assert (code, out) == (EXIT_INVALID_INPUT, "")
        assert err == (f"error: cannot make a grid of {count} points: "
                       "too many to allocate\n")

    def test_overflowing_grid_range_writes_one_line(self, capsys, tmp_path):
        # hi - lo overflows, so the grid holds a nan and an inf: one error
        # line and no floating-point warning, which fails this suite
        code, out, err = run_cli(
            ["sweep", *BASE_FLAGS, "--variable", "delta", "--grid-min",
             "-1e308", "--grid-max", "1e308", "--grid-count", "3",
             "--out-dir", str(tmp_path)], capsys)
        assert (code, out) == (EXIT_INVALID_INPUT, "")
        assert err == "error: sweep grid contains non-finite values\n"

    def test_trajectory_ode_beyond_its_work_bound_is_1(self, capsys,
                                                       monkeypatch):
        # C = 0.0267 over t_end 1e10: 2.67e8 e-folds, refused unstepped
        monkeypatch.setattr(scipy.integrate, "solve_ivp", lambda *a, **k:
                            pytest.fail("the ODE must not be integrated"))
        code, out, err = run_cli(
            ["trajectory", *BASE_FLAGS, "--t-end", "1e10", "--n0", "1",
             "--ode", "true"], capsys)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err == ("error: |C|*t_end = 2.67e+08 e-folds exceeds the "
                       "reduced ODE's bound of 1e+05\n")

    def test_ill_conditioned_validate_names_its_certificate(self, capsys):
        # nu near 0 nearly conserves the phonon number (dimension 26)
        code, out, err = run_cli(["validate"] + base_flags(nu="1e-8"), capsys)
        assert code == EXIT_ORACLE
        assert out == ""
        assert err.startswith("oracle error: constrained solve "
                              "ill-conditioned (rcond = ")
        assert err.endswith("); kernel is not one-dimensional within "
                            "tolerance\n")

    def test_unknown_preset_is_1(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["sweep", "--preset", "fig9", "--out-dir", str(tmp_path)],
            capsys)
        assert code == EXIT_INVALID_INPUT
        assert "fig1e" in err and "fig3" in err

    @pytest.mark.parametrize("subcommand, key, raw", [
        ("steady", "eta", "abc"),
        ("trajectory", "ode", "yes"),
        ("steady", "format", "xml"),
    ])
    def test_bad_flag_value_reported_like_file_value(self, subcommand, key,
                                                     raw, capsys, tmp_path):
        flag = "--" + key
        pairs = zip(BASE_FLAGS[::2], BASE_FLAGS[1::2])
        args = [subcommand] + [a for pair in pairs if pair[0] != flag
                               for a in pair]
        if subcommand == "trajectory":
            args += ["--t-end", "1", "--n0", "1"]
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"{key} = {raw}\n", encoding="utf-8")
        from_flag = run_cli(args + [flag, raw], capsys)
        from_file = run_cli(args + ["--config", str(cfg_file)], capsys)
        assert from_flag == from_file
        code, out, err = from_flag
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err.startswith(f"error: {key}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("subcommand", ["steady", "validate"])
    @pytest.mark.parametrize("margin", ["0", "-1", "nan"])
    def test_bad_margin_is_1(self, subcommand, margin, capsys, monkeypatch):
        monkeypatch.setattr(cli, "converged_steady_state", no_oracle)
        code, out, err = run_cli(
            [subcommand] + BASE_FLAGS + ["--margin", margin], capsys)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        reason = ("must be finite" if margin == "nan" else "must be > 0")
        assert err == f"error: margin: {reason}, got {float(margin)}\n"

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-0.1"])
    def test_bad_threshold_is_1(self, threshold, capsys, monkeypatch):
        monkeypatch.setattr(cli, "converged_steady_state", no_oracle)
        code, out, err = run_cli(
            ["validate"] + BASE_FLAGS + ["--threshold", threshold], capsys)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        reason = ("must be >= 0" if threshold == "-0.1" else "must be finite")
        assert err == f"error: threshold: {reason}, got {float(threshold)}\n"

    @pytest.mark.parametrize("key, value", [
        ("n0", "nan"), ("rz0", "inf"), ("re_rplus0", "-inf"),
        ("im_rplus0", "nan"),
    ])
    def test_non_finite_initial_state_is_1(self, key, value, capsys):
        initial = {"n0": "1", key: value}
        code, out, err = run_cli(
            ["trajectory"] + BASE_FLAGS + ["--t-end", "1"]
            + [f"--{k.replace('_', '-')}={v}" for k, v in initial.items()],
            capsys)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err == f"error: {key}: must be finite, got {float(value)}\n"

    def test_negative_n0_is_1(self, capsys):
        code, out, err = run_cli(
            ["trajectory"] + BASE_FLAGS + ["--t-end", "1e3", "--n0", "-1000"],
            capsys)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err == "error: n0: must be >= 0, got -1000.0\n"

    def test_dim_cap_above_largest_is_1(self, capsys, monkeypatch):
        # n_max 66 fits a cap of 140 (dimension 134) but not the largest
        # allowed dimension, DEFAULT_DIM_CAP = 128; nothing is built
        monkeypatch.setattr(lindblad, "build_liouvillian", no_oracle)
        code, out, err = run_cli(
            ["validate"] + BASE_FLAGS + ["--n-max", "66", "--dim-cap", "140"],
            capsys)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err == ("error: dim_cap: must be <= 128 (the largest allowed "
                       "dimension), got 140\n")

    def test_n_max_below_2_is_1(self, capsys):
        code, out, err = run_cli(
            ["validate"] + BASE_FLAGS + ["--n-max", "1"], capsys)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err == "error: n_max: must be an integer >= 2, got 1\n"

    def test_oracle_n_max_below_2_is_1(self, capsys, tmp_path):
        code, out, err = run_cli(
            ["sweep", "--preset", "fig2", "--oracle", "true",
             "--oracle-n-max", "1", "--out-dir", str(tmp_path)], capsys)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err == "error: oracle_n_max: must be an integer >= 2, got 1\n"

    def test_closed_form_oracle_n_max_below_2_is_1(self, capsys, tmp_path):
        # the cut is echoed by every sweep document, so it is checked
        # without --oracle too, before any file or --out-dir is made
        code, out, err = run_cli(
            ["sweep", "--preset", "fig2", "--oracle-n-max", "-5",
             "--out-dir", str(tmp_path / "d")], capsys)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err == "error: oracle_n_max: must be an integer >= 2, got -5\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_1_is_1(self, workers, capsys, tmp_path):
        code, out, err = run_cli(
            ["sweep"] + BASE_FLAGS
            + ["--variable", "nu", "--grid-min", "8", "--grid-max", "12",
               "--grid-count", "3", "--workers", workers,
               "--out-dir", str(tmp_path)], capsys)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err == \
            f"error: workers: must be an integer >= 1, got {workers}\n"
        assert list(tmp_path.iterdir()) == []

    def test_rejected_sweep_makes_no_out_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "w0dir" / "curves"
        code, out, err = run_cli(
            ["sweep"] + BASE_FLAGS
            + ["--variable", "nu", "--grid-min", "8", "--grid-max", "12",
               "--grid-count", "3", "--workers", "0",
               "--out-dir", str(out_dir)], capsys)
        assert code == EXIT_INVALID_INPUT
        assert err == "error: workers: must be an integer >= 1, got 0\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("subcommand, extra", [
        ("steady", []),
        ("trajectory", ["--t-end", "1", "--n0", "1"]),
        ("validate", []),
    ])
    def test_overflowing_point_is_1(self, subcommand, extra, capsys):
        # finite inputs whose squares exceed the double range
        code, out, err = run_cli(
            [subcommand] + base_flags(omega="1e308", delta="1e308") + extra,
            capsys)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err.startswith("error: inputs too large to evaluate: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("changes, message", [
        ({"eta": "1e200"}, "eta**2 overflows at eta = 1e+200"),
        ({"omega": "1e308", "delta": "1e308"},
         "(eta*omega)**2 overflows at eta*omega = 2e+306"),
        ({"nu": "1e200"},
         "(2*omega_bar - nu)**2 overflows at 2*omega_bar - nu = -1e+200"),
        ({"gamma_zero": "1e200"},
         "gamma_perp**2 overflows at gamma_perp = 1e+200"),
    ], ids=["eta", "eta-omega", "mismatch", "gamma-perp"])
    @pytest.mark.parametrize("subcommand", ["steady", "validate"])
    def test_overflow_names_quantity_and_value(self, subcommand, changes,
                                               message, capsys):
        code, out, err = run_cli([subcommand] + base_flags(**changes), capsys)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err == f"error: inputs too large to evaluate: {message}\n"

    @pytest.mark.parametrize("changes, message", [
        # the sum of two finite squares overflows
        ({"nu": "1.1e154", "gamma_zero": "1e154", "delta": "0"},
         "n_s evaluates to inf"),
        ({"omega": "1.7e308", "delta": "-0.02", "nu": "0.02", "eta": "1e8",
          "gamma_plus": "5", "gamma_minus": "0.02", "gamma_zero": "1e-160"},
         "a_minus evaluates to (nan+nanj)"),
        # a product underflows to a zero divisor
        (UNDERFLOW, "n_s divides by (eta*omega)**2 * gamma_perp * "
         "(r11 - r22), which underflows to 0 at (eta*omega)**2 = 2.5e-319"),
        # the square of a non-zero coupling underflows: not a decoupled
        # phonon
        ({"eta": "1e-170"},
         "(eta*omega)**2 underflows to 0 at eta*omega = 5e-170"),
    ], ids=["inf", "nan", "zero-divisor", "zero-square"])
    @pytest.mark.parametrize("subcommand, extra", [
        ("steady", []), ("trajectory", ["--t-end", "1", "--n0", "1"])])
    def test_result_beyond_double_range_is_1(self, subcommand, extra,
                                             changes, message, capsys):
        code, out, err = run_cli(
            [subcommand] + base_flags(**changes) + extra, capsys)
        assert code == EXIT_INVALID_INPUT
        assert out == ""
        assert err == f"error: inputs too large to evaluate: {message}\n"

    def test_negative_value_in_exponent_notation(self, capsys):
        # argparse alone reads -2e1 as an option
        code, out, err = run_cli(["steady"] + base_flags(delta="-2e1"), capsys)
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["config"]["delta"] == -20.0
        code, joined, _ = run_cli(
            ["steady"] + [a for a in BASE_FLAGS if a not in ("--delta", "0")]
            + ["--delta=-2e1"], capsys)
        assert (code, joined) == (EXIT_OK, out)
        code, out, err = run_cli(["steady", "--bogus", "-2e1"], capsys)
        assert code == EXIT_INVALID_INPUT
        assert err.startswith("usage: ")

    def test_dash_value_that_is_no_number_stays_apart(self, capsys):
        # '-' and '--omega' start with '-' but do not parse as floats, so
        # neither is joined to the flag before it
        code, out, err = run_cli(["steady"] + BASE_FLAGS, capsys)
        assert (code, err) == (EXIT_OK, "")
        assert run_cli(["steady"] + BASE_FLAGS + ["--output", "-"],
                       capsys) == (EXIT_OK, out, "")
        code, out, err = run_cli(
            ["steady", "--delta", "--omega", "5"] + BASE_FLAGS[4:], capsys)
        assert (code, out) == (EXIT_INVALID_INPUT, "")
        assert err.startswith("usage: ")
        assert "argument --delta: expected one argument" in err

    def test_unknown_flag_is_1(self, capsys):
        code, _, _ = run_cli(["steady", "--bogus", "1"], capsys)
        assert code == EXIT_INVALID_INPUT

    def test_missing_required_flag_is_1(self, capsys):
        code, _, err = run_cli(["steady", "--omega", "5"], capsys)
        assert code == EXIT_INVALID_INPUT
        assert "delta" in err

    def test_help_is_0(self, capsys):
        code, out, _ = run_cli(["steady", "--help"], capsys)
        assert code == EXIT_OK
        assert "--gamma-plus" in out

    def test_nonpositive_t_end_is_1(self, capsys):
        code, _, err = run_cli(
            ["trajectory"] + BASE_FLAGS + ["--t-end", "0", "--n0", "1"],
            capsys)
        assert code == EXIT_INVALID_INPUT
        assert "t_end" in err

    def test_too_few_samples_is_1(self, capsys):
        code, _, err = run_cli(
            ["trajectory"] + BASE_FLAGS
            + ["--t-end", "1", "--samples", "1", "--n0", "1"], capsys)
        assert code == EXIT_INVALID_INPUT
        assert "samples" in err

    @pytest.mark.parametrize("argv, key, low", [
        (["trajectory", *BASE_FLAGS, "--t-end", "1", "--n0", "1"],
         "samples", 2),
        (["sweep", *BASE_FLAGS, "--variable", "nu", "--grid-min", "8",
          "--grid-max", "12", "--grid-count", "3", "--out-dir", "{tmp}"],
         "grid_count", 1),
        (["sweep", "--preset", "fig2", "--out-dir", "{tmp}"],
         "oracle_n_max", 2),
        (["sweep", "--preset", "fig2", "--out-dir", "{tmp}"], "workers", 1),
        (["validate", *BASE_FLAGS], "n_max", 2),
        (["validate", *BASE_FLAGS], "dim_cap", 6),
    ], ids=["samples", "grid_count", "oracle_n_max", "workers", "n_max",
            "dim_cap"])
    @pytest.mark.parametrize("raw", ["2.5", "x"])
    def test_int_key_refused_by_one_rule(self, argv, key, low, raw, capsys,
                                         tmp_path, monkeypatch):
        # text that is no integer gets the same rule's text as an integer
        # below the key's floor, and no oracle runs for either
        monkeypatch.setattr(lindblad, "build_liouvillian", no_oracle)
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        flag = "--" + key.replace("_", "-")
        rule = f"error: {key}: must be an integer >= {low}, got "
        for value in (raw, str(low - 1)):
            code, out, err = run_cli(argv + [flag, value], capsys)
            assert (code, out, err) == (EXIT_INVALID_INPUT, "",
                                        rule + value + "\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, flag, count, whole", [
        (["trajectory", *BASE_FLAGS, "--t-end", "1", "--n0", "1"],
         "--samples", "3", "3.0"),
        (["validate", *BASE_FLAGS], "--n-max", "12", "12.0"),
        (["sweep", *BASE_FLAGS, "--variable", "nu", "--grid-min", "8",
          "--grid-max", "12", "--out-dir", "{tmp}"], "--grid-count", "3",
         "3e0"),
    ], ids=["samples", "n_max", "grid_count"])
    def test_whole_float_count_is_its_int(self, argv, flag, count, whole,
                                          capsys, tmp_path):
        # a count written as a whole float is that int on the command
        # line, as checked_int passes it in the library: the same bytes
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        written = []
        for value in (count, whole):
            code, out, err = run_cli(argv + [flag, value], capsys)
            assert (code, err) == (EXIT_OK, "")
            written.append([out] + [f.read_bytes()
                                    for f in sorted(tmp_path.iterdir())])
        assert written[0] == written[1]


class TestSteadyCommand:
    def test_json_document(self, capsys):
        code, out, _ = run_cli(["steady"] + BASE_FLAGS, capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["config"]["subcommand"] == "steady"
        assert doc["config"]["eta"] == 0.02
        res = doc["result"]
        assert res["rz_s"] == -0.6666666666666667
        assert res["sz_s"] == 0.0
        assert res["n_s"] == 0.25159999999999993
        assert res["validity"]["overall"] is True
        assert res["rates"]["a_minus"] == {"im": 0.0,
                                           "re": 0.016688000000000005}

    def test_csv_format_has_config_comment_and_pairs(self, capsys):
        code, out, _ = run_cli(
            ["steady"] + BASE_FLAGS + ["--format", "csv"], capsys)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[1].startswith("# config = {")
        assert "key,value" in lines
        assert any(line == "n_s,0.25159999999999993" for line in lines)

    def test_output_file_and_rerun_identical(self, capsys, tmp_path):
        target = tmp_path / "steady.json"
        args = ["steady"] + BASE_FLAGS + ["--output", str(target)]
        assert main(args) == EXIT_OK
        first = target.read_bytes()
        assert main(args) == EXIT_OK
        assert target.read_bytes() == first
        capsys.readouterr()

    def test_reference_rate_echoed_never_applied(self, capsys):
        _, out_a, _ = run_cli(["steady"] + BASE_FLAGS, capsys)
        _, out_b, _ = run_cli(
            ["steady"] + BASE_FLAGS + ["--reference-rate", "gamma"], capsys)
        doc_a, doc_b = json.loads(out_a), json.loads(out_b)
        assert doc_a["config"]["reference_rate"] == "gamma_plus"
        assert doc_b["config"]["reference_rate"] == "gamma"
        assert doc_a["result"] == doc_b["result"]

    def test_rerun_from_embedded_echo_is_byte_identical(self, capsys,
                                                        tmp_path):
        code, out, _ = run_cli(["steady"] + BASE_FLAGS, capsys)
        assert code == EXIT_OK
        echo = json.loads(out)["config"]
        cfg_file = tmp_path / "echo.cfg"
        cfg_file.write_text(echo_to_config_lines(echo), encoding="utf-8")
        code2, out2, _ = run_cli(["steady", "--config", str(cfg_file)],
                                 capsys)
        assert code2 == EXIT_OK
        assert out2 == out


class TestTrajectoryCommand:
    def test_csv_columns_and_initial_row(self, capsys):
        code, out, _ = run_cli(
            ["trajectory"] + BASE_FLAGS
            + ["--t-end", "2", "--samples", "5", "--n0", "3",
               "--rz0", "-0.25"], capsys)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("# config = {")
        assert lines[1] == "t,rz,re_rplus,im_rplus,n"
        first = lines[2].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == -0.25
        assert float(first[4]) == 3.0

    def test_ode_column_matches_closed_form(self, capsys):
        code, out, _ = run_cli(
            ["trajectory"] + BASE_FLAGS
            + ["--t-end", "40", "--samples", "9", "--n0", "3",
               "--ode", "true"], capsys)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[1] == "t,rz,re_rplus,im_rplus,n,n_ode"
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in lines[2:]])
        n, n_ode = rows[:, 4], rows[:, 5]
        assert np.max(np.abs(n - n_ode) / np.abs(n)) < 1e-8

    def test_json_document_summary(self, capsys):
        code, out, _ = run_cli(
            ["trajectory"] + BASE_FLAGS
            + ["--t-end", "1", "--samples", "3", "--n0", "0",
               "--format", "json"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["columns"] == ["t", "rz", "re_rplus", "im_rplus", "n"]
        assert len(doc["rows"]) == 3
        assert doc["summary"]["n_steady"] == 0.25159999999999993
        assert doc["summary"]["phonon_growing"] is False

    def test_heating_summary_uses_sentinel(self, capsys):
        code, out, _ = run_cli(
            ["trajectory", "--omega", "5", "--delta", "0", "--nu", "10",
             "--eta", "0.1", "--gamma-plus", "1", "--gamma-minus", "1",
             "--gamma-zero", "0.2", "--t-end", "1", "--samples", "3",
             "--n0", "0", "--format", "json"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["summary"]["n_steady"] == "HEATING"
        assert doc["summary"]["phonon_growing"] is True

    def test_rerun_from_embedded_echo_is_byte_identical(self, capsys,
                                                        tmp_path):
        args = ["trajectory"] + BASE_FLAGS + [
            "--t-end", "2", "--samples", "5", "--n0", "3", "--ode", "true"]
        code, out, _ = run_cli(args, capsys)
        assert code == EXIT_OK
        echo = json.loads(out.splitlines()[0].removeprefix("# config = "))
        cfg_file = tmp_path / "echo.cfg"
        cfg_file.write_text(echo_to_config_lines(echo), encoding="utf-8")
        code2, out2, _ = run_cli(["trajectory", "--config", str(cfg_file)],
                                 capsys)
        assert code2 == EXIT_OK
        assert out2 == out


class TestSweepCommand:
    def test_custom_sweep_files_and_exit(self, capsys, tmp_path):
        code, out, err = run_cli(
            ["sweep"] + BASE_FLAGS
            + ["--variable", "nu", "--grid-min", "8", "--grid-max", "12",
               "--grid-count", "3", "--out-dir", str(tmp_path)], capsys)
        assert code == EXIT_OK
        assert err == ""
        path = tmp_path / "nu.csv"
        assert f"wrote {path}" in out
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0].startswith("# config = {")
        assert lines[1].startswith("# spec = {")
        assert lines[2] == ("x,n_s,rz_s,sz_s,two_sz_s,c,a_plus_rate,"
                            "valid,error")
        assert len(lines) == 6

    def test_custom_sweep_missing_pieces(self, capsys, tmp_path):
        out_dir = ["--out-dir", str(tmp_path)]
        code, _, err = run_cli(
            ["sweep"] + BASE_FLAGS + out_dir, capsys)
        assert code == EXIT_INVALID_INPUT and "variable" in err
        code, _, err = run_cli(
            ["sweep", "--variable", "nu", "--grid-min", "1",
             "--grid-max", "2", "--grid-count", "2"] + out_dir, capsys)
        assert code == EXIT_INVALID_INPUT and "omega" in err
        code, _, err = run_cli(
            ["sweep"] + BASE_FLAGS + ["--variable", "nu"] + out_dir, capsys)
        assert code == EXIT_INVALID_INPUT and "grid_min" in err

    def test_custom_sweep_names_every_missing_key_once(self, capsys,
                                                       tmp_path):
        code, _, err = run_cli(
            ["sweep", "--omega", "5", "--variable", "nu", "--grid-min", "1",
             "--out-dir", str(tmp_path)], capsys)
        assert code == EXIT_INVALID_INPUT
        assert err == ("error: custom sweeps need: grid_max, grid_count, "
                       "delta, nu, eta, gamma_plus, gamma_minus, "
                       "gamma_zero\n")

    def test_row_errors_give_exit_2_but_files_written(self, capsys,
                                                      tmp_path):
        code, _, err = run_cli(
            ["sweep"] + BASE_FLAGS
            + ["--variable", "eta", "--grid-min", "-0.1",
               "--grid-max", "0.1", "--grid-count", "3",
               "--out-dir", str(tmp_path)], capsys)
        assert code == EXIT_PHYSICS
        assert "error marker" in err
        text = (tmp_path / "eta.csv").read_text(encoding="utf-8")
        assert "InvalidParamsError: eta" in text
        assert "ZeroCouplingError" in text

    @pytest.mark.parametrize("variable", ["eta", "nu"])
    def test_overflowing_rows_marked_scan_continues(self, variable, capsys,
                                                    tmp_path):
        # eta**2 overflows in the rate ingredients; a huge nu only in the
        # steady phonon number, so that row keeps its rates
        code, _, err = run_cli(
            ["sweep"] + BASE_FLAGS
            + ["--variable", variable, "--grid-min", "0.01",
               "--grid-max", "1e200", "--grid-count", "3",
               "--out-dir", str(tmp_path)], capsys)
        assert code == EXIT_PHYSICS
        assert err.startswith("error: 2 row error marker(s); first: "
                              "OverflowError")
        text = (tmp_path / f"{variable}.csv").read_text(encoding="utf-8")
        header, *rows = csv.reader(io.StringIO(text.split("\n", 2)[2]))
        cells = [dict(zip(header, row)) for row in rows]
        assert cells[0]["error"] == "" and float(cells[0]["c"]) > 0
        quantity = {"eta": "eta**2", "nu": "(2*omega_bar - nu)**2"}[variable]
        for row in cells[1:]:
            assert row["error"].startswith(
                f"OverflowError: {quantity} overflows at ")
            assert row["n_s"] == ""
            assert (row["c"] != "") == (variable == "nu")

    def test_zero_divisor_rows_marked_scan_continues(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["sweep"] + base_flags(**UNDERFLOW)
            + ["--variable", "delta", "--grid-min", "12", "--grid-max", "13",
               "--grid-count", "2", "--out-dir", str(tmp_path)], capsys)
        assert code == EXIT_PHYSICS
        assert err.startswith("error: 2 row error marker(s); first: "
                              "OverflowError: n_s divides by ")
        text = (tmp_path / "delta.csv").read_text(encoding="utf-8")
        header, *rows = csv.reader(io.StringIO(text.split("\n", 2)[2]))
        for row in (dict(zip(header, row)) for row in rows):
            assert row["n_s"] == "" and row["rz_s"] == "-1.0"
            assert row["error"].startswith("OverflowError: n_s divides by ")

    def test_dark_sidebands_marked_per_row(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["sweep"] + base_flags(gamma_plus="0", gamma_minus="0",
                                   gamma_zero="1")
            + ["--variable", "nu", "--grid-min", "8", "--grid-max", "12",
               "--grid-count", "3", "--out-dir", str(tmp_path)], capsys)
        assert code == EXIT_PHYSICS
        assert err.startswith("error: 3 row error marker(s)")
        text = (tmp_path / "nu.csv").read_text(encoding="utf-8")
        assert text.count("DegenerateRatesError: ") == 3

    def test_oracle_failure_gives_exit_3(self, capsys, tmp_path):
        # dimension 62 fits the budget of 64, the next cut (34) does not
        code, _, err = run_cli(
            ["sweep"] + BASE_FLAGS
            + ["--variable", "nu", "--grid-min", "10", "--grid-max", "10",
               "--grid-count", "1", "--oracle", "true",
               "--oracle-n-max", "30", "--out-dir", str(tmp_path)], capsys)
        assert code == EXIT_ORACLE
        assert "oracle" in err
        assert "oracle TruncationBreachError" in (tmp_path / "nu.csv") \
            .read_text(encoding="utf-8")

    def test_start_cut_over_budget_refused_before_any_row(self, capsys,
                                                         tmp_path):
        # the line validate prints for the same cut, once, and no file
        out_dir = tmp_path / "curves"
        code, out, err = run_cli(
            ["sweep", "--preset", "fig2", "--oracle", "true",
             "--oracle-n-max", "40", "--out-dir", str(out_dir)], capsys)
        _, _, validate_err = run_cli(
            ["validate"] + BASE_FLAGS + ["--n-max", "40"], capsys)
        assert code == EXIT_ORACLE
        assert out == ""
        assert err == validate_err == (
            "oracle error: total dimension 82 = 2*(n_max+1) exceeds cap 64; "
            "superoperator would be 6724 x 6724\n")
        assert list(tmp_path.iterdir()) == []

    def test_preset_writes_one_file_per_curve(self, capsys, tmp_path):
        code, out, _ = run_cli(
            ["sweep", "--preset", "fig2", "--out-dir", str(tmp_path)],
            capsys)
        assert code == EXIT_OK
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["fig2_nu_12.csv", "fig2_nu_2.csv", "fig2_nu_6.csv"]
        assert out.count("wrote ") == 3

    def test_preset_rejects_custom_keys(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["sweep", "--preset", "fig2", "--omega", "5",
             "--out-dir", str(tmp_path)], capsys)
        assert code == EXIT_INVALID_INPUT
        assert "remove: omega" in err

    def test_help_marks_no_base_parameter_required(self, capsys):
        # presets carry their own base parameters, so no sweep key is
        # required; steady, by contrast, requires all seven
        code, out, _ = run_cli(["sweep", "--help"], capsys)
        assert code == EXIT_OK
        assert "--gamma-zero" in out and "(required)" not in out
        _, steady_out, _ = run_cli(["steady", "--help"], capsys)
        assert steady_out.count("(required)") == 7

    def test_preset_json_rerun_from_echo_identical(self, capsys, tmp_path):
        args = ["sweep", "--preset", "fig1e", "--format", "json",
                "--out-dir", str(tmp_path)]
        code, _, _ = run_cli(args, capsys)
        assert code == EXIT_OK
        path = tmp_path / "fig1e_nu_6.json"
        first = path.read_bytes()
        echo = json.loads(first.decode("utf-8"))["config"]
        cfg_file = tmp_path / "echo.cfg"
        cfg_file.write_text(echo_to_config_lines(echo), encoding="utf-8")
        code2, _, _ = run_cli(["sweep", "--config", str(cfg_file)], capsys)
        assert code2 == EXIT_OK
        assert path.read_bytes() == first

    def test_parallel_workers_match_serial(self, capsys, tmp_path):
        serial_dir = tmp_path / "serial"
        par_dir = tmp_path / "par"
        base = ["sweep"] + BASE_FLAGS + [
            "--variable", "delta", "--grid-min", "-2", "--grid-max", "2",
            "--grid-count", "41"]
        assert main(base + ["--out-dir", str(serial_dir)]) == EXIT_OK
        assert main(base + ["--out-dir", str(par_dir),
                            "--workers", "3"]) == EXIT_OK
        capsys.readouterr()

        # the config comment legitimately differs (out_dir, workers);
        # everything from the "# spec = " line on must match byte for byte
        def table_part(path):
            text = path.read_text(encoding="utf-8")
            return text[text.index("# spec = "):]

        assert table_part(serial_dir / "delta.csv") == \
            table_part(par_dir / "delta.csv")


class TestValidateCommand:
    def test_agreement_document(self, capsys):
        code, out, err = run_cli(
            ["validate"] + BASE_FLAGS + ["--n-max", "8"], capsys)
        assert code == EXIT_OK
        assert err == ""
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["relative_error"] < 0.01
        assert doc["analytic"]["n_s"] == 0.25159999999999993
        assert doc["oracle"]["n_max"] == 12
        assert len(doc["oracle"]["convergence_history"]) == 2
        assert doc["validity_overall"] is True
        assert doc["warnings"] == []

    def test_failed_threshold_still_exit_0(self, capsys):
        code, out, _ = run_cli(
            ["validate"] + BASE_FLAGS
            + ["--n-max", "8", "--threshold", "1e-6"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["passed"] is False

    def test_out_of_validity_warns_but_compares(self, capsys):
        code, out, err = run_cli(
            ["validate"] + BASE_FLAGS
            + ["--n-max", "8", "--margin", "1000"], capsys)
        assert code == EXIT_OK
        assert "warning:" in err and "outside the stated validity" in err
        doc = json.loads(out)
        assert doc["validity_overall"] is False
        assert len(doc["warnings"]) == 1
        assert doc["passed"] is True  # physics still agrees

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["validate"] + BASE_FLAGS + ["--n-max", "8", "--format", "csv"],
            capsys)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "# validation report"
        assert any(line.startswith("passed,true") for line in lines)


class TestPresetsCommand:
    def test_json_listing(self, capsys):
        code, out, _ = run_cli(["presets"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        info = doc["presets"]
        assert sorted(info) == ["fig1", "fig1e", "fig2", "fig3"]
        assert info["fig1"]["reference_rate"] == "gamma"
        assert info["fig2"]["variable"] == "gamma_ratio"
        assert info["fig2"]["gamma_zero_rule"] == "track_gamma_minus"
        assert info["fig3"]["curves"][2]["base"]["nu"] == 12.0
        assert info["fig3"]["curves"][2]["base"]["delta"] == -5.0

    def test_csv_listing(self, capsys):
        code, out, _ = run_cli(["presets", "--format", "csv"], capsys)
        assert code == EXIT_OK
        assert "fig1.grid_count,300" not in out  # detuning scan is 401
        assert "fig1.grid_count,401" in out
        assert "fig2.grid_count,300" in out


class TestCsvQuoting:
    @staticmethod
    def key_value_rows(out):
        body = "".join(line for line in out.splitlines(keepends=True)
                       if not line.startswith("#"))
        rows = list(csv.reader(io.StringIO(body)))
        assert rows[0] == ["key", "value"]
        assert all(len(row) == 2 for row in rows)
        return dict(rows[1:])

    def test_presets_notes_round_trip(self, capsys):
        code, out, _ = run_cli(["presets", "--format", "csv"], capsys)
        assert code == EXIT_OK
        values = self.key_value_rows(out)
        note = list_presets()["fig1e"]["note"]
        assert "," in note
        assert values["fig1e.note"] == note

    def test_validate_warning_round_trips(self, capsys):
        code, out, err = run_cli(
            ["validate"] + base_flags(eta="0.22")
            + ["--n-max", "8", "--format", "csv"], capsys)
        assert code == EXIT_OK
        warning = self.key_value_rows(out)["warnings.0"]
        assert "drive_below_decay, inversion_adiabatic" in warning
        assert err == f"warning: {warning}\n"


# malformed or unusable inputs across every subcommand; "{tmp}" is a
# scratch directory holding latin1.cfg, a config file that is not UTF-8
_TRAJ = ["--t-end", "1", "--n0", "1"]
_HUGE = base_flags(omega="1e308", delta="1e308")
_DARK = base_flags(gamma_plus="0", gamma_minus="0", gamma_zero="1")
_NU_SCAN = ["--variable", "nu", "--grid-min", "8", "--grid-max", "12",
            "--grid-count", "3", "--out-dir", "{tmp}"]
MALFORMED = {
    "steady-margin-0": (["steady", *BASE_FLAGS, "--margin", "0"], 1),
    "steady-margin-nan": (["steady", *BASE_FLAGS, "--margin", "nan"], 1),
    "validate-margin-neg": (["validate", *BASE_FLAGS, "--margin", "-1"], 1),
    "validate-threshold-nan": (
        ["validate", *BASE_FLAGS, "--threshold", "nan"], 1),
    "trajectory-n0-nan": (
        ["trajectory", *BASE_FLAGS, "--t-end", "1", "--n0", "nan"], 1),
    "trajectory-rz0-inf": (
        ["trajectory", *BASE_FLAGS, *_TRAJ, "--rz0", "inf"], 1),
    "steady-overflow": (["steady", *_HUGE], 1),
    "trajectory-overflow": (["trajectory", *_HUGE, *_TRAJ], 1),
    "validate-overflow": (["validate", *_HUGE], 1),
    "sweep-overflow-rows": (
        ["sweep", *BASE_FLAGS, "--variable", "eta", "--grid-min", "0.01",
         "--grid-max", "1e200", "--grid-count", "3", "--out-dir", "{tmp}"],
        2),
    "sweep-dark-rows": (["sweep", *_DARK, *_NU_SCAN], 2),
    "sweep-oracle-rows": (
        ["sweep", *BASE_FLAGS, *_NU_SCAN, "--oracle", "true",
         "--oracle-n-max", "30"], 3),
    "sweep-oracle-n-max-over-budget": (
        ["sweep", *BASE_FLAGS, *_NU_SCAN, "--oracle", "true",
         "--oracle-n-max", "40"], 3),
    "config-missing": (["steady", "--config", "{tmp}/missing.cfg"], 1),
    "config-not-utf8": (["steady", "--config", "{tmp}/latin1.cfg"], 1),
    "output-dir-missing": (
        ["steady", *BASE_FLAGS, "--output", "{tmp}/none/out.json"], 1),
    "presets-output-dir-missing": (
        ["presets", "--output", "{tmp}/none/out.json"], 1),
    "sweep-out-dir-is-file": (
        ["sweep", "--preset", "fig1", "--out-dir", "{tmp}/latin1.cfg"], 1),
    "samples-not-integer": (
        ["trajectory", *BASE_FLAGS, *_TRAJ, "--samples", "2.5"], 1),
    "t-end-infinite": (
        ["trajectory", *BASE_FLAGS, "--t-end", "inf", "--n0", "1"], 1),
    "sweep-grid-nan": (
        ["sweep", *BASE_FLAGS, *_NU_SCAN, "--grid-max", "nan"], 1),
    # counts this large are refused before anything is allocated
    "samples-huge": (
        ["trajectory", *BASE_FLAGS, *_TRAJ,
         "--samples", "10000000000000000000"], 1),
    "sweep-grid-count-huge": (
        ["sweep", *BASE_FLAGS, *_NU_SCAN,
         "--grid-count", "10000000000000000000"], 1),
    "sweep-oracle-n-max": (
        ["sweep", "--preset", "fig2", "--oracle", "true",
         "--oracle-n-max", "1", "--out-dir", "{tmp}"], 1),
    "sweep-closed-form-oracle-n-max": (
        ["sweep", "--preset", "fig2", "--oracle-n-max", "-5",
         "--out-dir", "{tmp}/d"], 1),
    "validate-n-max": (["validate", *BASE_FLAGS, "--n-max", "1"], 1),
    "validate-dark": (["validate", *_DARK], 2),
    "validate-dim-cap": (
        ["validate", *BASE_FLAGS, "--n-max", "8", "--dim-cap", "8"], 3),
    "validate-dim-cap-negative": (
        ["validate", *BASE_FLAGS, "--dim-cap", "-5"], 1),
    "sweep-workers-0": (["sweep", *BASE_FLAGS, *_NU_SCAN, "--workers", "0"], 1),
    "presets-format": (["presets", "--format", "xml"], 1),
}


class TestNoTraceback:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_ends_in_one_error_line(self, case, capsys, tmp_path):
        argv, expected = MALFORMED[case]
        (tmp_path / "latin1.cfg").write_bytes("omega = \u00b5\n"
                                              .encode("latin-1"))
        code, _, err = run_cli(
            [a.replace("{tmp}", str(tmp_path)) for a in argv], capsys)
        assert code == expected and code in (1, 2, 3)
        lines = err.splitlines()
        errors = [line for line in lines
                  if line.startswith(("error:", "oracle error:"))]
        assert errors == lines[-1:]


# every parameter is drawn from these values, delta also from their
# negatives: zero, subnormal, tiny, ordinary, huge and near the double limit
FUZZ_VALUES = (0.0, 5e-324, 1e-300, 1e-160, 1e-8, 0.02, 1.0, 5.0, 12.0, 1e8,
               1e154, 1.1e154, 1e200, 1e300, 1.7e308)


def non_finite(doc, path=()):
    """Paths (tuples of keys and indices) of the non-finite floats in a
    JSON document, which writes them as the strings "inf", "-inf", "nan"."""
    if isinstance(doc, dict):
        return [hit for key, value in doc.items()
                for hit in non_finite(value, path + (key,))]
    if isinstance(doc, list):
        return [hit for i, value in enumerate(doc)
                for hit in non_finite(value, path + (i,))]
    return [path] if doc in ("inf", "-inf", "nan") else []


def fuzz_flags(rng, weights=None):
    """The seven parameter flags, each value drawn from FUZZ_VALUES (with
    the given probabilities) and delta's sign drawn too."""
    values = [float(v) for v in rng.choice(FUZZ_VALUES, size=7, p=weights)]
    values[1] *= float(rng.choice([-1.0, 1.0]))   # delta
    return [arg for name, value in zip(PARAM_KEY_NAMES, values)
            for arg in ("--" + name.replace("_", "-"), repr(value))]


def assert_documented_outcome(argv, code, err):
    """A documented exit code, no traceback, and exactly one error line,
    the last, on failure."""
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv
    lines = err.splitlines()
    errors = [line for line in lines
              if line.startswith(("error: ", "oracle error: "))]
    assert errors == (lines[-1:] if code else []), argv


class TestFuzz:
    def test_every_input_ends_in_a_documented_outcome(self, capsys, tmp_path):
        # seeded draws for steady, trajectory and custom sweep rows: a
        # documented exit code, one error line on failure, no traceback,
        # and no inf or nan in a clean document but a validity ratio or a
        # growing trajectory's phonon number
        rng = np.random.default_rng(2113)
        for case in range(600):
            flags = fuzz_flags(rng)
            command = ("steady", "trajectory", "sweep")[case % 3]
            if command == "trajectory":
                flags += ["--t-end", "40", "--samples", "5", "--n0", "3",
                          "--format", "json"]
            elif command == "sweep":
                variable = str(rng.choice(["delta", "nu", "eta", "omega",
                                           "gamma_ratio"]))
                low, high = sorted(
                    float(v) for v in rng.choice(FUZZ_VALUES, size=2,
                                                 replace=False))
                if variable == "delta":
                    low, high = -high, low
                out_dir = tmp_path / str(case)
                flags += ["--variable", variable, "--grid-min", repr(low),
                          "--grid-max", repr(high), "--grid-count", "3",
                          "--format", "json", "--out-dir", str(out_dir)]
                if variable == "gamma_ratio":
                    flags += ["--gamma-zero-rule", "fixed"]
            argv = [command, *flags]
            code, out, err = run_cli(argv, capsys)
            assert_documented_outcome(argv, code, err)
            if code:
                continue
            if command == "sweep":
                (document,) = out_dir.iterdir()
                doc = json.loads(document.read_text(encoding="utf-8"))
            else:
                doc = json.loads(out)
            growing = doc.get("summary", {}).get("phonon_growing")
            for path in non_finite(doc):
                assert (path[-1] == "ratio"
                        or (growing and path[0] == "rows"
                            and path[2] == doc["columns"].index("n"))
                        ), (argv, path)

    def test_trajectory_ode(self, capsys):
        # seeded draws of trajectory --ode true, with an initial phonon
        # number and a final time from plain to near the double limit: the
        # same outcomes as above, with no RuntimeWarning (the suite turns
        # each into an error), and no inf or nan in a clean n_ode column
        rng = np.random.default_rng(2115)
        weights = np.where(np.isin(FUZZ_VALUES, (0.02, 1.0, 5.0, 12.0)),
                           10.0, 1.0)
        for _ in range(150):
            argv = ["trajectory", *fuzz_flags(rng, weights / weights.sum()),
                    "--t-end", str(rng.choice(["1", "40", "1e6"])),
                    "--n0", str(rng.choice(["0", "3", "1e308"])),
                    "--samples", "5", "--ode", "true", "--format", "json"]
            code, out, err = run_cli(argv, capsys)
            assert_documented_outcome(argv, code, err)
            if code == 0:
                doc = json.loads(out)
                column = doc["columns"].index("n_ode")
                assert [p for p in non_finite(doc["rows"])
                        if p[1] == column] == [], argv

    def test_validate_with_a_small_dim_cap(self, capsys):
        # seeded draws of validate at small Fock cuts and dimension caps
        # of 6 to 20, so the oracle's failures (singular or ill-conditioned
        # solve, cap reached) come through the CLI: the same outcomes as
        # above, and no inf or nan in a clean document but a validity
        # ratio. Ordinary values are drawn ten times as often, so that
        # about a quarter of the draws pass the closed form and reach
        # the oracle.
        rng = np.random.default_rng(2114)
        weights = np.where(np.isin(FUZZ_VALUES, (0.02, 1.0, 5.0, 12.0)),
                           10.0, 1.0)
        for _ in range(100):
            argv = ["validate", *fuzz_flags(rng, weights / weights.sum()),
                    "--n-max", str(rng.integers(2, 5)),
                    "--dim-cap", str(rng.integers(6, 21)), "--format", "json"]
            code, out, err = run_cli(argv, capsys)
            assert_documented_outcome(argv, code, err)
            if code == 0:
                for path in non_finite(json.loads(out)):
                    assert path[-1] == "ratio", (argv, path)


# case: (argv, sha256 as json, sha256 as csv) of closed-form documents
# as cli.main writes them: stdout, then every written file (relative
# name and bytes) in sorted order.  Any change to an output byte fails
# here.  trajectory (vectorized np.exp) and validate (sparse LU) are left
# out: their last digits may depend on the machine.
PINNED_DOCUMENTS = {
    "presets": (
        ["presets"],
        "24d3b615827df40eb56c25b80604ba2b3022163112f072f23c93a05cb6ebab00",
        "55f5e5b59d80c10a577acb8bf41f8bd0c3388337b47d64d614c877bf911df8b0"),
    "steady": (
        ["steady", *BASE_FLAGS],
        "7609431968e58b3eb3df97a5517eb84742fde80fdfda0c78823c46804914e474",
        "bd441ca4f2f9a5c326056733d3f218154b5eee4de6bc7af316d01b46eb933b06"),
    "steady-gamma-minus-2": (
        ["steady", *base_flags(gamma_minus="2")],
        "1412da7780e644897b1a1a93ff70ad26d8143cb44087a046e57c5a0a1552ea27",
        "5711680e82174328cdc5ef3c06b6826fb52e60004ac6f03b25a1013b0599384e"),
    "sweep-fig1": (
        ["sweep", "--preset", "fig1", "--out-dir", "runs"],
        "fb8d98a0219d99232262efb73ab18a3165b93da22bfa4c2ea03c53f1e870402f",
        "d91d376afb09b8b90c97e922a5de2f8ed4713ccc5d09e45adbb53a4c4f49d264"),
    "sweep-fig1e": (
        ["sweep", "--preset", "fig1e", "--out-dir", "runs"],
        "b29e2717ebc9e7ebf74862c0353143c2dd472a76c0ab114f2b06c17d6212f552",
        "153386e54af0a8e1e0a739681c2e84515e806767a7ae28b90515e33d3ca68786"),
    "sweep-fig2": (
        ["sweep", "--preset", "fig2", "--out-dir", "runs"],
        "4f47642255848394ff04b56d1e361a4a40464989e761a367ad314175bde5481d",
        "238f1291309805b219c079d85dbfe0a88943c986336bbb195758dcec1371f217"),
    "sweep-fig3": (
        ["sweep", "--preset", "fig3", "--out-dir", "runs"],
        "987a248a2bcb5fff9442c29f172ab460b6dedf4e5d5a7b4133c4e7bc336bc436",
        "73cef0846ef37e1d0ea95e051c74d7df3335c776417fc8d9250669fba5aa8d5b"),
}


def document_digest(argv, capsys, tmp_path, monkeypatch) -> str:
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (EXIT_OK, "")
    digest = hashlib.sha256(out.encode("utf-8"))
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
        digest.update(path.relative_to(tmp_path).as_posix().encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


class TestPinnedDocuments:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("case", sorted(PINNED_DOCUMENTS))
    def test_bytes_unchanged(self, case, fmt, capsys, tmp_path, monkeypatch):
        argv, json_digest, csv_digest = PINNED_DOCUMENTS[case]
        got = document_digest(argv + ["--format", fmt], capsys, tmp_path,
                              monkeypatch)
        assert got == (json_digest if fmt == "json" else csv_digest)


def python_values_only(encoder):
    """encoder, failing on any numpy scalar it is given."""
    def wrapped(value):
        assert not isinstance(value, np.generic), (encoder.__name__, value)
        return encoder(value)
    return wrapped


class TestDocumentValues:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_no_numpy_scalar_reaches_an_encoder(self, fmt, capsys, tmp_path,
                                                monkeypatch):
        # the encoders take Python values only: each value of every
        # document passes through one of these three names
        json_value = python_values_only(sweep._json_value)
        monkeypatch.setattr(sweep, "_json_value", json_value)
        monkeypatch.setattr(cli, "_json_value", json_value)
        monkeypatch.setattr(sweep, "_cell", python_values_only(sweep._cell))
        for argv in (
                ["steady", *BASE_FLAGS],
                ["trajectory", *BASE_FLAGS, "--t-end", "40", "--samples",
                 "21", "--n0", "3", "--ode", "true"],
                ["validate", *BASE_FLAGS],
                ["presets"],
                ["sweep", "--preset", "fig2", "--out-dir", str(tmp_path)],
                ["sweep", *BASE_FLAGS, "--variable", "nu", "--grid-min", "9",
                 "--grid-max", "10", "--grid-count", "2", "--oracle", "true",
                 "--oracle-n-max", "8", "--out-dir", str(tmp_path)]):
            code, _, err = run_cli([*argv, "--format", fmt], capsys)
            assert (code, err) == (EXIT_OK, ""), argv


class TestEntryPoint:
    @pytest.mark.parametrize("argv", [
        ["presets"], ["steady", *BASE_FLAGS],
        ["sweep", "--preset", "fig2", "--out-dir", "{tmp}"],
    ], ids=["presets", "steady", "sweep-fig2"])
    def test_closed_form_command_loads_no_numpy_or_scipy(self, argv,
                                                         tmp_path):
        # only the oracle and the arrays of trajectory use numpy and scipy,
        # and each function imports them where it runs; -X importtime
        # lists every module a run imports, wherever the import sits
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "dressedcool.cli",
             *(a.replace("{tmp}", str(tmp_path)) for a in argv)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        imported = [line.split("|")[-1].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "dressedcool.lindblad" in imported
        assert [m for m in imported
                if m.split(".")[0] in ("numpy", "scipy")] == []
        # nor the process pool, which only a parallel oracle sweep starts
        assert "concurrent.futures.process" not in imported
        assert "multiprocessing" not in imported

    def test_console_script_runs(self):
        proc = subprocess.run(
            ["dressedcool", "presets"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["config"]["subcommand"] == "presets"

    def test_module_invocation_matches(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dressedcool.cli", "presets"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["config"]["subcommand"] == "presets"
