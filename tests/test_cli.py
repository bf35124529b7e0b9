"""End-to-end checks of the command line: configs, reports, determinism."""

import csv
import dataclasses
import importlib
import json
import math
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import trapcool.cli
import trapcool.gaussian
import trapcool.scenario
import trapcool.validation
from trapcool.cli import main
from trapcool.errors import ConfigError, SimulationError
from trapcool.hilbert import number_op
from trapcool.models import StepRates, Superoperator, SystemParams, hamiltonian_term
from trapcool.scenario import default_config, format_config, parse_config

SLOW_TRAP = """\
# slow trap keeps every coherence band contractive under the explicit stepper
nu = 2.0
gamma_h = 0.01
eta = 0.9
g = 0.375
n0 = 0.5
n_trunc = 14
tail_tolerance = 1e-4
dt = 2e-3
t_final = 0.2
n_traj = 3
seed = 777
"""


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(text):
    rows = list(csv.reader(text.splitlines()))
    assert rows[0] == ["key", "value"]
    return dict(rows[1:])


def parse_table(text):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


def test_csv_cells_keep_their_text():
    row = (-0.0, 5e-324, 1e308, math.inf, math.nan, 0.1, np.float64(0.1), 7, True, False, None,
           "plain", "a,b", 'say "hi"', "two\nlines")
    assert "".join(trapcool.cli._csv_lines(("a", "b"), [row])) == (
        "a,b\n-0,4.9406564584124654e-324,1e+308,inf,nan,0.10000000000000001,0.10000000000000001,"
        '7,true,false,,plain,"a,b","say ""hi""","two\nlines"\n'
    )


def test_config_round_trip_is_lossless():
    cfg = default_config().replace(nu=3.25, seed=9, gamma_h=1.25e-4)
    assert parse_config(format_config(cfg)) == cfg


def test_config_rejections_name_the_line():
    with pytest.raises(ConfigError, match="line 2.*duplicate"):
        parse_config("nu = 2.0\nnu = 3.0\n")
    with pytest.raises(ConfigError, match="did you mean 'nu'"):
        parse_config("nuu = 2.0\n")
    with pytest.raises(ConfigError, match="n_trunc"):
        parse_config("n_trunc = 2.5\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("eta =\n")


def test_cli_reports_config_errors_with_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("kapa = 40.0\n")
    code, _, err = run_cli(["steady", "--config", str(bad)], capsys)
    assert code == 1
    assert "line 1" in err and "kapa" in err


def test_steady_reports_the_default_stationary_numbers(capsys):
    code, out, _ = run_cli(["steady"], capsys)
    assert code == 0
    report = parse_report(out)
    # frozen from the closed-form fixed point of the default scenario
    assert abs(float(report["N"]) - 0.05375) < 1e-9
    assert abs(float(report["n_min"]) - 0.052770798392566709) < 1e-9
    assert report["stable"] == "true"
    assert report["physical"] == "true"
    assert report["kernel_check"].startswith("skipped")


def test_steady_json_round_trips_the_same_numbers(capsys):
    code, out, _ = run_cli(["steady", "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert abs(report["N"] - 0.05375) < 1e-9
    assert report["stable"] is True


def test_steady_flags_the_unstable_sign_without_moments(capsys):
    code, out, _ = run_cli(["steady", "--set", "phi = 1.5707963267948966"], capsys)
    assert code == 2
    report = parse_report(out)
    assert report["stable"] == "false"
    assert "zeta" not in report and "n_min" not in report


def test_steady_ideal_line_reports_a_zero_floor(capsys):
    code, out, _ = run_cli(
        ["steady", "--set", "eta = 1.0", "--set", "gamma_h = 0.0"], capsys
    )
    assert code == 0
    assert float(parse_report(out)["n_min"]) == 0.0


def test_steady_kernel_check_runs_at_small_dimension(capsys):
    code, out, _ = run_cli(
        ["steady", "--set", "n_trunc = 30", "--set", "nu = 18.75"], capsys
    )
    assert code == 0
    report = parse_report(out)
    assert float(report["kernel_rel_dev"]) < 1e-6
    assert "kernel_check" not in report


def test_trajectory_output_is_byte_identical_across_runs(tmp_path, capsys):
    cfg = tmp_path / "slow.cfg"
    cfg.write_text(SLOW_TRAP)
    paths = [tmp_path / name for name in ("a.csv", "b.csv")]
    for path in paths:
        code, _, _ = run_cli(
            ["trajectory", "--config", str(cfg), "--out", str(path)], capsys
        )
        assert code == 0
    base = paths[0].read_bytes()
    assert paths[1].read_bytes() == base
    summary = (tmp_path / "a_summary.csv").read_bytes()
    assert (tmp_path / "b_summary.csv").read_bytes() == summary
    code, _, _ = run_cli(
        ["trajectory", "--config", str(cfg), "--seed", "778", "--out", str(paths[1])],
        capsys,
    )
    assert code == 0
    assert paths[1].read_bytes() != base


def test_trajectories_share_one_read_only_stepper(tmp_path, monkeypatch, capsys):
    import trapcool.sme as sme

    builds, steppers = [], []
    build = sme.reduced_measurement_liouvillian

    def counted(*args):
        builds.append(args)
        return build(*args)

    class Recorded(sme.HomodyneStepper):
        def __init__(self, *args):
            super().__init__(*args)
            steppers.append(self)

    monkeypatch.setattr(sme, "reduced_measurement_liouvillian", counted)
    monkeypatch.setattr(sme, "HomodyneStepper", Recorded)
    cfg = tmp_path / "slow.cfg"
    # a heating rate no other test uses, so no earlier run left this stepper behind
    cfg.write_text(SLOW_TRAP.replace("gamma_h = 0.01", "gamma_h = 0.0123"))
    code, _, err = run_cli(["trajectory", "--config", str(cfg)], capsys)
    assert code == 0, err
    assert len(builds) == 1 and len(steppers) == 1
    arrays = []
    for value in vars(steppers[0]).values():
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif hasattr(value, "indptr"):
            arrays += [value.data, value.indices, value.indptr]
    assert len(arrays) == 8
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = arr.flat[0]


def test_trajectory_summary_sits_beside_an_out_path_in_a_dotted_directory(tmp_path, capsys):
    cfg = tmp_path / "slow.cfg"
    cfg.write_text(SLOW_TRAP)
    out_dir = tmp_path / "run.v2"
    out_dir.mkdir()
    code, _, err = run_cli(
        ["trajectory", "--config", str(cfg), "--out", str(out_dir / "traj")], capsys
    )
    assert code == 0, err
    assert sorted(p.name for p in out_dir.iterdir()) == ["traj", "traj_summary"]
    header, rows = parse_table((out_dir / "traj_summary").read_text())
    assert header[0] == "time" and len(rows) == 101


def test_trajectory_summary_for_a_dot_slash_out_path(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "slow.cfg"
    cfg.write_text(SLOW_TRAP)
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["trajectory", "--config", str(cfg), "--out", "./traj"], capsys)
    assert code == 0, err
    assert (tmp_path / "traj").is_file() and (tmp_path / "traj_summary").is_file()


def test_unwritable_out_exits_as_a_configuration_problem(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    # a CSV sweep opens --out before its first row, so chi = 5 (kappa = 40)
    # is never built and its strain warning never printed
    for argv in (["steady"], ["sweep", "--key", "chi", "--values", "3,5,-1"]):
        code, out, err = run_cli([*argv, "--out", str(target)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert str(target) in err and "Traceback" not in err


def test_unwritable_validate_report_exits_as_a_configuration_problem(tmp_path, capsys):
    target = tmp_path / "missing" / "r.csv"
    code, out, err = run_cli(["validate", "--level", "fast", "--out", str(target)], capsys)
    assert code == 1
    assert out == ""
    assert str(target) in err


def test_unwritable_validate_report_fails_before_any_check(tmp_path, capsys, monkeypatch):
    def no_checks(level):
        raise AssertionError("checks ran before the report path was tried")

    monkeypatch.setattr(trapcool.validation, "run_checks", no_checks)
    target = tmp_path / "missing" / "r.json"
    code, _, err = run_cli(
        ["validate", "--level", "full", "--format", "json", "--out", str(target)], capsys
    )
    assert code == 1
    assert str(target) in err


def test_trajectory_table_and_summary_shapes(tmp_path, capsys):
    cfg = tmp_path / "slow.cfg"
    cfg.write_text(SLOW_TRAP)
    code, out, _ = run_cli(["trajectory", "--config", str(cfg), "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["traj", "time", "x_cond", "p_cond", "n_cond", "current"]
    assert len(payload["rows"]) == 3 * 101
    assert payload["ensemble"]["columns"][0] == "time"
    assert len(payload["ensemble"]["rows"]) == 101


def test_trajectory_heating_ramp_matches_the_closed_form(capsys):
    args = [
        "trajectory",
        "--set", "chi = 0.0",
        "--set", "g = 0.0",
        "--set", "nu = 2.0",
        "--set", "gamma_h = 0.2",
        "--set", "n0 = 0.5",
        "--set", "n_trunc = 30",
        "--set", "dt = 1e-3",
        "--set", "t_final = 1.0",
        "--set", "n_traj = 1",
    ]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    header, rows = parse_table(out)
    n_col = header.index("n_cond")
    t_col = header.index("time")
    current_col = header.index("current")
    assert len(rows) == 1001
    for row in (rows[0], rows[500], rows[-1]):
        t = float(row[t_col])
        # diagonal heating flow is linear, so the explicit step is exact
        assert abs(float(row[n_col]) - (0.5 + 0.2 * t)) < 1e-9
    assert all(float(row[current_col]) == 0.0 for row in rows)


def test_trajectory_rejects_feedback_without_measurement(capsys):
    code, _, err = run_cli(["trajectory", "--set", "chi = 0.0"], capsys)
    assert code == 1
    assert "chi = 0 with g != 0" in err


@pytest.mark.parametrize("command", ["steady", "contour"])
@pytest.mark.parametrize(
    "key, value, code",
    [
        ("chi", "0", 1),  # a gain without a measurement
        ("nu", "0", 1),
        ("g", "0", 2),  # no contraction: a numerical failure
        ("phi", "0", 2),
        ("kappa", "0", 1),
        ("eta", "0", 1),
        ("gamma_h", "-1", 1),
        ("n0", "-1", 1),
    ],
)
def test_parameter_errors_exit_with_a_message_naming_the_key(command, key, value, code, capsys):
    got, out, err = run_cli([command, "--set", f"{key}={value}"], capsys)
    assert got == code
    assert out == ""
    prefix = "config error: " if code == 1 else "simulation error: "
    assert err.startswith(prefix) and "Traceback" not in err
    assert re.search(rf"\b{key}\b", err)


def test_an_underflowing_measurement_rate_is_a_config_error(capsys):
    # chi = 1e-200 is nonzero, but chi^2/kappa, the feedback divisor, is 0.0
    code, out, err = run_cli(["steady", "--set", "chi=1e-200"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("config error: ") and "measurement rate" in err
    code, out, _ = run_cli(["sweep", "--key", "chi", "--values", "1e-200,4"], capsys)
    assert code == 0
    _, rows = parse_table(out)
    assert "measurement rate" in rows[0][5] and rows[0][1] == ""
    assert rows[1][5] == "" and rows[1][4] == "true"


def test_an_overflowing_measurement_rate_is_a_config_error(capsys):
    # chi^2 overflows a double above chi ~ 1.3e154
    code, out, err = run_cli(["steady", "--set", "chi=1e200"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("config error: ") and re.search(r"\bchi\b", err)
    assert "Traceback" not in err
    code, out, _ = run_cli(["sweep", "--key", "chi", "--values", "1e200,4"], capsys)
    assert code == 0
    _, rows = parse_table(out)
    assert "chi" in rows[0][5] and "overflows" in rows[0][5] and rows[0][1] == ""
    assert rows[1][5] == "" and rows[1][4] == "true"


EXTREME_VALUES = ("0", "5e-324", "1e-300", "1e-200", "1e300", "-1", "nan", "inf")
# steady runs its kernel check at n_trunc = 8; trajectory runs ten steps of a
# slow trap whose thermal start fits the truncation
EXTREME_BASES = {
    "steady": {"n_trunc": "8"},
    "contour": {"n_trunc": "8"},
    "trajectory": {"nu": "2", "n0": "0.5", "n_trunc": "8", "tail_tolerance": "1e-3",
                   "dt": "1e-3", "t_final": "0.01"},
}


@pytest.mark.parametrize(
    "command, key",
    [(command, key) for command in EXTREME_BASES for key in trapcool.scenario.CONFIG_KEYS]
    + [("sweep", key) for key in trapcool.cli.SWEEPABLE_KEYS],
)
def test_extreme_inputs_end_in_one_typed_line(command, key, capsys):
    # a value out of floating range is an error naming the key, never a
    # traceback or a numpy warning: exit 0, 1 or 2, one stderr line per failure
    for value in EXTREME_VALUES:
        if command == "sweep":
            argv = ["sweep", "--key", key, "--values", value]
        else:
            sets = {**EXTREME_BASES[command], key: value}
            argv = [command] + [arg for k, v in sets.items() for arg in ("--set", f"{k}={v}")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(argv, capsys)
        assert code in (0, 1, 2), (value, code)
        assert "Traceback" not in err
        # a warning (strained chi/kappa, marginal dt) is one typed line of its own
        lines = [line for line in err.splitlines() if not line.startswith("warning: ")]
        if code == 0:
            assert lines == [], (value, err)
        else:
            assert out == "" and len(lines) == 1, (value, err)
            (error,) = lines
            assert error.startswith("config error: " if code == 1 else "simulation error: ")
            # a trajectory's numerical failure (step too large, tail guard)
            # names the quantity that broke, not the input behind it; the
            # step rule names the rate that sets the maximum
            if code == 1 or command != "trajectory":
                assert re.search(rf"\b{key}\b", error), (value, err)
            elif "max rate" in error:
                assert re.search(rf"max rate \(({'|'.join(StepRates._fields)})\) = ", error), (value, err)
        if command == "sweep" and code == 0:
            _, rows = parse_table(out)
            (row,) = rows
            # a row holds either the reservoir occupancy or an error naming the key
            assert (row[1] != "") != (row[5] != ""), (value, row)
            assert row[5] == "" or re.search(rf"\b{key}\b", row[5]), (value, row)


def test_warnings_are_one_typed_line_on_stderr(capsys):
    # strained meter elimination, then a marginal step on a slow trap
    code, out, err = run_cli(["steady", "--set", "chi=5", "--set", "kappa=20"], capsys)
    assert code == 0 and "warning" not in out
    assert err == "warning: chi/kappa above 0.1 strains the meter elimination\n"
    sets = {"nu": "2", "n0": "0.5", "n_trunc": "8", "tail_tolerance": "1e-3", "dt": "1e-3",
            "t_final": "0.01", "gamma_h": "30"}
    argv = ["trajectory"] + [arg for k, v in sets.items() for arg in ("--set", f"{k}={v}")]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    warning, error = err.splitlines()
    assert warning == ("warning: dt * max rate (gamma_h) = 0.03 is above 0.02; "
                       "expect visible discretization bias")
    assert error.startswith("simulation error: trajectory 0: ")


def test_closed_form_range_errors_name_the_cause(capsys):
    code, _, err = run_cli(["steady", "--set", "g=1e300"], capsys)
    assert code == 1 and "g = 1e+300 is too large: g^2 overflows" in err
    code, _, err = run_cli(["steady", "--set", "phi=5e-324"], capsys)
    assert code == 2 and "g sin(phi) underflows to zero" in err
    code, _, err = run_cli(["steady", "--set", "nu=1e300"], capsys)
    assert code == 1 and "nu = 1e+300 is too large" in err
    # both factors are nonzero, but the feedback-noise divisor underflows
    code, _, err = run_cli(["steady", "--set", "eta=1e-300", "--set", "chi=1e-150"], capsys)
    assert code == 1 and "eta chi^2/kappa underflows to zero" in err
    code, out, _ = run_cli(["sweep", "--key", "nu", "--values", "1e-300,1000"], capsys)
    _, rows = parse_table(out)
    assert code == 0 and "nu = 1e-300 is too small" in rows[0][5] and rows[1][5] == ""
    code, out, _ = run_cli(["sweep", "--key", "g", "--values", "1e-200,0.375"], capsys)
    _, rows = parse_table(out)
    assert code == 0 and "out of floating range" in rows[0][5] and rows[1][4] == "true"


def test_an_overflowing_kernel_residual_prints_one_line(capsys):
    # the reservoir rates stay finite at g = 1e100; the kernel residual does not
    code, out, err = run_cli(["steady", "--set", "g=1e100", "--set", "n_trunc=8"], capsys)
    assert code == 2 and out == ""
    assert err == "simulation error: kernel residual inf exceeds 1e-10; kernel is degenerate or ill conditioned\n"


def test_a_too_small_truncation_names_n_trunc_in_its_edge_error(capsys):
    # the default gain sign meets the contraction condition; only the
    # two-level truncation piles the kernel state against its edge
    code, out, err = run_cli(["steady", "--set", "n_trunc=2"], capsys)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("simulation error: steady state piles 2.469e-03 of its population at the truncation edge")
    assert "n_trunc" in err and "g sin(phi)" in err


def test_trajectory_refuses_a_band_unstable_step(capsys):
    # the default scenario rotates the top band 3.2 rad per step
    code, _, err = run_cli(["trajectory", "--set", "n_traj = 1"], capsys)
    assert code == 2
    assert "trajectory 0" in err and "coherence band" in err
    assert "exp(1.28e+04)" in err  # the gain in three significant digits


@pytest.mark.parametrize("key, value", [("kappa", "1e300"), ("eta", "1e-300")])
def test_trajectory_rejects_an_unresolvable_feedback_kick(key, value, capsys):
    # a kick's angle has variance 4 D dt, D = g^2 / (4 eta chi^2/kappa); both
    # inputs make D enormous, so the step rule stops the run before a step
    sets = {**EXTREME_BASES["trajectory"], key: value}
    argv = ["trajectory"] + [arg for k, v in sets.items() for arg in ("--set", f"{k}={v}")]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert re.fullmatch(
        r"simulation error: trajectory 0: dt \* max rate \(feedback_noise\) = \S+ exceeds the hard limit 0\.1\n",
        err,
    ), err


def test_sweep_gain_scan_brackets_the_closed_form_optimum(capsys):
    params = default_config().system_params()
    g_opt, _ = trapcool.gaussian.optimal_gain(params)
    values = np.logspace(math.log10(g_opt / 4.0), math.log10(4.0 * g_opt), 41)
    tokens = ",".join(format(v, ".17g") for v in values)
    code, out, _ = run_cli(["sweep", "--key", "g", "--values", tokens], capsys)
    assert code == 0
    header, rows = parse_table(out)
    assert header[0] == "g"
    scan = [(float(row[1]), float(row[0])) for row in rows]
    best_n, best_g = min(scan)
    step = math.log(16.0) / 40.0
    assert abs(math.log(best_g / g_opt)) <= step + 1e-12
    assert best_n <= min(n for n, _ in scan) + 1e-15


def test_sweep_efficiency_rows_fall_monotonically(capsys):
    code, out, _ = run_cli(
        ["sweep", "--key", "eta", "--values", "0.25,0.5,1.0"], capsys
    )
    assert code == 0
    _, rows = parse_table(out)
    occupancies = [float(row[1]) for row in rows]
    assert occupancies[0] > occupancies[1] > occupancies[2]
    assert all(row[4] == "true" for row in rows)


def test_sweep_isolates_the_singular_phase_row(capsys):
    code, out, _ = run_cli(
        ["sweep", "--key", "phi", "--values", "0,-1.5707963267948966"], capsys
    )
    assert code == 0
    _, rows = parse_table(out)
    assert rows[0][5] != "" and rows[0][1] == ""
    assert rows[1][5] == "" and rows[1][4] == "true"


def test_sweep_values_may_start_with_a_negative_number(capsys):
    # argparse takes only a lone number like -0.5 as a negative value
    code, out, err = run_cli(["sweep", "--key", "phi", "--values", "-1.6,-1.5"], capsys)
    assert code == 0, err
    assert run_cli(["sweep", "--key", "phi", "--values=-1.6,-1.5"], capsys) == (0, out, "")
    # argparse also accepts any prefix of --values down to --v
    for flag in ("--val", "--v"):
        assert run_cli(["sweep", "--key", "phi", flag, "-1.6,-1.5"], capsys) == (0, out, "")
    code, out, err = run_cli(["sweep", "--key", "g", "--values", "-0.5,0.1"], capsys)
    assert code == 0, err
    _, rows = parse_table(out)
    assert rows[0][5] == "g must be finite and >= 0" and rows[1][5] == ""
    code, _, err = run_cli(["sweep", "--key", "g", "--values"], capsys)
    assert code == 1
    assert "--values: expected one argument" in err


# per key: stable values, an unstable sign (at phi = +pi/2), and errors: a
# negative value, NaN and, for phi, the singular phase 0; chi = 5 and 8
# strain the meter elimination (kappa = 40)
SWEEP_ROW_KINDS = {
    "g": "-0.5,nan,0,0.1,0.375",
    "eta": "-0.5,nan,0.5,1",
    "gamma_h": "-1,nan,0,0.1",
    "chi": "-1,nan,1,5,8",
    "phi": "-1.5707963267948966,-0.3,nan,0,1.5707963267948966",
    "nu": "-1,nan,1,1000",
}


def _direct_sweep_row(base, key, value):
    """One sweep row's CSV cells from direct gaussian calls."""
    f = lambda x: format(x, ".17g")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            params = dataclasses.replace(base, **{key: value})
        bp = trapcool.gaussian.bath_params(params)
        if trapcool.gaussian.stability(params):
            m = trapcool.gaussian.stationary_moments(params)
            return [f(value), f(bp.N), f(m.zeta), f(abs(m.mu)), "true", ""]
        return [f(value), f(bp.N), "", "", "false", ""]
    except (SimulationError, ValueError) as err:
        return [f(value), "", "", "", "", str(err)]


def test_sweep_rows_equal_direct_closed_form_calls(monkeypatch, capsys):
    assert set(SWEEP_ROW_KINDS) == set(trapcool.cli.SWEEPABLE_KEYS)
    checks = [0]
    original = SystemParams.__post_init__

    def counted(self):
        checks[0] += 1
        original(self)

    strained = "warning: chi/kappa above 0.1 strains the meter elimination\n"
    for key, text in SWEEP_ROW_KINDS.items():
        values = [float(v) for v in text.split(",")]
        kinds = set()
        for phi in ("-1.5707963267948966", "1.5707963267948966"):
            argv = ["sweep", "--key", key, "--set", f"phi={phi}", "--values"]
            with monkeypatch.context() as patch:
                patch.setattr(SystemParams, "__post_init__", counted)
                checks[0] = 0
                code, out, err = run_cli(argv + [text], capsys)
                once = checks[0]
                checks[0] = 0
                assert run_cli(argv + [f"{text},{text}"], capsys)[0] == 0
            # every added row builds, and so checks, one SystemParams
            assert checks[0] - once == len(values)
            assert code == 0
            # one line however many rows strain the elimination
            assert err == (strained if key == "chi" else "")
            base = parse_config(f"phi = {phi}").system_params()
            _, rows = parse_table(out)
            assert rows == [_direct_sweep_row(base, key, v) for v in values], (key, phi)
            kinds.update(row[4] or "error" for row in rows)
        assert kinds == {"true", "false", "error"}, key


def test_sweep_out_memory_is_set_by_the_parsed_values_not_the_table(tmp_path):
    # 20,000 rows make about 2 MB of CSV text, and twice that as row tuples;
    # written row by row, they never exist at once
    values = np.random.default_rng(24).uniform(0.0, 1.0, 20000).tolist()
    text = ",".join(map(repr, values))
    # what parsing --values holds at once: the floats alone, since the text
    # is scanned entry by entry; a list of split tokens would add twice as much
    floats = sum(map(sys.getsizeof, [values, *values]))
    target = tmp_path / "g.csv"
    # the first call pays for lazy imports and caches
    assert main(["sweep", "--key", "g", "--values", "0.1", "--out", os.devnull]) == 0
    tracemalloc.start()
    try:
        code = main(["sweep", "--key", "g", "--values", text, "--out", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert target.read_text().count("\n") == 1 + len(values)
    assert peak < 1.5 * floats, (peak, floats)


def test_a_values_list_after_a_space_is_not_copied(tmp_path):
    # only a list that starts with "-" is joined to --values; any other
    # reaches argparse as written, while argparse splits a --values=<list>
    # token, which copies the list once
    values = np.random.default_rng(25).uniform(0.0, 1.0, 20000).tolist()
    text = ",".join(map(repr, values))
    assert main(["sweep", "--key", "g", "--values", "0.1", "--out", os.devnull]) == 0
    peaks = []
    for form in (["--values", text], ["--values=" + text]):
        tracemalloc.start()
        try:
            code = main(["sweep", "--key", "g", *form, "--out", str(tmp_path / "g.csv")])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert peaks[1] - peaks[0] > len(text) // 2, (peaks, len(text))


def test_a_values_prefix_joins_only_a_token_that_starts_with_a_dash(capsys):
    code, out, err = run_cli(["sweep", "--key", "g", "--values", "0.1,0.2"], capsys)
    assert code == 0, err
    assert run_cli(["sweep", "--key", "g", "--v", "0.1,0.2"], capsys) == (0, out, "")
    # a command without --values reports the prefix and its token as written
    code, out, err = run_cli(["steady", "--v", "3"], capsys)
    assert code == 1 and out == ""
    assert err.endswith("error: unrecognized arguments: --v 3\n")


def _raise_on_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_sweep_json_writes_non_finite_numbers_as_null(capsys):
    # RFC 8259 has no NaN or Infinity, so a strict parser rejects either
    code, out, err = run_cli(
        ["sweep", "--key", "g", "--values", "nan,inf,-inf,0.3", "--format", "json"], capsys
    )
    assert code == 0, err
    rows = json.loads(out, parse_constant=_raise_on_constant)["rows"]
    for row in rows[:3]:
        assert row == [None, None, None, None, None, "g must be finite and >= 0"]
    assert rows[3][0] == 0.3 and rows[3][4] is True
    # the CSV table keeps the text of each value
    code, out, _ = run_cli(["sweep", "--key", "g", "--values", "nan,inf,-inf,0.3"], capsys)
    assert code == 0
    assert [row[0] for row in parse_table(out)[1]] == ["nan", "inf", "-inf", "0.29999999999999999"]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["sweep", "--key", "g", "--values", "0.1,abc"], 1,
         "config error: --values entry 'abc' is not a number\n"),
        (["sweep", "--key", "g", "--values", ",,"], 1,
         "config error: --values must list at least one number\n"),
        # empty entries are skipped
        (["sweep", "--key", "g", "--values", "0.1,,0.2"], 0, ""),
        (["steady", "--set", "chi"], 1, "config error: line 1: expected key = value, got 'chi'\n"),
        (["steady", "--set", "chi=abc"], 1,
         "config error: line 1: chi must be a number, got 'abc'\n"),
        (["steady", "--config", None], 1, "config error: cannot read config "),
    ],
)
def test_input_errors_end_in_one_config_error_line(argv, code, message, tmp_path, capsys):
    argv = [str(tmp_path / "missing.cfg") if a is None else a for a in argv]
    got, out, err = run_cli(argv, capsys)
    assert got == code
    assert err.startswith(message) and err.count("\n") == min(code, 1)
    if code == 0:
        two = run_cli(["sweep", "--key", "g", "--values", "0.1,0.2"], capsys)
        assert (got, out, err) == two
    else:
        assert out == ""


def test_a_config_that_is_not_utf8_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"\xffchi = 4\n")
    code, out, err = run_cli(["steady", "--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"config error: cannot read config {str(cfg)!r}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


def test_sweep_rejects_an_unsweepable_key(capsys):
    code, _, err = run_cli(["sweep", "--key", "mass", "--values", "1.0"], capsys)
    assert code == 1
    assert "gamma_h" in err


def test_contour_polylines_have_the_advertised_geometry(capsys):
    code, out, _ = run_cli(["contour", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["label", "x", "p"]
    groups = {"thermal": [], "feedback": [], "ground": []}
    for label, x, p in payload["rows"]:
        groups[label].append(math.hypot(x, p))
    assert all(len(g) == 256 for g in groups.values())
    for radius in groups["thermal"]:
        assert abs(radius - math.sqrt(5.25)) < 1e-9
    for radius in groups["ground"]:
        assert abs(radius - 0.5) < 1e-12
    assert max(groups["feedback"]) < min(groups["thermal"])
    assert max(groups["feedback"]) <= 0.5 * 1.06


def test_validate_registry_names_and_tiers_are_pinned():
    # every validate report is keyed by these names, in this order; both
    # meter models keep their own entry though they share one check body
    assert [(name, tier) for name, tier, _ in trapcool.validation.CHECKS] == [
        ("formula_vs_kernel", "fast"),
        ("route_agreement", "fast"),
        ("moment_fixed_point", "fast"),
        ("gain_optimum", "fast"),
        ("contour_geometry", "fast"),
        ("rotation_accuracy", "fast"),
        ("heating_ramp", "fast"),
        ("property_grid", "fast"),
        ("projected_generator", "fast"),
        ("relaxation_to_formula", "full"),
        ("trajectory_ensemble", "full"),
        ("resonant_elimination", "full"),
        ("offresonant_elimination", "full"),
    ]


def test_validate_fast_passes_and_keeps_timings_off_the_report(tmp_path, capsys):
    first = tmp_path / "report1.csv"
    second = tmp_path / "report2.csv"
    code, out, _ = run_cli(["validate", "--level", "fast", "--out", str(first)], capsys)
    assert code == 0
    assert "9/9 checks passed" in out
    assert " s  " in out
    header, rows = parse_table(first.read_text())
    assert header == ["name", "passed", "detail"]
    assert len(rows) == 9 and all(row[1] == "true" for row in rows)
    assert " s " not in first.read_text()
    code, _, _ = run_cli(["validate", "--level", "fast", "--out", str(second)], capsys)
    assert code == 0
    assert second.read_bytes() == first.read_bytes()


def test_validate_catches_a_tampered_occupancy_formula(monkeypatch, capsys):
    orig = trapcool.gaussian.bath_params

    def tampered(params):
        bp = orig(params)
        return trapcool.gaussian.BathParams(Gamma=bp.Gamma, N=1.05 * bp.N, M=bp.M)

    monkeypatch.setattr(trapcool.gaussian, "bath_params", tampered)
    code, out, _ = run_cli(["validate", "--level", "fast"], capsys)
    assert code == 3
    line = next(l for l in out.splitlines() if l.startswith("formula_vs_kernel"))
    assert "FAIL" in line


def test_validate_catches_a_tampered_moment_formula(monkeypatch, capsys):
    # stationary_moments is what steady and contour print; Im(mu) off by one
    # part in 1e6 leaves a moment-flow residual of at least 2.6e-8
    orig = trapcool.gaussian.stationary_moments

    def tampered(params):
        m = orig(params)
        return trapcool.gaussian.StationaryMoments(
            zeta=m.zeta, mu=complex(m.mu.real, m.mu.imag * (1.0 + 1e-6))
        )

    monkeypatch.setattr(trapcool.gaussian, "stationary_moments", tampered)
    code, out, _ = run_cli(["validate", "--level", "fast"], capsys)
    assert code == 3
    line = next(l for l in out.splitlines() if l.startswith("moment_fixed_point"))
    assert "FAIL" in line


def test_validate_full_report_carries_ensemble_standard_errors(monkeypatch, tmp_path, capsys):
    def fake_fast():
        return True, "closed form agrees"

    def fake_full():
        return True, "largest deviation 1.10 SE; SE range [1.2e-02, 3.4e-02]"

    monkeypatch.setattr(
        trapcool.validation,
        "CHECKS",
        (("closed_form", "fast", fake_fast), ("ensemble", "full", fake_full)),
    )
    report = tmp_path / "full.json"
    code, out, _ = run_cli(
        ["validate", "--level", "full", "--format", "json", "--out", str(report)],
        capsys,
    )
    assert code == 0
    assert "2/2 checks passed" in out
    payload = json.loads(report.read_text())
    assert payload["level"] == "full" and payload["passed"] is True
    assert "SE range" in payload["checks"][1]["detail"]


def test_usage_errors_exit_as_configuration_problems(tmp_path, capsys):
    # exit 2 is reserved for numerical failures, so argparse's code is not used
    cfg = tmp_path / "old.cfg"
    cfg.write_text("epsilon = 0.0\n")
    cases = (
        (["steady", "--seed", "abc"], "--seed"),
        (["trajectory", "--jobs", "2"], "--jobs"),
        (["steady", "--config", str(cfg)], "epsilon"),
    )
    for argv, named in cases:
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert named in err
    code, out, _ = run_cli(["steady", "--help"], capsys)
    assert code == 0
    assert "usage:" in out


def test_degenerate_kernel_exits_as_a_numerical_failure(monkeypatch, capsys):
    def free_rotation(params, spec):
        return Superoperator(hamiltonian_term(params.nu * number_op(spec)))

    monkeypatch.setattr(trapcool.cli, "reduced_feedback_liouvillian", free_rotation)
    code, _, err = run_cli(["steady", "--set", "n_trunc=6"], capsys)
    assert code == 2
    assert "kernel solve failed" in err


def test_every_exported_name_resolves():
    # a deleted function must leave no stale entry in any __all__
    modules = [trapcool] + [
        importlib.import_module(f"trapcool.{info.name}")
        for info in pkgutil.iter_modules(trapcool.__path__)
    ]
    exporting = [mod for mod in modules if hasattr(mod, "__all__")]
    stale = [f"{mod.__name__}.{name}" for mod in exporting
             for name in mod.__all__ if not hasattr(mod, name)]
    assert stale == []
    assert {mod.__name__ for mod in exporting} >= {
        "trapcool", "trapcool.gaussian", "trapcool.models", "trapcool.sme"
    }


def test_package_import_leaves_the_linear_algebra_modules_unloaded():
    # scipy.linalg and scipy.sparse.linalg cost every CLI start a large
    # import; only kernel solves need them, and they import them lazily.
    # Deterministic propagation needs none of them, nor scipy.sparse.csgraph
    # (which loads scipy.linalg) for its reachable-block search.
    src = pathlib.Path(trapcool.cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = "\n".join((
        "import sys, numpy as np, trapcool as tc",
        "spec = tc.FockBasisSpec(n_trunc=4)",
        "L = tc.reduced_feedback_liouvillian(tc.ScenarioConfig().system_params(), spec)",
        "rho = np.zeros((5, 5))",
        "rho[0, 0] = 1.0",
        "cfg = tc.IntegratorConfig(dt=1e-4, t_final=1e-3)",
        "tc.integrate_lindblad(L, tc.DenseOperator(rho), cfg)",
        "mods = ('scipy.linalg', 'scipy.sparse.linalg', 'scipy.sparse.csgraph')",
        "print(sorted(m for m in mods if m in sys.modules))",
    ))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
