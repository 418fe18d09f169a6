"""Configuration grammar, subcommand dispatch, file formats, reproducibility."""

import dataclasses
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import vpice
from vpice.cli import SUBCOMMANDS, dispatch
from vpice.config import KEYS, ConfigError, RunConfig, load_config, parse_config
from vpice.dynamics import MAX_STEPS, StepperConfig
from vpice.grid import FieldSet, Grid
from vpice.io_formats import (
    CsvWriter,
    read_snapshot,
    write_manifest,
    write_snapshot,
)
from vpice.operators import LinearSolveError, SparseOperator, solve_linear
from vpice.params import InvalidStateError, RheologyParams, VpiceError
from vpice.stability import DECAY_GAP_RTOL, Equilibrium
from vpice.symbols import RootBalanceError


SCALED_SNIPPET = """
# desk-scale parameters
rheology.delta = 1e-6
rheology.p_star = 1.0
rheology.c = 2.0
rheology.rho_ice = 1.0
rheology.c_cor = 0.0
rheology.g = 1.0
grid.nx = 9
grid.ny = 9
stepper.dt = 0.01
stepper.t_end = 0.05
experiment.n_samples = 25
"""


def scaled_config(body):
    """SCALED_SNIPPET then ``body``, less the snippet's lines for the keys
    ``body`` assigns: a config assigns each key once."""
    keys = {line.split("=")[0].strip() for line in body.splitlines()}
    return "".join(line + "\n" for line in SCALED_SNIPPET.splitlines()
                   if line.split("=")[0].strip() not in keys) + body


def write_config(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_empty_config_is_all_defaults():
    cfg = parse_config("")
    assert cfg["rheology.e"] == 2.0
    assert cfg["grid.nx"] == 17
    assert cfg["experiment.output_dir"] == "out"
    assert cfg["experiment.emit_ppm"] is False


def test_parse_assignments_and_comments():
    cfg = parse_config("""
    # comment line
    rheology.delta = 1e-9   # trailing comment
    grid.nx = 33
    stepper.dt = 0.002
    experiment.emit_ppm = true
    """)
    assert cfg["rheology.delta"] == 1e-9
    assert cfg["grid.nx"] == 33
    assert cfg["stepper.dt"] == 0.002
    assert cfg["experiment.emit_ppm"] is True


def test_parse_is_order_independent():
    a = parse_config("grid.nx = 9\nrheology.e = 1.5\n")
    b = parse_config("rheology.e = 1.5\ngrid.nx = 9\n")
    assert a.values == b.values


def test_unknown_key_reports_line():
    # removed settings are rejected like any other unknown key
    for line in ("bogus.key = 1", "rheology.variant = tanh",
                 "rheology.zeta_max = 1e12", "rheology.eta_max = 2.5e11",
                 "stepper.omega = 0.5", "stepper.scheme = picard",
                 "stepper.picard_max = 25", "stepper.picard_tol = 1e-10"):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("rheology.e = 2.0\n" + line + "\n")
        assert "line 2" in str(excinfo.value)
        assert "unknown key" in str(excinfo.value)


def test_range_violation_nx():
    with pytest.raises(ConfigError) as excinfo:
        parse_config("grid.nx = 2")
    assert "violates its range" in str(excinfo.value)


def test_type_errors():
    with pytest.raises(ConfigError):
        parse_config("grid.nx = 2.5")
    with pytest.raises(ConfigError):
        parse_config("stepper.dt = fast")
    with pytest.raises(ConfigError):
        parse_config("experiment.emit_ppm = yes")
    with pytest.raises(ConfigError):
        parse_config("just some words")


def test_empty_value_reports_line(tmp_path, capfd):
    with pytest.raises(ConfigError) as excinfo:
        parse_config("grid.nx = 9\nexperiment.output_dir =\n")
    assert excinfo.value.line_number == 2
    assert "empty value" in str(excinfo.value)
    path = write_config(tmp_path, "experiment.output_dir =   # no directory\n")
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    assert excinfo.value.line_number == 1
    exit_code, _, lines = dispatch_cleanly(["simulate", path], capfd)
    assert exit_code == 2
    assert lines == ["vpice: config error: line 1: key experiment.output_dir "
                     "has an empty value"]


def test_negative_lambda_re_min_is_range_error():
    with pytest.raises(ConfigError):
        parse_config("experiment.lambda_re_min = -0.5")


def test_typed_accessors():
    cfg = parse_config(SCALED_SNIPPET)
    params = cfg.rheology_params()
    assert params.p_star == 1.0
    grid = cfg.grid()
    assert (grid.nx, grid.ny) == (9, 9)
    stepper = cfg.stepper()
    assert stepper.dt == 0.01
    eq = cfg.equilibrium()
    assert eq.h_star == 1.0


# every key with its printed default, in manifest order
DEFAULT_ECHO = [
    ("rheology.e", "2"), ("rheology.delta", "9.9999999999999998e-13"),
    ("rheology.p_star", "27500"), ("rheology.c", "20"),
    ("rheology.kappa", "0.10000000000000001"), ("rheology.rho_ice", "900"),
    ("rheology.rho_atm", "1.3"), ("rheology.rho_ocean", "1026"),
    ("rheology.c_atm", "0.0011999999999999999"),
    ("rheology.c_ocean", "0.0054999999999999997"),
    ("rheology.theta_atm", "0"), ("rheology.theta_ocean", "0"),
    ("rheology.c_cor", "0.000146"), ("rheology.g", "9.8100000000000005"),
    ("rheology.d_h", "1"), ("rheology.d_a", "1"),
    ("grid.nx", "17"), ("grid.ny", "17"), ("grid.lx", "1"), ("grid.ly", "1"),
    ("stepper.dt", "0.0040000000000000001"),
    ("stepper.t_end", "0.29999999999999999"),
    ("equilibrium.h_star", "1"), ("equilibrium.a_star", "0.80000000000000004"),
    ("experiment.seed", "0"), ("experiment.n_samples", "1000"),
    ("experiment.perturbation_scale", "0.001"),
    ("experiment.output_dir", "out"), ("experiment.snapshot_every", "0"),
    ("experiment.lambda_re_min", "0"), ("experiment.emit_ppm", "false"),
]


def manifest_items(out, prefix):
    """The (key, value) pairs of ``out``/manifest.txt whose key starts with
    ``prefix``, the prefix dropped, in file order."""
    lines = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
    return [(key[len(prefix):], value) for key, value in
            (line.split(" = ", 1) for line in lines) if key.startswith(prefix)]


def listed_names(out):
    """The file names ``out``/manifest.txt lists, in order."""
    return [value for key, value in manifest_items(out, "file.")
            if key.endswith(".name")]


def test_default_echo_is_golden(tmp_path, monkeypatch, capsys):
    # the empty config: every key at its default, output_dir "out" included
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.cfg").write_text("")
    assert dispatch(["symbol", "empty.cfg"]) == 0
    capsys.readouterr()
    assert manifest_items(tmp_path / "out", "config.") == DEFAULT_ECHO
    assert len(KEYS) == 31


@pytest.mark.parametrize("assignment", [
    "rheology.delta = -1", "rheology.c_cor = -1", "grid.lx = 0",
    "stepper.t_end = 0", "equilibrium.a_star = 1.5",
    "equilibrium.h_star = 0", "experiment.n_samples = 0",
    # 1/e^2 underflows to 0 or overflows to inf
    "rheology.e = 1e-308", "rheology.e = 1e308",
    # so do 1/dx^2 and 1/dy^2
    "grid.lx = 1e-308", "grid.lx = 1e308", "grid.ly = 1e308",
    # the sampling range [h*/2, 2 h*] overflows
    "equilibrium.h_star = 1e308",
    # t_end / dt = 3e307 steps, past MAX_STEPS
    "stepper.dt = 1e-308",
])
def test_range_rules_name_line_and_key(assignment):
    key = assignment.split(" = ")[0]
    with pytest.raises(ConfigError) as excinfo:
        parse_config("grid.nx = 9\n" + assignment + "\n")
    message = str(excinfo.value)
    assert message.startswith(f"line 2: key {key} = ")
    assert "violates its range" in message


def test_dataclasses_own_the_range_rules():
    with pytest.raises(InvalidStateError):
        RheologyParams(c_cor=-1.0)
    with pytest.raises(InvalidStateError):
        StepperConfig(dt=0.1, t_end=0.0)
    with pytest.raises(InvalidStateError):
        Equilibrium(1.0, 1.5)
    # non-finite floats, built from Python without the config
    for build in (lambda: RheologyParams(theta_atm=float("nan")),
                  lambda: RheologyParams(delta=float("inf")),
                  lambda: Grid(9, 9, lx=float("inf")),
                  lambda: StepperConfig(dt=0.1, t_end=float("inf")),
                  lambda: Equilibrium(float("inf"), 0.5)):
        with pytest.raises(InvalidStateError, match="must be finite"):
            build()


def test_step_count_is_bounded():
    assert StepperConfig(dt=1.0, t_end=float(MAX_STEPS)).n_steps == MAX_STEPS
    with pytest.raises(InvalidStateError, match="MAX_STEPS"):
        StepperConfig(dt=1.0, t_end=MAX_STEPS + 1.0)


def test_rule_across_keys_sees_every_assigned_value():
    # 2 steps; t_end = 2e9 alone, with the default dt, would be 5e11
    for body in ("stepper.dt = 1e9\nstepper.t_end = 2e9\n",
                 "stepper.t_end = 2e9\nstepper.dt = 1e9\n"):
        assert parse_config(body).stepper().n_steps == 2
    with pytest.raises(ConfigError, match="^line 1: key stepper.t_end = "):
        parse_config("stepper.t_end = 2e9\n")
    # each value passes alone, together they ask for 1e7 steps: reported
    # on the section's last assigned line
    for body in ("stepper.dt = 1e-5\ngrid.nx = 9\nstepper.t_end = 100\n",
                 "stepper.t_end = 100\ngrid.nx = 9\nstepper.dt = 1e-5\n"):
        with pytest.raises(ConfigError, match="^line 3: .*MAX_STEPS"):
            parse_config(body)


def test_every_float_key_rejects_non_finite_values():
    float_keys = [key for key, (kind, _) in KEYS.items() if kind is float]
    assert len(float_keys) == 24
    for key in float_keys:
        for raw in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError) as excinfo:
                parse_config(f"grid.nx = 9\n{key} = {raw}\n")
            assert str(excinfo.value).startswith(
                f"line 2: key {key} = {float(raw)!r} violates its range: ")


@pytest.mark.parametrize("t_end, reason", [
    ("inf", "t_end must be finite, got inf"),
    # finite, but the step count t_end / dt overflows
    ("1e308", "t_end / dt must be finite, got 1e+308 / 0.004"),
])
def test_simulate_infinite_t_end_exit_2_one_line(tmp_path, capsys, t_end,
                                                 reason):
    path = write_config(tmp_path, "grid.nx = 9\ngrid.ny = 9\n"
                                  f"stepper.t_end = {t_end}\n")
    assert dispatch(["simulate", path]) == 2
    err = capsys.readouterr().err
    assert err == (f"vpice: config error: line 3: key stepper.t_end = "
                   f"{float(t_end)!r} violates its range: {reason}\n")


def test_echo_prints_17_digits(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, "rheology.delta = 0.1\n"
                                  "experiment.n_samples = 1\n"
                                  f"experiment.output_dir = {out}\n")
    assert dispatch(["symbol", path]) == 0
    capsys.readouterr()
    echo = dict(manifest_items(out, "config."))
    assert echo["rheology.delta"] == "0.10000000000000001"


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def test_csv_writer_format(tmp_path):
    path = tmp_path / "rows.csv"
    with CsvWriter(path, ("id", "x", "n")) as writer:
        writer({"id": 0, "x": 0.1, "n": 2})
        writer({"n": 2, "x": 1.0 / 3.0, "id": 1})  # in any key order
        writer.write_columns([2, 3], [-0.0, 1e300], [0, -7])
    assert path.read_bytes() == (b"id,x,n\n"
                                 b"0,0.10000000000000001,2\n"
                                 b"1,0.33333333333333331,2\n"
                                 b"2,-0,0\n"
                                 b"3,1.0000000000000001e+300,-7\n")


def test_manifest_layout(tmp_path):
    write_manifest(tmp_path, [("a.csv", "csv"), ("b.txt", "key-value")],
                   RunConfig().values.items())
    with open(tmp_path / "manifest.txt", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    assert lines[:4] == ["file.0.name = a.csv", "file.0.format = csv",
                         "file.1.name = b.txt", "file.1.format = key-value"]
    assert lines[4:] == [f"config.{key} = {value}"
                         for key, value in DEFAULT_ECHO] + [""]
    assert "config.grid.nx = 17" in lines
    assert "config.experiment.emit_ppm = false" in lines


def test_snapshot_roundtrip(tmp_path):
    g = Grid(7, 5, 2.0, 3.0)
    rng = np.random.default_rng(0)
    v = FieldSet.constant(g, 1.0, 0.5)
    v.h += 0.01 * rng.normal(size=(g.ny, g.nx))
    interior = g.interior_mask()
    v.u1[interior] = rng.normal(size=interior.sum())
    path = tmp_path / "snap.bin"
    write_snapshot(path, v, t=1.25)
    back, t = read_snapshot(path)
    assert t == 1.25
    assert (back.grid.nx, back.grid.ny) == (7, 5)
    np.testing.assert_array_equal(back.u1, v.u1)
    np.testing.assert_array_equal(back.h, v.h)


@pytest.mark.parametrize("change", [-8, 8], ids=["short", "trailing"])
def test_snapshot_payload_length_is_checked(tmp_path, change):
    # 5 x 5 nodes, four fields of f64: 800 payload bytes, neither fewer nor
    # more
    path = tmp_path / "snap.bin"
    write_snapshot(path, FieldSet.constant(Grid(5, 5), 1.0, 0.5), t=0.0)
    data = path.read_bytes()
    path.write_bytes(data[:change] if change < 0 else data + bytes(change))
    found = 800 + change
    with pytest.raises(ValueError) as info:
        read_snapshot(path)
    message = str(info.value)
    assert str(path) in message and "5x5" in message
    assert "800" in message and str(found) in message


@pytest.mark.parametrize("header", [b"5 5 1\n", b"", b"five 5 1 1 0\n"],
                         ids=["short", "empty", "not a number"])
def test_snapshot_header_is_checked(tmp_path, header):
    path = tmp_path / "snap.bin"
    path.write_bytes(header)
    with pytest.raises(ValueError) as info:
        read_snapshot(path)
    message = str(info.value)
    assert str(path) in message and "'nx ny lx ly t'" in message


# ---------------------------------------------------------------------------
# Dispatch and exit codes
# ---------------------------------------------------------------------------

def test_every_package_error_carries_an_exit_code():
    errors = set()
    for info in pkgutil.iter_modules(vpice.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"vpice.{info.name}")
        errors.update(value for value in vars(module).values()
                      if isinstance(value, type)
                      and issubclass(value, BaseException)
                      and value.__module__ == module.__name__)
    assert len(errors) == 8
    for error in errors:
        assert issubclass(error, VpiceError)
        assert error.exit_code in (1, 2)
    assert ConfigError.exit_code == InvalidStateError.exit_code == 2
    assert issubclass(ConfigError, ValueError)
    assert issubclass(InvalidStateError, ValueError)


def test_dispatch_usage_errors(tmp_path, capsys):
    assert dispatch([]) == 2
    assert dispatch(["not-a-command"]) == 2
    assert dispatch(["spectrum"]) == 2
    capsys.readouterr()
    missing = tmp_path / "missing.cfg"
    assert dispatch(["spectrum", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err == f"vpice: config file not found: {missing}\n"


def test_dispatch_config_error_exit_2(tmp_path, capsys):
    for body, message in (
            ("grid.nx = 2\n", "line 1: "),
            ("grid.nx = 9\nstepper.omega = 0.5\n",
             "line 2: unknown key 'stepper.omega'"),
            # a repeated key, in either order: the last one does not win
            ("grid.nx = 9\ngrid.nx = 11\n",
             "line 2: grid.nx is assigned again, first at line 1"),
            ("grid.nx = 11\n# comment\ngrid.nx = 9\n",
             "line 3: grid.nx is assigned again, first at line 1"),
            ("grid.nx = 9\nstepper.scheme = picard\n",
             "line 2: unknown key 'stepper.scheme'")):
        path = write_config(tmp_path, body)
        assert dispatch(["spectrum", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("vpice: config error: " + message)
        assert err.count("\n") == 1


UNREADABLE_REASONS = {"not utf-8": "is not UTF-8 text",
                      "directory": "is a directory",
                      "under a regular file": "cannot be read: Not a directory"}


@pytest.mark.parametrize("kind", UNREADABLE_REASONS)
def test_unreadable_config_exit_2_one_line(tmp_path, capsys, kind):
    path = tmp_path / "run.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "under a regular file":
        # open() raises NotADirectoryError, an OSError like any other
        (tmp_path / "plain").write_text("")
        path = tmp_path / "plain" / "run.cfg"
    else:
        path.write_bytes(b"\xff\xfe\x00grid.nx = 9\n")
    assert dispatch(["simulate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"vpice: config error: {path} {UNREADABLE_REASONS[kind]}")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_step_longer_than_the_run_takes_one_step(tmp_path, capsys):
    # t_end / dt = 3e-309: the run still takes its one step, which either
    # writes a second row or fails with exit 1
    assert StepperConfig(dt=1e308, t_end=0.3).n_steps == 1
    out = tmp_path / "out"
    path = write_config(tmp_path, "grid.nx = 5\ngrid.ny = 5\n"
                                  "stepper.dt = 1e308\n"
                                  f"experiment.output_dir = {out}\n")
    code = dispatch(["simulate", path])
    captured = capsys.readouterr()
    rows = (out / "diagnostics.csv").read_text().splitlines()
    if code == 0:
        assert len(rows) == 3  # header, initial state, one step
    else:
        assert code == 1 and len(rows) == 2
        assert captured.err.startswith("vpice: step 1 ")
        assert captured.err.count("\n") == 1


def test_failing_step_exit_1_one_line(tmp_path, capsys):
    out = tmp_path / "fail"
    body = (f"experiment.output_dir = {out}\n"
            "stepper.dt = 1e9\nstepper.t_end = 2e9\n")
    path = write_config(tmp_path, body)
    assert dispatch(["simulate", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("vpice: step 1 ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    # the diagnostics streamed before the failed step are listed
    manifest = (out / "manifest.txt").read_text()
    assert "file.0.name = diagnostics.csv\n" in manifest


def test_factorization_failure_names_no_residual():
    # equal rows give SuperLU an exact zero pivot in a finite operator: the
    # solve computed no residual, so the message names none
    op = SparseOperator(sp.csr_matrix(np.ones((2, 2))), np.zeros(2, bool))
    with pytest.raises(LinearSolveError) as info:
        solve_linear(op, np.array([1.0, 2.0]))
    message = str(info.value)
    assert message.startswith("sparse factorization failed")
    assert "residual" not in message and "nan" not in message


def test_overflowed_step_matrix_exit_1_one_line(tmp_path, capsys):
    # I + dt A overflows at dt = 1e308: the assembly rejects it, before any
    # solve
    path = write_config(tmp_path, "grid.nx = 5\ngrid.ny = 5\n"
                                  "stepper.dt = 1e308\nstepper.t_end = 1e308\n"
                                  f"experiment.output_dir = {tmp_path}\n")
    assert dispatch(["simulate", path]) == 1
    assert capsys.readouterr().err == (
        "vpice: step 1 at t = 1e+308 failed: the assembled operator has "
        "non-finite entries at these settings\n")


def test_lscheck_negative_lambda_config_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, "experiment.lambda_re_min = -1.0\n")
    assert dispatch(["ls-check", path]) == 2
    capsys.readouterr()


def test_spectrum_budget_exit_2(tmp_path, capsys, monkeypatch):
    # the budget is known from the grid: rejected before A0 is assembled
    assembled = []
    monkeypatch.setattr("vpice.cli.assemble_A0",
                        lambda *args: assembled.append(args))
    path = write_config(tmp_path, "grid.nx = 80\ngrid.ny = 80\n")
    dump = tmp_path / "A0.coo"
    assert dispatch(["spectrum", path, "--dump-matrix", str(dump)]) == 2
    err = capsys.readouterr().err
    assert "budget" in err
    assert len(err.splitlines()) == 1
    assert not dump.exists()
    assert assembled == []


def test_spectrum_subcommand_outputs(tmp_path, capsys):
    out = tmp_path / "outdir"
    body = SCALED_SNIPPET + f"experiment.output_dir = {out}\n"
    path = write_config(tmp_path, body)
    assert dispatch(["spectrum", path]) == 0
    capsys.readouterr()
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "re,im"
    n = 9 * 9
    interior_unknowns = 2 * (7 * 7) + 2 * n
    assert len(lines) - 1 == interior_unknowns
    summary = [line.split(" = ") for line in
               (out / "spectrum_summary.txt").read_text().splitlines()]
    assert [key for key, _ in summary] == [
        "kernel_dim", "spectral_gap", "spectral_radius",
        "kernel_right_residual", "kernel_left_residual",
        "kernel_restriction_norm", "symmetry_group", "block_sizes"]
    summary = dict(summary)
    assert summary["kernel_dim"] == "2"
    # D4 at c_cor = 0 on a square grid; the 2-D irrep's block counts twice;
    # with d_h == d_a each character gives a (u, p) block, and the n - 1
    # nonzero q eigenvalues are in closed form
    assert summary["symmetry_group"] == "D4"
    assert summary["block_sizes"] == "26 22 22 18 45x2"
    assert 26 + 22 + 22 + 18 + 2 * 45 + (n - 1) == interior_unknowns - 2
    manifest = (out / "manifest.txt").read_text()
    assert "file.0.name = spectrum.csv" in manifest
    assert "config.grid.nx = 9" in manifest


PROBE_LINE = re.compile(r"probe \d+: ")
# ice strength past the float range at every drawn state: p* h with h >= 2
P_INF_EVERYWHERE = ("rheology.p_star = 1e308\nrheology.c = 1e-300\n"
                    "equilibrium.h_star = 4")  # ls-check's line per failed probe


def dispatch_cleanly(argv, capfd):
    """dispatch, checked for no warning (every one is recorded, not only
    the first per source line), no traceback, no LAPACK text on stdout
    (``**`` lines written to fd 1) and at most one stderr line besides
    ls-check's probe lines.  Returns the exit code, stdout and those
    stderr lines."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = dispatch(argv)
    out, err = capfd.readouterr()
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in out + err
    assert "**" not in out and "LAPACK" not in out
    lines = [line for line in err.splitlines() if not PROBE_LINE.match(line)]
    assert len(lines) <= 1
    return code, out, lines


@pytest.mark.parametrize("command, assignment, code, error_line", [
    # A0 is not finite: a config error
    ("spectrum", "rheology.p_star = 1e308", 2, True),
    ("spectrum", "rheology.rho_ice = 1e-308", 2, True),
    ("spectrum", "rheology.d_h = 1e308", 2, True),
    ("spectrum", "equilibrium.h_star = 1e308", 2, True),
    ("symbol", "equilibrium.h_star = 1e308", 2, True),
    ("ls-check", "equilibrium.h_star = 1e308", 2, True),
    # the gap is rounding noise (6.8e-17 against a radius of 2.6e138) or
    # negative: the pass rule fails
    ("spectrum", "rheology.delta = 1e-308", 1, False),
    ("spectrum", "rheology.c_cor = 1e308", 1, False),
    # float overflow in the coefficients or the solve: the step fails
    ("simulate", "rheology.p_star = 1e308", 1, True),
    ("simulate", "rheology.rho_ice = 1e-308", 1, True),
    ("simulate", "rheology.rho_ocean = 1e308", 1, True),
    ("simulate", "rheology.d_h = 1e308", 1, True),
    ("simulate", "rheology.d_a = 1e308", 1, True),
    # overflow in the pointwise checks: a report row, or probe lines
    ("symbol", "rheology.delta = 1e308", 0, False),
    # P = 1e308 h = inf at every state: h >= 2 and exp(-c (1 - a)) = 1
    pytest.param("symbol", P_INF_EVERYWHERE, 1, False,
                 id="symbol-rheology.p_star = 1e308-1-False"),
    ("ls-check", "experiment.lambda_re_min = 1e308", 1, False),
])
def test_extreme_finite_settings_exit_with_one_line(command, assignment, code,
                                                    error_line, tmp_path,
                                                    capfd):
    path = write_config(tmp_path, f"grid.nx = 5\ngrid.ny = 5\n"
                                  f"experiment.n_samples = 5\n"
                                  f"experiment.output_dir = {tmp_path / 'out'}\n"
                                  f"{assignment}\n")
    exit_code, out, lines = dispatch_cleanly([command, path], capfd)
    assert exit_code == code
    if error_line:
        assert len(lines) == 1 and lines[0].startswith("vpice: ")
    else:  # the command ran to its summary line
        assert lines == []
        assert len(out.splitlines()) == 1


FUZZ_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e308", "1e-308")


@pytest.mark.parametrize("key", list(KEYS))
@settings(derandomize=True, deadline=None, max_examples=13,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from([c for c in SUBCOMMANDS if c != "selftest"]),
       raw=st.sampled_from(FUZZ_VALUES))
def test_fuzzed_key_exits_cleanly(key, command, raw, tmp_path, capfd,
                                  monkeypatch):
    monkeypatch.chdir(tmp_path)  # a fuzzed output_dir is a relative path
    # 25 steps: enough rows for the decay fit; the fuzzed key takes the
    # place of its base assignment, as a key is assigned once
    values = {"grid.nx": 5, "grid.ny": 5, "stepper.t_end": 0.1,
              "experiment.n_samples": 5,
              "experiment.output_dir": tmp_path / "out", key: raw}
    path = write_config(tmp_path, "".join(f"{name} = {value}\n"
                                          for name, value in values.items()))
    assert dispatch_cleanly([command, path], capfd)[0] in (0, 1, 2)


def test_symbol_subcommand_and_reproducibility(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        body = SCALED_SNIPPET + f"experiment.output_dir = {out}\n"
        path = write_config(tmp_path, body, name=f"cfg_{out.name}.cfg")
        assert dispatch(["symbol", path]) == 0
        capsys.readouterr()
    bytes_a = (out_a / "symbol_report.csv").read_bytes()
    bytes_b = (out_b / "symbol_report.csv").read_bytes()
    assert bytes_a == bytes_b


def test_ls_check_subcommand(tmp_path, capsys):
    out = tmp_path / "ls"
    body = SCALED_SNIPPET + f"experiment.output_dir = {out}\n"
    path = write_config(tmp_path, body)
    assert dispatch(["ls-check", path]) == 0
    capsys.readouterr()
    lines = (out / "ls_report.csv").read_text().splitlines()
    assert len(lines) == 26  # header + n_samples
    assert lines[0].startswith("id,")
    # every probe must report the 2/2 split
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[8] == "2" and cells[9] == "2"


@pytest.mark.parametrize("base", ["scaled", "si"])
def test_probe_commands_pass_over_seeds(base, tmp_path, capsys):
    # the pass rate across seeds: every sample of 50 seeds passes, on the
    # desk-scale set and on the SI defaults
    out = tmp_path / "out"
    for seed in range(50):
        body = (f"experiment.seed = {seed}\nexperiment.n_samples = 100\n"
                f"experiment.output_dir = {out}\n")
        path = write_config(tmp_path, scaled_config(body)
                            if base == "scaled" else body)
        for command, report in (("symbol", "symbol_report.csv"),
                                ("ls-check", "ls_report.csv")):
            assert dispatch([command, path]) == 0, (command, seed)
            rows = (out / report).read_text().splitlines()[1:]
            assert len(rows) == 100, (command, seed)
    capsys.readouterr()


def test_symbol_nan_row_exit_1(tmp_path, capsys):
    # P = 1e308 h exp(...) overflows: the report rows hold inf and NaN
    out = tmp_path / "symbol"
    path = write_config(tmp_path, "grid.nx = 5\ngrid.ny = 5\n"
                                  "experiment.n_samples = 5\n"
                                  f"{P_INF_EVERYWHERE}\n"
                                  f"experiment.output_dir = {out}\n")
    assert dispatch(["symbol", path]) == 1
    capsys.readouterr()
    assert "nan" in (out / "symbol_report.csv").read_text()


def test_ls_check_nan_s_min_exit_1(tmp_path, capsys, monkeypatch):
    # one NaN s_min in the middle of the stack fails the command
    from vpice import cli
    original = cli.lopatinskii_shapiro_check

    def nan_middle(*args):
        result = original(*args)
        s_min = result.s_min.copy()
        s_min[2] = np.nan
        return dataclasses.replace(result, s_min=s_min)

    monkeypatch.setattr(cli, "lopatinskii_shapiro_check", nan_middle)
    body = SCALED_SNIPPET + f"experiment.output_dir = {tmp_path / 'ls'}\n"
    assert dispatch(["ls-check", write_config(tmp_path, body)]) == 1
    capsys.readouterr()
    rows = (tmp_path / "ls" / "ls_report.csv").read_text().splitlines()[1:]
    assert [row.split(",")[10] == "nan" for row in rows[:4]] == [
        False, False, True, False]


def test_ls_check_failing_probes_keep_the_other_rows(tmp_path, capsys):
    # Re lambda >= 1e308 overflows some probes' companion matrices: the
    # probes are checked as one stack, and its report holds the rows and
    # stderr lines of the probes checked one at a time
    from vpice.rheology import StrainRate
    from vpice.symbols import (LSProbe, lopatinskii_shapiro_check,
                               sample_ls_probes)
    body = scaled_config("experiment.lambda_re_min = 1e308\n"
                         f"experiment.output_dir = {tmp_path / 'ls'}\n")
    path = write_config(tmp_path, body)
    assert dispatch(["ls-check", path]) == 1
    err = capsys.readouterr().err.splitlines()
    cfg = load_config(path)
    params = cfg.rheology_params()
    probes, _ = sample_ls_probes(np.random.default_rng(cfg["experiment.seed"]),
                                 params, cfg["experiment.n_samples"], 1e308)
    expected_err, kept, failed = [], [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for index in range(cfg["experiment.n_samples"]):
            one = slice(index, index + 1)
            eps = probes.eps
            probe = LSProbe(probes.xi[one], probes.nu[one], probes.lam[one],
                            StrainRate(eps.e11[one], eps.e12[one],
                                       eps.e22[one]), probes.p[one])
            failure = lopatinskii_shapiro_check(probe, params).failure[0]
            (kept if failure is None else failed).append(index)
            if failure is not None:
                expected_err.append(f"probe {index}: {failure}")
    rows = (tmp_path / "ls" / "ls_report.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == kept
    assert err == expected_err
    # a failed probe lies between two that keep their rows
    assert any(kept[0] < index < kept[-1] for index in failed)


@pytest.mark.parametrize("assignment", ["rheology.p_star = 1e-308",
                                        "rheology.c = 1e308"])
def test_ls_check_degenerate_symbol_exit_1_without_traceback(
        tmp_path, capsys, assignment):
    # P is 0 or subnormal: C2 = -Q(nu, nu) is singular or its inverse not
    # finite, and every probe reports a RootBalanceError line
    body = (f"grid.nx = 5\ngrid.ny = 5\nexperiment.n_samples = 3\n"
            f"{assignment}\nexperiment.output_dir = {tmp_path / 'ls'}\n")
    assert dispatch(["ls-check", write_config(tmp_path, body)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[0].startswith("probe 0: ")
    assert len(err.splitlines()) == 3


def test_decay_subcommand(tmp_path, capsys):
    out = tmp_path / "decay"
    body = scaled_config(
        f"experiment.output_dir = {out}\n"
        + "grid.nx = 11\ngrid.ny = 11\n"
        + "stepper.dt = 0.005\nstepper.t_end = 0.25\n")
    path = write_config(tmp_path, body)
    assert dispatch(["decay", path]) == 0
    capsys.readouterr()
    summary = (out / "decay_summary.txt").read_text()
    assert "fitted_rate" in summary and "predicted_gap" in summary
    header = (out / "decay_diagnostics.csv").read_text().splitlines()[0]
    assert header == "time,kinetic_energy,mean_h,mean_a,max_u,perturbation_norm"


def test_decay_subcommand_exit_1_when_rate_misses_gap(tmp_path, capsys):
    # steps of dt = 0.1 damp the slowest mode too weakly: the fitted rate
    # misses the spectral gap by about 26%, beyond the 20% bound
    out = tmp_path / "decay"
    body = scaled_config(
        f"experiment.output_dir = {out}\n"
        + "stepper.dt = 0.1\nstepper.t_end = 3.0\n")
    path = write_config(tmp_path, body)
    assert dispatch(["decay", path]) == 1
    capsys.readouterr()
    summary = dict(line.split(" = ") for line in
                   (out / "decay_summary.txt").read_text().splitlines())
    assert float(summary["relative_gap_error"]) > DECAY_GAP_RTOL


@pytest.mark.parametrize("scale, code, message", [
    # nothing to fit: rejected before the run
    ("0", 2, "nonzero perturbation_scale"),
    # lost to rounding: the state is the equilibrium, no rate to fit
    ("1e-308", 1, "lost to rounding"),
    # the fit window would hold rounding noise of the equilibrium
    ("1e-14", 1, "rounding floor"),
])
def test_decay_without_a_perturbation_fails_without_a_summary(
        scale, code, message, tmp_path, capfd):
    out = tmp_path / "decay"
    body = scaled_config(
        f"experiment.output_dir = {out}\n"
        + "stepper.t_end = 0.25\n"
        + f"experiment.perturbation_scale = {scale}\n")
    exit_code, _, lines = dispatch_cleanly(["decay", write_config(tmp_path, body)],
                                           capfd)
    assert exit_code == code
    assert len(lines) == 1 and lines[0].startswith("vpice: ")
    assert message in lines[0]
    assert not (out / "decay_summary.txt").exists()
    # the streamed diagnostics, if only their header, are listed
    manifest = (out / "manifest.txt").read_text()
    assert "file.0.name = decay_diagnostics.csv\n" in manifest
    assert "decay_summary.txt" not in manifest


def test_decay_budget_exit_2_before_the_run(tmp_path, capfd):
    # 51^2 has 10004 dense unknowns: the gap the fit is checked against
    # cannot be computed, so no step is taken
    out = tmp_path / "decay"
    body = scaled_config(
        f"experiment.output_dir = {out}\n"
        + "grid.nx = 51\ngrid.ny = 51\n"
        + "stepper.dt = 0.01\nstepper.t_end = 0.2\n")
    exit_code, _, lines = dispatch_cleanly(["decay", write_config(tmp_path, body)],
                                           capfd)
    assert exit_code == 2
    assert len(lines) == 1 and lines[0].startswith("vpice: ")
    assert "dense eigensolve budget 10000" in lines[0]
    assert (out / "decay_diagnostics.csv").read_text().splitlines() == [
        "time,kinetic_energy,mean_h,mean_a,max_u,perturbation_norm"]
    assert not (out / "decay_summary.txt").exists()


def test_selftest_subcommand_all_pass(capsys):
    assert dispatch(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert all(line.startswith("[PASS] ") for line in lines)


def test_asymmetric_symbol_fails_symbol_and_selftest(tmp_path, capsys,
                                                     monkeypatch):
    # a_12^kl off by 1e-6 of itself leaves the eigenvalues, which eigvalsh
    # reads off the lower triangle, and the coercivity margins passing:
    # the symmetry bound of the pass rule fails the command and the suite
    from vpice import selftest, symbols
    original = symbols.coefficient_tensor

    def asymmetric(*args):
        a = original(*args).copy()
        a[0, 1] *= 1.0 + 1e-6
        return a

    monkeypatch.setattr(symbols, "coefficient_tensor", asymmetric)
    path = write_config(tmp_path, scaled_config(
        f"experiment.output_dir = {tmp_path / 'out'}\n"))
    assert dispatch(["symbol", path]) == 1
    capsys.readouterr()
    rows = (tmp_path / "out" / "symbol_report.csv").read_text().splitlines()
    for row in rows[1:]:
        cells = row.split(",")
        assert float(cells[7]) > 0.0 and float(cells[9]) > 0.0  # eig, margin
    passed, detail = selftest.ellipticity_suite()
    defect = detail.split("defect ")[1].split(",")[0]
    assert not passed and float(defect) > 1e-8


def test_operator_suite_fails_below_the_coercivity_bound(monkeypatch):
    # the velocity form stays positive at 1e-3 of the operator, but it
    # misses the discrete coercivity bound
    from vpice import selftest
    original = selftest.assemble_hibler

    def weak(*args):
        op = original(*args)
        return dataclasses.replace(op, matrix=1e-3 * op.matrix)

    monkeypatch.setattr(selftest, "assemble_hibler", weak)
    passed, detail = selftest.operator_suite()
    assert not passed
    assert float(detail.split("coercivity margin ")[-1]) < -1.0


def test_selftest_takes_no_config(tmp_path, capsys):
    path = write_config(tmp_path, "grid.nx = 99\n")
    assert dispatch(["selftest", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "vpice: usage: vpice selftest\n"


def test_selftest_failing_suite_exit_1_without_traceback(capsys, monkeypatch):
    from vpice import selftest
    original = selftest.lopatinskii_shapiro_check

    def broken(probes, params):
        # one probe in the middle of the stack fails to split its roots
        result = original(probes, params)
        failure = result.failure.copy()
        failure[1] = RootBalanceError("injected root split failure")
        return dataclasses.replace(result, failure=failure)

    monkeypatch.setattr(selftest, "lopatinskii_shapiro_check", broken)
    assert dispatch(["selftest"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert "[FAIL] lopatinskii-shapiro: injected root split failure" in lines
    assert len(lines) == 8
    assert sum(line.startswith("[PASS] ") for line in lines) == 7
    assert "Traceback" not in out + err


def test_simulate_subcommand_with_snapshots_and_ppm(tmp_path, capsys):
    out = tmp_path / "sim"
    body = scaled_config(
        f"experiment.output_dir = {out}\n"
        + "experiment.snapshot_every = 2\n"
        + "experiment.emit_ppm = true\n")
    path = write_config(tmp_path, body)
    assert dispatch(["simulate", path]) == 0
    capsys.readouterr()
    names = sorted(os.listdir(out))
    assert "diagnostics.csv" in names
    assert "snapshot_000000.bin" in names
    assert "snapshot_000000_h.ppm" in names
    assert "snapshot_000000_h.ppm.scale.txt" in names
    with open(out / "snapshot_000000_h.ppm", "rb") as fh:
        assert fh.readline() == b"P6\n"
    # manifest lists every emitted file except itself
    manifest = (out / "manifest.txt").read_text()
    listed = {line.split(" = ")[1] for line in manifest.splitlines()
              if line.startswith("file.") and ".name" in line.split(" = ")[0]}
    emitted = set(names) - {"manifest.txt"}
    assert listed == emitted


@pytest.mark.parametrize("command, csv_name", [
    ("simulate", "diagnostics.csv"),
    ("symbol", "symbol_report.csv"),
    ("ls-check", "ls_report.csv"),
])
def test_reproducibility_byte_identical(command, csv_name, tmp_path, capsys):
    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        body = SCALED_SNIPPET + f"experiment.output_dir = {out}\n"
        path = write_config(tmp_path, body, name=f"{tag}.cfg")
        assert dispatch([command, path]) == 0
        capsys.readouterr()
        outs.append(out)
    a = (outs[0] / csv_name).read_bytes()
    b = (outs[1] / csv_name).read_bytes()
    assert a == b


@pytest.mark.parametrize("command", ["symbol", "ls-check", "decay", "selftest"])
def test_dump_matrix_flag(command, tmp_path, capsys):
    # simulate and spectrum take the flag (tests below); the others reject
    # it before reading the config
    out = tmp_path / "dump"
    path = write_config(tmp_path,
                        SCALED_SNIPPET + f"experiment.output_dir = {out}\n")
    assert dispatch([command, path, "--dump-matrix", str(out / "a0.txt")]) == 2
    err = capsys.readouterr().err
    assert err == "vpice: --dump-matrix applies to simulate and spectrum\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "spectrum"])
def test_dump_matrix_into_fresh_nested_directory(command, tmp_path, capsys):
    out = tmp_path / "fresh" / "nested" / "out"
    path = write_config(tmp_path,
                        SCALED_SNIPPET + f"experiment.output_dir = {out}\n")
    assert dispatch([command, path, "--dump-matrix", str(out / "A.coo")]) == 0
    capsys.readouterr()
    assert len((out / "A.coo").read_text().splitlines()[0].split()) == 3
    assert "name = A.coo\n" in (out / "manifest.txt").read_text()


@pytest.mark.parametrize("command", ["simulate", "spectrum"])
def test_dump_matrix_unwritable_path_exit_1_one_line(command, tmp_path,
                                                     capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path,
                        SCALED_SNIPPET + f"experiment.output_dir = {out}\n")
    # the dump path is a directory
    assert dispatch([command, path, "--dump-matrix", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("vpice: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "spectrum"])
def test_dump_matrix_outside_the_output_directory(command, tmp_path, capsys):
    # the dump is listed by its path relative to the output directory, in
    # the order the files were written
    out = tmp_path / "out"
    dump = tmp_path / "elsewhere.coo"
    path = write_config(tmp_path,
                        SCALED_SNIPPET + f"experiment.output_dir = {out}\n")
    assert dispatch([command, path, "--dump-matrix", str(dump)]) == 0
    capsys.readouterr()
    assert dump.is_file() and not (out / "elsewhere.coo").exists()
    assert listed_names(out) == ["../elsewhere.coo"] + {
        "simulate": ["diagnostics.csv"],
        "spectrum": ["spectrum.csv", "spectrum_summary.txt"]}[command]


@pytest.mark.parametrize("command, blocked, written", [
    ("simulate", "snapshot_000000.bin", ["diagnostics.csv"]),
    ("simulate", "snapshot_000000_u1.ppm.scale.txt",
     ["diagnostics.csv", "snapshot_000000.bin", "snapshot_000000_u1.ppm"]),
    ("spectrum", "spectrum_summary.txt", ["spectrum.csv"]),
    ("decay", "decay_summary.txt", ["decay_diagnostics.csv"]),
    ("symbol", "symbol_report.csv", []),
    ("ls-check", "ls_report.csv", []),
], ids=["simulate-snapshot", "simulate-ppm-scale", "spectrum", "decay",
        "symbol", "ls-check"])
def test_manifest_lists_exactly_the_files_written_before_a_failure(
        command, blocked, written, tmp_path, capsys):
    # a directory where the next file goes makes its write fail (OSError)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    body = scaled_config(f"experiment.output_dir = {out}\n"
                         "experiment.snapshot_every = 2\n"
                         "experiment.emit_ppm = true\n"
                         "grid.nx = 11\ngrid.ny = 11\n"  # a fit that passes
                         "stepper.dt = 0.005\nstepper.t_end = 0.25\n")
    assert dispatch([command, write_config(tmp_path, body)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("vpice: ") and err.count("\n") == 1
    assert listed_names(out) == written
    assert sorted(written) == sorted(
        entry.name for entry in out.iterdir()
        if entry.is_file() and entry.name != "manifest.txt")


def test_dump_matrix_without_a_path_exit_2_one_line(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path,
                        SCALED_SNIPPET + f"experiment.output_dir = {out}\n")
    assert dispatch(["simulate", path, "--dump-matrix"]) == 2
    assert capsys.readouterr().err == "vpice: --dump-matrix needs a path\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, code, stream", [
    (["--help"], 0, "stdout"), (["not-a-command"], 2, "stderr")])
def test_python_m_vpice_runs_the_entry_point(argv, code, stream):
    # __main__ -> cli.main -> sys.exit(dispatch(...)) in a fresh interpreter
    src = os.path.dirname(os.path.dirname(vpice.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "vpice", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == code
    if stream == "stdout":
        assert done.stdout.startswith("Subcommand front end.")
        assert done.stderr == ""
    else:
        assert done.stderr.startswith("vpice: unknown subcommand ")
        assert done.stderr.count("\n") == 1 and done.stdout == ""


@pytest.mark.parametrize("command, csv_name", [
    ("simulate", "diagnostics.csv"), ("decay", "decay_diagnostics.csv")])
@pytest.mark.parametrize("edge", ["equilibrium.a_star = 1.0",
                                  "equilibrium.h_star = 0.1"])  # kappa
def test_runs_at_an_edge_of_the_admissible_set_start(command, csv_name, edge,
                                                     tmp_path, capfd):
    # Equilibrium.validate accepts a* = 1 and h* = kappa; the field at its
    # edge is left unperturbed, so the run starts from an admissible state
    # with the other field perturbed.  Whether the steps stay admissible is
    # the dynamics' matter: a failure then names its step
    out = tmp_path / "out"
    body = scaled_config(f"experiment.output_dir = {out}\n{edge}\n")
    code, _, lines = dispatch_cleanly([command, write_config(tmp_path, body)],
                                      capfd)
    rows = (out / csv_name).read_text().splitlines()
    first = dict(zip(rows[0].split(","), map(float, rows[1].split(","))))
    assert first["time"] == 0.0 and first["perturbation_norm"] > 0.0
    assert code == 0 or (code == 1 and lines[0].startswith("vpice: step "))


def test_default_runconfig_usable_directly():
    cfg = RunConfig()
    assert cfg["grid.nx"] == 17
    cfg.rheology_params()
    cfg.stepper()
