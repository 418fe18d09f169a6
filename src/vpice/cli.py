"""Subcommand front end.

    vpice simulate <config>   unforced run from the perturbed equilibrium:
                              diagnostics CSV, optional snapshots/PPM
    vpice symbol <config>     ellipticity margins over random states: CSV
    vpice ls-check <config>   boundary-condition probes: CSV
    vpice spectrum <config>   linearized spectrum: eigenvalue CSV + summary
                              (exit 1 unless the kernel is 2-dimensional,
                              certified semisimple, and the gap resolved)
    vpice decay <config>      decay experiment: diagnostics CSV + fit summary
                              (exit 1 if the rate misses the gap by > 20%)
    vpice selftest            run the built-in invariant suites

Exit codes: 0 success, 1 violated contract or margin, 2 usage/config error;
a package error (params.VpiceError) exits with its exit_code.
Every subcommand that writes files puts them under experiment.output_dir and
lists them in manifest.txt, in write order and by path relative to it, with
every config value, on every exit once the directory exists.  Identical
configuration and seed produce byte-identical CSV output at a fixed BLAS
thread count: spectrum at 33^2 and simulate past DIRECT_SOLVE_LIMIT
write different bytes with 1 and 2 OpenBLAS threads.

Optional flag for simulate and spectrum: --dump-matrix <path> exports the
assembled operator as 'row col value' lines.
"""

from __future__ import annotations

import os
import sys
from contextlib import AbstractContextManager
from typing import Callable, NamedTuple

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .dynamics import ForcingInputs, RunSinks, run
from .io_formats import (
    CsvWriter,
    DiagnosticsCsvWriter,
    export_coo,
    format_float,
    write_eigenvalue_csv,
    write_key_values,
    write_manifest,
    write_ppm,
    write_snapshot,
)
from .operators import assemble_coupled
from .params import VpiceError
# pressure is unused here; perfbench/spans.py traces this binding
from .rheology import pressure, sample_state
from .stability import (
    assemble_A0,
    check_dense_budget,
    decay_experiment,
    decay_passes,
    perturbed_equilibrium,
    semisimplicity_proxy,
    spectrum,
    spectrum_passes,
)
from .symbols import (
    ellipticity_report,
    lopatinskii_shapiro_check,
    sample_ls_probes,
)
from .selftest import run_selftest


def _fail(message: str, code: int) -> int:
    print(f"vpice: {message}", file=sys.stderr)
    return code


class _Output(AbstractContextManager):
    """One command's output session: it creates experiment.output_dir,
    lists each file once it is written, under its path relative to that
    directory and in write order, and writes manifest.txt on every exit."""

    def __init__(self, cfg: RunConfig):
        self.cfg, self.directory = cfg, cfg["experiment.output_dir"]
        self.files = []  # (name, format)
        os.makedirs(self.directory, exist_ok=True)

    def write(self, name: str, fmt: str, writer: Callable, *args):
        """``writer(path, *args)`` on the file ``name`` of the directory,
        which is then listed; returns what the writer returns."""
        result = writer(os.path.join(self.directory, name), *args)
        self.files.append((name, fmt))
        return result

    def dump(self, op, path) -> None:
        """Export ``op`` to the --dump-matrix ``path`` and list it."""
        export_coo(op, path)
        self.files.append((os.path.relpath(path, self.directory), "coo-text"))

    def __exit__(self, *exc):
        write_manifest(self.directory, self.files, self.cfg.values.items())


def _probe_report(cfg: RunConfig, name: str, title: str, header: tuple,
                  check: Callable) -> int:
    """Write experiment.n_samples rows of a probe command to the CSV
    ``name`` and return exit 1 if a sample fails.  ``check(rng, params, n)``
    draws the n samples as one stack, checks them in one call and returns
    the row columns after the id (arrays over the samples, or values all
    rows share), whether each sample passes and whether it has a row."""
    params = cfg.rheology_params()
    rng = np.random.default_rng(cfg["experiment.seed"])
    n = cfg["experiment.n_samples"]
    with _Output(cfg) as out, out.write(name, "csv", CsvWriter,
                                        ("id",) + header) as writer:
        columns, passes, has_row = check(rng, params, n)
        has_row, *columns = np.broadcast_arrays(has_row, np.arange(n),
                                                *columns)
        writer.write_columns(*(column[has_row].tolist() for column in columns))
    print(f"{title}: {os.path.join(out.directory, name)}")
    return 0 if np.all(passes) else 1


def cmd_symbol(cfg: RunConfig) -> int:
    def check(rng, params, n):
        eps, h, a, p = sample_state(rng, params, cfg["equilibrium.h_star"],
                                    size=n)
        report = ellipticity_report(eps, p, params, n_samples=8, seed=rng)
        return ((eps.e11, eps.e12, eps.e22, h, a, p, report.min_eigenvalue,
                 report.min_coercivity_margin, report.relative_margin),
                report.passes, True)

    return _probe_report(cfg, "symbol_report.csv", "symbol report", (
        "e11", "e12", "e22", "h", "a", "p", "min_eigenvalue",
        "coercivity_margin", "relative_margin"), check)


def cmd_ls_check(cfg: RunConfig) -> int:
    def check(rng, params, n):
        probe, theta = sample_ls_probes(rng, params, n,
                                        cfg["experiment.lambda_re_min"],
                                        cfg["equilibrium.h_star"])
        result = lopatinskii_shapiro_check(probe, params)
        has_row = np.equal(result.failure, None)
        for index in np.flatnonzero(~has_row):
            print(f"probe {index}: {result.failure[index]}", file=sys.stderr)
        return ((probe.eps.e11, probe.eps.e12, probe.eps.e22, probe.p, theta,
                 probe.lam.real, probe.lam.imag,
                 np.shape(result.stable_roots)[-1],
                 np.shape(result.unstable_roots)[-1],
                 result.s_min, result.s_max, result.margin),
                result.passes, has_row)

    return _probe_report(cfg, "ls_report.csv", "boundary-condition report", (
        "e11", "e12", "e22", "p", "theta", "lambda_re", "lambda_im",
        "n_stable", "n_unstable", "s_min", "s_max", "margin"), check)


def cmd_spectrum(cfg: RunConfig, dump_matrix=None) -> int:
    grid = cfg.grid()
    check_dense_budget(grid)  # before any assembly or dump
    with _Output(cfg) as out:
        op = assemble_A0(cfg.equilibrium(), grid, cfg.rheology_params())
        report = spectrum(op, grid)
        if dump_matrix:
            out.dump(op, dump_matrix)
        proxy = semisimplicity_proxy(op, grid)
        out.write("spectrum.csv", "csv", write_eigenvalue_csv,
                  report.eigenvalues)
        out.write("spectrum_summary.txt", "key-value", write_key_values, [
            ("kernel_dim", report.kernel_dim),
            ("spectral_gap", report.spectral_gap),
            ("spectral_radius", report.spectral_radius),
            ("kernel_right_residual", proxy.right_residual),
            ("kernel_left_residual", proxy.left_residual),
            ("kernel_restriction_norm", proxy.restriction_norm),
            ("symmetry_group", report.symmetry_group),
            # "401x2": one block of 401 whose eigenvalues count twice
            ("block_sizes", " ".join(
                f"{size}x{copies}" if copies > 1 else str(size)
                for size, copies in report.block_sizes)),
        ])
    print(f"spectrum: kernel dim {report.kernel_dim}, "
          f"gap {format_float(report.spectral_gap)}")
    return 0 if spectrum_passes(report, proxy) else 1


def cmd_decay(cfg: RunConfig) -> int:
    with _Output(cfg) as out:
        with out.write("decay_diagnostics.csv", "csv",
                       DiagnosticsCsvWriter) as writer:
            result = decay_experiment(cfg.equilibrium(),
                                      cfg["experiment.perturbation_scale"],
                                      cfg.grid(), cfg.rheology_params(),
                                      cfg.stepper(),
                                      RunSinks(on_diagnostics=writer))
        out.write("decay_summary.txt", "key-value", write_key_values, [
            ("fitted_rate", result.fitted_rate),
            ("predicted_gap", result.predicted_gap),
            ("relative_gap_error", result.relative_gap_error),
            ("limit_mismatch", result.limit_mismatch),
            ("mean_h_drift", result.mean_h_drift),
            ("mean_a_drift", result.mean_a_drift),
        ])
    print(f"decay: fitted rate {format_float(result.fitted_rate)}, "
          f"gap {format_float(result.predicted_gap)}")
    return 0 if decay_passes(result) else 1


def cmd_simulate(cfg: RunConfig, dump_matrix=None) -> int:
    params = cfg.rheology_params()
    grid = cfg.grid()
    eq = cfg.equilibrium()
    v0 = perturbed_equilibrium(eq, grid, cfg["experiment.perturbation_scale"],
                               params)
    with _Output(cfg) as out:
        if dump_matrix:
            out.dump(assemble_coupled(v0, grid, params), dump_matrix)

        def on_snapshot(step_index, t, state):
            name = f"snapshot_{step_index:06d}"
            out.write(name + ".bin", "snapshot-binary", write_snapshot, state,
                      t)
            if cfg["experiment.emit_ppm"]:
                for field_name, field in (("u1", state.u1), ("u2", state.u2),
                                          ("h", state.h), ("a", state.a)):
                    ppm = f"{name}_{field_name}.ppm"
                    lo, hi = out.write(ppm, "ppm-p6", write_ppm, field)
                    out.write(ppm + ".scale.txt", "key-value",
                              write_key_values, [("min", lo), ("max", hi)])

        with out.write("diagnostics.csv", "csv",
                       DiagnosticsCsvWriter) as writer:
            sinks = RunSinks(on_diagnostics=writer, on_snapshot=on_snapshot,
                             snapshot_every=cfg["experiment.snapshot_every"])
            run(v0, ForcingInputs(), params, cfg.stepper(), sinks=sinks)
    print(f"simulation diagnostics: "
          f"{os.path.join(out.directory, 'diagnostics.csv')}")
    return 0


class Command(NamedTuple):
    run: Callable[..., int]  # run(cfg[, dump_matrix]), or run() without config
    takes_config: bool = True
    dumps_matrix: bool = False


COMMANDS = {
    "simulate": Command(cmd_simulate, dumps_matrix=True),
    "symbol": Command(cmd_symbol),
    "ls-check": Command(cmd_ls_check),
    "spectrum": Command(cmd_spectrum, dumps_matrix=True),
    "decay": Command(cmd_decay),
    "selftest": Command(run_selftest, takes_config=False),
}
SUBCOMMANDS = tuple(COMMANDS)


def dispatch(argv) -> int:
    """Entry point used by the console script; returns the exit code.

    A package error ends the command with its one-line message and its
    ``exit_code``.  Float overflow, invalid and divide warnings are not
    shown: every command rejects a non-finite result by a finite check or
    a pass rule that fails on NaN."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            return _dispatch(list(argv))
        except VpiceError as exc:
            return _fail(str(exc), exc.exit_code)
        except OSError as exc:  # an output or dump path that cannot be written
            return _fail(str(exc), 1)


def _dispatch(argv: list) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if argv else 2
    name, rest = argv[0], argv[1:]
    if name not in COMMANDS:
        return _fail(f"unknown subcommand {name!r}; "
                     f"expected one of {', '.join(SUBCOMMANDS)}", 2)
    command = COMMANDS[name]

    args = []  # the dump path, when given
    if "--dump-matrix" in rest:
        index = rest.index("--dump-matrix")
        if not command.dumps_matrix:
            return _fail("--dump-matrix applies to " + " and ".join(
                n for n, c in COMMANDS.items() if c.dumps_matrix), 2)
        if index + 1 >= len(rest):
            return _fail("--dump-matrix needs a path", 2)
        args = [rest[index + 1]]
        rest = rest[:index] + rest[index + 2:]

    if not command.takes_config:
        return _fail(f"usage: vpice {name}", 2) if rest else command.run()
    if len(rest) != 1:
        return _fail(f"usage: vpice {name} <config>", 2)

    try:
        cfg = load_config(rest[0])
    except FileNotFoundError:
        return _fail(f"config file not found: {rest[0]}", 2)
    except ConfigError as exc:
        return _fail(f"config error: {exc}", 2)
    return command.run(cfg, *args)


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
