"""The benchmark's four workloads: inputs drawn from a seed, one timed job,
and the correctness gates evaluated on every job.

Inputs depend on the seed only through ``case = seed % N_CASES`` for the
workloads whose outputs are compared with ``reference.json``, which holds
one recorded answer per case.  ``probes`` has no reference and passes the
seed itself to the program as ``experiment.seed``.

Every workload uses ``scaled_params(delta=1e-6, c_cor=0.0)``, the parameter
set of the acceptance criteria on linearized spectra, conservation and
decay.  The equilibrium (h*, a*) is drawn from a narrow band around the
default (1.0, 0.8) so that the Krylov iteration count on the GMRES path,
and with it the cost of a job, hardly depends on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import vpice.cli as cli
import vpice.dynamics as dynamics
import vpice.io_formats as io_formats
from vpice import scaled_params
from vpice.config import load_config
from vpice.grid import Grid
from vpice.operators import DIRECT_SOLVE_LIMIT
from vpice.stability import Equilibrium, kernel_basis, neumann_mode

import gates
from spans import patched

PARAMS = scaled_params(delta=1e-6, c_cor=0.0)
N_CASES = 16
DT = 0.004
PERTURBATION = 1e-3
N_MODES = 3  # Neumann modes 0..2 per axis; the (0, 0) mode is left out
SAMPLED_NODES = 24
REFERENCE = Path(__file__).with_name("reference.json")

# config keys of the scaled parameter set, for the subcommand workloads
_CONFIG_FROM_PARAMS = {
    "rheology.e": "e", "rheology.delta": "delta", "rheology.p_star": "p_star",
    "rheology.c": "c", "rheology.kappa": "kappa",
    "rheology.rho_ice": "rho_ice", "rheology.rho_atm": "rho_atm",
    "rheology.rho_ocean": "rho_ocean", "rheology.c_atm": "C_atm",
    "rheology.c_ocean": "C_ocean", "rheology.theta_atm": "theta_atm",
    "rheology.theta_ocean": "theta_ocean", "rheology.c_cor": "c_cor",
    "rheology.g": "g", "rheology.d_h": "d_h", "rheology.d_a": "d_a",
}


class Tally:
    """Operations attempted and failed: steps, solves, probes, gates."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def count(self, what: str, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.failures) < 20:
            self.failures.append(f"{what}: {failed} of {attempted}")

    def gate(self, what: str, ok: bool) -> None:
        self.count(what, 1, 0 if ok else 1)


@dataclass
class JobResult:
    wall_s: float
    step_s: list           # per-step latencies; one entry for non-step jobs
    outputs: dict = field(default_factory=dict)
    # first and last on_diagnostics stamps of a step job
    window: Optional[tuple] = None


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def case_reference(reference, name: str, case: int, eq: Equilibrium):
    """The recorded answer for one case, None when recording."""
    if reference is None:
        return None
    ref = reference[name][case]
    if (ref["h_star"], ref["a_star"]) != (eq.h_star, eq.a_star):
        raise RuntimeError("reference.json is stale: inputs changed")
    return ref


def draw_equilibrium(rng) -> Equilibrium:
    return Equilibrium(float(rng.uniform(0.9, 1.1)),
                       float(rng.uniform(0.75, 0.85)))


def draw_initial_state(rng, eq: Equilibrium, grid: Grid):
    """Equilibrium plus a seed-drawn sum of low-order mean-free Neumann
    modes in h and a, at most PERTURBATION relative; u starts at rest."""
    v = eq.state(grid)
    for values, star in ((v.h, eq.h_star), (v.a, eq.a_star)):
        coeff = rng.normal(size=(N_MODES, N_MODES))
        coeff[0, 0] = 0.0
        pert = sum(coeff[ky, kx] * np.outer(neumann_mode(grid.ny, ky),
                                            neumann_mode(grid.nx, kx))
                   for ky in range(N_MODES) for kx in range(N_MODES))
        values += PERTURBATION * star * pert / np.sum(np.abs(coeff))
    return v


def sampled_nodes(grid: Grid) -> np.ndarray:
    """Fixed interior nodes at which final states are compared."""
    interior = np.flatnonzero(grid.interior_mask().ravel())
    rng = np.random.default_rng(grid.nx)
    return np.sort(rng.choice(interior, SAMPLED_NODES, replace=False))


def write_config(path, values: dict) -> None:
    """Flat key = value config with the scaled parameter set; checks that the
    program reads back exactly PARAMS."""
    lines = [f"{key} = {format(getattr(PARAMS, attr), '.17g')}"
             for key, attr in _CONFIG_FROM_PARAMS.items()]
    lines += [f"{key} = {value}" for key, value in values.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if load_config(path).rheology_params() != PARAMS:
        raise RuntimeError(f"{path} does not reproduce the scaled parameters")


def quiet_dispatch(argv) -> int:
    """cli.dispatch with its progress line kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.dispatch(argv)


class SolveCheck:
    """Records the size and relative residual of every solve the stepper
    makes: the residual gate of each job and the ``operators.solve_linear``
    figures of the traced run.

    Installed for the whole run; costs one sparse mat-vec per solve.
    """

    def __init__(self):
        self.residuals = []  # of the current job
        self.dim = 0
        self.nnz = 0
        self.worst = 0.0  # over the run

    def wrap(self, solve):
        def checked(op, rhs, *args, **kwargs):
            x = solve(op, rhs, *args, **kwargs)
            residual = gates.relative_residual(op.matrix, rhs, x)
            self.residuals.append(residual)
            self.worst = max(self.worst, residual)
            self.dim, self.nnz = op.dim, op.matrix.nnz
            return x
        return checked

    def metrics(self) -> dict:
        return {"operators.solve_linear.dim": self.dim,
                "operators.solve_linear.nnz": self.nnz,
                "operators.solve_linear.rel_residual_max": self.worst}


class Capture:
    """Keeps the last result of wrapped functions, for the gates."""

    def __init__(self):
        self.last = {}

    def wrap(self, name):
        def factory(fn):
            def captured(*args, **kwargs):
                self.last[name] = result = fn(*args, **kwargs)
                return result
            return captured
        return factory


# ---------------------------------------------------------------- step-N

@dataclass(frozen=True)
class StepWorkload:
    """Unforced frozen-coefficient ``dynamics.run`` with the sinks of
    ``vpice simulate``: a diagnostics CSV row per step and periodic binary
    snapshots, then a manifest."""

    name: str
    n: int
    steps_per_job: int
    snapshot_every: int
    u_rtol: float  # how closely the velocity reproduces; see README.md

    def setup(self, seed: int, workdir: Path, reference) -> "StepJob":
        case = seed % N_CASES
        rng = np.random.default_rng(case)
        eq = draw_equilibrium(rng)
        grid = Grid(self.n, self.n)
        v0 = draw_initial_state(rng, eq, grid).validate(PARAMS)
        outdir = workdir / self.name
        outdir.mkdir(parents=True, exist_ok=True)
        return StepJob(self, case, eq, grid, v0, outdir,
                       case_reference(reference, self.name, case, eq))


class StepJob:
    def __init__(self, wl, case, eq, grid, v0, outdir, reference):
        self.wl, self.case, self.eq, self.grid = wl, case, eq, grid
        self.v0, self.outdir, self.reference = v0, outdir, reference
        self.stepper = dynamics.StepperConfig(dt=DT,
                                              t_end=wl.steps_per_job * DT)
        self.totals = (float(np.sum(v0.h)), float(np.sum(v0.a)))
        self.nodes = sampled_nodes(grid)
        self.boundary = grid.boundary_mask()
        self.solves = SolveCheck()
        self.echo = [("workload", wl.name), ("case", str(case)),
                     ("equilibrium.h_star", format(eq.h_star, ".17g")),
                     ("equilibrium.a_star", format(eq.a_star, ".17g"))]

    @contextlib.contextmanager
    def active(self):
        with patched([(dynamics, "solve_linear", self.solves.wrap)]):
            yield

    def samples(self, state) -> dict:
        return {name: getattr(state, name).ravel()[self.nodes].tolist()
                for name in ("u1", "u2", "h", "a")}

    def run(self, tally: Tally) -> JobResult:
        outdir = self.outdir
        files = [("diagnostics.csv", "csv")]
        stamps = []

        def on_snapshot(step_index, t, state):
            name = f"snapshot_{step_index:06d}.bin"
            io_formats.write_snapshot(os.path.join(outdir, name), state, t)
            files.append((name, "snapshot-binary"))

        self.solves.residuals.clear()
        start = time.perf_counter()
        try:
            with io_formats.DiagnosticsCsvWriter(
                    os.path.join(outdir, "diagnostics.csv")) as writer:
                def on_diagnostics(row):
                    writer(row)
                    stamps.append(time.perf_counter())
                sinks = dynamics.RunSinks(on_diagnostics=on_diagnostics,
                                          on_snapshot=on_snapshot,
                                          snapshot_every=self.wl.snapshot_every)
                result = dynamics.run(self.v0.copy(), dynamics.ForcingInputs(),
                                      PARAMS, self.stepper, sinks=sinks)
            io_formats.write_manifest(outdir, files, self.echo)
        except dynamics.StepError as exc:
            wall = time.perf_counter() - start
            tally.count(f"step ({exc})", self.wl.steps_per_job, 1)
            tally.count("gates of a failed job", 4, 4)
            return JobResult(wall, [])
        wall = time.perf_counter() - start
        step_s = list(np.diff(stamps))

        final = result.final_state
        residuals = self.solves.residuals
        tally.count("step", result.n_steps)
        tally.count("solve residual <= 1e-10", len(residuals),
                    sum(r > gates.SOLVE_RTOL for r in residuals))
        for name, before in zip(("h", "a"), self.totals):
            tally.gate(f"nodal total of {name} conserved",
                       gates.close(float(np.sum(getattr(final, name))),
                                   before, gates.CONSERVATION_RTOL))
        tally.gate("u = 0 on boundary nodes",
                   bool(np.all(final.u1[self.boundary] == 0.0)
                        and np.all(final.u2[self.boundary] == 0.0)))
        samples = self.samples(final)
        if self.reference is not None:
            tally.gate("final state matches reference",
                       gates.state_matches(samples, self.reference,
                                           self.rtols()))
        return JobResult(wall, step_s, {"samples": samples},
                         (stamps[0], stamps[-1]))

    def rtols(self) -> dict:
        return {"u1": self.wl.u_rtol, "u2": self.wl.u_rtol,
                "h": gates.STATE_RTOL, "a": gates.STATE_RTOL}

    def record(self) -> dict:
        dim = 4 * self.grid.n_nodes
        return {"grid": f"{self.grid.nx}x{self.grid.ny}", "unknowns_4N": dim,
                "nnz": self.solves.nnz, "case": self.case,
                "h_star": self.eq.h_star, "a_star": self.eq.a_star,
                "steps_per_job": self.wl.steps_per_job,
                "solver_path": ("direct" if dim <= DIRECT_SOLVE_LIMIT
                                else "krylov")}


# ----------------------------------------------------------- spectrum-21

@dataclass(frozen=True)
class SpectrumWorkload:
    """``vpice spectrum`` through ``cli.dispatch``: assemble_A0, spectrum,
    semisimplicity_proxy, write_eigenvalue_csv, summary and manifest."""

    name: str
    n: int

    def setup(self, seed: int, workdir: Path, reference) -> "SpectrumJob":
        case = seed % N_CASES
        eq = draw_equilibrium(np.random.default_rng(case))
        ref = case_reference(reference, self.name, case, eq)
        outdir = workdir / self.name
        outdir.mkdir(parents=True, exist_ok=True)
        config = outdir / "spectrum.cfg"
        write_config(config, {
            "grid.nx": self.n, "grid.ny": self.n,
            "equilibrium.h_star": format(eq.h_star, ".17g"),
            "equilibrium.a_star": format(eq.a_star, ".17g"),
            "experiment.output_dir": outdir / "out"})
        return SpectrumJob(self, case, eq, Grid(self.n, self.n), config, ref)


class SpectrumJob:
    def __init__(self, wl, case, eq, grid, config, reference):
        self.wl, self.case, self.eq, self.grid = wl, case, eq, grid
        self.config, self.reference = config, reference
        self.kernel = kernel_basis(grid)
        self.capture = Capture()
        self.solves = SolveCheck()  # never installed: no sparse solve here
        self.nnz = 0

    @contextlib.contextmanager
    def active(self):
        with patched([(cli, name, self.capture.wrap(name)) for name in
                      ("assemble_A0", "spectrum", "semisimplicity_proxy")]):
            yield

    def run(self, tally: Tally) -> JobResult:
        self.capture.last.clear()
        start = time.perf_counter()
        code = quiet_dispatch(["spectrum", str(self.config)])
        wall = time.perf_counter() - start
        tally.gate("vpice spectrum exit code 0", code == 0)
        last = self.capture.last
        if set(last) != {"assemble_A0", "spectrum", "semisimplicity_proxy"}:
            tally.count("spectrum gates without results", 4, 4)
            return JobResult(wall, [wall])
        op, report, proxy = (last["assemble_A0"], last["spectrum"],
                             last["semisimplicity_proxy"])
        self.nnz = op.matrix.nnz
        kernel_residual = float(np.max(np.abs(op.matrix @ self.kernel)))
        matrix_scale = float(abs(op.matrix).max())
        tally.gate("kernel_dim == 2 and gap > 0",
                   report.kernel_dim == 2 and report.spectral_gap > 0.0)
        tally.gate("kernel residual <= 1e-12 * matrix scale",
                   kernel_residual
                   <= gates.KERNEL_RESIDUAL_RTOL * matrix_scale)
        tally.gate("restriction <= 1e-10 * operator norm",
                   proxy.restriction_norm
                   <= gates.RESTRICTION_RTOL * proxy.operator_norm)
        if self.reference is not None:
            tally.gate("gap matches reference",
                       gates.close(report.spectral_gap,
                                   self.reference["spectral_gap"],
                                   gates.GAP_RTOL))
        return JobResult(wall, [wall], {"spectral_gap": report.spectral_gap})

    def record(self) -> dict:
        n = self.grid.n_nodes
        return {"grid": f"{self.grid.nx}x{self.grid.ny}",
                "unknowns_4N": 4 * n, "nnz": self.nnz, "case": self.case,
                "h_star": self.eq.h_star, "a_star": self.eq.a_star,
                "dense_size": 4 * n - 2 * int(np.sum(
                    self.grid.boundary_mask())),
                "solver_path": "dense-eig"}


# ---------------------------------------------------------------- probes

@dataclass(frozen=True)
class ProbesWorkload:
    """``vpice symbol`` and ``vpice ls-check`` through ``cli.dispatch`` on a
    generated scaled config whose experiment.seed is the benchmark seed."""

    name: str
    n_samples: int

    def setup(self, seed: int, workdir: Path, reference) -> "ProbesJob":
        del reference  # pointwise checks carry their own pass/fail rule
        outdir = workdir / self.name
        outdir.mkdir(parents=True, exist_ok=True)
        config = outdir / "probes.cfg"
        write_config(config, {"experiment.seed": seed % (1 << 31),
                              "experiment.n_samples": self.n_samples,
                              "experiment.output_dir": outdir / "out"})
        return ProbesJob(self, seed, config, outdir / "out")


class ProbesJob:
    def __init__(self, wl, seed, config, outdir):
        self.wl, self.seed, self.config, self.outdir = wl, seed, config, outdir
        self.solves = SolveCheck()  # never installed: no sparse solve here

    @contextlib.contextmanager
    def active(self):
        yield

    def run(self, tally: Tally) -> JobResult:
        start = time.perf_counter()
        codes = {sub: quiet_dispatch([sub, str(self.config)])
                 for sub in ("symbol", "ls-check")}
        wall = time.perf_counter() - start
        n = self.wl.n_samples
        for sub, report, failed_rows in (
                ("symbol", "symbol_report.csv", gates.symbol_rows_failed),
                ("ls-check", "ls_report.csv", gates.ls_rows_failed)):
            tally.gate(f"vpice {sub} exit code 0", codes[sub] == 0)
            rows = gates.csv_rows(self.outdir / report)
            tally.gate(f"{report} has n_samples rows", len(rows) == n)
            tally.count(f"{sub} probes", n,
                        failed_rows(rows) + max(n - len(rows), 0))
        return JobResult(wall, [wall])

    def record(self) -> dict:
        return {"grid": None, "unknowns_4N": None, "nnz": None,
                "experiment_seed": self.seed % (1 << 31),
                "n_samples": self.wl.n_samples, "solver_path": "pointwise"}


# Jobs are short, so that the fastest quarter of a run's jobs (see run.py)
# can fall inside the host's fast stretches.
WORKLOADS = {wl.name: wl for wl in (
    # u_rtol: the 1e-10 residual fixes u to ~5e-11 relative on the direct
    # path and ~1e-9 on the Krylov path (measured across OpenBLAS kernels)
    StepWorkload("step-17", 17, steps_per_job=10, snapshot_every=5,
                 u_rtol=1e-9),
    # the smallest square grid past DIRECT_SOLVE_LIMIT: 4N = 21316
    StepWorkload("step-73", 73, steps_per_job=1, snapshot_every=1,
                 u_rtol=1e-6),
    SpectrumWorkload("spectrum-21", 21),
    ProbesWorkload("probes", n_samples=100),
)}
