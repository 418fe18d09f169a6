"""Acceptance criteria, one test per criterion, one pass/fail line each.

All margins are stated in scaled desk units (unit ice strength and density,
see vpice.params.scaled_params); every criterion runs on a laptop within
its stated budget.
"""

import time

import numpy as np

from vpice.cli import dispatch
from vpice.dynamics import ForcingInputs, StepperConfig, step
from vpice.grid import FieldSet, Grid
from vpice.operators import (
    assemble_hibler,
    assemble_neumann_laplacian,
)
from vpice.params import scaled_params
from vpice.rheology import pressure, sample_state
from vpice.selftest import (
    coercivity_check,
    jacobian_suite,
    ls_suite,
    rheology_suite,
    stepper_suite,
)
from vpice.stability import (
    Equilibrium,
    assemble_A0,
    decay_experiment,
    decay_passes,
    perturbed_equilibrium,
    semisimplicity_proxy,
    spectrum,
    spectrum_passes,
)
from vpice.symbols import boundary_form_check, ellipticity_report

EQ = Equilibrium(1.0, 0.8)


def report(criterion, ok, elapsed, detail):
    line = (f"[{'PASS' if ok else 'FAIL'}] acceptance {criterion} "
            f"({elapsed:.2f} s): {detail}")
    print(line)
    assert ok, line


def test_criterion_1_rheology_identities():
    t0 = time.time()
    ok, detail = rheology_suite(seed=101, n=10_000,
                                params=scaled_params(delta=1e-6))
    report("criterion 1 (rheology identities, 10^4 samples)", ok,
           time.time() - t0, detail)


def test_criterion_2_jacobian_check():
    t0 = time.time()
    ok, detail = jacobian_suite(seed=202, n=100,
                                params=scaled_params(delta=1e-4))
    report("criterion 2 (analytic vs finite-difference jacobian)", ok,
           time.time() - t0, detail)


def test_criterion_3_ellipticity():
    t0 = time.time()
    params = scaled_params(delta=1e-6)
    rng = np.random.default_rng(303)
    eps, _, _, p = sample_state(rng, params, size=1000)
    # one sample per state
    rep = ellipticity_report(eps, p, params, n_samples=1, seed=rng)
    report("criterion 3 (ellipticity, 10^3 samples)", bool(np.all(rep.passes)),
           time.time() - t0,
           f"min eigenvalue {np.min(rep.min_eigenvalue):.3e}, relative "
           f"coercivity margin {np.min(rep.relative_margin):.2e}, relative "
           f"hermitian defect {np.max(rep.relative_defect):.2e}")


def test_criterion_4_lopatinskii_shapiro():
    t0 = time.time()
    # a probe whose roots do not split 2/2 fails the suite with its
    # RootBalanceError message
    ok, detail = ls_suite(seed=404, n=1000, params=scaled_params(delta=1e-6))
    report("criterion 4 (boundary condition, 10^3 probes)", ok,
           time.time() - t0, f"every probe split 2/2; {detail}")


def test_criterion_5_boundary_form():
    t0 = time.time()
    params = scaled_params(delta=1e-6)
    rng = np.random.default_rng(505)
    n = 10_000
    eps, _, _, p = sample_state(rng, params, size=n)
    # one sample per state
    rep = boundary_form_check(eps, p, params, n_samples=1, seed=rng)
    n_conditional = int(np.sum(rep.n_conditional))
    report("criterion 5 (boundary form, 10^4 samples)",
           bool(np.all(rep.passes)) and n_conditional > 0, time.time() - t0,
           f"min form {np.min(rep.min_form):.2e}; conditional min "
           f"{np.min(rep.min_conditional_form):.2e} over {n_conditional} "
           f"samples")


def test_criterion_6_operator_convergence():
    t0 = time.time()
    params = scaled_params(delta=1e-2)
    h_star, a_star = 1.0, 0.8
    p_const = float(pressure(h_star, a_star, params))
    c = p_const / (2.0 * np.sqrt(params.delta))
    q = 1.0 / params.e**2

    hib_err, lap_err = [], []
    spacings = []
    for n in (17, 33, 65):
        g = Grid(n, n)
        x, y = g.coords()
        interior = g.interior_mask()
        spacings.append(g.dx)

        u1 = np.sin(np.pi * x) * np.sin(2 * np.pi * y)
        u2 = np.sin(2 * np.pi * x) * np.sin(np.pi * y)
        exact1 = -c * (-(1 + q) * np.pi**2 * u1 - 4 * q * np.pi**2 * u1
                       + 2 * np.pi**2 * np.cos(2 * np.pi * x) * np.cos(np.pi * y))
        exact2 = -c * (2 * np.pi**2 * np.cos(np.pi * x) * np.cos(2 * np.pi * y)
                       - 4 * q * np.pi**2 * u2 - (1 + q) * np.pi**2 * u2)
        op = assemble_hibler(FieldSet.constant(g, h_star, a_star), g, params)
        got = op.matrix @ np.concatenate([u1.ravel(), u2.ravel()])
        got1 = got[:g.n_nodes].reshape(g.ny, g.nx)
        got2 = got[g.n_nodes:].reshape(g.ny, g.nx)
        hib_err.append(np.sqrt(g.cell_area * (
            np.sum((got1 - exact1)[interior] ** 2)
            + np.sum((got2 - exact2)[interior] ** 2))))

        f = np.cos(np.pi * x) * np.cos(2 * np.pi * y)
        errs = []
        for d in (params.d_h, params.d_a):
            lap = assemble_neumann_laplacian(g, d)
            exact = d * 5 * np.pi**2 * f
            gotf = (lap.matrix @ f.ravel()).reshape(g.ny, g.nx)
            errs.append(np.sqrt(g.cell_area * np.sum((gotf - exact)[interior]**2)))
        lap_err.append(max(errs))

    def orders(errors):
        e = np.asarray(errors)
        h = np.asarray(spacings)
        return np.log(e[:-1] / e[1:]) / np.log(h[:-1] / h[1:])

    hib_orders = orders(hib_err)
    lap_orders = orders(lap_err)
    ok = (np.all(np.abs(hib_orders - 2.0) <= 0.2)
          and np.all(np.abs(lap_orders - 2.0) <= 0.2))
    report("criterion 6 (operator convergence on 17/33/65 grids)", ok,
           time.time() - t0,
           f"velocity-block orders {np.round(hib_orders, 3)}, "
           f"laplacian orders {np.round(lap_orders, 3)}")


def test_criterion_7_discrete_coercivity():
    t0 = time.time()
    ok, worst = coercivity_check(Grid(33, 33), scaled_params(delta=1e-4),
                                 seed=707, n=100)
    report("criterion 7 (discrete coercivity, 100 fields on 33^2)", ok,
           time.time() - t0, f"worst relative margin {worst:.3e}")


def test_criterion_8_linearized_spectrum():
    t0 = time.time()
    params = scaled_params(delta=1e-6, c_cor=0.0)
    g = Grid(17, 17)
    op = assemble_A0(EQ, g, params)
    rep = spectrum(op, g)
    proxy = semisimplicity_proxy(op, g)
    ok = (spectrum_passes(rep, proxy)
          and proxy.restriction_norm <= 1e-10 * proxy.operator_norm)
    report("criterion 8 (linearized spectrum on 17^2)", ok, time.time() - t0,
           f"kernel dim {rep.kernel_dim}, gap {rep.spectral_gap:.4f}, "
           f"semi-simplicity residuals {proxy.right_residual:.2e} (right), "
           f"{proxy.left_residual:.2e} (left), "
           f"restriction {proxy.restriction_norm:.2e}")


def test_criterion_9_fixed_point_and_conservation():
    t0 = time.time()
    params = scaled_params(delta=1e-6, c_cor=0.0)
    g = Grid(17, 17)
    cfg = StepperConfig(dt=0.004, t_end=4.0)
    # from the constant state (h*, a*) of EQ
    fixed_ok, fixed_detail = stepper_suite(n=1000, params=params, grid=g,
                                           cfg=cfg)

    v = perturbed_equilibrium(EQ, g, 1e-2, params)
    total_h0, total_a0 = float(np.sum(v.h)), float(np.sum(v.a))
    for _ in range(1000):
        v = step(v, ForcingInputs(), params, cfg)
    drift_h = abs(np.sum(v.h) - total_h0) / total_h0
    drift_a = abs(np.sum(v.a) - total_a0) / total_a0
    conserve_ok = drift_h <= 1e-9 and drift_a <= 1e-9
    report("criterion 9 (fixed point and conservation, 10^3 steps each)",
           fixed_ok and conserve_ok, time.time() - t0,
           f"{fixed_detail}; relative total drift "
           f"h {drift_h:.2e}, a {drift_a:.2e}")


def test_criterion_10_exponential_decay():
    t0 = time.time()
    params = scaled_params(delta=1e-6, c_cor=0.0)
    g = Grid(17, 17)
    cfg = StepperConfig(dt=0.004, t_end=0.3)
    result = decay_experiment(EQ, 1e-3, g, params, cfg)
    norms = result.trajectory.perturbation_norm
    decade = norms[0] / norms[-1]
    ok = (decade >= 10.0 and decay_passes(result)
          and result.mean_h_drift <= 1e-8 and result.mean_a_drift <= 1e-8)
    report("criterion 10 (decay rate vs spectral gap)", ok, time.time() - t0,
           f"fitted {result.fitted_rate:.4f} vs gap {result.predicted_gap:.4f} "
           f"({100 * result.relative_gap_error:.1f}%), decay factor "
           f"{decade:.1f}, mean drifts "
           f"{result.mean_h_drift:.1e}/{result.mean_a_drift:.1e}")


def test_criterion_11_reproducibility(tmp_path, capsys):
    t0 = time.time()
    snippet = (
        "rheology.delta = 1e-6\nrheology.p_star = 1.0\nrheology.c = 2.0\n"
        "rheology.rho_ice = 1.0\nrheology.c_cor = 0.0\n"
        "grid.nx = 9\ngrid.ny = 9\n"
        "stepper.dt = 0.01\nstepper.t_end = 0.05\n"
        "experiment.n_samples = 200\n"
    )
    outputs = {}
    for sub, artifact in (("symbol", "symbol_report.csv"),
                          ("ls-check", "ls_report.csv"),
                          ("spectrum", "spectrum.csv"),
                          ("simulate", "diagnostics.csv")):
        payloads = []
        for attempt in ("x", "y"):
            out = tmp_path / f"{sub}-{attempt}"
            cfg_path = tmp_path / f"{sub}-{attempt}.cfg"
            cfg_path.write_text(snippet + f"experiment.output_dir = {out}\n")
            code = dispatch([sub, str(cfg_path)])
            capsys.readouterr()
            assert code == 0
            payloads.append((out / artifact).read_bytes())
        outputs[sub] = payloads[0] == payloads[1]
    ok = all(outputs.values())
    report("criterion 11 (byte-identical reruns)", ok, time.time() - t0,
           ", ".join(f"{k}: {'same' if v else 'DIFFER'}"
                     for k, v in outputs.items()))
