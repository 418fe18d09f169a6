"""Built-in invariant suites for the selftest subcommand.

Each suite returns (name, passed, detail).  The suites mirror the package's
core contracts at reduced sample counts so the whole battery runs in tens
of seconds on a laptop: constitutive-law identities, ellipticity and
boundary-condition margins, operator structure, and the equilibrium fixed
point of the time stepper.
"""

from __future__ import annotations

import numpy as np

from .dynamics import ForcingInputs, StepperConfig, step
from .grid import FieldSet, Grid
from .operators import assemble_hibler, assemble_neumann_laplacian
from .params import RheologyParams, scaled_params
from .rheology import (
    coefficient_tensor,
    coercivity_lower_bound,
    delta_reg,
    delta_sq,
    delta_sq_general,
    s_map,
    sample_state,
    strain_derivative_gap,
    stress_sigma_delta,
)
from .stability import Equilibrium, assemble_A0, kernel_basis, spectrum
from .symbols import (
    boundary_form_check,
    ellipticity_report,
    lopatinskii_shapiro_check,
    sample_ls_probe,
)

SYMMETRY_PERMS = ((1, 0, 3, 2), (2, 3, 0, 1), (2, 1, 0, 3),
                  (0, 3, 2, 1), (3, 2, 1, 0))


def rheology_suite(seed=0, n=2000, params: RheologyParams | None = None):
    params = params or scaled_params()
    rng = np.random.default_rng(seed)
    worst_sym = 0.0
    worst_dual = 0.0
    worst_cs = 0.0
    worst_coercivity = np.inf
    for _ in range(n):
        eps, h, a, p = sample_state(rng, params)
        tensor = coefficient_tensor(eps, p, params)
        scale = np.max(np.abs(tensor))
        for perm in SYMMETRY_PERMS:
            gap = np.max(np.abs(tensor - np.transpose(tensor, perm)))
            worst_sym = max(worst_sym, gap / scale)
        sig = stress_sigma_delta(eps, h, a, params)
        se = s_map(eps, params)
        dreg = delta_reg(eps, params)
        alt = (0.5 * p * se.s11 / dreg - 0.5 * p,
               0.5 * p * se.s12 / dreg,
               0.5 * p * se.s22 / dreg - 0.5 * p)
        sscale = max(abs(alt[0]), abs(alt[1]), abs(alt[2]), 1e-300)
        worst_dual = max(worst_dual,
                         max(abs(sig.s11 - alt[0]), abs(sig.s12 - alt[1]),
                             abs(sig.s22 - alt[2])) / sscale)
        d = rng.normal(size=(2, 2))
        dv = np.array([d[0, 0], d[0, 1], d[1, 0], d[1, 1]])
        sev = np.array([se.s11, se.s12, se.s12, se.s22])
        lhs = float(dv @ sev) ** 2
        rhs = delta_sq_general(d, params) * delta_sq(eps, params)
        worst_cs = max(worst_cs, (lhs - rhs) / max(rhs, 1e-300))
        quad = np.einsum("ijkl,ik,jl->", tensor, d, d)
        bound = (coercivity_lower_bound(eps, p, params) * params.delta
                 * delta_sq_general(d, params))
        worst_coercivity = min(worst_coercivity, quad - bound)
    ok = (worst_sym <= 1e-12 and worst_dual <= 1e-12
          and worst_cs <= 1e-12 and worst_coercivity >= -1e-10)
    detail = (f"sym {worst_sym:.2e}, dual {worst_dual:.2e}, "
              f"cauchy-schwarz excess {worst_cs:.2e}, "
              f"coercivity margin {worst_coercivity:.2e}")
    return "rheology-identities", ok, detail


def jacobian_suite(seed=1, n=25, params: RheologyParams | None = None):
    params = params or scaled_params(delta=1e-4)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        eps, _, _, p = sample_state(rng, params)
        tensor = coefficient_tensor(eps, p, params)
        gap = strain_derivative_gap(eps, p, params)
        worst = max(worst, gap / np.max(np.abs(tensor)))
    return "stress-jacobian", worst <= 1e-6, f"worst relative gap {worst:.2e}"


def ellipticity_suite(seed=2, n=200, params: RheologyParams | None = None):
    params = params or scaled_params()
    rng = np.random.default_rng(seed)
    worst_eig = np.inf
    worst_margin = np.inf
    for _ in range(n // 20):
        eps, _, _, p = sample_state(rng, params)
        report = ellipticity_report(eps, p, params, n_samples=20,
                                    seed=int(rng.integers(1 << 31)))
        worst_eig = min(worst_eig, report.min_eigenvalue)
        worst_margin = min(worst_margin, report.min_coercivity_margin)
    ok = worst_eig > 0.0 and worst_margin >= -1e-10
    return "ellipticity", ok, (f"min eigenvalue {worst_eig:.3e}, "
                               f"margin {worst_margin:.2e}")


def boundary_form_suite(seed=3, n=2000, params: RheologyParams | None = None):
    params = params or scaled_params()
    rng = np.random.default_rng(seed)
    eps, _, _, p = sample_state(rng, params)
    report = boundary_form_check(eps, p, params, n_samples=n, seed=seed)
    ok = report.min_form >= -1e-10 and report.min_conditional_form > 0.0
    return "boundary-form", ok, (f"min {report.min_form:.2e}, conditional min "
                                 f"{report.min_conditional_form:.2e}")


def ls_suite(seed=4, n=100, params: RheologyParams | None = None,
             lambda_re_min: float = 0.0):
    params = params or scaled_params()
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(n):
        probe, _ = sample_ls_probe(rng, params, lambda_re_min)
        result = lopatinskii_shapiro_check(probe, params)
        worst = min(worst, result.s_min / max(result.s_max, 1e-300))
    return "lopatinskii-shapiro", worst > 1e-8, f"worst s_min/s_max {worst:.2e}"


def operator_suite(params: RheologyParams | None = None):
    params = params or scaled_params(delta=1e-4)
    grid = Grid(17, 17)
    lap = assemble_neumann_laplacian(grid, params.d_h)
    sym = abs(lap.matrix - lap.matrix.T).max()
    const = np.abs(lap.matrix @ np.ones(grid.n_nodes)).max()
    scale = params.d_h / grid.dx**2
    state = FieldSet.constant(grid, 1.0, 0.8)
    hib = assemble_hibler(state, grid, params)
    rng = np.random.default_rng(5)
    interior = grid.interior_mask()
    u1 = np.zeros((grid.ny, grid.nx))
    u2 = np.zeros((grid.ny, grid.nx))
    u1[interior] = rng.normal(size=interior.sum())
    u2[interior] = rng.normal(size=interior.sum())
    vec = np.concatenate([u1.ravel(), u2.ravel()])
    quad = float(vec @ (hib.matrix @ vec))
    ok = sym == 0.0 and const <= 1e-12 * scale and quad > 0.0
    return "operator-structure", ok, (f"laplacian asym {sym:.1e}, "
                                      f"kernel residual {const:.2e}, "
                                      f"velocity form {quad:.3e}")


def stepper_suite(params: RheologyParams | None = None):
    params = params or scaled_params(delta=1e-4)
    grid = Grid(11, 11)
    v = FieldSet.constant(grid, 1.0, 0.8)
    cfg = StepperConfig(dt=0.01, t_end=0.1)
    out = step(v, ForcingInputs.none(), params, cfg)
    drift = np.max(np.abs(out.to_vector() - v.to_vector()))
    return "equilibrium-fixed-point", drift <= 1e-12, f"per-step drift {drift:.2e}"


def spectrum_suite(params: RheologyParams | None = None):
    params = params or scaled_params(delta=1e-6, c_cor=0.0)
    grid = Grid(11, 11)
    op = assemble_A0(Equilibrium(1.0, 0.8), grid, params)
    residual = np.max(np.abs(op.matrix @ kernel_basis(grid)))
    report = spectrum(op)
    others = report.eigenvalues[np.abs(report.eigenvalues) > report.tol_kernel]
    ok = (report.kernel_dim == 2 and np.min(others.real) > 0.0
          and residual <= 1e-12 * abs(op.matrix).max())
    return "linearized-spectrum", ok, (
        f"kernel dim {report.kernel_dim}, gap {report.spectral_gap:.4g}, "
        f"kernel residual {residual:.2e}")


ALL_SUITES = (rheology_suite, jacobian_suite, ellipticity_suite,
              boundary_form_suite, ls_suite, operator_suite, stepper_suite,
              spectrum_suite)


def run_selftest(emit=print) -> bool:
    """Run every suite; emit one pass/fail line each; return overall success."""
    all_ok = True
    for suite in ALL_SUITES:
        name, ok, detail = suite()
        emit(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        all_ok = all_ok and ok
    return all_ok
