"""Built-in invariant suites for the selftest subcommand.

Each suite returns (passed, detail); SUITES names them.  The suites check
the package's core contracts at small default sample counts: constitutive-law
identities, ellipticity and boundary-condition margins, operator structure
and coercivity, and the equilibrium fixed point of the time stepper.  The
acceptance criteria evaluate the same rules at their own seeds and sizes
(criteria 1, 2, 4 and 9 pass their own to a suite, 6 to
``convergence_check`` and 7 to ``coercivity_check``).
"""

from __future__ import annotations

import numpy as np

from . import stability
from .dynamics import ForcingInputs, step
from .grid import Equilibrium, FieldSet, Grid, strain_rate_field
from .operators import assemble_hibler, assemble_neumann_laplacian
from .params import RheologyParams, StepperConfig, VpiceError, scaled_params
from .rheology import (
    StrainRate,
    coefficient_tensor,
    coercivity_lower_bound,
    delta_reg,
    delta_sq,
    pressure,
    s_map,
    sample_state,
    strain_derivative_gap,
    stress_sigma_delta,
)
from .symbols import (
    boundary_form_check,
    ellipticity_report,
    lopatinskii_shapiro_check,
    sample_ls_probes,
)

# a_ij^kl = a_ji^lk = a_kl^ij = a_kj^il = a_il^kj = a_lk^ji
SYMMETRY_PERMS = ((1, 0, 3, 2), (2, 3, 0, 1), (2, 1, 0, 3),
                  (0, 3, 2, 1), (3, 2, 1, 0))
DISCRETE_COERCIVITY_MIN = -1e-9  # relative margin of coercivity_check
FIXED_POINT_DRIFT_MAX = 1e-12  # per-step drift of stepper_suite
CONVERGENCE_ORDER_TOL = 0.2  # |order - 2| that convergence_check passes


def rheology_suite(seed=0, n=2000, params: RheologyParams | None = None):
    """Tensor symmetries, dual stress, Cauchy-Schwarz, coercivity; batched."""
    params = params or scaled_params()
    rng = np.random.default_rng(seed)
    eps, h, a, p = sample_state(rng, params, size=n)
    tensor = coefficient_tensor(eps, p, params)  # (2, 2, 2, 2, n)
    scale = np.max(np.abs(tensor), axis=(0, 1, 2, 3))
    worst_sym = 0.0
    for perm in SYMMETRY_PERMS:
        gap = np.max(np.abs(tensor - np.transpose(tensor, perm + (4,))),
                     axis=(0, 1, 2, 3))
        worst_sym = max(worst_sym, np.max(gap / scale))

    sig = stress_sigma_delta(eps, h, a, params)
    se = s_map(eps, params)
    dreg = delta_reg(eps, params)
    alt = np.stack([0.5 * p * se.s11 / dreg - 0.5 * p, 0.5 * p * se.s12 / dreg,
                    0.5 * p * se.s22 / dreg - 0.5 * p])
    sscale = np.maximum(np.max(np.abs(alt), axis=0), 1e-300)
    got = np.stack([sig.s11, sig.s12, sig.s22])
    worst_dual = np.max(np.max(np.abs(got - alt), axis=0) / sscale)

    d = rng.normal(size=(n, 2, 2))
    sym_d = StrainRate.from_matrix(d)
    pairing = sym_d.e11 * se.s11 + 2.0 * sym_d.e12 * se.s12 + sym_d.e22 * se.s22
    delta2_d = delta_sq(sym_d, params)
    cs_excess = np.max(pairing**2 - delta2_d * delta_sq(eps, params)
                       * (1.0 + 1e-12))

    quad = np.einsum("ijkln,nik,njl->n", tensor, d, d)
    bound = coercivity_lower_bound(eps, p, params) * params.delta * delta2_d
    worst_margin = np.min(quad - bound)

    ok = (worst_sym <= 1e-12 and worst_dual <= 1e-12
          and cs_excess <= 0.0 and worst_margin >= -1e-10)
    return ok, (f"sym {worst_sym:.2e}, dual {worst_dual:.2e}, "
                f"cauchy-schwarz excess {cs_excess:.2e}, "
                f"coercivity margin {worst_margin:.2e}")


def jacobian_suite(seed=1, n=25, params: RheologyParams | None = None):
    params = params or scaled_params(delta=1e-4)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        eps, _, _, p = sample_state(rng, params)
        tensor = coefficient_tensor(eps, p, params)
        gap = strain_derivative_gap(eps, p, params)
        worst = max(worst, gap / np.max(np.abs(tensor)))
    return worst <= 1e-6, f"worst relative gap {worst:.2e}"


def ellipticity_suite():
    params = scaled_params()
    rng = np.random.default_rng(2)
    eps, _, _, p = sample_state(rng, params, size=10)
    report = ellipticity_report(eps, p, params, n_samples=20, seed=rng)
    return (bool(np.all(report.passes)),
            f"min eigenvalue {np.min(report.min_eigenvalue):.3e}, "
            f"defect {np.max(report.relative_defect):.2e}, "
            f"margin {np.min(report.relative_margin):.2e}")


def boundary_form_suite():
    params = scaled_params()
    rng = np.random.default_rng(3)
    eps, _, _, p = sample_state(rng, params)
    report = boundary_form_check(eps, p, params, n_samples=2000, seed=rng)
    return bool(report.passes), (f"min {report.min_form:.2e}, conditional "
                                 f"min {report.min_conditional_form:.2e}")


def ls_suite(seed=4, n=100, params: RheologyParams | None = None):
    """The first failed probe fails the suite with its RootBalanceError's
    message."""
    params = params or scaled_params()
    probe, _ = sample_ls_probes(np.random.default_rng(seed), params, n)
    result = lopatinskii_shapiro_check(probe, params)
    failed = [failure for failure in result.failure if failure is not None]
    if failed:
        return False, str(failed[0])
    worst = np.min(result.s_min / np.maximum(result.s_max, 1e-300),
                   initial=np.inf)
    return bool(np.all(result.passes)), f"worst s_min/s_max {worst:.2e}"


def coercivity_check(grid: Grid, params: RheologyParams, seed, n):
    """Discrete coercivity of the velocity block A of ``assemble_hibler`` at
    the constant state (1, 0.8): for n random fields u, zero on the
    boundary, the form q = |cell| (u | A u) clears the bound
    (P / (2 sqrt delta)) (2 / e^2) |cell| sum |eps(u)|^2 over the interior
    to a relative margin (q - bound) / |q| >= DISCRETE_COERCIVITY_MIN.
    Returns (passed, worst relative margin)."""
    p_const = float(pressure(1.0, 0.8, params))
    c = (p_const / (2.0 * np.sqrt(params.delta))) * (2.0 / params.e**2)
    op = assemble_hibler(FieldSet.constant(grid, 1.0, 0.8), grid, params)
    interior = grid.interior_mask()
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(n):
        u = np.zeros((2, grid.ny, grid.nx))  # u1 then u2: the vector's order
        u[:, interior] = rng.normal(size=(2, interior.sum()))
        quad = grid.cell_area * float(u.ravel() @ (op.matrix @ u.ravel()))
        eps = strain_rate_field(FieldSet(grid, *u, *np.ones_like(u)))
        strain2 = grid.cell_area * float(np.sum(
            (eps.e11**2 + 2 * eps.e12**2 + eps.e22**2)[interior]))
        worst = min(worst, (quad - c * strain2) / abs(quad))
    return worst >= DISCRETE_COERCIVITY_MIN, worst


def convergence_check(sizes, params: RheologyParams):
    """(passed, errors, orders): errors[k, o, m] is the interior error in norm
    m (cell-weighted L2, max) on grid sizes[k]^2 of the velocity block at
    (1, 0.8) on (sin pi x sin 2 pi y, sin 2 pi x sin pi y) (o = 0) or of the
    worse diffusion block, d_h or d_a, on cos pi x cos 2 pi y (o = 1); every
    order, grid k to k + 1, passes within CONVERGENCE_ORDER_TOL of 2."""
    c = float(pressure(1.0, 0.8, params)) / (2.0 * np.sqrt(params.delta))
    q = 1.0 / params.e**2
    errors = []
    for g in (Grid(n, n) for n in sizes):
        x, y = (axis.ravel() for axis in g.coords())
        u1 = np.sin(np.pi * x) * np.sin(2 * np.pi * y)
        u2 = np.sin(2 * np.pi * x) * np.sin(np.pi * y)
        f = np.cos(np.pi * x) * np.cos(2 * np.pi * y)
        exact = (-c * (-(1 + q) * np.pi**2 * u1 - 4 * q * np.pi**2 * u1
                       + 2 * np.pi**2 * np.cos(2 * np.pi * x) * np.cos(np.pi * y)),
                 -c * (2 * np.pi**2 * np.cos(np.pi * x) * np.cos(2 * np.pi * y)
                       - 4 * q * np.pi**2 * u2 - (1 + q) * np.pi**2 * u2))
        op = assemble_hibler(FieldSet.constant(g, 1.0, 0.8), g, params)
        eu, ef = (np.array(miss)[:, g.interior_mask().ravel()] for miss in (
            (op.matrix @ np.concatenate([u1, u2])).reshape(2, -1) - exact,
            [assemble_neumann_laplacian(g, d).matrix @ f - d * 5 * np.pi**2 * f
             for d in (params.d_h, params.d_a)]))
        sq_u, sq_f = ([np.sum(m**2) for m in miss] for miss in (eu, ef))
        errors.append([[np.sqrt(g.cell_area * sum(sq_u)), np.abs(eu).max()],
                       [np.sqrt(g.cell_area * max(sq_f)), np.abs(ef).max()]])
    e, h = np.array(errors), np.array([Grid(n, n).dx for n in sizes])
    orders = np.log(e[:-1] / e[1:]) / np.log(h[:-1] / h[1:])[:, None, None]
    return bool(np.all(np.abs(orders - 2) <= CONVERGENCE_ORDER_TOL)), e, orders


def operator_suite():
    params = scaled_params(delta=1e-4)
    grid = Grid(17, 17)
    lap = assemble_neumann_laplacian(grid, params.d_h)
    sym = abs(lap.matrix - lap.matrix.T).max()
    const = np.abs(lap.matrix @ np.ones(grid.n_nodes)).max()
    scale = params.d_h / grid.dx**2
    consistent, _, orders = convergence_check((17, 33), params)
    coercive, margin = coercivity_check(grid, params, seed=5, n=1)
    ok = sym == 0.0 and const <= 1e-12 * scale and consistent and coercive
    return ok, (f"laplacian asym {sym:.1e}, kernel residual {const:.2e}, "
                f"orders 17->33 (L2, max): velocity {np.round(orders[0, 0], 3)}, "
                f"diffusion {np.round(orders[0, 1], 3)}, "
                f"coercivity margin {margin:.3e}")


def stepper_suite(n=1, params: RheologyParams | None = None,
                  grid: Grid | None = None, cfg: StepperConfig | None = None):
    """n unforced steps from the constant state (1, 0.8) each move it by at
    most FIXED_POINT_DRIFT_MAX."""
    params = params or scaled_params(delta=1e-4)
    grid = grid or Grid(11, 11)
    cfg = cfg or StepperConfig(dt=0.01, t_end=0.1)
    v = FieldSet.constant(grid, 1.0, 0.8)
    drift = 0.0
    for _ in range(n):
        v, before = step(v, ForcingInputs(), params, cfg), v
        drift = max(drift, np.max(np.abs(v.to_vector() - before.to_vector())))
    return drift <= FIXED_POINT_DRIFT_MAX, f"per-step drift {drift:.2e}"


def spectrum_suite():
    """The ``vpice spectrum`` pass rule and the energy split of A0 on
    11^2."""
    params = scaled_params(delta=1e-6, c_cor=0.0)
    grid = Grid(11, 11)
    eq = Equilibrium(1.0, 0.8)
    op = stability.assemble_A0(eq, grid, params)
    report = stability.spectrum(op, grid)
    proxy = stability.semisimplicity_proxy(op, grid)
    split, defect = stability.energy_split_check(op, eq, grid, params)
    return stability.spectrum_passes(report, proxy) and split, (
        f"kernel dim {report.kernel_dim}, gap {report.spectral_gap:.4g}, "
        f"kernel residuals {proxy.right_residual:.2e} (right), "
        f"{proxy.left_residual:.2e} (left), energy split defect {defect:.2e}")


SUITES = (("rheology-identities", rheology_suite),
          ("stress-jacobian", jacobian_suite),
          ("ellipticity", ellipticity_suite),
          ("boundary-form", boundary_form_suite),
          ("lopatinskii-shapiro", ls_suite),
          ("operator-structure", operator_suite),
          ("equilibrium-fixed-point", stepper_suite),
          ("linearized-spectrum", spectrum_suite))


def run_selftest() -> int:
    """Run every suite, printing one pass/fail line each; the exit code is 0
    when all pass, else 1.  The suites pin their own parameters; one that
    raises a package error fails with its message, and the others still run."""
    all_ok = True
    for name, suite in SUITES:
        try:
            ok, detail = suite()
        except VpiceError as exc:
            ok, detail = False, str(exc)
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1
