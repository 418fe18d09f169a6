"""Forcing terms, sources and time integration."""

import numpy as np
import pytest

from vpice.dynamics import (
    ForcingInputs,
    RunSinks,
    StepError,
    StepperConfig,
    compute_forcing,
    run,
    source_terms,
    step,
)
from vpice.grid import FieldSet, Grid
from vpice.operators import assemble_coupled
from vpice.params import InvalidStateError, scaled_params
from vpice.selftest import stepper_suite


PARAMS = scaled_params(delta=1e-4)


def equilibrium(grid, h_star=1.0, a_star=0.8):
    return FieldSet.constant(grid, h_star, a_star)


def perturbed(grid, h_star=1.0, a_star=0.8, scale=1e-3, seed=0):
    """Equilibrium plus mean-free smooth perturbations of h and a."""
    v = FieldSet.constant(grid, h_star, a_star)
    x, y = grid.coords()
    # first reflected Neumann modes, mean-free on the node set
    mode_h = np.cos(np.pi * (np.arange(grid.nx) + 0.5) / grid.nx)
    mode_a = np.cos(np.pi * (np.arange(grid.ny) + 0.5) / grid.ny)
    v.h += scale * h_star * np.broadcast_to(mode_h, (grid.ny, grid.nx))
    v.a += scale * a_star * np.broadcast_to(mode_a[:, None], (grid.ny, grid.nx))
    del x, y, seed
    return v


# ---------------------------------------------------------------------------
# Forcing
# ---------------------------------------------------------------------------

def test_forcing_all_zero():
    g = Grid(9, 9)
    f1, f2 = compute_forcing(equilibrium(g), ForcingInputs(), PARAMS)
    assert np.all(f1 == 0.0) and np.all(f2 == 0.0)


def test_forcing_ocean_drag_plugin():
    g = Grid(9, 9)
    v = equilibrium(g, h_star=2.0)
    const = (np.full((g.ny, g.nx), 0.3), np.full((g.ny, g.nx), -0.4))
    inputs = ForcingInputs(u_ocean=const)
    f1, f2 = compute_forcing(v, inputs, PARAMS)
    c2 = PARAMS.rho_ocean * PARAMS.C_ocean / PARAMS.rho_ice
    speed = 0.5
    interior = g.interior_mask()
    np.testing.assert_allclose(f1[interior], c2 / 2.0 * speed * 0.3, rtol=1e-13)
    np.testing.assert_allclose(f2[interior], c2 / 2.0 * speed * (-0.4), rtol=1e-13)
    assert np.all(f1[~interior] == 0.0)


@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_forcing_wind_drag(theta):
    # (rho_atm C_atm / rho_ice) / h |u_atm| R(theta) u_atm at rest on h = 2
    g = Grid(9, 9)
    params = scaled_params(delta=1e-4, theta_atm=theta)
    wind = (np.full((g.ny, g.nx), 0.6), np.full((g.ny, g.nx), 0.8))
    f1, f2 = compute_forcing(equilibrium(g, h_star=2.0),
                             ForcingInputs(u_atm=wind), params)
    c1 = params.rho_atm * params.C_atm / params.rho_ice
    c, s = np.cos(theta), np.sin(theta)
    interior = g.interior_mask()
    np.testing.assert_allclose(f1[interior], c1 / 2.0 * (0.6 * c - 0.8 * s),
                               rtol=1e-13)
    np.testing.assert_allclose(f2[interior], c1 / 2.0 * (0.6 * s + 0.8 * c),
                               rtol=1e-13)
    assert np.all(f1[~interior] == 0.0) and np.all(f2[~interior] == 0.0)


def test_coriolis_orientation():
    # rotation is part of the implicit operator A of I + dt A, not of the
    # explicit forcing: (A(c) - A(0)) u = c (n x u) with n x u = (-u2, u1)
    # on the interior velocity rows, so the tendency -A u turns u clockwise.
    # Frozen at rest, the cross-velocity diagonal holds only the rotation,
    # so the difference is exact
    g = Grid(9, 9)
    n = g.n_nodes
    with_cor, without = scaled_params(c_cor=0.7), scaled_params(c_cor=0.0)
    frozen = perturbed(g)
    rows = (assemble_coupled(frozen, g, with_cor).matrix
            - assemble_coupled(frozen, g, without).matrix)
    rng = np.random.default_rng(6)
    inside = g.interior_mask().ravel()
    u1, u2 = (np.where(inside, rng.normal(size=n), 0.0) for _ in range(2))
    expected = np.concatenate([-0.7 * u2, 0.7 * u1, np.zeros(2 * n)])
    assert np.array_equal(
        rows @ np.concatenate([u1, u2, frozen.h.ravel(), frozen.a.ravel()]),
        expected)
    v = perturbed(g)
    v.u1, v.u2 = u1.reshape(v.h.shape), u2.reshape(v.h.shape)
    for f_with, f_without in zip(compute_forcing(v, ForcingInputs(), with_cor),
                                 compute_forcing(v, ForcingInputs(), without)):
        assert np.array_equal(f_with, f_without)


def test_forcing_tilt_term():
    g = Grid(9, 9)
    tilt = (np.full((g.ny, g.nx), 0.01), np.full((g.ny, g.nx), -0.02))
    f1, f2 = compute_forcing(equilibrium(g), ForcingInputs(h_tilt_grad=tilt), PARAMS)
    interior = g.interior_mask()
    np.testing.assert_allclose(f1[interior], -PARAMS.g * 0.01, rtol=1e-13)
    np.testing.assert_allclose(f2[interior], PARAMS.g * 0.02, rtol=1e-13)


def test_forcing_rejects_thin_ice():
    g = Grid(9, 9)
    v = FieldSet.constant(g, 0.5 * PARAMS.kappa, 0.5)
    # the one-line message prints a plain float, not np.float64(...)
    with pytest.raises(InvalidStateError,
                       match=rf"min h = {0.5 * PARAMS.kappa!r}$"):
        compute_forcing(v, ForcingInputs(), PARAMS)


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------

def test_sources_zero_growth():
    g = Grid(7, 7)
    s_h, s_a = source_terms(equilibrium(g), ForcingInputs(), PARAMS)
    assert np.all(s_h == 0.0) and np.all(s_a == 0.0)


def test_sources_constant_positive_growth_full_cover():
    g = Grid(7, 7)
    v = equilibrium(g, 1.0, 1.0)
    inputs = ForcingInputs(f_growth=lambda x: 0.2 * np.ones_like(np.asarray(x, dtype=float)))
    s_h, s_a = source_terms(v, inputs, PARAMS)
    np.testing.assert_allclose(s_h, 0.2, rtol=1e-14)
    np.testing.assert_allclose(s_a, 0.0, atol=1e-15)  # (1 - a) = 0 and S_h > 0


def test_sources_melting_branches():
    g = Grid(7, 7)
    g0 = 0.3
    v = equilibrium(g, 1.0, 0.5)
    inputs = ForcingInputs(f_growth=lambda x: -g0 * np.ones_like(np.asarray(x, dtype=float)))
    s_h, s_a = source_terms(v, inputs, PARAMS)
    # S_h = -g0 * a + (1 - a)(-g0) = -g0;  S_a = 0 + (a / 2h) S_h = -g0/4
    np.testing.assert_allclose(s_h, -g0, rtol=1e-14)
    np.testing.assert_allclose(s_a, -g0 / 4.0, rtol=1e-14)


def test_sources_open_water_contributes_nothing_from_ratio_term():
    g = Grid(7, 7)
    v = equilibrium(g, 1.0, 0.0)

    def f(x):
        # would blow up if evaluated at h/a with a = 0 and the result used
        return np.asarray(x, dtype=float)

    s_h, s_a = source_terms(v, ForcingInputs(f_growth=f), PARAMS)
    np.testing.assert_allclose(s_h, 0.0, atol=1e-15)  # (1 - a) f(0) = 0 too
    np.testing.assert_allclose(s_a, 0.0, atol=1e-15)


def test_sources_positive_f0_drives_compactness():
    g = Grid(7, 7)
    v = equilibrium(g, 1.0, 0.5)
    inputs = ForcingInputs(f_growth=lambda x: 0.4 * np.ones_like(np.asarray(x, dtype=float)))
    _, s_a = source_terms(v, inputs, PARAMS)
    np.testing.assert_allclose(s_a, 0.4 / PARAMS.kappa * 0.5, rtol=1e-14)


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

# the default stepper_suite (11^2, dt = 0.01) runs in `vpice selftest`
def test_equilibrium_fixed_point_at_larger_step():
    assert stepper_suite(params=PARAMS, grid=Grid(9, 9),
                         cfg=StepperConfig(dt=0.02, t_end=0.1))[0]


def test_totals_conserved_without_growth():
    g = Grid(11, 11)
    v = perturbed(g, scale=1e-2)
    cfg = StepperConfig(dt=0.01, t_end=0.1)
    total_h0 = np.sum(v.h)
    total_a0 = np.sum(v.a)
    for _ in range(20):
        v = step(v, ForcingInputs(), PARAMS, cfg)
    assert abs(np.sum(v.h) - total_h0) <= 1e-10 * total_h0
    assert abs(np.sum(v.a) - total_a0) <= 1e-10 * total_a0


def test_kinetic_energy_nonincreasing_unforced():
    g = Grid(11, 11)
    v = perturbed(g, scale=1e-2)
    interior = g.interior_mask()
    x, y = g.coords()
    v.u1[interior] = (1e-3 * np.sin(np.pi * x) * np.sin(np.pi * y))[interior]
    cfg = StepperConfig(dt=0.01, t_end=0.1)
    result = run(v, ForcingInputs(), PARAMS, cfg)
    diffs = np.diff(result.kinetic_energy)
    assert np.all(diffs <= 1e-12 * max(result.kinetic_energy[0], 1e-300))


def test_first_order_temporal_self_convergence():
    g = Grid(9, 9)
    const = (np.full((g.ny, g.nx), 0.05), np.full((g.ny, g.nx), 0.02))
    inputs = ForcingInputs(u_ocean=const)
    t_end = 0.08
    v0 = equilibrium(g)

    def final_state(dt):
        cfg = StepperConfig(dt=dt, t_end=t_end)
        return run(v0, inputs, PARAMS, cfg).final_state.to_vector()

    states = [final_state(t_end / n) for n in (8, 16, 32, 64)]
    # successive-difference self-convergence: ||v_dt - v_{dt/2}|| ~ C dt
    errors = [np.linalg.norm(a - b) for a, b in zip(states[:-1], states[1:])]
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(np.abs(orders - 1.0) <= 0.2)


def test_step_reports_validity_violation():
    g = Grid(9, 9)
    v = FieldSet.constant(g, PARAMS.kappa * 1.01, 0.5)
    melt = ForcingInputs(f_growth=lambda x: -50.0 * np.ones_like(np.asarray(x, dtype=float)))
    cfg = StepperConfig(dt=0.05, t_end=1.0)
    with pytest.raises(InvalidStateError) as excinfo:
        step(v, melt, PARAMS, cfg)
    assert "kappa" in str(excinfo.value)


def test_run_wraps_step_errors_with_index_and_time():
    g = Grid(9, 9)
    v = FieldSet.constant(g, PARAMS.kappa * 1.05, 0.5)
    melt = ForcingInputs(f_growth=lambda x: -1.0 * np.ones_like(np.asarray(x, dtype=float)))
    cfg = StepperConfig(dt=0.01, t_end=1.0)
    with pytest.raises(StepError) as excinfo:
        run(v, melt, PARAMS, cfg)
    assert excinfo.value.step_index >= 1
    assert excinfo.value.time > 0.0


def test_run_zero_data_all_diagnostics_constant():
    g = Grid(9, 9)
    v = equilibrium(g)
    cfg = StepperConfig(dt=0.02, t_end=0.1)
    result = run(v, ForcingInputs(), PARAMS, cfg)
    np.testing.assert_allclose(result.kinetic_energy, 0.0, atol=1e-30)
    np.testing.assert_allclose(result.mean_h, result.mean_h[0], rtol=1e-13)
    np.testing.assert_allclose(result.mean_a, result.mean_a[0], rtol=1e-13)
    np.testing.assert_allclose(result.perturbation_norm, 0.0, atol=1e-10)


def test_run_mean_h_constant_in_time():
    g = Grid(9, 9)
    v = perturbed(g, scale=5e-3)
    cfg = StepperConfig(dt=0.01, t_end=0.2)
    result = run(v, ForcingInputs(), PARAMS, cfg)
    np.testing.assert_allclose(result.mean_h, result.mean_h[0], rtol=1e-12)


def test_run_perturbation_norm_decreases_unforced():
    g = Grid(11, 11)
    v = perturbed(g, scale=1e-3)
    cfg = StepperConfig(dt=0.01, t_end=0.3)
    result = run(v, ForcingInputs(), PARAMS, cfg)
    norms = result.perturbation_norm
    assert norms[-1] < 0.1 * norms[0]
    assert np.all(np.diff(norms) <= 1e-12 * norms[0])


def test_run_sinks_receive_rows_and_snapshots():
    g = Grid(9, 9)
    rows, snaps = [], []
    sinks = RunSinks(on_diagnostics=rows.append,
                     on_snapshot=lambda k, t, v: snaps.append((k, t)),
                     snapshot_every=2)
    cfg = StepperConfig(dt=0.01, t_end=0.05)
    run(equilibrium(g), ForcingInputs(), PARAMS, cfg, sinks=sinks)
    assert len(rows) == 6  # initial + 5 steps
    assert [k for k, _ in snaps] == [0, 2, 4]

