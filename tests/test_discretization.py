"""Grid, stencils, sparse assembly and linear solves."""

import numpy as np
import pytest
import scipy.sparse as sp

from vpice.grid import (
    FieldSet,
    Grid,
    diff_ops,
    gradient,
    matvec,
    neumann_eigenvalues,
    neumann_mode,
    strain_rate_field,
)
from vpice.io_formats import export_coo
from vpice.operators import (
    LinearSolveError,
    assemble_coupled,
    assemble_hibler,
    assemble_neumann_laplacian,
    divergence_matrix,
    gradient_coupling,
    solve_linear,
)
from vpice.params import InvalidStateError, scaled_params
from vpice.rheology import pressure
from vpice.selftest import coercivity_check


def fit_orders(errors, spacings):
    """Observed convergence orders between successive refinements."""
    e = np.asarray(errors, dtype=float)
    h = np.asarray(spacings, dtype=float)
    return np.log(e[:-1] / e[1:]) / np.log(h[:-1] / h[1:])


# ---------------------------------------------------------------------------
# Grid and strain field
# ---------------------------------------------------------------------------

def test_grid_invariants():
    g = Grid(5, 9, 2.0, 4.0)
    assert g.dx == pytest.approx(0.5)
    assert g.dy == pytest.approx(0.5)
    with pytest.raises(InvalidStateError):
        Grid(2, 5)


def test_state_errors_print_plain_floats():
    # one-line messages show 0.05, not np.float64(0.05)
    params = scaled_params()
    g = Grid(5, 5)
    thin = FieldSet.constant(g, 0.5 * params.kappa, 0.5)
    with pytest.raises(InvalidStateError,
                       match=rf"min h = {0.5 * params.kappa!r}$"):
        thin.validate(params)
    moving = FieldSet.constant(g, 1.0, 0.5)
    moving.u2[0, 2] = -0.25
    with pytest.raises(InvalidStateError, match=r"max \|u\| there = 0\.25$"):
        moving.validate(params)


def test_strain_rate_zero_velocity():
    g = Grid(7, 7)
    f = FieldSet.constant(g, 1.0, 0.5)
    eps = strain_rate_field(f)
    assert np.all(eps.e11 == 0.0) and np.all(eps.e12 == 0.0) and np.all(eps.e22 == 0.0)


def test_strain_rate_exact_on_linear_fields():
    g = Grid(9, 11)
    x, y = g.coords()
    f = FieldSet(g, x.copy(), -y.copy(), np.ones_like(x), np.ones_like(x))
    eps = strain_rate_field(f)  # differences (incl. one-sided) exact on linears
    np.testing.assert_allclose(eps.e11, 1.0, atol=1e-13)
    np.testing.assert_allclose(eps.e22, -1.0, atol=1e-13)
    np.testing.assert_allclose(eps.e12, 0.0, atol=1e-13)


def test_strain_rate_shear_linear_field():
    g = Grid(9, 9)
    x, y = g.coords()
    f = FieldSet(g, y.copy(), np.zeros_like(x), np.ones_like(x), np.ones_like(x))
    eps = strain_rate_field(f)
    np.testing.assert_allclose(eps.e12, 0.5, atol=1e-13)


KERNEL_GRIDS = [Grid(3, 3), Grid(17, 17), Grid(9, 15, lx=2.0), Grid(73, 73)]


@pytest.mark.parametrize("g", KERNEL_GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
def test_gradient_kernel_is_np_gradient_bit_for_bit(g):
    # the reference is numpy's own edge_order=2 gradient, on one field and
    # on stacks of two and three, along both grid axes, with the spacings
    # of the grid and values spread over many binades
    rng = np.random.default_rng(g.nx * g.ny)
    for shape in ((g.ny, g.nx), (2, g.ny, g.nx), (3, g.ny, g.nx)):
        f = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        for h, axis in ((g.dx, -1), (g.dy, -2), (0.3, -1), (1e-3, -2)):
            expected = np.gradient(f, h, axis=axis, edge_order=2)
            got = gradient(f, h, axis)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
            # a non-negative axis names the same one
            assert gradient(f, h, axis % f.ndim).tobytes() == got.tobytes()
    with pytest.raises(IndexError):
        gradient(f, g.dx, 3)


@pytest.mark.parametrize("g", KERNEL_GRIDS + [Grid(9, 13, 1.0, 1.5)],
                         ids=lambda g: f"{g.nx}x{g.ny}")
def test_strain_rate_is_the_np_gradient_formula_bit_for_bit(g):
    # the formula strain_rate_field replaced: np.gradient per component and
    # axis, e12 the half sum of the cross derivatives
    rng = np.random.default_rng(g.nx * g.ny)
    u1, u2 = rng.normal(size=(2, g.ny, g.nx))
    eps = strain_rate_field(FieldSet(g, u1, u2, np.ones_like(u1),
                                     np.ones_like(u1)))
    du1_dx = np.gradient(u1, g.dx, axis=1, edge_order=2)
    du1_dy = np.gradient(u1, g.dy, axis=0, edge_order=2)
    du2_dx = np.gradient(u2, g.dx, axis=1, edge_order=2)
    du2_dy = np.gradient(u2, g.dy, axis=0, edge_order=2)
    assert eps.e11.tobytes() == du1_dx.tobytes()
    assert eps.e12.tobytes() == (0.5 * (du1_dy + du2_dx)).tobytes()
    assert eps.e22.tobytes() == du2_dy.tobytes()


@pytest.mark.parametrize("g", KERNEL_GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
def test_matvec_is_the_scipy_product_bit_for_bit(g):
    rng = np.random.default_rng(g.nx)
    for matrix in (diff_ops(g)["dx"], diff_ops(g)["div"],
                   assemble_neumann_laplacian(g, 0.7).matrix):
        x = rng.normal(size=matrix.shape[1])
        assert matvec(matrix, x).tobytes() == (matrix @ x).tobytes()


def test_masked_linear_field_exact_away_from_boundary():
    g = Grid(17, 17)
    x, y = g.coords()
    u1, u2 = x.copy(), -y.copy()
    bnd = g.boundary_mask()
    u1[bnd] = 0.0
    u2[bnd] = 0.0
    f = FieldSet(g, u1, u2, np.ones_like(x), np.ones_like(x))
    eps = strain_rate_field(f)
    deep = np.zeros_like(bnd)
    deep[2:-2, 2:-2] = True
    np.testing.assert_allclose(eps.e11[deep], 1.0, atol=1e-12)
    np.testing.assert_allclose(eps.e22[deep], -1.0, atol=1e-12)


def test_fieldset_validation():
    g = Grid(5, 5)
    p = scaled_params()
    f = FieldSet.constant(g, 1.0, 0.5)
    f.validate(p)
    bad = f.copy()
    bad.h[2, 2] = 0.5 * p.kappa
    with pytest.raises(InvalidStateError):
        bad.validate(p)
    bad = f.copy()
    bad.u1[0, 2] = 0.1
    with pytest.raises(InvalidStateError):
        bad.validate(p)
    assert f.validate(p) is f
    drift = f.copy()
    drift.a[2, 2] = 1.0 + 1e-12
    clamped = drift.validate(p)
    assert clamped.a[2, 2] == 1.0
    assert drift.a[2, 2] == 1.0 + 1e-12  # the input is left as it was


@pytest.mark.parametrize("name", ["u1", "u2", "h", "a"])
def test_fieldset_rejects_wrong_shapes_and_non_finite_values(name):
    g = Grid(5, 5)
    p = scaled_params()
    f = FieldSet.constant(g, 1.0, 0.5)
    setattr(f, name, np.zeros((5, 4)))
    with pytest.raises(InvalidStateError,
                       match=rf"^{name} has shape \(5, 4\), want \(5, 5\)$"):
        f.validate(p)
    f = FieldSet.constant(g, 1.0, 0.5)
    getattr(f, name)[2, 2] = np.nan
    with pytest.raises(InvalidStateError,
                       match=rf"^{name} contains non-finite values$"):
        f.validate(p)


# ---------------------------------------------------------------------------
# Neumann Laplacian
# ---------------------------------------------------------------------------

def test_neumann_structure():
    g = Grid(8, 8)
    op = assemble_neumann_laplacian(g, 1.3)
    m = op.matrix
    assert (m != m.T).nnz == 0  # exactly symmetric
    ones = np.ones(g.n_nodes)
    scale = 1.3 / g.dx**2
    assert np.max(np.abs(m @ ones)) <= 1e-12 * scale
    assert np.max(np.abs(m.T @ ones)) <= 1e-12 * scale
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.normal(size=g.n_nodes)
        assert v @ (m @ v) >= -1e-12 * (v @ v)


def test_neumann_kernel_is_constants_only():
    g = Grid(8, 8)
    op = assemble_neumann_laplacian(g, 1.0)
    w = np.linalg.eigvalsh(op.matrix.toarray())
    assert abs(w[0]) <= 1e-10
    assert w[1] > 1e-2  # simple zero eigenvalue, gap to the rest


@pytest.mark.parametrize("g", [Grid(9, 7, ly=1.3), Grid(17, 17),
                               Grid(13, 9, lx=2.0)], ids=str)
def test_neumann_eigenvalues_in_closed_form(g):
    # the DCT-II diagonalizes the reflected stencil: the closed form is its
    # spectrum, constants first, and mode (k, l) is the outer product of
    # the 1D cosine modes
    matrix = assemble_neumann_laplacian(g, 1.0).matrix
    mu = neumann_eigenvalues(g)
    assert mu.shape == (g.n_nodes,) and mu[0] == 0.0
    largest = np.max(mu)
    assert (np.max(np.abs(np.sort(mu) - np.linalg.eigvalsh(matrix.toarray())))
            <= 1e-14 * largest)
    for l in range(g.ny):
        for k in range(g.nx):
            mode = np.kron(neumann_mode(g.ny, l), neumann_mode(g.nx, k))
            residual = matrix @ mode - mu[l * g.nx + k] * mode
            assert (np.linalg.norm(residual)
                    <= 1e-14 * largest * np.linalg.norm(mode))


def test_neumann_interior_consistency_order():
    errors, spacings = [], []
    for n in (17, 33, 65):
        g = Grid(n, n)
        x, y = g.coords()
        f = np.cos(np.pi * x) * np.cos(2 * np.pi * y)
        exact = 1.3 * (np.pi**2 + 4 * np.pi**2) * f  # -d * Laplacian f
        op = assemble_neumann_laplacian(g, 1.3)
        got = (op.matrix @ f.ravel()).reshape(g.ny, g.nx)
        interior = g.interior_mask()
        errors.append(np.max(np.abs(got - exact)[interior]))
        spacings.append(g.dx)
    orders = fit_orders(errors, spacings)
    assert np.all(np.abs(orders - 2.0) <= 0.2)


# ---------------------------------------------------------------------------
# Velocity block
# ---------------------------------------------------------------------------

def constant_state(grid, h_star=1.0, a_star=0.8):
    return FieldSet.constant(grid, h_star, a_star)


def test_hibler_constant_coefficient_action_order():
    params = scaled_params(delta=1e-2)
    h_star, a_star = 1.0, 0.8
    p_const = pressure(h_star, a_star, params)
    c = p_const / (2.0 * np.sqrt(params.delta))
    q = 1.0 / params.e**2

    errors, spacings = [], []
    for n in (17, 33, 65):
        g = Grid(n, n)
        x, y = g.coords()
        u1 = np.sin(np.pi * x) * np.sin(2 * np.pi * y)
        u2 = np.sin(2 * np.pi * x) * np.sin(np.pi * y)
        exact1 = -c * (-(1 + q) * np.pi**2 * u1 - 4 * q * np.pi**2 * u1
                       + 2 * np.pi**2 * np.cos(2 * np.pi * x) * np.cos(np.pi * y))
        exact2 = -c * (2 * np.pi**2 * np.cos(np.pi * x) * np.cos(2 * np.pi * y)
                       - 4 * q * np.pi**2 * u2 - (1 + q) * np.pi**2 * u2)
        op = assemble_hibler(constant_state(g, h_star, a_star), g, params)
        vec = np.concatenate([u1.ravel(), u2.ravel()])
        got = op.matrix @ vec
        got1 = got[:g.n_nodes].reshape(g.ny, g.nx)
        got2 = got[g.n_nodes:].reshape(g.ny, g.nx)
        interior = g.interior_mask()
        err = max(np.max(np.abs(got1 - exact1)[interior]),
                  np.max(np.abs(got2 - exact2)[interior]))
        errors.append(err)
        spacings.append(g.dx)
    orders = fit_orders(errors, spacings)
    assert np.all(np.abs(orders - 2.0) <= 0.2)


def analytic_frozen_state(g):
    x, y = g.coords()
    u1 = 0.3 * np.sin(np.pi * x) * np.sin(np.pi * y)
    u2 = 0.2 * np.sin(np.pi * x) * np.sin(2 * np.pi * y)
    h = 1.0 + 0.2 * np.cos(np.pi * x) * np.cos(np.pi * y)
    a = 0.8 + 0.1 * np.cos(2 * np.pi * x) * np.cos(np.pi * y)
    bnd = g.boundary_mask()
    u1[bnd] = 0.0
    u2[bnd] = 0.0
    return FieldSet(g, u1, u2, h, a)


def test_hibler_variable_coefficients_match_stress_divergence():
    # applied to its own frozen velocity, the operator equals the negative
    # divergence of the nonlinear regularized stress; the reference is the
    # analytic stress differentiated with a tiny step, accurate to ~1e-10
    params = scaled_params(delta=1e-2)

    def stress(xv, yv):
        u1 = 0.3 * np.sin(np.pi * xv) * np.sin(np.pi * yv)
        du1dx = 0.3 * np.pi * np.cos(np.pi * xv) * np.sin(np.pi * yv)
        du1dy = 0.3 * np.pi * np.sin(np.pi * xv) * np.cos(np.pi * yv)
        du2dx = 0.2 * np.pi * np.cos(np.pi * xv) * np.sin(2 * np.pi * yv)
        du2dy = 0.4 * np.pi * np.sin(np.pi * xv) * np.cos(2 * np.pi * yv)
        del u1
        e11, e22 = du1dx, du2dy
        e12 = 0.5 * (du1dy + du2dx)
        h = 1.0 + 0.2 * np.cos(np.pi * xv) * np.cos(np.pi * yv)
        a = 0.8 + 0.1 * np.cos(2 * np.pi * xv) * np.cos(np.pi * yv)
        p = params.p_star * h * np.exp(-params.c * (1.0 - a))
        qq = 1.0 / params.e**2
        s11 = (1 + qq) * e11 + (1 - qq) * e22
        s12 = 2 * qq * e12
        s22 = (1 - qq) * e11 + (1 + qq) * e22
        d2 = (e11 + e22)**2 + qq * ((e11 - e22)**2 + 4 * e12**2)
        dreg = np.sqrt(params.delta + d2)
        scale = 0.5 * p / dreg
        return scale * s11, scale * s12, scale * s22

    def minus_div_stress(xv, yv, step=1e-5):
        s11p, s12p, _ = stress(xv + step, yv)
        s11m, s12m, _ = stress(xv - step, yv)
        _, s12q, s22q = stress(xv, yv + step)
        _, s12r, s22r = stress(xv, yv - step)
        d1 = (s11p - s11m) / (2 * step) + (s12q - s12r) / (2 * step)
        d2 = (s12p - s12m) / (2 * step) + (s22q - s22r) / (2 * step)
        return -d1, -d2

    errors, spacings = [], []
    for n in (17, 33, 65):
        g = Grid(n, n)
        x, y = g.coords()
        state = analytic_frozen_state(g)
        op = assemble_hibler(state, g, params)
        got = op.matrix @ np.concatenate([state.u1.ravel(), state.u2.ravel()])
        got1 = got[:g.n_nodes].reshape(g.ny, g.nx)
        got2 = got[g.n_nodes:].reshape(g.ny, g.nx)
        ref1, ref2 = minus_div_stress(x, y)
        interior = g.interior_mask()
        err = np.sqrt(g.cell_area * (np.sum((got1 - ref1)[interior] ** 2)
                                     + np.sum((got2 - ref2)[interior] ** 2)))
        errors.append(err)
        spacings.append(g.dx)
    orders = fit_orders(errors, spacings)
    assert np.all(np.abs(orders - 2.0) <= 0.2)


def test_hibler_quadratic_form_dominates_strain_norm():
    assert coercivity_check(Grid(33, 33), scaled_params(delta=1e-4), seed=12,
                            n=100)[0]


def test_hibler_rejects_thin_ice():
    params = scaled_params()
    g = Grid(7, 7)
    state = FieldSet.constant(g, 0.01, 0.8)  # below kappa = 0.1
    with pytest.raises(InvalidStateError):
        assemble_hibler(state, g, params)


def test_assembly_deterministic():
    params = scaled_params()
    g = Grid(9, 9)
    state = analytic_frozen_state(g)
    a = assemble_hibler(state, g, params)
    b = assemble_hibler(state, g, params)
    assert np.array_equal(a.matrix.indptr, b.matrix.indptr)
    assert np.array_equal(a.matrix.indices, b.matrix.indices)
    assert np.array_equal(a.matrix.data, b.matrix.data)


# ---------------------------------------------------------------------------
# Coupled operator
# ---------------------------------------------------------------------------

def test_coupled_block_structure():
    params = scaled_params()
    g = Grid(9, 9)
    n = g.n_nodes
    op = assemble_coupled(constant_state(g), g, params)
    dense = op.matrix.toarray()
    assert np.all(dense[2 * n:, :2 * n] == 0.0)  # lower-left zero
    assert np.all(dense[2 * n:3 * n, 3 * n:] == 0.0)
    assert np.all(dense[3 * n:, 2 * n:3 * n] == 0.0)


def test_coupled_gradient_coupling_exact_on_linear_field():
    params = scaled_params()
    g = Grid(11, 11)
    x, _ = g.coords()
    state = constant_state(g, 1.0, 0.8)
    op = assemble_coupled(state, g, params)
    n = g.n_nodes
    vec = np.zeros(4 * n)
    vec[2 * n:3 * n] = x.ravel()  # h = x, u = 0, a = 0
    out = op.matrix @ vec
    # u1 rows at interior: dP/dh / (2 rho h) * dh/dx = const
    from vpice.rheology import pressure_derivatives
    dp_dh, _ = pressure_derivatives(1.0, 0.8, params)
    expected = dp_dh / (2.0 * params.rho_ice * 1.0)
    interior = g.interior_mask().ravel()
    np.testing.assert_allclose(out[:n][interior], expected, rtol=1e-12)
    np.testing.assert_allclose(out[:n][~interior], 0.0, atol=1e-15)
    np.testing.assert_allclose(out[n:2 * n], 0.0, atol=1e-12 * abs(expected))


def test_coupled_equals_block_formula_bitwise():
    # the rows of A^H are summed before 1/(rho_ice h) weights them, so the
    # coupled matrix is the block formula composed from the public pieces
    from vpice.rheology import pressure_derivatives
    params = scaled_params(delta=1e-4, rho_ice=0.9)
    g = Grid(13, 9)
    state = analytic_frozen_state(g)
    interior = np.tile(g.interior_mask().ravel().astype(float), 2)
    inv_mass = interior / (params.rho_ice * np.tile(state.h.ravel(), 2))
    hibler = assemble_hibler(state, g, params).matrix
    u_block = sp.diags(inv_mass) @ hibler + sp.diags(1.0 - interior)
    dp_dh, dp_da = pressure_derivatives(state.h, state.a, params)
    scale = 2.0 * params.rho_ice * state.h
    expected = sp.bmat([
        [u_block, gradient_coupling(g, dp_dh / scale),
         gradient_coupling(g, dp_da / scale)],
        [None, assemble_neumann_laplacian(g, params.d_h).matrix, None],
        [None, None, assemble_neumann_laplacian(g, params.d_a).matrix],
    ], format="csr")
    got = assemble_coupled(state, g, params).matrix.copy()
    for m in (expected, got):
        m.sort_indices()
    assert np.array_equal(got.indptr, expected.indptr)
    assert np.array_equal(got.indices, expected.indices)
    assert np.array_equal(got.data, expected.data)


def test_grid_only_matrices_are_cached():
    g = Grid(13, 9)
    assert divergence_matrix(g) is divergence_matrix(g)


def test_divergence_is_negative_adjoint_of_gradient():
    g = Grid(13, 9)
    rng = np.random.default_rng(4)
    div = divergence_matrix(g)
    grad = gradient_coupling(g, np.ones(g.n_nodes))
    interior = g.interior_mask()
    u1 = np.zeros((g.ny, g.nx))
    u2 = np.zeros((g.ny, g.nx))
    u1[interior] = rng.normal(size=interior.sum())
    u2[interior] = rng.normal(size=interior.sum())
    h = rng.normal(size=g.n_nodes)
    u = np.concatenate([u1.ravel(), u2.ravel()])
    lhs = (div @ u) @ h
    rhs = -(grad @ h) @ u
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_divergence_conserves_totals():
    g = Grid(13, 13)
    rng = np.random.default_rng(5)
    div = divergence_matrix(g)
    flux = rng.normal(size=2 * g.n_nodes)
    assert abs(np.sum(div @ flux)) <= 1e-12 * np.linalg.norm(flux)


# ---------------------------------------------------------------------------
# Linear solves
# ---------------------------------------------------------------------------

def identity_operator(g):
    from vpice.operators import SparseOperator
    n = g.n_nodes
    return SparseOperator(sp.identity(n, format="csr"), np.zeros(n, bool))


def test_solve_identity():
    g = Grid(7, 7)
    rng = np.random.default_rng(8)
    rhs = rng.normal(size=g.n_nodes)
    x = solve_linear(identity_operator(g), rhs)
    np.testing.assert_allclose(x, rhs, rtol=0, atol=1e-14)


def test_solve_pinned_neumann_manufactured():
    g = Grid(17, 17)
    d = 0.7
    op = assemble_neumann_laplacian(g, d)
    x, y = g.coords()
    h_exact = np.cos(np.pi * x) * np.cos(np.pi * y)
    rhs = op.matrix @ h_exact.ravel()  # discrete right-hand side, consistent
    lil = op.matrix.tolil()
    lil[0, :] = 0.0
    lil[0, 0] = 1.0
    pinned = op.matrix.__class__(lil.tocsr())
    from vpice.operators import SparseOperator
    mask = np.zeros(g.n_nodes, bool)
    mask[0] = True
    pinned_op = SparseOperator(pinned, mask)
    rhs = rhs.copy()
    rhs[0] = h_exact.ravel()[0]
    sol = solve_linear(pinned_op, rhs)
    residual = np.linalg.norm(pinned @ sol - rhs) / np.linalg.norm(rhs)
    assert residual <= 1e-10
    np.testing.assert_allclose(sol, h_exact.ravel(), atol=1e-8)


def test_solve_singular_incompatible_raises():
    g = Grid(9, 9)
    op = assemble_neumann_laplacian(g, 1.0)
    rhs = np.ones(g.n_nodes)  # not orthogonal to the kernel of the adjoint
    with pytest.raises(LinearSolveError):
        solve_linear(op, rhs)


def test_solve_zero_rhs_returns_zeros_without_a_factorization():
    # the zero matrix would fail a factorization
    from vpice.operators import SparseOperator
    g = Grid(7, 7)
    op = SparseOperator(sp.csr_matrix((g.n_nodes, g.n_nodes)),
                        np.zeros(g.n_nodes, bool))
    x = solve_linear(op, np.zeros(g.n_nodes))
    assert np.array_equal(x, np.zeros(g.n_nodes))


def test_solve_reports_dimension_mismatch():
    g = Grid(7, 7)
    with pytest.raises(ValueError):
        solve_linear(identity_operator(g), np.zeros(3))


def test_solve_large_system_takes_krylov_path():
    from vpice.operators import DIRECT_SOLVE_LIMIT, SparseOperator
    g = Grid(160, 160)
    n = g.n_nodes
    assert n > DIRECT_SOLVE_LIMIT
    lap = assemble_neumann_laplacian(g, 1.0)
    matrix = (sp.identity(n) + 1e-4 * lap.matrix).tocsr()  # backward-Euler-like
    op = SparseOperator(matrix, lap.dirichlet_mask)
    rng = np.random.default_rng(14)
    x_exact = rng.normal(size=n)
    rhs = matrix @ x_exact
    x = solve_linear(op, rhs)
    residual = np.linalg.norm(matrix @ x - rhs) / np.linalg.norm(rhs)
    assert residual <= 1e-10


def test_export_coo_roundtrip(tmp_path):
    params = scaled_params()
    g = Grid(5, 5)
    op = assemble_neumann_laplacian(g, 1.0)
    path = tmp_path / "matrix.txt"
    export_coo(op, path)
    rows, cols, vals = [], [], []
    for line in path.read_text().splitlines():
        r, c, v = line.split()
        rows.append(int(r))
        cols.append(int(c))
        vals.append(float(v))
    rebuilt = sp.coo_matrix((vals, (rows, cols)), shape=op.matrix.shape).tocsr()
    assert abs(rebuilt - op.matrix).max() == 0.0
