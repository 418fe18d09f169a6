"""The per-grid assembly plan, the cached column ordering and the Krylov
kernel against plain references.

The plan must give the matrices of a plain COO sum bit for bit, and the
factorization on a cached ordering the solutions of a fresh ``splu``, so the
direct solve path does not move; the GMRES kernel must take scipy's steps,
so its iteration counts equal ``scipy.sparse.linalg.gmres``'s.
"""

import platform
import resource

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from vpice import dynamics, grid as grid_module, operators, rheology, scaled_params
from vpice.dynamics import ForcingInputs, StepperConfig, step
from vpice.grid import FieldSet, Grid, diff_ops
from vpice.operators import (
    KRYLOV_MAX_CYCLES,
    KRYLOV_RESTART,
    MAX_REFINEMENTS,
    SOLVE_RTOL,
    LinearSolveError,
    SparseOperator,
    _gmres,
    _hibler_terms,
    _lu_solver,
    _sum_terms,
    assemble_coupled,
    assemble_hibler,
    assemble_neumann_laplacian,
    coupled_terms,
    csr_matvec,
    gradient_coupling,
    solve_linear,
)
from vpice.params import InvalidStateError
from vpice.rheology import coefficient_tensor, pressure
from vpice.stability import Equilibrium, assemble_A0


# ---------------------------------------------------------------------------
# Assembly plan
# ---------------------------------------------------------------------------

def coo_sum(grid, blocks, terms):
    """Oracle: every term as COO triplets, summed by one COO -> CSR
    conversion, exact zeros dropped."""
    n, ops = grid.n_nodes, diff_ops(grid)
    vals, rows, cols = [], [], []
    for stencil, block_row, block_col, weight, factor in terms:
        s = ops[stencil] if isinstance(stencil, str) else stencil
        r = np.repeat(np.arange(s.shape[0], dtype=np.int32), np.diff(s.indptr))
        v = factor * s.data
        vals.append(v if weight is None else weight[r] * v)
        rows.append(r + block_row * n)
        cols.append(s.indices + block_col * n)
    matrix = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(blocks[0] * n, blocks[1] * n))
    matrix.eliminate_zeros()
    return matrix


def hibler_terms(state, grid, params):
    return _hibler_terms(state, grid, params, pressure(state.h, state.a, params))


def oracle_coupled_terms(state, grid, params):
    # the velocity block is summed on its own before inv_mass weights it
    hibler = coo_sum(grid, (2, 2), hibler_terms(state, grid, params))
    (_, _, _, inv_mass, factor), *rest = coupled_terms(state, grid, params)
    return [(hibler, 0, 0, inv_mass, factor)] + rest


def same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint8),
                                                 b.view(np.uint8))


def assert_bitwise(got, expected):
    assert got.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        assert same_bits(getattr(got, name), getattr(expected, name)), name


GRIDS = [Grid(5, 5), Grid(17, 17), Grid(9, 15, lx=2.0)]


def states(grid):
    x, y = grid.coords()
    h = 1.0 + 0.01 * np.cos(np.pi * x / grid.lx) * np.cos(2.0 * np.pi * y)
    a = 0.8 + 0.01 * np.sin(np.pi * x / grid.lx)
    interior = grid.interior_mask()
    rng = np.random.default_rng(grid.nx * grid.ny)
    u1, u2 = (np.where(interior, 1e-3 * rng.normal(size=x.shape), 0.0)
              for _ in range(2))
    zero = np.zeros_like(x)
    return {"rest": FieldSet.constant(grid, 1.0, 0.8),
            "perturbed": FieldSet(grid, zero, zero.copy(), h, a),
            "moving": FieldSet(grid, u1, u2, h.copy(), a.copy())}


@pytest.mark.parametrize("c_cor", [0.0, 0.5])
@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
def test_plan_assembly_is_the_coo_sum_bit_for_bit(grid, c_cor):
    params = scaled_params(delta=1e-6, c_cor=c_cor)
    for state in states(grid).values():
        assert_bitwise(assemble_hibler(state, grid, params).matrix,
                       coo_sum(grid, (2, 2), hibler_terms(state, grid, params)))
        coupled = coo_sum(grid, (4, 4), oracle_coupled_terms(state, grid, params))
        assert_bitwise(assemble_coupled(state, grid, params).matrix, coupled)
        for dt in (0.004, 0.04, 1e9):
            fused = assemble_coupled(state, grid, params, dt=dt).matrix
            assert_bitwise(fused, sp.identity(coupled.shape[0], format="csr")
                           + dt * coupled)
        weight = state.h.ravel() * grid.interior_mask().ravel()
        assert_bitwise(gradient_coupling(grid, state.h),
                       coo_sum(grid, (2, 1), [("dx", 0, 0, weight, 1.0),
                                              ("dy", 1, 0, weight, 1.0)]))
    eq = Equilibrium(1.0, 0.8)
    a0_terms = oracle_coupled_terms(eq.state(grid), grid, params) + [
        ("div", 2, 0, None, eq.h_star), ("div", 3, 0, None, eq.a_star)]
    assert_bitwise(assemble_A0(eq, grid, params).matrix,
                   coo_sum(grid, (4, 4), a0_terms))


@pytest.mark.parametrize("c_cor", [0.0, 0.5])
@pytest.mark.parametrize("name", ["rest", "moving"])
def test_plan_assembly_is_the_coo_sum_bit_for_bit_at_the_krylov_size(name, c_cor):
    # 73x73 is the smallest square grid past DIRECT_SOLVE_LIMIT: its
    # velocity block adds 298 634 term entries onto 184 892 union entries
    grid = Grid(73, 73)
    params = scaled_params(delta=1e-6, c_cor=c_cor)
    state = states(grid)[name]
    coupled = coo_sum(grid, (4, 4), oracle_coupled_terms(state, grid, params))
    assert_bitwise(assemble_coupled(state, grid, params, dt=0.004).matrix,
                   sp.identity(coupled.shape[0], format="csr") + 0.004 * coupled)
    eq = Equilibrium(1.0, 0.8)
    a0_terms = oracle_coupled_terms(eq.state(grid), grid, params) + [
        ("div", 2, 0, None, eq.h_star), ("div", 3, 0, None, eq.a_star)]
    assert_bitwise(assemble_A0(eq, grid, params).matrix,
                   coo_sum(grid, (4, 4), a0_terms))


def test_assembled_operators_own_their_arrays():
    # the plan's index arrays are shared by every assembly on a grid; no
    # result may hand one out
    grid, params = Grid(9, 11), scaled_params(delta=1e-6, c_cor=0.5)
    state = states(grid)["moving"]
    coupled = coo_sum(grid, (4, 4), oracle_coupled_terms(state, grid, params))
    fresh = sp.identity(coupled.shape[0], format="csr") + 0.04 * coupled
    first, second = (assemble_coupled(state, grid, params, dt=0.04).matrix
                     for _ in range(2))
    for name in ("data", "indices", "indptr"):
        getattr(first, name)[:] = 7
    assert_bitwise(second, fresh)
    assert_bitwise(assemble_coupled(state, grid, params, dt=0.04).matrix, fresh)


def test_a_weight_of_the_wrong_length_is_refused():
    # the summation kernel reads weight[row] without a bounds check
    grid = Grid(5, 5)
    with pytest.raises(ValueError, match="weight over 25 stencil rows"):
        _sum_terms(grid, (1, 1), [("dx", 0, 0, np.ones(24), 1.0)])


def test_plan_is_built_once_per_grid_and_layout():
    from vpice.operators import _plan

    grid, params = Grid(7, 9), scaled_params()
    state = states(grid)["moving"]
    assemble_coupled(state, grid, params)
    before = _plan.cache_info()
    assemble_coupled(state, grid, params, dt=0.01)
    after = _plan.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + 2  # the velocity block and the sum


# grid-only and params-only constants a step reads instead of rebuilding
STEP_CONSTANTS = (grid_module._masks, operators._node_weights,
                  operators.velocity_boundary_mask, operators._lower_order_terms,
                  rheology.s_tensor, dynamics._zero_field, dynamics._rotation)


def test_step_constants_are_built_once_per_grid_and_params():
    cfg = StepperConfig(dt=0.01, t_end=0.01)
    step(states(Grid(7, 9))["moving"], ForcingInputs(), scaled_params(), cfg)
    before = [constant.cache_info() for constant in STEP_CONSTANTS]
    # equal grid and parameters, new objects: every constant is found
    step(states(Grid(7, 9))["moving"], ForcingInputs(), scaled_params(), cfg)
    for constant, old in zip(STEP_CONSTANTS, before):
        new = constant.cache_info()
        assert new.misses == old.misses, constant.__name__
        assert new.hits > old.hits, constant.__name__


def test_step_constants_are_read_only():
    # a caller that writes into a shared mask, weight or zero field raises
    # instead of corrupting the next step
    grid, params = Grid(7, 9), scaled_params()
    state = states(grid)["moving"]
    cfg = StepperConfig(dt=0.01, t_end=0.01)
    expected = step(state, ForcingInputs(), params, cfg).to_vector()
    op = assemble_coupled(state, grid, params, dt=0.01)
    shared = [grid.boundary_mask(), grid.interior_mask(), op.dirichlet_mask,
              *operators._node_weights(grid), rheology.s_tensor(params),
              dynamics._zero_field(grid)]
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = not array.flat[0]
        with pytest.raises(ValueError, match="read-only"):
            array.ravel()[-1] = 0.5  # a view of a constant is read-only too
    assert isinstance(operators._lower_order_terms(params), tuple)
    assert op.dirichlet_mask is assemble_coupled(state, grid, params).dirichlet_mask
    assert same_bits(step(state, ForcingInputs(), params, cfg).to_vector(),
                     expected)


# ---------------------------------------------------------------------------
# Direct solve on a cached column ordering
# ---------------------------------------------------------------------------

def fresh_lu_solve(matrix, rhs):
    """Oracle: a COLAMD ``splu`` of the CSC matrix per solve, refined with
    CSC residuals until SOLVE_RTOL."""
    matrix = matrix.tocsc()
    lu = spla.splu(matrix)
    x = lu.solve(rhs)
    for _ in range(MAX_REFINEMENTS):
        residual = rhs - matrix @ x
        if np.linalg.norm(residual) <= SOLVE_RTOL * np.linalg.norm(rhs):
            break
        x = x + lu.solve(residual)
    return x


@pytest.fixture
def splu_specs(monkeypatch):
    """The ``permc_spec`` of every ``splu`` call (None for scipy's COLAMD
    default), the held orderings emptied for the test."""
    specs, splu = [], spla.splu

    def recording(*args, **kwargs):
        specs.append(kwargs.get("permc_spec"))
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording)
    monkeypatch.setattr(operators, "_ORDERINGS", {})
    return specs


def colamd_runs(specs):
    return sum(spec != "NATURAL" for spec in specs)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
def test_cached_ordering_solves_like_a_fresh_lu_bit_for_bit(grid, splu_specs):
    params = scaled_params(delta=1e-6)
    for state in states(grid).values():
        rhs = state.to_vector()
        # on 17x17 the first residual at dt = 1e3 misses SOLVE_RTOL, so
        # refinement runs
        for dt in (0.004, 0.04, 1.0, 1e3):
            op = assemble_coupled(state, grid, params, dt=dt)
            expected = spla.splu(op.matrix.tocsc()).solve(rhs)
            _lu_solver(op.matrix)  # orders a new pattern
            solve = _lu_solver(op.matrix)
            assert splu_specs[-1] == "NATURAL"  # on the held ordering
            assert same_bits(solve(rhs), expected)
            assert same_bits(solve_linear(op, rhs), fresh_lu_solve(op.matrix, rhs))


def test_colamd_runs_once_per_pattern_and_each_solve_factors_once(splu_specs):
    grid, params = Grid(11, 13), scaled_params(delta=1e-6)
    rest, moving = states(grid)["rest"], states(grid)["moving"]
    solves = 0
    for dt in (0.004, 0.04, 0.4):
        for state in (rest, moving):
            solve_linear(assemble_coupled(state, grid, params, dt=dt),
                         state.to_vector())
            solves += 1
            assert len(splu_specs) == solves
    assert colamd_runs(splu_specs) == 2
    assert len(operators._ORDERINGS) == 2
    # copies: a view of lu.perm_c would keep the first factors alive
    assert all(order.perm_c.flags.owndata
               for order in operators._ORDERINGS.values())


def test_at_most_8_patterns_are_held_the_least_recently_used_dropped(splu_specs):
    def shifted_laplacian(n):
        lap = assemble_neumann_laplacian(Grid(n, n), 1.0).matrix
        return (sp.identity(lap.shape[0], format="csr") + lap).tocsr()

    matrices = {n: shifted_laplacian(n) for n in range(5, 14)}
    for n in range(5, 13):  # 8 patterns
        _lu_solver(matrices[n])
    _lu_solver(matrices[5])  # now the most recently used
    _lu_solver(matrices[13])  # drops 6
    held = [shape[0] for shape, _, _ in operators._ORDERINGS]
    assert held == [n * n for n in (*range(7, 13), 5, 13)]
    assert colamd_runs(splu_specs) == 9
    _lu_solver(matrices[5])
    assert colamd_runs(splu_specs) == 9
    _lu_solver(matrices[6])  # dropped: ordered again
    assert colamd_runs(splu_specs) == 10
    assert len(operators._ORDERINGS) == 8


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="mallopt is glibc's")
def test_factorizations_reuse_the_memory_they_free():
    # a 17^2 factorization mallocs about 1.4 MB; with glibc's own thresholds
    # each one faulted about 350 fresh pages in, with the memory kept none
    grid = Grid(17, 17)
    op = assemble_coupled(states(grid)["moving"], grid,
                          scaled_params(delta=1e-6), dt=0.004)
    rhs = states(grid)["moving"].to_vector()
    for _ in range(3):  # the ordering, then the heap, warm
        solve_linear(op, rhs)
    assert operators._keep_freed_memory()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        solve_linear(op, rhs)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 50


def test_singular_matrix_on_a_cached_pattern_raises(splu_specs):
    grid = Grid(9, 9)
    lap = assemble_neumann_laplacian(grid, 1.0)
    shifted = SparseOperator(
        (sp.identity(grid.n_nodes, format="csr") + lap.matrix).tocsr(),
        lap.dirichlet_mask)
    rhs = np.ones(grid.n_nodes)  # not orthogonal to the kernel of the adjoint
    solve_linear(shifted, rhs)
    with pytest.raises(LinearSolveError):
        solve_linear(lap, rhs)
    assert splu_specs == [None, "NATURAL"]
    assert len(operators._ORDERINGS) == 1


# ---------------------------------------------------------------------------
# Non-finite operators and right-hand sides
# ---------------------------------------------------------------------------

NON_FINITE_OPERATOR = ("^the assembled operator has non-finite entries at "
                       "these settings$")


OVERFLOW = scaled_params(p_star=1e308)  # P / (2 sqrt(delta)) overflows


# one check where term values become a CSR matrix serves every assembly
@pytest.mark.parametrize("assemble", [
    lambda state, grid: assemble_hibler(state, grid, OVERFLOW),
    lambda state, grid: gradient_coupling(grid, np.full(grid.n_nodes, np.inf)),
    lambda state, grid: assemble_coupled(state, grid, OVERFLOW),
    lambda state, grid: assemble_coupled(state, grid, scaled_params(),
                                         dt=1e308),
    lambda state, grid: assemble_A0(Equilibrium(1.0, 0.8), grid, OVERFLOW),
], ids=["velocity block", "gradient coupling", "A", "I + dt A", "A0"])
def test_every_assembly_rejects_a_non_finite_operator(assemble):
    grid = Grid(9, 9)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            InvalidStateError, match=NON_FINITE_OPERATOR):
        assemble(states(grid)["moving"], grid)


@pytest.mark.parametrize("assemble", [
    lambda state, grid, params: assemble_coupled(state, grid, params),
    lambda state, grid, params: assemble_coupled(state, grid, params, dt=0.04),
    lambda state, grid, params: assemble_hibler(state, grid, params),
    lambda state, grid, params: assemble_A0(Equilibrium(1.0, 0.8), grid, params),
], ids=["A", "I + dt A", "velocity block", "A0"])
def test_an_overflowed_edge_coefficient_still_fails(assemble, monkeypatch):
    # the interior weight zeroes the velocity rows of edge nodes, but inf * 0
    # is NaN: an overflowed coefficient at an edge node must still reach an
    # entry, here the d_xx row of node (i, j) = (4, 0)
    def overflowed(*args):
        coeff = coefficient_tensor(*args)
        coeff[..., 0, 4] = np.inf
        return coeff

    monkeypatch.setattr(operators, "coefficient_tensor", overflowed)
    grid = Grid(9, 9)
    with np.errstate(invalid="ignore"), pytest.raises(
            InvalidStateError, match=NON_FINITE_OPERATOR):
        assemble(states(grid)["moving"], grid, scaled_params())


def refuse_gmres(monkeypatch, limit):
    """Solve directly up to ``limit`` unknowns, with ``_gmres`` refusing to
    run beyond it."""
    def refuse(*args):
        raise AssertionError("_gmres was entered")

    monkeypatch.setattr(operators, "DIRECT_SOLVE_LIMIT", limit)
    monkeypatch.setattr(operators, "_gmres", refuse)


def test_overflowed_step_matrix_fails_before_the_krylov_path(monkeypatch):
    refuse_gmres(monkeypatch, 0)
    grid = Grid(9, 9)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            InvalidStateError, match=NON_FINITE_OPERATOR):
        step(states(grid)["moving"], ForcingInputs(),
             OVERFLOW, StepperConfig(dt=0.04, t_end=0.04))


@pytest.mark.parametrize("limit", [operators.DIRECT_SOLVE_LIMIT, 0],
                         ids=["direct", "krylov"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_rhs_fails_before_either_path(limit, bad, monkeypatch):
    refuse_gmres(monkeypatch, limit)
    grid = Grid(9, 9)
    op = assemble_coupled(states(grid)["moving"], grid, scaled_params(),
                          dt=0.04)
    rhs = np.ones(op.dim)
    rhs[2 * grid.n_nodes + 40] = bad
    with pytest.raises(LinearSolveError,
                       match="^the right-hand side has non-finite entries$"):
        solve_linear(op, rhs)


# ---------------------------------------------------------------------------
# Krylov kernel
# ---------------------------------------------------------------------------

def jacobi(matrix):
    diag = matrix.diagonal()
    safe = np.where(np.abs(diag) > 0.0, diag, 1.0)
    return lambda v, out=None: np.divide(v, safe, out=out)


def test_buffered_product_is_the_scipy_product_bit_for_bit():
    # the kernel's private csr_matvec call must stay what matrix @ v does
    grid = Grid(33, 33)
    op = assemble_coupled(states(grid)["moving"], grid,
                          scaled_params(delta=1e-6), dt=0.04)
    matrix = op.matrix
    product = np.empty(op.dim)
    for seed in range(3):
        v = np.random.default_rng(seed).normal(size=op.dim)
        product.fill(0.0)
        csr_matvec(op.dim, op.dim, matrix.indptr, matrix.indices, matrix.data,
                   v, product)
        assert same_bits(product, matrix @ v)


def scipy_gmres(matrix, rhs, precond):
    """x and the inner iteration count of scipy's GMRES with the settings
    of the kernel."""
    count = [0]

    def tally(_):
        count[0] += 1

    x, info = spla.gmres(matrix.tocsc(), rhs, rtol=SOLVE_RTOL, atol=0.0,
                         restart=KRYLOV_RESTART, maxiter=KRYLOV_MAX_CYCLES,
                         M=spla.LinearOperator(matrix.shape, precond),
                         callback=tally, callback_type="pr_norm")
    return x, info, count[0]


@pytest.mark.parametrize("delta", [1e-6, 1e-8])
@pytest.mark.parametrize("c_cor", [0.0, 0.5])
def test_kernel_takes_scipys_steps_on_the_coupled_system(c_cor, delta):
    grid = Grid(33, 33)
    n = grid.n_nodes
    params = scaled_params(delta=delta, c_cor=c_cor)
    state = states(grid)["moving"]
    op = assemble_coupled(state, grid, params, dt=0.04)
    rhs = state.to_vector()
    rhs[op.dirichlet_mask] = 0.0
    precond = jacobi(op.matrix)
    x, inner = _gmres(op.matrix, rhs, precond)
    expected, info, count = scipy_gmres(op.matrix, rhs, precond)
    assert info == 0 and inner == count > 1
    u, u_ref = x[:2 * n], expected[:2 * n]
    assert np.linalg.norm(u - u_ref) <= 1e-6 * np.linalg.norm(u_ref)
    for block in (slice(2 * n, 3 * n), slice(3 * n, 4 * n)):
        assert (np.linalg.norm(x[block] - expected[block])
                <= 1e-12 * np.linalg.norm(expected[block]))
    residual = np.linalg.norm(rhs - op.matrix @ x) / np.linalg.norm(rhs)
    assert residual <= SOLVE_RTOL


def test_kernel_stops_at_an_exact_breakdown():
    # Jordan blocks: the Krylov space of e_2 is invariant after two steps,
    # and every operation on it is exact
    n = 40
    matrix = sp.block_diag([np.array([[1.0, 1.0], [0.0, 1.0]])] * (n // 2),
                           format="csr")
    rhs = np.zeros(n)
    rhs[1] = 1.0
    precond = jacobi(matrix)
    x, inner = _gmres(matrix, rhs, precond)
    expected, info, count = scipy_gmres(matrix, rhs, precond)
    assert inner == count == 2 and info == 0
    assert np.array_equal(x, expected)
    assert np.linalg.norm(rhs - matrix @ x) <= SOLVE_RTOL


def assert_gmres_fails(matrix, rhs, inner):
    with pytest.raises(LinearSolveError) as excinfo:
        _gmres(matrix, rhs, jacobi(matrix))
    assert excinfo.value.achieved_residual == 1.0
    assert f"in {inner} inner iterations" in str(excinfo.value)


def test_kernel_fails_on_an_inconsistent_system():
    # singular, rhs outside the range: breakdown at the first step, and the
    # true residual is the whole rhs
    n = 10
    matrix = sp.diags(np.r_[np.ones(n - 1), 0.0], format="csr")
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    assert_gmres_fails(matrix, rhs, 1)
    _, info, count = scipy_gmres(matrix, rhs, jacobi(matrix))
    assert info != 0 and count == 1


def test_kernel_gives_up_after_the_last_cycle():
    # cyclic shift of e_1: no restarted cycle shorter than n makes progress
    n = KRYLOV_RESTART + 1
    matrix = sp.csr_matrix(np.roll(np.eye(n), 1, axis=0))
    rhs = np.zeros(n)
    rhs[0] = 1.0
    assert_gmres_fails(matrix, rhs, KRYLOV_MAX_CYCLES * KRYLOV_RESTART)
