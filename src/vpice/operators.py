"""Sparse assembly of the frozen-coefficient operators and linear solves.

Every operator is a sum of terms weight[row] * (factor * stencil) in blocks
of the (u1, u2, h, a) layout, assembled by ``assemble_terms``.

The velocity block discretizes

    (A u)_i = - sum_jkl a_ij^kl(grad u0, P0) d_k d_l u_j
              - (1 / (2 Delta_delta(eps0))) sum_j (d_j P0) (S eps(u))_ij

with second derivatives by 3-point stencils, the mixed derivative by the
4-point centered cross, and nodal coefficients frozen at the given state.
With this sign convention the quadratic form of the principal part is
nonnegative for velocity fields that vanish on the boundary.  Rows on the
full boundary are identity rows (homogeneous Dirichlet).

The thickness/compactness blocks are the symmetric reflected form of
-d * (Neumann Laplacian): zero row and column sums (hence exact discrete
conservation of nodal totals), constants in the kernel, nonnegative
quadratic form.

The coupled operator is block upper triangular,

    [ (1/(rho_ice h0)) A^H   c_h grad   c_a grad ]
    [ 0                      -d_h Lap_N  0        ]
    [ 0                      0          -d_a Lap_N ],

with c_h = dP/dh / (2 rho_ice h0) and c_a = dP/da / (2 rho_ice h0) frozen
nodewise; the rows of A^H are summed before 1/(rho_ice h0) weights them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import FieldSet, Grid, diff_ops, strain_rate_field
from .params import RheologyParams, VpiceError
from .rheology import (
    coefficient_tensor,
    delta_reg,
    pressure,
    pressure_derivatives,
    s_tensor,
)

DIRECT_SOLVE_LIMIT = 20_000
SOLVE_RTOL = 1e-10  # relative residual every solve_linear result must reach
MAX_REFINEMENTS = 3  # iterative-refinement sweeps after a direct solve


class LinearSolveError(VpiceError):
    """Factorization breakdown or Krylov non-convergence."""

    def __init__(self, message: str, achieved_residual: float = np.nan):
        super().__init__(f"{message} (achieved relative residual "
                         f"{achieved_residual:.3e})")
        self.achieved_residual = achieved_residual


@dataclass(frozen=True)
class SparseOperator:
    """Assembled operator and the mask of its Dirichlet (identity) rows."""

    matrix: sp.csr_matrix
    dirichlet_mask: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def assemble_terms(grid: Grid, blocks: tuple, terms) -> sp.csr_matrix:
    """Sum of terms weight[row] * (factor * stencil) as one CSR matrix.

    ``blocks`` counts the (rows, cols) of N x N blocks.  A term is (stencil,
    block_row, block_col, weight, factor): a ``diff_ops`` key or a sparse
    matrix, the block of its first entry, an array over the stencil's rows
    (None for no weight) and a scalar.  One COO -> CSR conversion sums the
    terms and drops exact zeros; the callers here let at most two nonzero
    terms meet in an entry, so the order of summation does not matter.
    """
    n, ops = grid.n_nodes, diff_ops(grid)
    parts = []
    for stencil, block_row, block_col, weight, factor in terms:
        s = ops[stencil] if isinstance(stencil, str) else stencil
        r = np.repeat(np.arange(s.shape[0], dtype=np.int32), np.diff(s.indptr))
        v = factor * s.data
        parts.append((v if weight is None else weight[r] * v,
                      r + block_row * n, s.indices + block_col * n))
    vals, rows, cols = map(np.concatenate, zip(*parts))
    del parts  # freed before the conversion copies every entry once more
    matrix = sp.csr_matrix((vals, (rows, cols)),
                           shape=(blocks[0] * n, blocks[1] * n))
    matrix.eliminate_zeros()
    return matrix


def velocity_boundary_mask(grid: Grid, n_blocks: int) -> np.ndarray:
    """Dirichlet rows of an operator whose first two blocks are (u1, u2)."""
    bnd = grid.boundary_mask().ravel()
    return np.concatenate([bnd, bnd, np.zeros((n_blocks - 2) * grid.n_nodes, bool)])


def _gradient_terms(weight: np.ndarray, block_col: int) -> list:
    return [("dx", 0, block_col, weight, 1.0), ("dy", 1, block_col, weight, 1.0)]


def _hibler_terms(v_frozen: FieldSet, grid: Grid, params: RheologyParams) -> list:
    """Terms of the velocity operator, identity rows on the full boundary.

    The one-dimensional difference factories leave rows at nodes that are
    interior along their own axis only; zero weights there keep the
    Dirichlet rows clean.
    """
    interior = grid.interior_mask().ravel().astype(float)
    eps0 = strain_rate_field(v_frozen)
    p0 = pressure(v_frozen.h, v_frozen.a, params)
    coeff = coefficient_tensor(eps0, p0, params).reshape(2, 2, 2, 2, -1) * interior

    dreg = delta_reg(eps0, params)
    dp_dx = np.gradient(p0, grid.dx, axis=1, edge_order=2)
    dp_dy = np.gradient(p0, grid.dy, axis=0, edge_order=2)
    g = [(-dp / (2.0 * dreg)).ravel() * interior for dp in (dp_dx, dp_dy)]

    terms = [("id", i, i, 1.0 - interior, 1.0) for i in range(2)]
    for i in range(2):
        for j in range(2):
            c = coeff[i, j]
            terms += [("dxx", i, j, c[0, 0], -1.0), ("dyy", i, j, c[1, 1], -1.0),
                      ("dxy", i, j, c[0, 1] + c[1, 0], -1.0)]
    # lower-order term -(1/(2 Delta_delta)) sum_k (d_k P) (S eps(u))_ik; the
    # coefficient of d_l u_j in (S eps(u))_ik is S_ij^kl
    s = s_tensor(params)
    return terms + [(("dx", "dy")[l], i, j, g[k], s[i, j, k, l])
                    for i, j, k, l in zip(*np.nonzero(s))]


def assemble_hibler(v_frozen: FieldSet, grid: Grid,
                    params: RheologyParams) -> SparseOperator:
    """Velocity operator with coefficients frozen at v_frozen (2N x 2N).

    Boundary rows are identity rows (homogeneous Dirichlet).
    """
    v_frozen = v_frozen.validate(params)
    return SparseOperator(
        assemble_terms(grid, (2, 2), _hibler_terms(v_frozen, grid, params)),
        velocity_boundary_mask(grid, 2))


def gradient_coupling(grid: Grid, coeff: np.ndarray) -> sp.csr_matrix:
    """Stacked (2N x N) coupling [diag(coeff) d_x; diag(coeff) d_y].

    Rows vanish on the full boundary, matching the Dirichlet row replacement
    of the velocity block.
    """
    weight = np.asarray(coeff).ravel() * grid.interior_mask().ravel()
    return assemble_terms(grid, (2, 1), _gradient_terms(weight, 0))


def divergence_matrix(grid: Grid) -> sp.csr_matrix:
    """(N x 2N) discrete divergence, the exact negative adjoint of the
    centered gradient pair for fields vanishing on the boundary."""
    return diff_ops(grid)["div"]


def assemble_neumann_laplacian(grid: Grid, d: float) -> SparseOperator:
    """Symmetric reflected discretization of -d * Laplacian with Neumann closure.

    Row sums and column sums vanish exactly; constants span the kernel; the
    quadratic form is d * sum of squared forward differences.
    """
    if not d > 0.0:
        raise ValueError(f"diffusivity must be positive, got {d!r}")
    return SparseOperator(d * diff_ops(grid)["neumann"],
                          np.zeros(grid.n_nodes, dtype=bool))


def coupled_terms(v_frozen: FieldSet, grid: Grid, params: RheologyParams) -> list:
    """Terms of the coupled operator frozen at v_frozen, in 4 x 4 blocks."""
    interior = grid.interior_mask().ravel()
    hibler = assemble_terms(grid, (2, 2), _hibler_terms(v_frozen, grid, params))
    # weight 1 keeps the boundary identity rows of the velocity block
    inv_mass = np.where(interior, 1.0 / (params.rho_ice * v_frozen.h.ravel()), 1.0)
    dp_dh, dp_da = pressure_derivatives(v_frozen.h, v_frozen.a, params)
    scale = 2.0 * params.rho_ice * v_frozen.h
    return ([(hibler, 0, 0, np.tile(inv_mass, 2), 1.0)]
            + _gradient_terms((dp_dh / scale).ravel() * interior, 2)
            + _gradient_terms((dp_da / scale).ravel() * interior, 3)
            + [("neumann", 2, 2, None, params.d_h),
               ("neumann", 3, 3, None, params.d_a)])


def assemble_coupled(v_frozen: FieldSet, grid: Grid,
                     params: RheologyParams) -> SparseOperator:
    """Block upper-triangular quasilinear operator frozen at v_frozen (4N x 4N)."""
    v_frozen = v_frozen.validate(params)
    return SparseOperator(
        assemble_terms(grid, (4, 4), coupled_terms(v_frozen, grid, params)),
        velocity_boundary_mask(grid, 4))


def solve_linear(op: SparseOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve op x = rhs to relative residual <= SOLVE_RTOL, deterministically.

    Direct sparse factorization up to DIRECT_SOLVE_LIMIT unknowns (with up
    to MAX_REFINEMENTS refinement sweeps), restarted GMRES with Jacobi
    preconditioning beyond.  Raises LinearSolveError on breakdown or
    non-convergence, reporting the achieved residual.
    """
    matrix = op.matrix.tocsc()
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (op.dim,):
        raise ValueError(f"rhs has shape {rhs.shape}, operator dim {op.dim}")
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)

    if op.dim <= DIRECT_SOLVE_LIMIT:
        try:
            lu = spla.splu(matrix)
            x = lu.solve(rhs)
        except RuntimeError as exc:
            raise LinearSolveError(f"sparse factorization failed: {exc}") from exc
        if not np.all(np.isfinite(x)):
            raise LinearSolveError("factorization produced non-finite values")
        for _ in range(MAX_REFINEMENTS):
            residual = rhs - matrix @ x
            if np.linalg.norm(residual) <= SOLVE_RTOL * rhs_norm:
                break
            x = x + lu.solve(residual)
        achieved = np.linalg.norm(rhs - matrix @ x) / rhs_norm
        if not achieved <= SOLVE_RTOL:
            raise LinearSolveError("direct solve did not reach tolerance",
                                   achieved)
        return x

    diag = matrix.diagonal()
    safe = np.where(np.abs(diag) > 0.0, diag, 1.0)
    precond = spla.LinearOperator(matrix.shape, lambda v: v / safe)
    x, info = spla.gmres(matrix, rhs, rtol=SOLVE_RTOL, atol=0.0, restart=50,
                         maxiter=200, M=precond)
    achieved = np.linalg.norm(rhs - matrix @ x) / rhs_norm
    if info != 0 or not achieved <= SOLVE_RTOL:
        raise LinearSolveError(f"GMRES did not converge (info={info})", achieved)
    return x


def export_coo(op: SparseOperator, path) -> None:
    """Write the operator as 'row col value' text lines (17 significant digits)."""
    coo = op.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", encoding="utf-8") as fh:
        for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{r} {c} {v:.17g}\n")
