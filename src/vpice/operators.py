"""Sparse assembly of the frozen-coefficient operators and linear solves.

The velocity block discretizes

    (A u)_i = - sum_jkl a_ij^kl(grad u0, P0) d_k d_l u_j
              - (1 / (2 Delta_delta(eps0))) sum_j (d_j P0) (S eps(u))_ij

with second derivatives by 3-point stencils, the mixed derivative by the
4-point centered cross, and nodal coefficients frozen at the given state.
With this sign convention the quadratic form of the principal part is
nonnegative for velocity fields that vanish on the boundary.  Dirichlet
rows are replaced by identity rows.

The thickness/compactness blocks are the symmetric reflected form of
-d * (Neumann Laplacian): zero row and column sums (hence exact discrete
conservation of nodal totals), constants in the kernel, nonnegative
quadratic form.

The coupled operator is block upper triangular,

    [ (1/(rho_ice h0)) A^H   c_h grad   c_a grad ]
    [ 0                      -d_h Lap_N  0        ]
    [ 0                      0          -d_a Lap_N ],

with c_h = dP/dh / (2 rho_ice h0) and c_a = dP/da / (2 rho_ice h0) frozen
nodewise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import FieldSet, Grid, diff_ops, strain_rate_field
from .params import RheologyParams
from .rheology import (
    coefficient_tensor,
    delta_reg,
    pressure,
    pressure_derivatives,
)

DIRECT_SOLVE_LIMIT = 20_000


class LinearSolveError(RuntimeError):
    """Factorization breakdown or Krylov non-convergence."""

    def __init__(self, message: str, achieved_residual: float = np.nan):
        super().__init__(f"{message} (achieved relative residual "
                         f"{achieved_residual:.3e})")
        self.achieved_residual = achieved_residual


@dataclass(frozen=True)
class SparseOperator:
    """Assembled operator with block layout and constrained-row bookkeeping."""

    matrix: sp.csr_matrix
    blocks: tuple
    dirichlet_mask: np.ndarray
    grid: Grid

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ vec


def _diag(values: np.ndarray) -> sp.csr_matrix:
    return sp.diags(np.asarray(values).ravel(), format="csr")


def assemble_neumann_laplacian(grid: Grid, d: float) -> SparseOperator:
    """Symmetric reflected discretization of -d * Laplacian with Neumann closure.

    Row sums and column sums vanish exactly; constants span the kernel; the
    quadratic form is d * sum of squared forward differences.
    """
    if not d > 0.0:
        raise ValueError(f"diffusivity must be positive, got {d!r}")
    ops = diff_ops(grid)
    matrix = (d * (ops["neumann_x"] + ops["neumann_y"])).tocsr()
    mask = np.zeros(grid.n_nodes, dtype=bool)
    return SparseOperator(matrix, (grid.n_nodes,), mask, grid)


def _hibler_blocks(v_frozen: FieldSet, grid: Grid, params: RheologyParams):
    """The four N x N blocks of the velocity operator, zero boundary rows.

    The one-dimensional difference factories leave rows at nodes that are
    interior along their own axis only; the final restriction removes every
    row on the full boundary so Dirichlet replacement stays clean.
    """
    ops = diff_ops(grid)
    restrict = _diag(grid.interior_mask().ravel().astype(float))
    eps0 = strain_rate_field(v_frozen)
    p0 = pressure(v_frozen.h, v_frozen.a, params)
    coeff = coefficient_tensor(eps0, p0, params)  # (2,2,2,2,ny,nx)

    q = 1.0 / params.e**2
    dreg = delta_reg(eps0, params)
    dp_dx = np.gradient(p0, grid.dx, axis=1, edge_order=2)
    dp_dy = np.gradient(p0, grid.dy, axis=0, edge_order=2)
    g1 = _diag(-dp_dx / (2.0 * dreg))
    g2 = _diag(-dp_dy / (2.0 * dreg))

    def principal(i, j):
        cxx = _diag(coeff[i, j, 0, 0])
        cyy = _diag(coeff[i, j, 1, 1])
        cxy = _diag(coeff[i, j, 0, 1] + coeff[i, j, 1, 0])
        return (-(cxx @ ops["dxx"]) - (cyy @ ops["dyy"]) - (cxy @ ops["dxy"])).tocsr()

    # lower-order term: -(1/(2 Delta_delta)) [dP/dx (S eps(u))_i1 + dP/dy (S eps(u))_i2]
    lower = {
        (0, 0): g1 @ ((1 + q) * ops["dx"]) + g2 @ (q * ops["dy"]),
        (0, 1): g1 @ ((1 - q) * ops["dy"]) + g2 @ (q * ops["dx"]),
        (1, 0): g1 @ (q * ops["dy"]) + g2 @ ((1 - q) * ops["dx"]),
        (1, 1): g1 @ (q * ops["dx"]) + g2 @ ((1 + q) * ops["dy"]),
    }
    return {(i, j): (restrict @ (principal(i, j) + lower[(i, j)])).tocsr()
            for i in range(2) for j in range(2)}


def assemble_hibler(v_frozen: FieldSet, grid: Grid, params: RheologyParams,
                    omega: float = 0.0) -> SparseOperator:
    """Velocity operator with coefficients frozen at v_frozen (2N x 2N).

    omega >= 0 adds a plain shift to the diagonal of non-Dirichlet rows.
    Boundary rows are identity rows (homogeneous Dirichlet).
    """
    if omega < 0.0:
        raise ValueError("omega must be >= 0")
    v_frozen.validate(params)
    blocks = _hibler_blocks(v_frozen, grid, params)
    interior = grid.interior_mask().ravel().astype(float)
    boundary = 1.0 - interior
    shift = _diag(omega * interior) + _diag(boundary)
    a11 = blocks[(0, 0)] + shift
    a22 = blocks[(1, 1)] + shift
    matrix = sp.bmat([[a11, blocks[(0, 1)]],
                      [blocks[(1, 0)], a22]], format="csr")
    bnd = grid.boundary_mask().ravel()
    mask = np.concatenate([bnd, bnd])
    return SparseOperator(matrix, (2 * grid.n_nodes,), mask, grid)


def gradient_coupling(grid: Grid, coeff: np.ndarray) -> sp.csr_matrix:
    """Stacked (2N x N) coupling [diag(coeff) d_x; diag(coeff) d_y].

    Rows vanish on the full boundary, matching the Dirichlet row replacement
    of the velocity block.
    """
    ops = diff_ops(grid)
    c = _diag(np.asarray(coeff).ravel() * grid.interior_mask().ravel())
    return sp.vstack([c @ ops["dx"], c @ ops["dy"]], format="csr")


def divergence_matrix(grid: Grid) -> sp.csr_matrix:
    """(N x 2N) discrete divergence, the exact negative adjoint of the
    centered gradient pair for fields vanishing on the boundary."""
    ops = diff_ops(grid)
    return sp.hstack([-ops["dx"].T, -ops["dy"].T], format="csr")


def assemble_coupled(v_frozen: FieldSet, grid: Grid,
                     params: RheologyParams) -> SparseOperator:
    """Block upper-triangular quasilinear operator frozen at v_frozen (4N x 4N)."""
    v_frozen.validate(params)
    n = grid.n_nodes
    interior = grid.interior_mask().ravel().astype(float)
    interior2 = np.concatenate([interior, interior])
    boundary2 = 1.0 - interior2

    hibler = assemble_hibler(v_frozen, grid, params)
    inv_mass = interior2 / (params.rho_ice * np.tile(v_frozen.h.ravel(), 2))
    u_block = (_diag(inv_mass) @ hibler.matrix + _diag(boundary2)).tocsr()

    dp_dh, dp_da = pressure_derivatives(v_frozen.h, v_frozen.a, params)
    scale = 2.0 * params.rho_ice * v_frozen.h
    c_h = gradient_coupling(grid, dp_dh / scale)
    c_a = gradient_coupling(grid, dp_da / scale)

    lap_h = assemble_neumann_laplacian(grid, params.d_h).matrix
    lap_a = assemble_neumann_laplacian(grid, params.d_a).matrix

    zero_nn = sp.csr_matrix((n, n))
    zero_n2n = sp.csr_matrix((n, 2 * n))
    matrix = sp.bmat([
        [u_block, c_h, c_a],
        [zero_n2n, lap_h, zero_nn],
        [zero_n2n, zero_nn, lap_a],
    ], format="csr")
    bnd = grid.boundary_mask().ravel()
    mask = np.concatenate([bnd, bnd, np.zeros(n, bool), np.zeros(n, bool)])
    return SparseOperator(matrix, (2 * n, n, n), mask, grid)


def solve_linear(op: SparseOperator, rhs: np.ndarray, tol: float = 1e-10,
                 max_refinements: int = 3) -> np.ndarray:
    """Solve op x = rhs to relative residual <= tol, deterministically.

    Direct sparse factorization up to DIRECT_SOLVE_LIMIT unknowns (with
    iterative refinement), restarted GMRES with Jacobi preconditioning
    beyond.  Raises LinearSolveError on breakdown or non-convergence,
    reporting the achieved residual.
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
        for _ in range(max_refinements):
            residual = rhs - matrix @ x
            if np.linalg.norm(residual) <= tol * rhs_norm:
                break
            x = x + lu.solve(residual)
        achieved = np.linalg.norm(rhs - matrix @ x) / rhs_norm
        if not achieved <= tol:
            raise LinearSolveError("direct solve did not reach tolerance",
                                   achieved)
        return x

    diag = matrix.diagonal()
    safe = np.where(np.abs(diag) > 0.0, diag, 1.0)
    precond = spla.LinearOperator(matrix.shape, lambda v: v / safe)
    x, info = spla.gmres(matrix, rhs, rtol=tol, atol=0.0, restart=50,
                         maxiter=200, M=precond)
    achieved = np.linalg.norm(rhs - matrix @ x) / rhs_norm
    if info != 0 or not achieved <= tol:
        raise LinearSolveError(f"GMRES did not converge (info={info})", achieved)
    return x


def export_coo(op: SparseOperator, path) -> None:
    """Write the operator as 'row col value' text lines (17 significant digits)."""
    coo = op.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", encoding="utf-8") as fh:
        for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{r} {c} {v:.17g}\n")
