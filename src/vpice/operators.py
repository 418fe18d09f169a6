"""Sparse assembly of the frozen-coefficient operators and linear solves.

Every operator is a sum of terms weight[row] * (factor * stencil) in blocks
of the (u1, u2, h, a) layout, assembled by ``assemble_terms``.  The index
work of a sum (its sorted, duplicate-merged pattern and the pattern entry
of every term entry) is planned once per grid and term layout; each
assembly only computes the pointwise weights, adds each term onto that
pattern in one sparse-kernel pass and drops exact zeros, so the matrices
equal a plain COO -> CSR sum bit for bit.  A non-finite value raises
InvalidStateError there, whichever operator is assembled.

Linear solves (``solve_linear``) factor up to DIRECT_SOLVE_LIMIT unknowns
with ``splu`` and beyond run ``_gmres``, scipy's restarted Jacobi-GMRES
algorithm step for step in preallocated buffers.  The direct path
(``_lu_solver``) runs SuperLU's COLAMD once per sparsity pattern and
reuses its column permutation, kept for the 8 most recently used
patterns, so the backward-Euler matrix of every step, whose pattern the
stencil fixes, skips the ordering and the CSC conversion.

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

    [ (1/(rho_ice h0)) A^H + c_cor R   c_h grad   c_a grad ]
    [ 0                                -d_h Lap_N  0        ]
    [ 0                                0          -d_a Lap_N ],

with c_h = dP/dh / (2 rho_ice h0) and c_a = dP/da / (2 rho_ice h0) frozen
nodewise; the rows of A^H are summed before 1/(rho_ice h0) weights them.
R u = n x u = (-u2, u1) on the interior velocity rows is the Coriolis
rotation: -c_cor in the (u1, u2) block, +c_cor in the (u2, u1) block.  It
is defined here only, so the step treats it implicitly and the
linearization A0 of ``stability`` holds the same rows.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

from .grid import (FieldSet, Grid, _read_only, diff_ops, gradient,
                   strain_rate_field)
from .params import InvalidStateError, RheologyParams, VpiceError
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
KRYLOV_RESTART = 50  # GMRES inner iterations per cycle
KRYLOV_MAX_CYCLES = 200  # GMRES restart cycles before giving up


class LinearSolveError(VpiceError):
    """Factorization breakdown or Krylov non-convergence; the message names
    the achieved residual when one was computed."""

    def __init__(self, message: str, achieved_residual: float | None = None):
        if achieved_residual is not None:
            message += f" (achieved relative residual {achieved_residual:.3e})"
        super().__init__(message)
        self.achieved_residual = achieved_residual


@dataclass(frozen=True)
class SparseOperator:
    """Assembled operator and the mask of its Dirichlet (identity) rows."""

    matrix: sp.csr_matrix
    dirichlet_mask: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class _Sum(NamedTuple):
    """A sum of terms before exact zeros are dropped: values on the union
    pattern of its plan, usable as the stencil of an enclosing sum."""

    plan: "_Plan"
    data: np.ndarray

    @property
    def shape(self) -> tuple:
        return self.plan.shape

    @property
    def indptr(self) -> np.ndarray:
        return self.plan.indptr


@dataclass(frozen=True, eq=False)
class _Plan:
    """Index work of one term layout on one grid, done once.

    ``pattern`` holds the sorted, duplicate-merged CSR pattern of every term
    (``_pattern``); ``positions[t]`` gives the pattern entry of each entry of
    term t, in its stencil's CSR order.
    """

    pattern: sp.csr_matrix
    positions: tuple

    @property
    def shape(self) -> tuple:
        return self.pattern.shape

    @property
    def indptr(self) -> np.ndarray:
        return self.pattern.indptr

    @property
    def indices(self) -> np.ndarray:
        return self.pattern.indices

    @cached_property
    def diagonal(self) -> np.ndarray:
        """Position of each diagonal entry; the pattern must hold them all."""
        at = np.flatnonzero(self.indices == _row_of_entry(self.indptr))
        if len(at) != self.shape[0]:
            raise ValueError("the pattern lacks diagonal entries")
        return at.astype(np.int32)

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """CSR matrix of union values, exact zeros dropped.  Every assembled
        operator passes here: a non-finite value raises InvalidStateError.
        The matrix owns its arrays: the pattern's are copied."""
        if not np.isfinite(data).all():
            raise InvalidStateError(
                "the assembled operator has non-finite entries at these settings")
        matrix = _on_pattern(self.pattern, data, self.indices.copy(),
                             self.indptr.copy())
        matrix.eliminate_zeros()
        return matrix


def _pattern(cls, indices: np.ndarray, indptr: np.ndarray, shape: tuple):
    """A sparse matrix of class ``cls`` that holds only a pattern, which must
    be sorted and duplicate-free; its values are a zero-stride placeholder."""
    pattern = cls((np.broadcast_to(0.0, len(indices)), indices, indptr),
                  shape=shape)
    if not pattern.has_canonical_format:  # checked once, copied with it
        raise ValueError("a pattern must be sorted and duplicate-free")
    return pattern


def _on_pattern(pattern, data: np.ndarray, indices: np.ndarray,
                indptr: np.ndarray):
    """``pattern``'s class, shape and format on ``data`` and the pattern's
    arrays, or copies of them: a shallow copy, where the constructor would
    check again, every step, arrays that the plan made consistent."""
    matrix = copy.copy(pattern)
    matrix.data, matrix.indices, matrix.indptr = data, indices, indptr
    return matrix


def _row_of_entry(indptr: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(len(indptr) - 1, dtype=np.int32), np.diff(indptr))


@lru_cache(maxsize=32)
def _plan(grid: Grid, blocks: tuple, layout: tuple) -> _Plan:
    """The plan of a layout of (stencil, block_row, block_col) terms; a
    stencil is a ``diff_ops`` key or the plan of a nested sum."""
    n = grid.n_nodes
    shape = (blocks[0] * n, blocks[1] * n)
    ops = diff_ops(grid)
    rows, cols = [], []
    for stencil, block_row, block_col in layout:
        s = ops[stencil] if isinstance(stencil, str) else stencil
        # int(): a numpy integer block index would widen the int32 arrays
        rows.append(_row_of_entry(s.indptr) + int(block_row) * n)
        cols.append(s.indices + int(block_col) * n)
    offsets = np.cumsum([0] + [len(c) for c in cols])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    position = np.empty(len(order), dtype=np.int32)
    position[order] = np.cumsum(new) - 1
    indptr = np.zeros(shape[0] + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows[new], minlength=shape[0]), out=indptr[1:])
    return _Plan(_pattern(sp.csr_matrix, cols[new], indptr, shape), tuple(
        position[start:stop] for start, stop in zip(offsets, offsets[1:])))


def _sum_terms(grid: Grid, blocks: tuple, terms) -> _Sum:
    """Sum of terms weight[row] * (factor * stencil) on its union pattern.

    ``blocks`` counts the (rows, cols) of N x N blocks.  A term is (stencil,
    block_row, block_col, weight, factor): a ``diff_ops`` key or a nested
    ``_Sum``, the block of its first entry, an array over the stencil's rows
    (None for no weight) and a scalar.  The index work is cached per grid
    and layout; a call adds each entry's value (data * factor) *
    weight[row] into its union entry, term after term, so the terms of an
    entry add in term order.  The callers here let at most two nonzero terms
    meet in an entry, so the sums are those of a COO -> CSR conversion, bit
    for bit, whatever its order of summation.
    """
    plan = _plan(grid, blocks, tuple([
        (s if isinstance(s, str) else s.plan, block_row, block_col)
        for s, block_row, block_col, _, _ in terms]))
    ops = diff_ops(grid)
    total = np.zeros(len(plan.indices))
    for (s, _, _, weight, factor), position in zip(terms, plan.positions):
        s = ops[s] if isinstance(s, str) else s
        rows = s.shape[0]
        # x * 1.0 == x: a term without weight takes ones, and a unit factor
        # is no product
        weight = np.ones(rows) if weight is None else np.asarray(weight, dtype=float)
        if weight.shape != (rows,):  # the kernel reads weight[r] unchecked
            raise ValueError(f"a weight over {rows} stencil rows has shape "
                             f"{weight.shape}")
        # the term's entries as a CSC matrix whose column r is stencil row
        # r: total[position[k]] += (data[k] * factor) * weight[r], k ascending
        csc_matvec(len(total), rows, s.indptr, position,
                   s.data if factor == 1.0 else s.data * factor, weight, total)
    return _Sum(plan, total)


def assemble_terms(grid: Grid, blocks: tuple, terms) -> sp.csr_matrix:
    """``_sum_terms`` as one CSR matrix with exact zeros dropped."""
    total = _sum_terms(grid, blocks, terms)
    return total.plan.matrix(total.data)


@lru_cache(maxsize=32)
def velocity_boundary_mask(grid: Grid, n_blocks: int) -> np.ndarray:
    """Dirichlet rows of an operator whose first two blocks are (u1, u2);
    built once per grid and block count, read-only, and shared by every
    ``SparseOperator`` of that shape."""
    bnd = grid.boundary_mask().ravel()
    return _read_only(np.concatenate(
        [bnd, bnd, np.zeros((n_blocks - 2) * grid.n_nodes, bool)]))[0]


class _NodeWeights(NamedTuple):
    """Flat 0/1 node weights of a grid, built once per grid, read-only."""

    interior: np.ndarray  # 1 at interior nodes, 0 on the boundary
    boundary: np.ndarray  # 1 - interior: the Dirichlet identity rows
    negative_interior: np.ndarray  # -interior: the principal part's sign


@lru_cache(maxsize=32)
def _node_weights(grid: Grid) -> _NodeWeights:
    interior = grid.interior_mask().ravel().astype(float)
    return _NodeWeights(*_read_only(interior, 1.0 - interior, -interior))


@lru_cache(maxsize=32)
def _lower_order_terms(params: RheologyParams) -> tuple:
    """(stencil, i, j, k, S_ij^kl) for each nonzero S_ij^kl, in the order
    of ``np.nonzero``: the coefficient of d_l u_j in (S eps(u))_ik, d_l the
    stencil.  Built once per parameter set."""
    s = s_tensor(params)
    return tuple((("dx", "dy")[l], int(i), int(j), int(k), s[i, j, k, l])
                 for i, j, k, l in zip(*np.nonzero(s)))


def _gradient_terms(weight: np.ndarray, block_col: int) -> list:
    return [("dx", 0, block_col, weight, 1.0), ("dy", 1, block_col, weight, 1.0)]


def _hibler_terms(v_frozen: FieldSet, grid: Grid, params: RheologyParams,
                  p0: np.ndarray) -> list:
    """Terms of the velocity operator frozen at v_frozen, whose ice strength
    ``pressure(v_frozen.h, v_frozen.a, params)`` is p0; identity rows on the
    full boundary.

    The strain rate, Delta_delta and the coefficient tensor are computed
    once here.  The one-dimensional difference factories leave rows at
    nodes that are interior along their own axis only; zero weights there
    keep the Dirichlet rows clean.
    """
    weights = _node_weights(grid)
    eps0 = strain_rate_field(v_frozen)
    dreg = delta_reg(eps0, params)
    # the minus sign of the principal part rides on its weights: (d * -1) *
    # a == d * -a exactly, so its terms need no factor
    coeff = (coefficient_tensor(eps0, p0, params, dreg)
             .reshape(2, 2, 2, 2, -1) * weights.negative_interior)
    mixed = coeff[:, :, 0, 1] + coeff[:, :, 1, 0]
    two_dreg = 2.0 * dreg
    g = [(-gradient(p0, h, axis) / two_dreg).ravel() * weights.interior
         for h, axis in ((grid.dx, -1), (grid.dy, -2))]

    terms = [("id", i, i, weights.boundary, 1.0) for i in range(2)]
    for i in range(2):
        for j in range(2):
            c = coeff[i, j]
            terms += [("dxx", i, j, c[0, 0], 1.0), ("dyy", i, j, c[1, 1], 1.0),
                      ("dxy", i, j, mixed[i, j], 1.0)]
    # lower-order term -(1/(2 Delta_delta)) sum_k (d_k P) (S eps(u))_ik
    return terms + [(stencil, i, j, g[k], factor)
                    for stencil, i, j, k, factor in _lower_order_terms(params)]


def assemble_hibler(v_frozen: FieldSet, grid: Grid,
                    params: RheologyParams) -> SparseOperator:
    """Velocity operator with coefficients frozen at v_frozen (2N x 2N).

    Boundary rows are identity rows (homogeneous Dirichlet).
    """
    v_frozen = v_frozen.validate(params)
    p0 = pressure(v_frozen.h, v_frozen.a, params)
    return SparseOperator(
        assemble_terms(grid, (2, 2), _hibler_terms(v_frozen, grid, params, p0)),
        velocity_boundary_mask(grid, 2))


def gradient_coupling(grid: Grid, coeff: np.ndarray) -> sp.csr_matrix:
    """Stacked (2N x N) coupling [diag(coeff) d_x; diag(coeff) d_y].

    Rows vanish on the full boundary, matching the Dirichlet row replacement
    of the velocity block.
    """
    weight = np.asarray(coeff).ravel() * _node_weights(grid).interior
    return assemble_terms(grid, (2, 1), _gradient_terms(weight, 0))


def divergence_matrix(grid: Grid) -> sp.csr_matrix:
    """(N x 2N) discrete divergence, the exact negative adjoint of the
    centered gradient pair for fields vanishing on the boundary: the
    cached, read-only ``diff_ops`` matrix."""
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
    """Terms of the coupled operator frozen at v_frozen, in 4 x 4 blocks,
    the Coriolis rotation last.

    Each frozen-state field is computed once per step: P here, shared by
    the velocity block and dP/dh, dP/da, and eps(u), Delta_delta and
    dP/dx, dP/dy in ``_hibler_terms``.
    """
    interior = _node_weights(grid).interior
    h, a = v_frozen.h, v_frozen.a
    p0 = pressure(h, a, params)
    hibler = _sum_terms(grid, (2, 2), _hibler_terms(v_frozen, grid, params, p0))
    # weight 1 keeps the boundary identity rows of the velocity block
    inv_mass = np.where(grid.interior_mask().ravel(),
                        1.0 / (params.rho_ice * h.ravel()), 1.0)
    dp_dh, dp_da = pressure_derivatives(h, a, params, p=p0)
    scale = 2.0 * params.rho_ice * h
    return ([(hibler, 0, 0, np.concatenate([inv_mass, inv_mass]), 1.0)]
            + _gradient_terms((dp_dh / scale).ravel() * interior, 2)
            + _gradient_terms((dp_da / scale).ravel() * interior, 3)
            + [("neumann", 2, 2, None, params.d_h),
               ("neumann", 3, 3, None, params.d_a),
               # c_cor (n x u) with n x u = (-u2, u1), interior rows only
               ("id", 0, 1, interior, -params.c_cor),
               ("id", 1, 0, interior, params.c_cor)])


def assemble_coupled(v_frozen: FieldSet, grid: Grid, params: RheologyParams,
                     dt: Optional[float] = None) -> SparseOperator:
    """Block upper-triangular quasilinear operator A frozen at v_frozen
    (4N x 4N); with ``dt``, the backward-Euler matrix I + dt A, formed on the
    same cached pattern (the id and neumann terms hold every diagonal
    entry)."""
    v_frozen = v_frozen.validate(params)
    total = _sum_terms(grid, (4, 4), coupled_terms(v_frozen, grid, params))
    data = total.data
    if dt is not None:
        data *= dt
        data[total.plan.diagonal] += 1.0
    return SparseOperator(total.plan.matrix(data), velocity_boundary_mask(grid, 4))


class _ColumnOrder(NamedTuple):
    """A fill-reducing column permutation of one CSR pattern and the gather
    that lays the pattern's CSR values out as the CSC matrix A[:, q] of the
    permuted columns, q the inverse of ``perm_c``."""

    perm_c: np.ndarray  # SuperLU's: A[:, q] z = b gives x = z[perm_c]
    gather: np.ndarray  # the CSR entry of each CSC entry of A[:, q]
    pattern: sp.csc_matrix  # of A[:, q], from ``_pattern``

    @classmethod
    def of(cls, matrix: sp.csr_matrix, perm_c: np.ndarray) -> "_ColumnOrder":
        n = matrix.shape[1]
        column = perm_c[matrix.indices]  # of each entry, in A[:, q]
        # stable: the rows of a column stay ascending, as CSC wants them
        gather = np.argsort(column, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(column, minlength=n), out=indptr[1:])
        return cls(perm_c, gather, _pattern(
            sp.csc_matrix, _row_of_entry(matrix.indptr)[gather], indptr,
            matrix.shape))

    def solver(self, matrix: sp.csr_matrix) -> Callable[[np.ndarray], np.ndarray]:
        pattern = self.pattern
        lu = spla.splu(_on_pattern(pattern, matrix.data[self.gather],
                                   pattern.indices, pattern.indptr),
                       permc_spec="NATURAL")
        return lambda b: lu.solve(b)[self.perm_c]


_MAX_ORDERINGS = 8  # a run sees two patterns per grid: at rest and moving
_ORDERINGS: dict = {}  # CSR pattern -> _ColumnOrder, least recently used first
# glibc mallopt parameters and the values _keep_freed_memory sets: blocks
# under 32 MB (glibc's largest mmap threshold) come from the heap, and up to
# 64 MB of freed memory at its top stay there
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


@lru_cache(maxsize=None)
def _keep_freed_memory() -> bool:
    """Let the C allocator keep the memory that SuperLU frees, once per
    process; True where it could (glibc's ``mallopt``).

    Each factorization mallocs its working arrays and frees them when it
    is done.  With glibc's default, dynamic thresholds those blocks were
    mapped afresh and unmapped, or trimmed off the top of the heap, every
    time, so each step page-faulted its factorization's memory back in:
    about 350 minor faults (1.4 MB) and 0.5 ms of a 7 ms 17² step.  With
    both thresholds fixed, a freed block stays in the heap and the next
    factorization reuses it.  This changes where memory comes from, not a
    value: the factors, and so the solutions, are bit for bit the same.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc, or no C library
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))


def _lu_solver(matrix: sp.csr_matrix) -> Callable[[np.ndarray], np.ndarray]:
    """b -> A^-1 b from a new LU factorization of ``matrix``.

    A new pattern runs SuperLU's COLAMD, whose column permutation depends
    on the pattern alone and holds SuperLU's elimination-tree postorder.
    A known one factors the permuted columns in their natural order, which
    gives the COLAMD solutions bit for bit except where a pivot ties the
    diagonal: ``diag_pivot_thresh`` = 1 prefers the diagonal, which the
    permutation moves (seen on grids with at most 4 nodes along a side, up
    to 3e-16 relative in ||x||).  The first call lets the C allocator keep
    the memory factorizations free (``_keep_freed_memory``).  Raises
    RuntimeError as ``splu`` does.
    """
    _keep_freed_memory()
    key = (matrix.shape, matrix.indptr.tobytes(), matrix.indices.tobytes())
    # compared, not hashed: the held keys' hashes are cached, a new key's
    # would cost a pass over its bytes every step
    held = next((known for known in _ORDERINGS if known == key), None)
    if held is not None:
        order = _ORDERINGS.pop(held)
        _ORDERINGS[held] = order  # re-inserted: now the most recently used
        return order.solver(matrix)
    lu = spla.splu(matrix.tocsc())
    # a copy: lu.perm_c is a view that would keep the factors alive
    _ORDERINGS[key] = _ColumnOrder.of(matrix, lu.perm_c.copy())
    if len(_ORDERINGS) > _MAX_ORDERINGS:
        del _ORDERINGS[next(iter(_ORDERINGS))]
    return lu.solve


def solve_linear(op: SparseOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve op x = rhs to relative residual <= SOLVE_RTOL, deterministically.

    Up to DIRECT_SOLVE_LIMIT unknowns, a sparse LU factorization by
    ``_lu_solver``, on the column ordering kept for each of the 8 most
    recently used patterns, with up to MAX_REFINEMENTS refinement sweeps;
    beyond, ``_gmres`` on the CSR matrix with Jacobi preconditioning.
    Raises LinearSolveError on breakdown or non-convergence, reporting the
    achieved residual, and before either path on a non-finite rhs.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (op.dim,):
        raise ValueError(f"rhs has shape {rhs.shape}, operator dim {op.dim}")
    if not np.isfinite(rhs).all():
        raise LinearSolveError("the right-hand side has non-finite entries")
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs)

    if op.dim > DIRECT_SOLVE_LIMIT:
        diag = op.matrix.diagonal()
        safe = np.where(np.abs(diag) > 0.0, diag, 1.0)
        x, _ = _gmres(op.matrix, rhs, lambda v, out: np.divide(v, safe, out=out))
        return x

    matrix = op.matrix
    try:
        solve = _lu_solver(matrix)
        x = solve(rhs)
    except RuntimeError as exc:
        raise LinearSolveError(f"sparse factorization failed: {exc}") from exc
    if not np.isfinite(x).all():
        raise LinearSolveError("factorization produced non-finite values")
    residual = rhs - matrix @ x
    residual_norm = np.linalg.norm(residual)
    for _ in range(MAX_REFINEMENTS):
        if residual_norm <= SOLVE_RTOL * rhs_norm:
            break
        x = x + solve(residual)
        residual = rhs - matrix @ x
        residual_norm = np.linalg.norm(residual)
    achieved = residual_norm / rhs_norm
    if not achieved <= SOLVE_RTOL:
        raise LinearSolveError("direct solve did not reach tolerance", achieved)
    return x


def _gmres(matrix: sp.csr_matrix, rhs: np.ndarray,
           precond: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> tuple:
    """Restarted GMRES(KRYLOV_RESTART) from x0 = 0 to ||rhs - A x|| <=
    SOLVE_RTOL ||rhs||; returns x and the number of inner iterations.

    Step for step the algorithm of ``scipy.sparse.linalg.gmres`` (scipy
    1.17; Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986): left
    preconditioning by ``precond`` (``precond(r, out)`` writes M^-1 r to
    out), modified Gram-Schmidt against every earlier basis vector, the
    exact-solution breakdown test, lartg Givens rotations, a true residual
    after each cycle and scipy's adaptive inner tolerance (gh-8400).  Only
    the plumbing differs: a preallocated basis updated in place by BLAS
    ddot/daxpy, rotations on Python floats, and each product A v written by
    ``csr_matvec``, the kernel of ``matrix @ v``, into one preallocated
    buffer.  daxpy fuses the multiply-add, so x and the residual estimates
    differ from scipy's at rounding level, and an iteration count can
    differ by one where an estimate meets its tolerance within rounding.
    Raises LinearSolveError with the achieved residual and the iteration
    count when a breakdown or KRYLOV_MAX_CYCLES cycles end short of the
    tolerance.
    """
    dot, axpy, lartg = blas.ddot, blas.daxpy, lapack.dlartg
    eps = float(np.finfo(float).eps)
    n = rhs.shape[0]
    restart = min(KRYLOV_RESTART, n)
    rhs_norm = math.sqrt(dot(rhs, rhs))
    atol = SOLVE_RTOL * rhs_norm
    m_rhs = np.empty(n)
    precond(rhs, m_rhs)
    ptol_max_factor = 1.0
    ptol = math.sqrt(dot(m_rhs, m_rhs)) * min(1.0, atol / rhs_norm)
    basis = np.empty((restart + 1, n))
    product = np.empty(n)  # A v before preconditioning
    hess = np.zeros((restart, restart + 1))  # row j: column j of H
    x = np.zeros(n)
    residual, inner = rhs, 0
    for _ in range(KRYLOV_MAX_CYCLES):
        precond(residual, basis[0])
        beta = math.sqrt(dot(basis[0], basis[0]))
        basis[0] *= 1.0 / beta
        g = [beta] + [0.0] * restart  # rotated right-hand side
        rotations = []
        breakdown = False
        for col in range(restart):
            product.fill(0.0)  # csr_matvec adds to its output
            csr_matvec(n, n, matrix.indptr, matrix.indices, matrix.data,
                       basis[col], product)
            w = basis[col + 1]
            precond(product, w)
            h0 = math.sqrt(dot(w, w))
            h = [0.0] * (col + 2)
            for k in range(col + 1):
                h[k] = dot(basis[k], w)
                axpy(basis[k], w, a=-h[k])
            h1 = math.sqrt(dot(w, w))
            if h1 <= eps * h0:  # exact solution in the Krylov space
                h1, breakdown = 0.0, True
            else:
                w *= 1.0 / h1
            for k, (c, s) in enumerate(rotations):
                h[k], h[k + 1] = c * h[k] + s * h[k + 1], -s * h[k] + c * h[k + 1]
            c, s, h[col] = lartg(h[col], h1)
            rotations.append((c, s))
            hess[col, :col + 2] = h
            g[col], g[col + 1] = c * g[col], -s * g[col]
            presid = abs(g[col + 1])
            inner += 1
            if presid <= ptol or breakdown:
                break
        if hess[col, col] == 0.0:
            g[col] = 0.0
        y = np.array(g[:col + 1])
        for k in range(col, 0, -1):  # back substitution, as scipy pseudo-solves
            if y[k] != 0.0:
                y[k] /= hess[k, k]
                y[:k] -= y[k] * hess[k, :k]
        if y[0] != 0.0:
            y[0] /= hess[0, 0]
        x += y @ basis[:col + 1]
        residual = rhs - matrix @ x
        achieved = np.linalg.norm(residual)
        if achieved <= atol:
            return x, inner
        if breakdown:
            break
        if presid <= ptol:
            ptol_max_factor = max(eps, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / achieved)
    raise LinearSolveError(f"GMRES did not converge in {inner} inner iterations",
                           achieved / rhs_norm)

