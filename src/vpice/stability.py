"""Linearization at constant equilibria, spectra and decay experiments.

At an equilibrium (0, h*, a*) with vanishing forcing, the linearized
evolution v' + A0 v = 0 uses

    A0 v = [ (1/(rho_ice h*)) A^H u + (dP*/dh / (2 rho_ice h*)) grad h
             + (dP*/da / (2 rho_ice h*)) grad a + c_cor (n x u),
             h* div(u) - d_h Lap_N h,
             a* div(u) - d_a Lap_N a ],

where A^H is the constant-coefficient velocity operator
-(P*/(2 sqrt(delta))) sum S_ij^kl d_k d_l u_j.  A0 is the step's operator
``operators.coupled_terms`` at the equilibrium, Coriolis included, plus
the h* div and a* div rows of the explicit transport.  The constant-(h,
a) vectors with u = 0 span the discrete kernel exactly; for delta small
enough every other eigenvalue has positive real part, and unforced
trajectories decay toward the mean-value equilibrium at a rate set by the
spectral gap.

At a constant state on the uniform grid, A0 commutes exactly with the
half turn, and at c_cor = 0 also with the signed x- and y-mirrors (u1,
resp. u2, changes sign).  On a square grid with dx == dy it commutes with
the quarter turn as well, and at c_cor = 0 with the diagonal reflection
(u1 <-> u2), which makes the group D4.  ``symmetry_blocks`` checks which
maps commute entry by entry and splits the reduced A0 along the characters
of the largest such group: D4 gives 4 blocks plus one, for the 2-D irrep,
whose eigenvalues count twice; C4 two real blocks plus a complex one whose
conjugate block is not built; the mirrors alone 4 blocks; the half turn 2.
The exact commutation lets it read each block off the rows of A0 at one
unknown per orbit, without forming the symmetry-adapted basis.
With d_h == d_a the field q = (a* h - h* a) / r, r = hypot(h*, a*), is a
pure diffusion, q' = -d Lap_N q: the h* div u and a* div u terms cancel.
A0 is then block triangular in (u, p | q), p = (h* h + a* a) / r, and
``symmetry_blocks`` splits only the (u, p) operator; the q eigenvalues
are d times ``grid.neumann_eigenvalues``, in closed form.  ``spectrum``
deflates the exact constant-(h, a) kernel from the dense copy of each
block by Householder reflections and finds the gap by one dense
``eigvals`` per block, with the q values appended.
``semisimplicity_proxy`` certifies, in O(nnz), that the constant vectors
are both the right and the left kernel, so the zero eigenvalue is
semisimple.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .dynamics import (
    ForcingInputs,
    RunResult,
    RunSinks,
    StepperConfig,
    momentum_advection,
    run,
    transport,
)
from .grid import FieldSet, Grid, diff_ops, neumann_eigenvalues, neumann_mode
from .operators import (
    SparseOperator,
    assemble_hibler,
    assemble_neumann_laplacian,
    assemble_terms,
    coupled_terms,
    divergence_matrix,
    gradient_coupling,  # unused here; perfbench/spans.py traces this binding
    velocity_boundary_mask,
)
from .params import (
    STATE_SLACK,
    InvalidStateError,
    RheologyParams,
    VpiceError,
    check_finite,
)
from .rheology import pressure, pressure_derivatives

DENSE_EIG_BUDGET = 10_000
MIN_FIT_SAMPLES = 10  # norms decay_experiment needs in its fit window
# decay_experiment's fit window stays above this many times the rounding
# floor of the mean-value equilibrium, eps sqrt(cell_area) ||(h, a)||; at
# 9^2 the norm stalls at about 3x the floor
FIT_FLOOR_FACTOR = 100
KERNEL_CERT_RTOL = 1e-12  # kernel residuals, relative to max|A0_ij|, that pass
DECAY_GAP_RTOL = 0.2  # DecayResult.relative_gap_error that passes


class BudgetExceededError(VpiceError):
    """Dense eigensolve requested beyond the supported size."""

    exit_code = 2


class DecayFitError(VpiceError):
    """No decay rate to fit: the perturbation is lost to rounding, or too
    few samples lie in the asymptotic window."""


@dataclass(frozen=True)
class Equilibrium:
    """Constant equilibrium state (0, h*, a*): thickness h* in m,
    compactness a* in [0, 1]."""

    h_star: float
    a_star: float

    def __post_init__(self):
        check_finite(self)
        if not self.h_star > 0.0:
            raise InvalidStateError(f"h* = {self.h_star!r} must be positive")
        if not math.isfinite(2.0 * self.h_star):
            raise InvalidStateError(
                f"h* = {self.h_star!r}: the sampling range [h*/2, 2 h*] "
                f"must be finite")
        if not 0.0 <= self.a_star <= 1.0:
            raise InvalidStateError(f"a* = {self.a_star!r} outside [0, 1]")

    def validate(self, params: RheologyParams) -> "Equilibrium":
        if self.h_star < params.kappa:
            raise InvalidStateError(
                f"h* = {self.h_star!r} below kappa = {params.kappa!r}")
        return self

    def p_star(self, params: RheologyParams) -> float:
        return float(pressure(self.h_star, self.a_star, params))

    def state(self, grid: Grid) -> FieldSet:
        return FieldSet.constant(grid, self.h_star, self.a_star)


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray
    kernel_dim: int
    spectral_gap: float
    spectral_radius: float
    symmetry_group: str  # the group ``symmetry_blocks`` split by
    block_sizes: tuple  # (size, copies) of each dense block solved


def weight_constants(eq: Equilibrium, params: RheologyParams) -> tuple:
    """Weights (C_h, C_a) of the equilibrium energy form: dP/dh / (2 h*)
    and dP/da / (2 a*) at (h*, a*), with C_a = 1 for a* = 0."""
    dp_dh, dp_da = pressure_derivatives(eq.h_star, eq.a_star, params)
    c_a = dp_da / (2.0 * eq.a_star) if eq.a_star > 0.0 else 1.0
    return float(dp_dh / (2.0 * eq.h_star)), float(c_a)


def assemble_A0(eq: Equilibrium, grid: Grid, params: RheologyParams) -> SparseOperator:
    """Linearized operator at the equilibrium (4N x 4N).

    The step's operator, ``coupled_terms`` frozen at (0, h*, a*) with its
    Coriolis rotation, plus the rows it lacks: h* div(u) and a* div(u)
    from linearizing the explicit advective fluxes (so A0 is not block
    triangular).  Settings whose A0 has a non-finite entry raise
    InvalidStateError, as every assembly does.
    """
    eq.validate(params)
    terms = coupled_terms(eq.state(grid).validate(params), grid, params) + [
        ("div", 2, 0, None, eq.h_star), ("div", 3, 0, None, eq.a_star)]
    return SparseOperator(assemble_terms(grid, (4, 4), terms),
                          velocity_boundary_mask(grid, 4))


def kernel_basis(grid: Grid) -> np.ndarray:
    """Unit constant vectors of the h and a fields of the (u1, u2, h, a)
    stack: the conserved totals, the exact kernel of A0."""
    return np.kron(np.eye(4)[:, 2:], np.ones((grid.n_nodes, 1))) / np.sqrt(grid.n_nodes)


def dense_unknowns(grid: Grid) -> int:
    """Unknowns of A0 once the Dirichlet rows and columns are dropped: 4N
    minus both velocity components at every boundary node."""
    return 4 * grid.n_nodes - 2 * int(np.sum(grid.boundary_mask()))


def check_dense_budget(size: int) -> None:
    """Raise BudgetExceededError when a dense eigensolve of ``size``
    unknowns exceeds DENSE_EIG_BUDGET."""
    if size > DENSE_EIG_BUDGET:
        raise BudgetExceededError(
            f"{size} unknowns exceed the dense eigensolve budget "
            f"{DENSE_EIG_BUDGET}")


def _symmetry(grid: Grid, keep: np.ndarray, name: str):
    """Signed permutation of a grid symmetry on the kept unknowns of a
    stack of u1, u2 and len(keep) // N - 2 scalar fields, (u1, u2, h, a)
    or the (u1, u2, p) of ``_rotated``: the x-mirror "x" (i -> nx-1-i, u1
    -> -u1), the y-mirror "y" (j -> ny-1-j, u2 -> -u2), their product the
    half turn "xy", the diagonal reflection "d" ((i, j) -> (j, i), u1 <->
    u2) or the quarter turn "r" ((i, j) -> (j, nx-1-i), u1 -> -u2, u2 ->
    u1).  Returns
    (index, sign), the map e_k -> sign[k] e_index[k], or None when the grid
    is not square for "d" and "r" or the map sends a kept unknown to a
    dropped one."""
    nx, ny, n = grid.nx, grid.ny, grid.n_nodes
    if name in ("d", "r") and nx != ny:
        return None
    j, i = np.divmod(np.arange(n), nx)
    # node (i, j) goes to (i_to, j_to); u1 and u2 go to (field, sign)
    i_to, j_to, velocity = {
        "x": (nx - 1 - i, j, ((0, -1.0), (1, 1.0))),
        "y": (i, ny - 1 - j, ((0, 1.0), (1, -1.0))),
        "xy": (nx - 1 - i, ny - 1 - j, ((0, -1.0), (1, -1.0))),
        "d": (j, i, ((1, 1.0), (0, 1.0))),
        "r": (j, nx - 1 - i, ((1, -1.0), (0, 1.0))),
    }[name]
    nodes = j_to * nx + i_to
    fields = velocity + tuple((field, 1.0) for field in range(2, len(keep) // n))
    index = np.concatenate([field * n + nodes for field, _ in fields])
    sign = np.repeat([s for _, s in fields], n)
    if not np.array_equal(keep[index], keep):
        return None
    return (np.cumsum(keep) - 1)[index[keep]], sign[keep]


def _check_shape(op: SparseOperator, grid: Grid) -> None:
    """Raise ValueError unless op is 4N x 4N on this grid."""
    if op.matrix.shape != (4 * grid.n_nodes,) * 2:
        raise ValueError(f"expected the 4N x 4N linearization A0 on a "
                         f"{grid.nx}x{grid.ny} grid, got shape "
                         f"{op.matrix.shape}")


def _reduced(op: SparseOperator, grid: Grid) -> tuple:
    """A0 with its Dirichlet rows and columns dropped, the mask of the kept
    unknowns and the kept rows of ``kernel_basis``.  Raises ValueError
    unless op is 4N x 4N on this grid."""
    _check_shape(op, grid)
    keep = ~op.dirichlet_mask
    return op.matrix[keep][:, keep].tocsr(), keep, kernel_basis(grid)[keep]


def _commutes(matrix, index, sign) -> bool:
    """P M P^T == M entry by entry for the signed permutation P."""
    perm = sp.csr_matrix((sign, (index, np.arange(len(index)))),
                         shape=matrix.shape)
    return (perm @ matrix - matrix @ perm).count_nonzero() == 0


def _rotated(matrix, keep: np.ndarray, grid: Grid):
    """The (u, p) operator of the reduced M, p = c h + s a, (c, s) = (h*,
    a*) / r, r = hypot(h*, a*), and the diffusivity d of q, or None.

    When M's (h, h) and (a, a) blocks are equal entry for entry, say D,
    and its (h, a) and (a, h) blocks hold no entries, turning each node's
    (h, a) pair to (p, q) = (c h + s a, s h - c a) keeps D in the (p, p)
    and (q, q) blocks, exactly, and leaves the (p, q) and (q, p) blocks
    empty.  The h and a rows' div parts are h* div and a* div, so their
    largest entries give (c, s), and the q rows' div part s h* div - c a*
    div cancels to rounding.  D must also be d Lap_N, Lap_N =
    ``diff_ops(grid)["neumann"]`` and d = D[0, 0] / Lap_N[0, 0], so that
    q' = -d Lap_N q is a pure diffusion with the eigenvalues d
    ``neumann_eigenvalues``.  Returns None, and nothing is split, unless
    all of this holds and every entry of the q rows' div part and of D -
    d Lap_N is at most machine eps x max|M|, which is within the backward
    error of a dense eigensolve of M; d itself need not round-trip.  The
    turn is symmetric and orthogonal, so the turned M is similar to M and
    block triangular in (u, p | q): its spectrum is that of the returned
    [[M_uu, c M_uh + s M_ua], [c h_div + s a_div, D]] together with d
    Lap_N's.  Neither the q rows nor the (u, q) columns are built."""
    n = grid.n_nodes
    velocity = int(np.sum(keep[:2 * n]))
    u, h, a = (slice(0, velocity), slice(velocity, velocity + n),
               slice(velocity + n, None))
    diffusion = matrix[h, h]
    if (not keep[2 * n:].all() or (diffusion != matrix[a, a]).nnz
            or matrix[h, a].count_nonzero() or matrix[a, h].count_nonzero()):
        return None
    laplacian = diff_ops(grid)["neumann"]
    d = float(diffusion[0, 0] / laplacian[0, 0])
    h_div, a_div = matrix[h, u], matrix[a, u]
    x, y = abs(h_div).max(), abs(a_div).max()
    r = math.hypot(x, y)
    c, s = (x / r, y / r) if r else (1.0, 0.0)  # no div part: any turn
    bound = np.finfo(float).eps * abs(matrix).max()
    if (abs(s * h_div - c * a_div).max() > bound
            or abs(diffusion - d * laplacian).max() > bound):
        return None
    return sp.bmat([[matrix[u, u], c * matrix[u, h] + s * matrix[u, a]],
                    [c * h_div + s * a_div, diffusion]], format="csr"), d


def _reflect(dense: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """A real B restricted to the complement of its left kernel W =
    ``kernel`` (W^T B = 0, W orthonormal), one Householder reflection per
    column w of W: H = I - beta u u^T, u = w / ||w|| + sign(w_0) e_0, maps
    w to a multiple of e_0, so the first row of H B H, a multiple of w^T B
    H, is zero and H B H is block lower triangular.  Its trailing block
    has B's spectrum less one zero, and the next column of H W, whose
    first entry vanishes because W is orthonormal, is a left null vector
    of it.  Works in place on ``dense`` and returns a view of it."""
    while kernel.shape[1]:
        u = kernel[:, 0] / np.linalg.norm(kernel[:, 0])
        u[0] += math.copysign(1.0, u[0])
        beta = 2.0 / (u @ u)
        dense -= np.outer(beta * u, u @ dense)  # H B
        dense -= np.outer(dense @ u, beta * u)  # (H B) H
        kernel = kernel - np.outer(beta * u, u @ kernel)  # H W
        dense, kernel = dense[1:, 1:], kernel[1:, 1:]
    return dense


# The exact symmetry groups, largest first: name, generators (see
# ``_symmetry``) and one block per (character on the generators, copies,
# conjugate).  The trivial character comes first.  A character shorter
# than the generators is one of the subgroup of the leading ones: D4's
# 2-D irrep E is split by the mirrors into the (+,-) and (-,+) characters,
# which d maps onto each other, so the (+,-) block is solved and counted
# twice.  At c_cor > 0 the quarter turn's characters i and -i give
# complex conjugate blocks, so only i is solved.
_GROUPS = (
    ("D4", ("x", "y", "d"),
     [((1, 1, 1), 1, False), ((1, 1, -1), 1, False),
      ((-1, -1, 1), 1, False), ((-1, -1, -1), 1, False),
      ((1, -1), 2, False)]),
    ("Klein", ("x", "y"),
     [(character, 1, False)
      for character in itertools.product((1, -1), repeat=2)]),
    ("C4", ("r",), [((1,), 1, False), ((-1,), 1, False), ((1j,), 1, True)]),
    ("C2", ("xy",), [((1,), 1, False), ((-1,), 1, False)]),
    ("trivial", (), [((), 1, False)]),
)


@dataclass(frozen=True)
class SymmetryBlock:
    """One block Q^H M Q of ``symmetry_blocks``, Q an orthonormal basis of
    one character's unknowns: its eigenvalues count ``copies`` times in the
    spectrum of M, and when ``conjugate`` is set so do their complex
    conjugates.  ``kernel`` holds Q^H K, the coordinates of
    ``kernel_basis`` K in the block's basis: a column per kernel vector in
    the trivial character's block, none elsewhere.  The columns are
    orthonormal, each is a left null vector of the block when K is a left
    kernel of M, and their zero eigenvalues are in the block's spectrum
    until ``spectrum`` deflates them."""

    matrix: sp.csr_matrix
    copies: int
    conjugate: bool
    kernel: np.ndarray


def symmetry_blocks(op: SparseOperator, grid: Grid) -> tuple:
    """The reduced operator split along its exact grid symmetries.

    With the Dirichlet rows and columns dropped, M is replaced by its (u,
    p) operator of ``_rotated`` where its q rows are a pure diffusion.  M
    is tested against the signed permutations of ``_symmetry``, each entry
    by entry (P M P^T - M has no nonzero entry), and the first group of
    ``_GROUPS`` whose generators all commute with M is kept: D4 (both
    mirrors and the diagonal reflection, c_cor = 0 on a square grid with
    dx == dy), the Klein four group of the two mirrors (c_cor = 0), C4
    (the quarter turn, square grids), C2 (the half turn) or the trivial
    group.  For each character chi of a block, over the group G or the
    subgroup H the character is of, the projected column v_b = sum_{g in
    H} conj(chi(g)) P_g e_{r_b} of every orbit b, r_b its smallest
    unknown, is either zero or one column of an orthonormal basis Q, v_b /
    n_b with n_b = ||v_b||.  The exact commutation makes the projector
    (1/|H|) sum_g conj(chi(g)) P_g commute with M, so the block is read
    off the rows r_a of M: (Q^H M Q)[a, b] = |H| (M v_b)[r_a] / (n_a n_b),
    one weighted sum per entry of those rows (the projection-operator
    method).  The bases of the blocks solved and of the blocks they stand
    for (``SymmetryBlock.copies`` and ``conjugate``) are orthogonal to
    each other and span the kept unknowns, so together the blocks' spectra
    are the spectrum of M.  The G-invariant ``kernel_basis`` K lies in the
    trivial character's block, whose ``SymmetryBlock.kernel`` holds it
    for ``spectrum`` to deflate.  When M is turned, every block acts on
    (u, p), K is constant p there, and the q eigenvalues d
    ``neumann_eigenvalues`` come in closed form, less mode (0, 0), the
    constant q of K; otherwise every block acts on (u, h, a) and no q
    value is returned.  Returns (group name, blocks, q eigenvalues).
    """
    matrix, keep, kernel = _reduced(op, grid)
    rotated = _rotated(matrix, keep, grid)
    q_values = np.zeros(0)
    if rotated is not None:
        matrix, d = rotated
        keep = keep[:3 * grid.n_nodes]
        # the turned constant h is constant p, the (u, p) operator's kernel
        kernel = kernel[:matrix.shape[0], :1]
        q_values = d * neumann_eigenvalues(grid)[1:]
    maps = {}

    def exact(name):
        if name not in maps:
            found = _symmetry(grid, keep, name)
            maps[name] = found if found and _commutes(matrix, *found) else None
        return maps[name] is not None

    group, names, characters = next(
        entry for entry in _GROUPS if all(exact(name) for name in entry[1]))
    size = matrix.shape[0]
    columns = np.arange(size)
    # every group element: index map, signs, the positions of its word's
    # generators
    elements = [(columns, np.ones(size), ())]
    for position, name in enumerate(names):
        index, sign = maps[name]
        power = elements
        for _ in range(3 if name == "r" else 1):  # r has order 4, the rest 2
            power = [(index[member], s * sign[member], word + (position,))
                     for member, s, word in power]
            elements = elements + power
    blocks = []
    for i, (character, copies, conjugate) in enumerate(characters):
        used = [element for element in elements
                if all(position < len(character) for position in element[2])]
        # each unknown's orbit representative, the smallest unknown it maps to
        rep = np.min([member for member, _, _ in used], axis=0)
        # coeff[k]: entry k of v, the projected column of k's orbit
        coeff = sum(
            np.where(member[rep] == columns,
                     s[rep] * np.conj(np.prod([character[p] for p in word])),
                     0.0)
            for member, s, word in used)
        # a projected column is either zero or has all its entries equal in
        # size; reps ascend, and the zero columns are left out
        norms = np.sqrt(np.bincount(rep, np.abs(coeff) ** 2, size))
        reps = np.flatnonzero(norms)
        place = np.full(size, -1)
        place[reps] = np.arange(len(reps))
        # B[a, b] = |H| (M v_b)[r_a] / (n_a n_b): the entries of the rows r_a,
        # each weighted by coeff and summed into its orbit's column
        rows = matrix[reps]
        row = np.repeat(np.arange(len(reps)), np.diff(rows.indptr))
        column = place[rep[rows.indices]]
        inside = column >= 0  # -1 in a zero column
        a, b, k = row[inside], column[inside], rows.indices[inside]
        # one factor per entry of M: coeff and the norms applied one by one
        # can overflow an entry near the float limit where the block entry
        # does not
        weight = coeff[k] * (len(used) / norms[reps[a]]) / norms[reps[b]]
        block = sp.csr_matrix((rows.data[inside] * weight, (a, b)),
                              shape=(len(reps),) * 2)
        coords = np.zeros((len(reps), 0))  # K is orthogonal to this basis
        if not i:  # the first character is the trivial one
            # K in the block's basis: v_b^T K / n_b
            coords = np.stack(
                [np.bincount(rep, coeff * constant, size)[reps]
                 for constant in kernel.T], axis=1) / norms[reps, None]
        blocks.append(SymmetryBlock(block, copies, conjugate, coords))
    return group, blocks, q_values


def spectrum(op: SparseOperator, grid: Grid) -> SpectrumReport:
    """Dense spectrum with the Dirichlet rows and columns dropped.

    Only the velocity boundary identity rows go; thickness and compactness
    unknowns are always kept, so the constant kernel survives.  Over
    DENSE_EIG_BUDGET ``dense_unknowns`` raise BudgetExceededError, before
    anything is built.  kernel_dim is the column count of ``kernel_basis``
    K, whose exact zeros lead ``eigenvalues``; the others, from one dense
    ``eigvals`` per ``symmetry_blocks`` block, each counted as the block
    says, and the closed-form q eigenvalues appended after them, set the
    spectral gap (their smallest real part).  K is deflated from the dense
    copy of each block that holds it by the Householder reflections of
    ``_reflect``, which need K to be a left kernel, as
    ``semisimplicity_proxy`` certifies.  ``block_sizes`` lists the dense
    blocks only.
    """
    check_dense_budget(dense_unknowns(grid))
    kernel_dim = 2  # the columns of kernel_basis: constant h, constant a
    group, blocks, q_values = symmetry_blocks(op, grid)
    parts, sizes = [], []
    for block in blocks:
        dense = _reflect(block.matrix.toarray(), block.kernel)
        values = sla.eigvals(dense, overwrite_a=True, check_finite=False)
        copies = ([values, values.conj()] if block.conjugate
                  else [values]) * block.copies
        parts += copies
        sizes.append((len(values), len(copies)))
    rest = np.concatenate(parts + [q_values])
    eigenvalues = np.concatenate([np.zeros(kernel_dim, complex), rest])
    return SpectrumReport(eigenvalues, kernel_dim, float(np.min(rest.real)),
                          float(np.max(np.abs(eigenvalues))),
                          group, tuple(sizes))


@dataclass
class SemisimplicityReport:
    """Residuals of the exact kernel basis K (orthonormal, Dirichlet rows
    dropped) under the reduced operator M, in 2-norms, and the scale they
    are measured against."""

    kernel_dim: int  # columns of K
    right_residual: float  # ||M K||_2
    left_residual: float  # ||M^T K||_2
    restriction_norm: float  # ||K^T M K||_2
    operator_norm: float  # max|M_ij|, the 1 -> inf norm; at most ||M||_2

    @property
    def certified(self) -> bool:
        """Both residuals within KERNEL_CERT_RTOL of the operator norm."""
        bound = KERNEL_CERT_RTOL * self.operator_norm
        return self.right_residual <= bound and self.left_residual <= bound


def semisimplicity_proxy(op: SparseOperator, grid: Grid) -> SemisimplicityReport:
    """Certify that the zero eigenvalue of A0 is semisimple, in O(nnz).

    With the Dirichlet rows and columns dropped, as in ``spectrum``, M K = 0
    and M^T K = 0 for the orthonormal ``kernel_basis`` K make span K both
    the right and the left kernel, with Gram matrix K^T K = I.  A Jordan
    chain M x = k, k in span K nonzero, would give k^T k = k^T M x = 0, so
    none exists, and the left kernel is what makes ``spectrum``'s
    deflation exact.  ``certified`` tests both residuals against
    KERNEL_CERT_RTOL times max|M_ij|, which is exact and at most ||M||_2.
    M is not formed: K vanishes on the dropped unknowns, so M K and M^T K
    are the kept rows of A0 K and A0^T K, and max|M_ij| is the largest
    |entry| of A0 whose row and column are both kept.
    """
    _check_shape(op, grid)
    matrix, keep, kernel = op.matrix, ~op.dirichlet_mask, kernel_basis(grid)
    basis, image = kernel[keep], (matrix @ kernel)[keep]
    inside = np.repeat(keep, np.diff(matrix.indptr)) & keep[matrix.indices]
    return SemisimplicityReport(
        kernel_dim=basis.shape[1],
        right_residual=float(np.linalg.norm(image, 2)),
        left_residual=float(np.linalg.norm((matrix.T @ kernel)[keep], 2)),
        restriction_norm=float(np.linalg.norm(basis.T @ image, 2)),
        operator_norm=float(np.abs(matrix.data[inside]).max(initial=0.0)),
    )


def spectrum_passes(report: SpectrumReport, proxy: SemisimplicityReport) -> bool:
    """The pass rule of ``vpice spectrum``: the kernel is 2-dimensional and
    certified semisimple, and the spectral gap is resolved: above
    KERNEL_CERT_RTOL times the spectral radius, not rounding noise."""
    return (report.kernel_dim == 2
            and report.spectral_gap > KERNEL_CERT_RTOL * report.spectral_radius
            and proxy.certified)


def decay_passes(result: "DecayResult") -> bool:
    """The pass rule of ``vpice decay``: the fitted rate is within
    DECAY_GAP_RTOL of the spectral gap; NaN fails."""
    return result.relative_gap_error <= DECAY_GAP_RTOL


def energy_identity_residual(op: SparseOperator, v: FieldSet, eq: Equilibrium,
                             params: RheologyParams) -> dict:
    """Termwise regrouping of the quadratic form of A0 against direct assembly.

    Evaluates every term of the discrete energy identity obtained by testing
    (lambda + A0) v = 0 with v at the Rayleigh quotient lambda, and returns
    the relative mismatch between sum-of-terms and the assembled form
    (contract: <= 1e-10) together with the term breakdown.  The Coriolis
    rows add u . (n x u) = 0 to the form, so they have no term.
    """
    grid = v.grid
    v = v.validate(params)
    area = grid.cell_area
    vec = v.to_vector()
    n = grid.n_nodes
    u_vec = vec[:2 * n]
    h_vec = vec[2 * n:3 * n]
    a_vec = vec[3 * n:]

    assembled = area * float(vec @ (op.matrix @ vec))

    hibler = assemble_hibler(eq.state(grid), grid, params)
    dp_dh, dp_da = pressure_derivatives(eq.h_star, eq.a_star, params)
    scale = 2.0 * params.rho_ice * eq.h_star
    ops = diff_ops(grid)
    grad_h = np.stack([ops["dx"] @ h_vec, ops["dy"] @ h_vec])
    grad_a = np.stack([ops["dx"] @ a_vec, ops["dy"] @ a_vec])
    u1, u2 = u_vec[:n], u_vec[n:]
    div_u = divergence_matrix(grid) @ u_vec
    lap_h = assemble_neumann_laplacian(grid, params.d_h).matrix
    lap_a = assemble_neumann_laplacian(grid, params.d_a).matrix

    terms = {
        "viscous": area / (params.rho_ice * eq.h_star)
                   * float(u_vec @ (hibler.matrix @ u_vec)),
        "pressure_h": area * dp_dh / scale
                      * float(np.sum(grad_h[0] * u1 + grad_h[1] * u2)),
        "pressure_a": area * dp_da / scale
                      * float(np.sum(grad_a[0] * u1 + grad_a[1] * u2)),
        "div_h": area * eq.h_star * float(h_vec @ div_u),
        "diffusion_h": area * float(h_vec @ (lap_h @ h_vec)),
        "div_a": area * eq.a_star * float(a_vec @ div_u),
        "diffusion_a": area * float(a_vec @ (lap_a @ a_vec)),
    }
    termwise = sum(terms.values())
    norm2 = area * float(vec @ vec)
    rayleigh = -assembled / norm2 if norm2 > 0.0 else 0.0
    mismatch = abs(assembled - termwise) / max(
        sum(abs(t) for t in terms.values()), 1e-300)
    return {
        "mismatch": mismatch,
        "assembled": assembled,
        "termwise": termwise,
        "rayleigh": rayleigh,
        "terms": terms,
    }


def weighted_equilibrium_energy(v: FieldSet, eq: Equilibrium,
                                params: RheologyParams) -> tuple:
    """Energy form of the equilibrium equation tested with (u, C_h h, C_a a).

    Returns (value, breakdown).  At the equilibrium itself, and for any
    motionless constant state, every term vanishes.  Near the equilibrium
    the viscous and diffusive terms dominate remainder terms whose size is
    controlled by the distance to the equilibrium; callers report those
    margins rather than asserting them (they are state dependent).
    """
    grid = v.grid
    v = v.validate(params)
    area = grid.cell_area
    c_h, c_a = weight_constants(eq, params)
    ops = diff_ops(grid)

    u_vec = np.concatenate([v.u1.ravel(), v.u2.ravel()])
    hibler = assemble_hibler(v, grid, params)
    p_field = pressure(v.h, v.a, params).ravel()
    grad_p = np.stack([ops["dx"] @ p_field, ops["dy"] @ p_field])
    u1, u2 = v.u1.ravel(), v.u2.ravel()
    adv1, adv2 = momentum_advection(v)
    div_h, div_a = transport(v)
    lap_h = assemble_neumann_laplacian(grid, params.d_h).matrix
    lap_a = assemble_neumann_laplacian(grid, params.d_a).matrix

    breakdown = {
        "viscous": area * float(u_vec @ (hibler.matrix @ u_vec)),
        "pressure_gradient": 0.5 * area
                             * float(np.sum(grad_p[0] * u1 + grad_p[1] * u2)),
        "momentum_advection": area * params.rho_ice
                              * float(np.sum(v.h.ravel() * (adv1 * u1 + adv2 * u2))),
        "thickness_transport": c_h * area * float(v.h.ravel() @ div_h),
        "thickness_diffusion": c_h * area * float(v.h.ravel() @ (lap_h @ v.h.ravel())),
        "compactness_transport": c_a * area * float(v.a.ravel() @ div_a),
        "compactness_diffusion": c_a * area * float(v.a.ravel() @ (lap_a @ v.a.ravel())),
    }
    return sum(breakdown.values()), breakdown


@dataclass
class DecayResult:
    fitted_rate: float
    predicted_gap: float
    limit_mismatch: float
    mean_h_drift: float
    mean_a_drift: float
    trajectory: RunResult

    @property
    def relative_gap_error(self) -> float:
        return (abs(self.fitted_rate - self.predicted_gap)
                / max(self.predicted_gap, 1e-300))


def perturbed_equilibrium(eq: Equilibrium, grid: Grid, scale: float,
                          params: RheologyParams) -> FieldSet:
    """The equilibrium plus mean-free perturbations, validated: scale h*
    times a Neumann mode along x in h, scale a* times one along y in a.

    An amplitude is shrunk only where its field would leave the admissible
    set (h below kappa, a outside [0, 1] beyond STATE_SLACK), to the
    largest size that keeps kappa <= h and 0 <= a <= 1, which is zero at
    h* = kappa and at a* = 1.
    """
    eq.validate(params)
    v = eq.state(grid)
    for values, star, mode, low, high, slack in (
            (v.h, eq.h_star, neumann_mode(grid.nx), params.kappa, math.inf, 0.0),
            (v.a, eq.a_star, neumann_mode(grid.ny)[:, None], 0.0, 1.0,
             STATE_SLACK)):
        field = star + scale * star * mode
        if field.min() < low - slack or field.max() > high + slack:
            room = min(star - low, high - star) / np.abs(mode).max()
            # the clip takes back a rounding past the edge
            field = np.clip(star + math.copysign(room, scale) * mode, low, high)
        values[...] = field
    return v.validate(params)


def decay_experiment(eq: Equilibrium, perturbation_scale: float, grid: Grid,
                     params: RheologyParams, cfg: StepperConfig,
                     sinks: RunSinks | None = None) -> DecayResult:
    """Fit the exponential decay rate toward the mean-value equilibrium.

    Runs the unforced dynamics from the perturbed equilibrium, fits a
    log-linear decay of the composite perturbation norm over the asymptotic
    window (the first 40% of the trajectory is discarded as transient), and
    compares with the spectral gap of the independently assembled
    linearization.  ``sinks`` receive the trajectory as ``run`` streams it.
    A zero ``perturbation_scale`` raises InvalidStateError, and a grid whose
    ``dense_unknowns`` exceed DENSE_EIG_BUDGET BudgetExceededError, before
    the run.
    DecayFitError is raised before it for a perturbation lost to rounding,
    and after it when a norm in the fit window is within FIT_FLOOR_FACTOR
    times the rounding floor of the equilibrium (the fit would take its
    rate from rounding noise) or the window holds fewer than
    MIN_FIT_SAMPLES norms.
    """
    eq.validate(params)
    if perturbation_scale == 0.0:
        raise InvalidStateError("decay needs a nonzero perturbation_scale: "
                                "the equilibrium itself has no rate to fit")
    check_dense_budget(dense_unknowns(grid))
    v0 = perturbed_equilibrium(eq, grid, perturbation_scale, params)
    rest = eq.state(grid)
    if np.array_equal(v0.h, rest.h) and np.array_equal(v0.a, rest.a):
        # the norm would fit the rounding of the mean-value equilibrium
        raise DecayFitError(f"perturbation_scale = {perturbation_scale!r} is "
                            f"lost to rounding or to the admissible set: the "
                            f"state is the equilibrium")
    result = run(v0, ForcingInputs(), params, cfg, sinks)

    norms = result.perturbation_norm
    mismatch = float(norms[-1])
    mean_h_drift = abs(result.mean_h[-1] - result.mean_h[0])
    mean_a_drift = abs(result.mean_a[-1] - result.mean_a[0])

    start = int(np.floor(0.4 * len(norms)))
    window_t = result.times[start:]
    window_n = norms[start:]
    floor = (np.finfo(float).eps * math.sqrt(grid.cell_area)
             * math.hypot(np.linalg.norm(rest.h), np.linalg.norm(rest.a)))
    if np.min(window_n) <= FIT_FLOOR_FACTOR * floor:
        raise DecayFitError(
            f"perturbation_scale = {perturbation_scale!r} decays to "
            f"{np.min(window_n):.3g} in the fit window, within "
            f"{FIT_FLOOR_FACTOR} times the rounding floor {floor:.3g} of "
            f"the equilibrium")
    if len(window_n) < MIN_FIT_SAMPLES:
        raise DecayFitError(
            f"only {len(window_n)} usable samples in the fit window, "
            f"need {MIN_FIT_SAMPLES}")
    slope, _ = np.polyfit(window_t, np.log(window_n), 1)
    gap = spectrum(assemble_A0(eq, grid, params), grid).spectral_gap
    return DecayResult(float(-slope), gap, mismatch, mean_h_drift,
                       mean_a_drift, result)


def delta_gap_sweep(eq: Equilibrium, grid: Grid, params: RheologyParams,
                    deltas) -> np.ndarray:
    """Spectral gap of the linearization across regularization values."""
    gaps = []
    for delta in deltas:
        p = params.with_(delta=float(delta))
        gaps.append(spectrum(assemble_A0(eq, grid, p), grid).spectral_gap)
    return np.array(gaps)
