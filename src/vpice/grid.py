"""Structured vertex-centered grid, discrete fields, constant equilibria
and difference stencils.

Nodes sit at the vertices of a uniform rectangular mesh: nx x ny nodes,
spacings dx = lx / (nx - 1), dy = ly / (ny - 1).  Scalar fields are stored
as (ny, nx) arrays; the flat node index is j * nx + i with i the x index.
The coupled state vector packs [u1, u2, h, a] blocks of length N = nx * ny.

First/second difference matrices carry rows only at interior nodes (zero
rows at boundary nodes); Dirichlet or Neumann closures are applied by the
assembly routines.  The centered first-difference pair (d_x, d_y) and its
negative transpose form an exact summation-by-parts pair for velocity
fields that vanish on the boundary, which the conservation and energy
identities of the solver rely on.

``Equilibrium`` is a constant state (0, h*, a*), the point the stability
lab linearizes at; ``Equilibrium.state`` lays it on a grid.  The grid, the
fields and the equilibria need numpy only: scipy.sparse is imported when
``diff_ops`` first builds a grid's stencils.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .params import (InvalidStateError, RheologyParams, check_compactness,
                     check_finite, check_thickness)
from .rheology import StrainRate


@dataclass(frozen=True)
class Grid:
    """Uniform vertex grid of nx x ny nodes on [0, lx] x [0, ly], in m."""

    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        check_finite(self)
        if self.nx < 3 or self.ny < 3:
            raise InvalidStateError("grid needs nx, ny >= 3")
        if not (self.lx > 0.0 and self.ly > 0.0):
            raise InvalidStateError("grid extents must be positive")
        for name, h in (("dx", self.dx), ("dy", self.dy)):
            h_sq = h * h  # Python's h**2 raises on overflow, h * h does not
            if not (h_sq > 0.0 and 0.0 < 1.0 / h_sq < math.inf):
                raise InvalidStateError(
                    f"grid spacing {name} = {h!r} must have 1/{name}^2 "
                    f"positive and finite")

    @property
    def dx(self) -> float:
        return self.lx / (self.nx - 1)

    @property
    def dy(self) -> float:
        return self.ly / (self.ny - 1)

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    def coords(self):
        """Meshgrid (X, Y), each (ny, nx)."""
        x = np.linspace(0.0, self.lx, self.nx)
        y = np.linspace(0.0, self.ly, self.ny)
        return np.meshgrid(x, y)

    def boundary_mask(self) -> np.ndarray:
        """(ny, nx) mask of the boundary nodes, built once per grid and
        read-only (``_masks``)."""
        return _masks(self)[0]

    def interior_mask(self) -> np.ndarray:
        """(ny, nx) mask of the interior nodes, built once per grid and
        read-only (``_masks``)."""
        return _masks(self)[1]


def _read_only(*arrays) -> tuple:
    """The arrays, each made read-only: every step shares them, so a caller
    that writes into one raises instead of corrupting the next step."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


@lru_cache(maxsize=32)
def _masks(grid: Grid) -> tuple:
    """The boundary and interior masks of a grid, read-only."""
    boundary = np.zeros((grid.ny, grid.nx), dtype=bool)
    boundary[0, :] = boundary[-1, :] = True
    boundary[:, 0] = boundary[:, -1] = True
    return _read_only(boundary, ~boundary)


@lru_cache(maxsize=32)
def diff_ops(grid: Grid) -> MappingProxyType:
    """Grid-only matrices, cached per grid and read-only: every array of
    every matrix, and the mapping itself.

    Keys: dx, dy (centered first), dxx, dyy (second), dxy (4-point cross,
    rows at full-interior nodes), neumann (symmetric reflected -Laplacian,
    kron sum of the 1D pieces), div (N x 2N, minus the transpose of the
    (dx, dy) pair) and id (N x N identity).  Each is in canonical form
    (sorted, duplicate-free), so no scipy call sorts one in place.
    scipy.sparse is imported here, on a cache miss, so that the grid and
    the settings load with numpy alone.
    """
    import scipy.sparse as sp

    def d1_interior(n, h):
        """Centered first difference on a line, rows only at interior
        points."""
        rows = np.arange(1, n - 1)
        data = np.concatenate([np.full(n - 2, -0.5 / h),
                               np.full(n - 2, 0.5 / h)])
        ij = (np.concatenate([rows, rows]),
              np.concatenate([rows - 1, rows + 1]))
        return sp.csr_matrix((data, ij), shape=(n, n))

    def d2_interior(n, h):
        """Three-point second difference on a line, rows only at interior
        points.  Weights derive from a single rounded value so row sums
        vanish exactly."""
        w = 1.0 / h**2
        rows = np.arange(1, n - 1)
        data = np.concatenate([
            np.full(n - 2, w), np.full(n - 2, -2.0 * w), np.full(n - 2, w),
        ])
        ij = (np.concatenate([rows, rows, rows]),
              np.concatenate([rows - 1, rows, rows + 1]))
        return sp.csr_matrix((data, ij), shape=(n, n))

    def neumann_1d(n, h):
        """Symmetric reflected form of -d^2/dx^2 (graph Laplacian of the
        path).  Weights derive from a single rounded value so row and
        column sums vanish exactly in floating point."""
        w = 1.0 / h**2
        main = np.full(n, 2.0 * w)
        main[0] = main[-1] = w
        off = np.full(n - 1, -w)
        return sp.diags([off, main, off], offsets=(-1, 0, 1), format="csr")

    ix = sp.identity(grid.nx, format="csr")
    iy = sp.identity(grid.ny, format="csr")
    d_x = sp.kron(iy, d1_interior(grid.nx, grid.dx), format="csr")
    d_y = sp.kron(d1_interior(grid.ny, grid.dy), ix, format="csr")
    d_xx = sp.kron(iy, d2_interior(grid.nx, grid.dx), format="csr")
    d_yy = sp.kron(d2_interior(grid.ny, grid.dy), ix, format="csr")
    d_xy = (d_x @ d_y).tocsr()
    d_xy.sum_duplicates()  # the product's indices come unsorted
    ops = {
        "dx": d_x, "dy": d_y, "dxx": d_xx, "dyy": d_yy, "dxy": d_xy,
        "neumann": sp.kronsum(neumann_1d(grid.nx, grid.dx),
                              neumann_1d(grid.ny, grid.dy), format="csr"),
        "div": sp.hstack([-d_x.T, -d_y.T], format="csr"),
        "id": sp.identity(grid.n_nodes, format="csr"),
    }
    for matrix in ops.values():
        _read_only(matrix.data, matrix.indices, matrix.indptr)
    return MappingProxyType(ops)


def neumann_mode(n: int, k: int = 1) -> np.ndarray:
    """k-th discrete eigenvector of the reflected 1D Neumann stencil:
    exactly mean-free for k > 0, so perturbing with it keeps the
    mean-value equilibrium unchanged."""
    return np.cos(k * np.pi * (np.arange(n) + 0.5) / n)


def neumann_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues of ``diff_ops(grid)["neumann"]`` in closed form: the
    DCT-II diagonalizes the reflected stencil, and mode (k, l), the outer
    product neumann_mode(ny, l) x neumann_mode(nx, k) at flat index l nx +
    k, has eigenvalue (4/dx^2) sin^2(k pi/2nx) + (4/dy^2) sin^2(l pi/2ny).
    Entry 0, mode (0, 0), is the constants' exact 0."""
    mu_x, mu_y = (4.0 / h**2 * np.sin(np.arange(n) * (np.pi / (2 * n))) ** 2
                  for n, h in ((grid.nx, grid.dx), (grid.ny, grid.dy)))
    return (mu_y[:, None] + mu_x).ravel()


@dataclass
class FieldSet:
    """Discrete state v = (u, h, a) on the nodes of a grid.

    u = (u1, u2) satisfies homogeneous Dirichlet conditions (zero on every
    boundary node); h and a carry discrete Neumann conditions through the
    reflected stencils of the assembled operators.  Validity requires
    h >= kappa and a in [0, 1] up to params.STATE_SLACK.
    """

    grid: Grid
    u1: np.ndarray
    u2: np.ndarray
    h: np.ndarray
    a: np.ndarray

    @classmethod
    def constant(cls, grid: Grid, h_star: float, a_star: float) -> "FieldSet":
        shape = (grid.ny, grid.nx)
        return cls(grid,
                   np.zeros(shape), np.zeros(shape),
                   np.full(shape, float(h_star)), np.full(shape, float(a_star)))

    @classmethod
    def from_vector(cls, grid: Grid, vec: np.ndarray) -> "FieldSet":
        n = grid.n_nodes
        shape = (grid.ny, grid.nx)
        return cls(grid,
                   vec[0:n].reshape(shape).copy(),
                   vec[n:2 * n].reshape(shape).copy(),
                   vec[2 * n:3 * n].reshape(shape).copy(),
                   vec[3 * n:4 * n].reshape(shape).copy())

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.u1.ravel(), self.u2.ravel(),
                               self.h.ravel(), self.a.ravel()])

    def copy(self) -> "FieldSet":
        return FieldSet(self.grid, self.u1.copy(), self.u2.copy(),
                        self.h.copy(), self.a.copy())

    def validate(self, params: RheologyParams) -> "FieldSet":
        """Check invariants; raise InvalidStateError if one fails.

        The thickness floor and the compactness range are
        ``params.check_thickness`` and ``params.check_compactness``.
        Returns self, or a copy with a clamped into [0, 1]; self is unchanged.
        """
        shape = (self.grid.ny, self.grid.nx)
        for name in ("u1", "u2", "h", "a"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise InvalidStateError(f"{name} has shape {arr.shape}, want {shape}")
            if not np.isfinite(arr).all():
                raise InvalidStateError(f"{name} contains non-finite values")
        bnd = self.grid.boundary_mask()
        u1, u2 = self.u1[bnd], self.u2[bnd]
        if u1.any() or u2.any():  # -0.0 counts as 0.0, as in |u| != 0
            worst = float(max(np.abs(u1).max(), np.abs(u2).max()))
            raise InvalidStateError(
                f"velocity must vanish on the boundary, max |u| there = {worst!r}")
        check_thickness(self.h, params.kappa)
        check_compactness(self.a)
        if self.a.min() >= 0.0 and self.a.max() <= 1.0:  # a is finite here
            return self
        return replace(self, a=np.clip(self.a, 0.0, 1.0))


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

    def state(self, grid: Grid) -> FieldSet:
        return FieldSet.constant(grid, self.h_star, self.a_star)


def gradient(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Derivative of f along ``axis`` at spacing h: centered differences
    inside, one-sided second-order differences at both ends.

    ``np.gradient(f, h, axis=axis, edge_order=2)`` bit for bit: the same
    products, quotients and sums in the same order, on the same slices.
    What it leaves out is np.gradient's set-up (argument and dtype
    handling, slice tuples built per call), which costs more than the
    differences on a grid field.  f is a float array with at least three
    points along ``axis``; an axis f lacks raises IndexError.
    """
    lead = (slice(None),) * range(f.ndim)[axis]
    first, last = lead + (0,), lead + (-1,)
    out = np.empty_like(f)
    out[lead + (slice(1, -1),)] = (
        f[lead + (slice(2, None),)] - f[lead + (slice(None, -2),)]) / (2.0 * h)
    out[first] = ((-1.5 / h) * f[first] + (2.0 / h) * f[lead + (1,)]
                  + (-0.5 / h) * f[lead + (2,)])
    out[last] = ((0.5 / h) * f[lead + (-3,)] + (-2.0 / h) * f[lead + (-2,)]
                 + (1.5 / h) * f[last])
    return out


def strain_rate_field(fields: FieldSet) -> StrainRate:
    """Symmetric velocity gradient on all nodes.

    Centered second-order differences in the interior, one-sided
    second-order at boundary nodes: ``gradient`` along x and along y of the
    stacked (u1, u2).  That kernel equals ``np.gradient(..., edge_order=2)``
    bit for bit because it does numpy's floating-point operations, in
    numpy's order, on the same slices; only the set-up is left out.  A step
    computes this field once, when ``operators.coupled_terms`` freezes the
    coefficients at v_n.
    """
    g = fields.grid
    u = np.stack([fields.u1, fields.u2])
    du1_dx, du2_dx = gradient(u, g.dx, -1)
    du1_dy, du2_dy = gradient(u, g.dy, -2)
    return StrainRate(e11=du1_dx, e12=0.5 * (du1_dy + du2_dx), e22=du2_dy)
