"""Principal symbol, ellipticity margins and the Dirichlet boundary condition.

The frozen-coefficient operator has principal symbol

    A_#(xi)_ij = sum_kl a_ij^kl xi_k xi_l,

a real symmetric positive definite 2x2 matrix for real xi != 0.  This module
verifies, by deterministic seeded sampling,

  * strong ellipticity: Re (A_#(xi) eta | eta) >=
    (P / (2 Delta_delta^3)) delta / e^2 |xi|^2 |eta|^2,
  * nonnegativity (and conditional strict positivity) of the boundary
    sesquilinear form built from tangent/normal pairs, and
  * the boundary-value condition on the half line: substituting decaying
    modes w(y) = w0 exp(mu y) into

        (lambda + A_#(xi + i mu nu)) w0 = 0

    yields a quartic in mu whose roots split two/two across the imaginary
    axis whenever Re lambda >= 0 and |lambda| + |xi| != 0; the Dirichlet
    trace of the stable solution space must be nonsingular.

Multiple stable roots are handled through the ordered complex Schur form of
the companion linearization, whose leading columns span the stable invariant
subspace including generalized eigendirections.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .params import RheologyParams
from .rheology import (
    StrainRate,
    coefficient_tensor,
    coercivity_lower_bound,
    sample_state,
)

PROBE_TOL = 1e-12  # unit length and orthogonality of an LSProbe's (xi, nu)
IM_THRESHOLD = 1e-6  # |Im (u | v)| / (|u| |v|) beyond which the form is > 0
SPLIT_TOL = 1e-9  # roots with |Re mu| <= SPLIT_TOL |mu| fail the 2/2 split
LS_MIN_RATIO = 1e-8  # an LS probe passes when s_min / s_max > LS_MIN_RATIO
# an ellipticity sample passes when its relative coercivity margin
# (EllipticityReport.relative_margin) is >= COERCIVITY_MARGIN_MIN
COERCIVITY_MARGIN_MIN = -1e-10


class RootBalanceError(RuntimeError):
    """The stable/unstable root split of the boundary ODE is not 2/2."""


@dataclass(frozen=True)
class SymbolMatrix:
    """Principal symbol at a frozen state and frequency."""

    matrix: np.ndarray
    eps: StrainRate
    p: float
    xi: np.ndarray


@dataclass(frozen=True)
class LSProbe:
    """One boundary-condition probe: orthonormal (xi, nu), Re lambda >= 0."""

    xi: np.ndarray
    nu: np.ndarray
    lam: complex
    eps: StrainRate
    p: float

    def validate(self):
        xi = np.asarray(self.xi, dtype=float)
        nu = np.asarray(self.nu, dtype=float)
        if (abs(np.dot(xi, xi) - 1.0) > PROBE_TOL
                or abs(np.dot(nu, nu) - 1.0) > PROBE_TOL):
            raise ValueError("probe directions must be unit vectors")
        if abs(np.dot(xi, nu)) > PROBE_TOL:
            raise ValueError("tangent and normal must be orthogonal")


@dataclass(frozen=True)
class EllipticityReport:
    min_eigenvalue: float
    min_coercivity_margin: float  # min of form - bound
    relative_margin: float  # min_coercivity_margin / max(|bound|, 1e-300)
    max_hermitian_defect: float
    n_samples: int


@dataclass(frozen=True)
class BoundaryFormReport:
    min_form: float
    min_conditional_form: float
    n_samples: int
    n_conditional: int


@dataclass(frozen=True)
class LSResult:
    s_min: float
    s_max: float
    stable_roots: np.ndarray = field(repr=False)
    unstable_roots: np.ndarray = field(repr=False)


def principal_symbol(eps: StrainRate, p, xi, params: RheologyParams) -> SymbolMatrix:
    """Assemble A_#(xi) from the six independent coefficients.

    For complex xi (used by the boundary ODE) the same polynomial contraction
    applies entrywise without conjugation.
    """
    a = coefficient_tensor(eps, p, params)
    xi = np.asarray(xi)
    a1111 = a[0, 0, 0, 0]
    a1112 = a[0, 0, 0, 1]
    a1122 = a[0, 0, 1, 1]
    a1212 = a[0, 1, 0, 1]
    a1222 = a[0, 1, 1, 1]
    a2222 = a[1, 1, 1, 1]
    x1, x2 = xi[0], xi[1]
    m11 = a1111 * x1**2 + 2.0 * a1112 * x1 * x2 + a1122 * x2**2
    m12 = a1112 * x1**2 + (a1212 + a1122) * x1 * x2 + a1222 * x2**2
    m22 = a1122 * x1**2 + 2.0 * a1222 * x1 * x2 + a2222 * x2**2
    return SymbolMatrix(np.array([[m11, m12], [m12, m22]]), eps, p, xi)


def symbol_polynomial(a: np.ndarray, left, right) -> np.ndarray:
    """Bilinear symbol Q_ij(p, q) = sum_kl a_ij^kl p_k q_l."""
    return np.einsum("ijkl,k,l->ij", a, np.asarray(left), np.asarray(right))


def ellipticity_report(eps: StrainRate, p, params: RheologyParams,
                       n_samples: int, seed: int = 0) -> EllipticityReport:
    """Sample unit frequencies and unit complex vectors at one frozen state.

    Checks that the symbol is real symmetric with positive eigenvalues and
    that the quadratic form clears the quantitative lower bound
    (P / (2 Delta_delta^3)) delta / e^2.  Reductions use min/max only, so the
    report is independent of evaluation order.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    bound = coercivity_lower_bound(eps, p, params) * params.delta / params.e**2
    min_eig = np.inf
    min_margin = np.inf
    max_defect = 0.0
    for _ in range(n_samples):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        xi = np.array([np.cos(theta), np.sin(theta)])
        sym = principal_symbol(eps, p, xi, params).matrix
        max_defect = max(max_defect, float(np.max(np.abs(sym - sym.T))))
        eigs = np.linalg.eigvalsh(sym)
        min_eig = min(min_eig, float(eigs[0]))
        eta = rng.normal(size=2) + 1j * rng.normal(size=2)
        eta /= np.linalg.norm(eta)
        form = float(np.real(np.vdot(eta, sym @ eta)))
        min_margin = min(min_margin, form - bound)
    return EllipticityReport(min_eig, min_margin,
                             min_margin / max(abs(bound), 1e-300),
                             max_defect, n_samples)


def boundary_form(a: np.ndarray, xi, nu, u, v) -> float:
    """Re sum a_ij^kl (xi_l u_j - nu_l v_j) conj(xi_k u_i - nu_k v_i)."""
    xi = np.asarray(xi, dtype=float)
    nu = np.asarray(nu, dtype=float)
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    b = np.einsum("j,l->jl", u, xi) - np.einsum("j,l->jl", v, nu)
    return float(np.real(np.einsum("ijkl,jl,ik->", a, b, b.conj())))


def boundary_form_check(eps: StrainRate, p, params: RheologyParams,
                        n_samples: int, seed: int = 0) -> BoundaryFormReport:
    """Worst-case margins of the boundary form over random samples.

    The form must be >= 0 always and strictly positive whenever
    |Im (u | v)| > IM_THRESHOLD |u| |v|.
    """
    rng = np.random.default_rng(seed)
    a = coefficient_tensor(eps, p, params)
    min_form = np.inf
    min_cond = np.inf
    n_cond = 0
    for _ in range(n_samples):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        xi = np.array([np.cos(theta), np.sin(theta)])
        nu = np.array([-np.sin(theta), np.cos(theta)])
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        value = boundary_form(a, xi, nu, u, v)
        min_form = min(min_form, value)
        im_uv = abs(np.imag(np.vdot(v, u)))  # Im (u | v) with (u|v) = sum u conj(v)
        if im_uv > IM_THRESHOLD * np.linalg.norm(u) * np.linalg.norm(v):
            n_cond += 1
            min_cond = min(min_cond, value)
    return BoundaryFormReport(min_form, min_cond, n_samples, n_cond)


def _companion_matrix(a: np.ndarray, lam: complex, xi, nu) -> np.ndarray:
    """First-order linearization of the half-line ODE.

    With w(y) = w0 exp(mu y) the ODE reads
    (C0 + mu C1 + mu^2 C2) w0 = 0 where C0 = lambda I + Q(xi, xi),
    C1 = i (Q(xi, nu) + Q(nu, xi)), C2 = -Q(nu, nu).  Q(nu, nu) is positive
    definite for unit nu, so C2 is invertible.
    """
    c0 = lam * np.eye(2) + symbol_polynomial(a, xi, xi)
    c1 = 1j * (symbol_polynomial(a, xi, nu) + symbol_polynomial(a, nu, xi))
    c2 = -symbol_polynomial(a, nu, nu)
    c2_inv = np.linalg.inv(c2)
    top = np.hstack([np.zeros((2, 2)), np.eye(2)])
    bottom = np.hstack([-c2_inv @ c0, -c2_inv @ c1])
    return np.vstack([top, bottom]).astype(complex)


def sample_ls_probe(rng, params: RheologyParams, lambda_re_min: float = 0.0,
                    h_star: float = 1.0):
    """Random probe at a ``sample_state`` draw, and its tangent angle theta."""
    eps, _, _, p = sample_state(rng, params, h_star)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    lam = complex(lambda_re_min + rng.uniform(0.0, 1.0),
                  rng.uniform(-1.0, 1.0)) * 10 ** rng.uniform(-2, 2)
    xi = np.array([np.cos(theta), np.sin(theta)])
    return LSProbe(xi, np.array([-xi[1], xi[0]]), lam, eps, p), theta


def lopatinskii_shapiro_check(probe: LSProbe, params: RheologyParams) -> LSResult:
    """Smallest singular value of the Dirichlet trace on the stable subspace.

    Raises RootBalanceError if Re lambda < 0 (hypothesis violated) or if the
    four roots of det(lambda I + A_#(xi + i mu nu)) = 0 do not split cleanly
    two/two across the imaginary axis (roots with |Re mu| <= SPLIT_TOL |mu|
    count as a failed split, never as silently classified).
    """
    probe.validate()
    if np.real(probe.lam) < 0.0:
        raise RootBalanceError(
            f"Re lambda must be >= 0, got lambda = {probe.lam!r}")
    a = coefficient_tensor(probe.eps, probe.p, params)
    m = _companion_matrix(a, complex(probe.lam), probe.xi, probe.nu)
    roots = np.linalg.eigvals(m)
    mags = np.abs(roots)
    on_axis = np.abs(roots.real) <= SPLIT_TOL * np.maximum(mags, 1e-300)
    if np.any(on_axis):
        raise RootBalanceError(
            f"roots too close to the imaginary axis: {roots!r}")
    stable = roots[roots.real < 0.0]
    unstable = roots[roots.real > 0.0]
    if len(stable) != 2 or len(unstable) != 2:
        raise RootBalanceError(
            f"stable/unstable split is {len(stable)}/{len(unstable)}, "
            f"roots {roots!r}")
    # orthonormal basis of the stable invariant subspace (ordered Schur);
    # handles defective eigenvalues through generalized eigendirections
    _, z, sdim = sla.schur(m, output="complex", sort=lambda x: x.real < 0.0)
    if sdim != 2:
        raise RootBalanceError(f"Schur stable dimension {sdim} != 2")
    trace_matrix = z[:2, :2]
    svals = np.linalg.svd(trace_matrix, compute_uv=False)
    return LSResult(float(svals[-1]), float(svals[0]),
                    np.sort_complex(stable), np.sort_complex(unstable))
