"""Principal symbol, ellipticity margins and the Dirichlet boundary condition.

The frozen-coefficient operator has principal symbol

    A_#(xi)_ij = sum_kl a_ij^kl xi_k xi_l = symbol_polynomial(a, xi, xi),

a real symmetric positive definite 2x2 matrix for real xi != 0.  This module
verifies, by deterministic seeded sampling (each report's ``passes``
property is its pass rule),

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

One ordered complex Schur form of the companion linearization gives both
the roots, on its diagonal, and the stable invariant subspace, spanned by
its leading columns including generalized eigendirections, so multiple
stable roots need no special case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .params import RheologyParams, VpiceError
from .rheology import (
    StrainRate,
    coefficient_tensor,
    coercivity_lower_bound,
    sample_state,
)

PROBE_TOL = 1e-12  # unit length and orthogonality of an LSProbe's (xi, nu)
IM_THRESHOLD = 1e-6  # |Im (u | v)| / (|u| |v|) beyond which the form is > 0
SPLIT_TOL = 1e-9  # roots with |Re mu| <= SPLIT_TOL |mu| fail the 2/2 split
# Each report's ``passes`` property is its pass rule; NaN fails every one.
LS_MIN_RATIO = 1e-8  # an LS probe passes when s_min / s_max > LS_MIN_RATIO
# an ellipticity sample passes when its symbol eigenvalues are positive and
# its relative coercivity margin (EllipticityReport.relative_margin) is
# >= COERCIVITY_MARGIN_MIN
COERCIVITY_MARGIN_MIN = -1e-10
BOUNDARY_FORM_MIN = -1e-10  # rounding allowance of the form's ">= 0"


class RootBalanceError(VpiceError):
    """The stable/unstable root split of the boundary ODE is not 2/2."""


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

    @property
    def passes(self) -> bool:
        return (self.min_eigenvalue > 0.0
                and self.relative_margin >= COERCIVITY_MARGIN_MIN)


@dataclass(frozen=True)
class BoundaryFormReport:
    min_form: float
    min_conditional_form: float
    n_samples: int
    n_conditional: int

    @property
    def passes(self) -> bool:
        return (self.min_form >= BOUNDARY_FORM_MIN
                and self.min_conditional_form > 0.0)


@dataclass(frozen=True)
class LSResult:
    s_min: float
    s_max: float
    stable_roots: np.ndarray = field(repr=False)
    unstable_roots: np.ndarray = field(repr=False)

    @property
    def margin(self) -> float:
        return self.s_min - LS_MIN_RATIO * self.s_max

    @property
    def passes(self) -> bool:
        return self.margin > 0.0


def symbol_polynomial(a: np.ndarray, left, right) -> np.ndarray:
    """Bilinear symbol Q_ij(p, q) = sum_kl a_ij^kl p_k q_l, of shape (..., 2, 2).

    The principal symbol is A_#(xi) = Q(xi, xi); complex p, q are contracted
    without conjugation.  The trailing state axes of a (2, 2, 2, 2, ...)
    broadcast against the leading axes of p and q (..., 2).
    """
    return np.einsum("ijkl...,...k,...l->...ij", a, left, right)


def _draw_samples(rng, n_samples: int, n_vectors: int) -> tuple:
    """Draws one sample at a time: theta on [0, 2 pi), then n_vectors complex
    normal 2-vectors, each as its real and then its imaginary part.
    Returns the unit frequencies xi = (cos theta, sin theta) (n, 2) and the
    vectors (n_vectors, n, 2)."""
    unit = np.empty(n_samples)
    # [vector, real/imaginary, sample, component]: one sample's normals in
    # the order drawn, and each vector's parts C-ordered for the sum below
    normals = np.empty((n_vectors, 2, n_samples, 2))
    for index in range(n_samples):
        unit[index] = rng.random()
        normals[:, :, index] = rng.normal(size=(n_vectors, 2, 2))
    # rng.uniform(0, 2 pi) is 0 + 2 pi * rng.random(): the same draw and double
    theta = 2.0 * np.pi * unit
    xi = np.empty((n_samples, 2))
    xi[:, 0] = np.cos(theta)
    xi[:, 1] = np.sin(theta)
    return xi, normals[:, 0] + 1j * normals[:, 1]


def ellipticity_report(eps: StrainRate, p, params: RheologyParams,
                       n_samples: int, seed: int = 0) -> EllipticityReport:
    """Sample unit frequencies and unit complex vectors at one frozen state.

    Checks that the symbol is real symmetric with positive eigenvalues and
    that the quadratic form clears the quantitative lower bound
    (P / (2 Delta_delta^3)) delta / e^2.  Reductions use min/max only, so the
    report is independent of evaluation order; a NaN sample makes it NaN.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    xi, (eta,) = _draw_samples(np.random.default_rng(seed), n_samples, 1)
    eta /= np.linalg.norm(eta, axis=-1, keepdims=True)
    sym = symbol_polynomial(coefficient_tensor(eps, p, params), xi, xi)
    bound = coercivity_lower_bound(eps, p, params) * params.delta / params.e**2
    forms = np.real(np.einsum("ni,nij,nj->n", eta.conj(), sym, eta))
    min_margin = float((forms - bound).min())
    return EllipticityReport(
        float(np.linalg.eigvalsh(sym)[:, 0].min()), min_margin,
        min_margin / max(abs(bound), 1e-300),
        float(np.abs(sym - sym.swapaxes(-1, -2)).max()), n_samples)


def boundary_form(a: np.ndarray, xi, nu, u, v):
    """Re sum a_ij^kl (xi_l u_j - nu_l v_j) conj(xi_k u_i - nu_k v_i).

    Batched like ``symbol_polynomial``: the state axes of a broadcast
    against the leading axes of the (..., 2) vectors xi, nu, u and v.
    """
    b = (np.einsum("...j,...l->...jl", u, xi)
         - np.einsum("...j,...l->...jl", v, nu))
    return np.real(np.einsum("ijkl...,...jl,...ik->...", a, b, b.conj()))


def boundary_form_check(eps: StrainRate, p, params: RheologyParams,
                        n_samples: int, seed: int = 0) -> BoundaryFormReport:
    """Worst-case margins of the boundary form over random samples.

    The form must be >= 0 always and strictly positive whenever
    |Im (u | v)| > IM_THRESHOLD |u| |v|.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    xi, (u, v) = _draw_samples(np.random.default_rng(seed), n_samples, 2)
    nu = np.stack([-xi[:, 1], xi[:, 0]], axis=-1)
    forms = boundary_form(coefficient_tensor(eps, p, params), xi, nu, u, v)
    # Im (u | v) with (u | v) = sum u conj(v)
    im_uv = np.abs(np.imag(np.sum(u * v.conj(), axis=-1)))
    conditional = im_uv > (IM_THRESHOLD * np.linalg.norm(u, axis=-1)
                           * np.linalg.norm(v, axis=-1))
    return BoundaryFormReport(float(np.min(forms, initial=np.inf)),
                              float(np.min(forms[conditional], initial=np.inf)),
                              n_samples, int(np.sum(conditional)))


def _companion_matrix(a: np.ndarray, lam: complex, xi, nu) -> np.ndarray:
    """First-order linearization of the half-line ODE.

    With w(y) = w0 exp(mu y) the ODE reads
    (C0 + mu C1 + mu^2 C2) w0 = 0 where C0 = lambda I + Q(xi, xi),
    C1 = i (Q(xi, nu) + Q(nu, xi)), C2 = -Q(nu, nu).  Q(nu, nu) is positive
    definite for unit nu, so C2 is invertible; at states where it is not in
    floating point, or the matrix is not finite, RootBalanceError.
    """
    c0 = lam * np.eye(2) + symbol_polynomial(a, xi, xi)
    c1 = 1j * (symbol_polynomial(a, xi, nu) + symbol_polynomial(a, nu, xi))
    c2 = -symbol_polynomial(a, nu, nu)
    try:
        c2_inv = np.linalg.inv(c2)
    except np.linalg.LinAlgError as exc:
        raise RootBalanceError("C2 = -Q(nu, nu) is singular") from exc
    m = np.zeros((4, 4), dtype=complex)
    m[0, 2] = m[1, 3] = 1.0
    m[2:, :2] = -c2_inv @ c0
    m[2:, 2:] = -c2_inv @ c1
    if not np.isfinite(m).all():
        raise RootBalanceError("companion matrix is not finite")
    return m


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
    count as a failed split, never as silently classified), or if LAPACK
    finds no ordered Schur form.
    """
    probe.validate()
    if np.real(probe.lam) < 0.0:
        raise RootBalanceError(
            f"Re lambda must be >= 0, got lambda = {probe.lam!r}")
    a = coefficient_tensor(probe.eps, probe.p, params)
    m = _companion_matrix(a, complex(probe.lam), probe.xi, probe.nu)
    # the roots on the diagonal, stable first; z's leading columns are an
    # orthonormal basis of the stable invariant subspace.  The two LAPACK
    # calls of sla.schur(m, output="complex", sort=...), without its input
    # checks: m is finite, complex and 4x4, and is not read again.
    lwork = int(sla.lapack.zgees(lambda x: None, m, lwork=-1)[-2][0].real)
    t, _, _, z, _, info = sla.lapack.zgees(
        lambda x: x.real < 0.0, m, lwork=lwork, overwrite_a=True, sort_t=1)
    if info:
        raise RootBalanceError(f"no ordered Schur form (zgees info {info})")
    roots = t.diagonal()
    mags = np.abs(roots)
    on_axis = np.abs(roots.real) <= SPLIT_TOL * np.maximum(mags, 1e-300)
    if on_axis.any():
        raise RootBalanceError(
            f"roots too close to the imaginary axis: {roots!r}")
    stable = roots[roots.real < 0.0]
    unstable = roots[roots.real > 0.0]
    if len(stable) != 2 or len(unstable) != 2:
        raise RootBalanceError(
            f"stable/unstable split is {len(stable)}/{len(unstable)}, "
            f"roots {roots!r}")
    svals = np.linalg.svd(z[:2, :2], compute_uv=False)
    return LSResult(float(svals[-1]), float(svals[0]),
                    np.sort(stable), np.sort(unstable))
