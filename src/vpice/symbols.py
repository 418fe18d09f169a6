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

``ellipticity_report``, ``boundary_form_check`` and
``lopatinskii_shapiro_check`` take one state or a stack of K states with a
leading sample axis, and one state is checked as a stack of one.  Rows do
not interact: entry k of a stack's report depends only on state k and its
own draws.  Every draw is an array call on one generator, which a
command shares between its states (``rheology.sample_state(size=K)``) and
then all of a report's frequencies and all of its vectors, or all of the
probes' angles and lambdas.  Everything else is evaluated once on the
stack; only each probe's ordered Schur form is computed one at a time.
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
# an ellipticity sample passes when its symbol eigenvalues are positive, its
# relative coercivity margin (EllipticityReport.relative_margin) is
# >= COERCIVITY_MARGIN_MIN and its symbol is symmetric: the relative defect
# (EllipticityReport.relative_defect) is <= SYMMETRY_DEFECT_MAX
COERCIVITY_MARGIN_MIN = -1e-10
SYMMETRY_DEFECT_MAX = 1e-12
BOUNDARY_FORM_MIN = -1e-10  # rounding allowance of the form's ">= 0"


class RootBalanceError(VpiceError):
    """The stable/unstable root split of the boundary ODE is not 2/2."""


@dataclass(frozen=True)
class LSProbe:
    """Boundary-condition probes: orthonormal (xi, nu), Re lambda >= 0.

    One probe has xi, nu of shape (2,) and scalar lam, eps entries and p; a
    stack of K probes puts a leading axis of length K on each.
    """

    xi: np.ndarray
    nu: np.ndarray
    lam: complex
    eps: StrainRate
    p: float

    def validate(self):
        xi = np.reshape(self.xi, (-1, 2)).astype(float)
        nu = np.reshape(self.nu, (-1, 2)).astype(float)
        if (np.any(np.abs(np.sum(xi * xi, axis=-1) - 1.0) > PROBE_TOL)
                or np.any(np.abs(np.sum(nu * nu, axis=-1) - 1.0) > PROBE_TOL)):
            raise ValueError("probe directions must be unit vectors")
        if np.any(np.abs(np.sum(xi * nu, axis=-1)) > PROBE_TOL):
            raise ValueError("tangent and normal must be orthogonal")


@dataclass(frozen=True)
class EllipticityReport:
    """One state's report, or a stack's: then each float is a (K,) array."""

    min_eigenvalue: float
    min_coercivity_margin: float  # min of form - bound
    relative_margin: float  # min_coercivity_margin / max(|bound|, 1e-300)
    relative_defect: float  # max |A - A^T| / max(max |A|, 1e-300)
    n_samples: int  # per state

    @property
    def passes(self) -> bool:
        return ((self.min_eigenvalue > 0.0)
                & (self.relative_margin >= COERCIVITY_MARGIN_MIN)
                & (self.relative_defect <= SYMMETRY_DEFECT_MAX))


@dataclass(frozen=True)
class BoundaryFormReport:
    """One state's report, or a stack's: then every field but n_samples is
    a (K,) array."""

    min_form: float
    min_conditional_form: float  # inf when no sample is conditional
    n_samples: int  # per state
    n_conditional: int

    @property
    def passes(self) -> bool:
        return ((self.min_form >= BOUNDARY_FORM_MIN)
                & (self.min_conditional_form > 0.0))


@dataclass(frozen=True)
class LSResult:
    """One probe's result, or a stack's: then each field has a leading axis
    of length K.  A probe that fails holds its RootBalanceError in
    ``failure`` and NaN everywhere else."""

    s_min: float
    s_max: float
    stable_roots: np.ndarray = field(repr=False)
    unstable_roots: np.ndarray = field(repr=False)
    failure: RootBalanceError | None = None

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


def _draw_samples(rng, shape: tuple, n_samples: int, n_vectors: int) -> tuple:
    """n_samples draws for each state of a stack of the given shape: all
    angles theta on [0, 2 pi), then all n_vectors complex normal 2-vectors,
    real parts before imaginary parts.  Returns the unit frequencies
    xi = (cos theta, sin theta) (*shape, n, 2) and the vectors
    (n_vectors, *shape, n, 2)."""
    theta = 2.0 * np.pi * rng.random(shape + (n_samples,))
    normals = rng.standard_normal((n_vectors, 2) + shape + (n_samples, 2))
    xi = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    return xi, normals[:, 0] + 1j * normals[:, 1]


def _stack_of_states(eps: StrainRate, p) -> tuple:
    """The shape of the states, () for one, and eps and p as (K,) stacks."""
    values = np.broadcast_arrays(eps.e11, eps.e12, eps.e22, p)
    e11, e12, e22, p = (np.asarray(x, dtype=float).reshape(-1) for x in values)
    return values[0].shape, StrainRate(e11, e12, e22), p


def _unstack(values: np.ndarray, shape: tuple):
    """A (K, ...) result back in the shape of the states: a float, or a
    trailing-axes array, for one state."""
    return values.reshape(shape + values.shape[1:])[()]


def ellipticity_report(eps: StrainRate, p, params: RheologyParams,
                       n_samples: int, seed=0) -> EllipticityReport:
    """Sample unit frequencies and unit complex vectors at frozen states.

    Checks that the symbol is real symmetric, to SYMMETRY_DEFECT_MAX of its
    largest entry over the state's samples, with positive eigenvalues and
    that the quadratic form clears the quantitative lower bound
    (P / (2 Delta_delta^3)) delta / e^2.  ``seed`` is an int or the
    Generator to draw from (``np.random.default_rng`` passes one through);
    it draws n_samples for every state of the stack.  Reductions use
    min/max only, so a report is independent of evaluation order; a NaN
    sample makes it NaN.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    shape, eps, p = _stack_of_states(eps, p)
    # [state, sample, component]
    xi, (eta,) = _draw_samples(np.random.default_rng(seed), p.shape,
                               n_samples, 1)
    eta /= np.linalg.norm(eta, axis=-1, keepdims=True)
    # the state axis (K, 1) of a against the (K, n_samples) sample axes
    sym = symbol_polynomial(coefficient_tensor(eps, p, params)[..., None],
                            xi, xi)
    bound = coercivity_lower_bound(eps, p, params) * params.delta / params.e**2
    forms = np.real(np.einsum("...i,...ij,...j->...", eta.conj(), sym, eta))
    min_margin = (forms - bound[:, None]).min(axis=-1)
    defect = np.abs(sym - sym.swapaxes(-1, -2)).max(axis=(-3, -2, -1))
    size = np.abs(sym).max(axis=(-3, -2, -1))
    return EllipticityReport(
        _unstack(np.linalg.eigvalsh(sym)[..., 0].min(axis=-1), shape),
        _unstack(min_margin, shape),
        _unstack(min_margin / np.maximum(np.abs(bound), 1e-300), shape),
        _unstack(defect / np.maximum(size, 1e-300), shape),
        n_samples)


def boundary_form(a: np.ndarray, xi, nu, u, v):
    """Re sum a_ij^kl (xi_l u_j - nu_l v_j) conj(xi_k u_i - nu_k v_i).

    Batched like ``symbol_polynomial``: the state axes of a broadcast
    against the leading axes of the (..., 2) vectors xi, nu, u and v.
    """
    b = (np.einsum("...j,...l->...jl", u, xi)
         - np.einsum("...j,...l->...jl", v, nu))
    return np.real(np.einsum("ijkl...,...jl,...ik->...", a, b, b.conj()))


def boundary_form_check(eps: StrainRate, p, params: RheologyParams,
                        n_samples: int, seed=0) -> BoundaryFormReport:
    """Worst-case margins of the boundary form over random samples, for one
    state or a stack of them; ``seed`` as in ``ellipticity_report``.

    The form must be >= 0 always and strictly positive whenever
    |Im (u | v)| > IM_THRESHOLD |u| |v|.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    shape, eps, p = _stack_of_states(eps, p)
    # [state, sample, component]
    xi, (u, v) = _draw_samples(np.random.default_rng(seed), p.shape,
                               n_samples, 2)
    nu = np.stack([-xi[..., 1], xi[..., 0]], axis=-1)
    forms = boundary_form(coefficient_tensor(eps, p, params)[..., None],
                          xi, nu, u, v)
    # Im (u | v) with (u | v) = sum u conj(v)
    im_uv = np.abs(np.imag(np.sum(u * v.conj(), axis=-1)))
    conditional = im_uv > (IM_THRESHOLD * np.linalg.norm(u, axis=-1)
                           * np.linalg.norm(v, axis=-1))
    return BoundaryFormReport(
        _unstack(forms.min(axis=-1), shape),
        _unstack(np.where(conditional, forms, np.inf).min(axis=-1), shape),
        n_samples, _unstack(conditional.sum(axis=-1), shape))


def _companion_matrix(a: np.ndarray, lam, xi, nu) -> tuple:
    """First-order linearization of the half-line ODE, and where it fails.

    With w(y) = w0 exp(mu y) the ODE reads
    (C0 + mu C1 + mu^2 C2) w0 = 0 where C0 = lambda I + Q(xi, xi),
    C1 = i (Q(xi, nu) + Q(nu, xi)), C2 = -Q(nu, nu).  Q(nu, nu) is positive
    definite for unit nu, so C2 is invertible; the mask returned with the
    (..., 4, 4) matrices marks the probes where it is not in floating point,
    and their matrices are NaN.  Batched like ``symbol_polynomial``.
    """
    c0 = np.asarray(lam)[..., None, None] * np.eye(2) + symbol_polynomial(
        a, xi, xi)
    c1 = 1j * (symbol_polynomial(a, xi, nu) + symbol_polynomial(a, nu, xi))
    c2 = -symbol_polynomial(a, nu, nu)
    singular = np.zeros(c2.shape[:-2], dtype=bool)
    try:
        c2_inv = np.linalg.inv(c2)
    except np.linalg.LinAlgError:  # some C2 is singular: find which
        c2_inv = np.full_like(c2, np.nan)
        for index in np.ndindex(singular.shape):
            try:
                c2_inv[index] = np.linalg.inv(c2[index])
            except np.linalg.LinAlgError:
                singular[index] = True
    m = np.zeros(c0.shape[:-2] + (4, 4), dtype=complex)
    m[..., 0, 2] = m[..., 1, 3] = 1.0
    m[..., 2:, :2] = -c2_inv @ c0
    m[..., 2:, 2:] = -c2_inv @ c1
    return m, singular


def sample_ls_probes(rng, params: RheologyParams, n: int,
                     lambda_re_min: float = 0.0, h_star: float = 1.0):
    """n random probes at ``sample_state(size=n)`` states, then all tangent
    angles theta, all Re lambda, Im lambda and exponents of lambda's scale:
    (stack of the probes, theta).  lambda = (lambda_re_min + U(0, 1)
    + i U(-1, 1)) 10^U(-2, 2), so Re lambda >= lambda_re_min / 100."""
    eps, _, _, p = sample_state(rng, params, h_star, size=n)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    re, im = rng.uniform(0.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    scale = 10.0 ** rng.uniform(-2, 2, n)
    with np.errstate(over="ignore"):  # an infinite lambda fails its probe
        lam = (lambda_re_min + re + 1j * im) * scale
    xi = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    nu = np.stack([-xi[:, 1], xi[:, 0]], axis=-1)
    return LSProbe(xi, nu, lam, eps, p), theta


def lopatinskii_shapiro_check(probe: LSProbe, params: RheologyParams) -> LSResult:
    """Smallest singular value of the Dirichlet trace on the stable subspace,
    for one probe or a stack of them.

    A probe fails with a RootBalanceError, kept in its result's ``failure``
    so that the other probes of a stack are still checked, if Re lambda < 0
    (hypothesis violated), if C2 is singular or the companion matrix is not
    finite, if LAPACK finds no ordered Schur form, or if the four roots of
    det(lambda I + A_#(xi + i mu nu)) = 0 do not split cleanly two/two
    across the imaginary axis (roots with |Re mu| <= SPLIT_TOL |mu| count as
    a failed split, never as silently classified).
    """
    probe.validate()
    shape, eps, p = _stack_of_states(probe.eps, probe.p)
    lam = np.asarray(probe.lam, dtype=complex).reshape(-1)
    m, singular = _companion_matrix(coefficient_tensor(eps, p, params), lam,
                                    np.reshape(probe.xi, (-1, 2)),
                                    np.reshape(probe.nu, (-1, 2)))
    failure = np.full(lam.shape, None, dtype=object)

    def fail(mask, message):
        for k in np.flatnonzero(mask):
            if failure[k] is None:
                failure[k] = RootBalanceError(message(k))

    fail(lam.real < 0.0, lambda k:
         f"Re lambda must be >= 0, got lambda = {complex(lam[k])!r}")
    fail(singular, lambda k: "C2 = -Q(nu, nu) is singular")
    fail(~np.isfinite(m).all(axis=(-2, -1)),
         lambda k: "companion matrix is not finite")
    # the roots on the Schur diagonal, stable first; z's leading columns are
    # an orthonormal basis of the stable invariant subspace.  The LAPACK
    # calls of sla.schur(m, output="complex", sort=...), without its input
    # checks (m is finite, complex and 4x4) and with one workspace query
    roots = np.full(lam.shape + (4,), np.nan, dtype=complex)
    trace = np.full(lam.shape + (2, 2), np.nan, dtype=complex)
    lwork = int(sla.lapack.zgees(lambda x: None, np.eye(4, dtype=complex),
                                 lwork=-1)[-2][0].real)
    for k in np.flatnonzero(np.equal(failure, None)):
        t, _, _, z, _, info = sla.lapack.zgees(
            lambda x: x.real < 0.0, m[k], lwork=lwork, overwrite_a=True,
            sort_t=1)
        if info:
            failure[k] = RootBalanceError(
                f"no ordered Schur form (zgees info {info})")
        else:
            roots[k], trace[k] = t.diagonal(), z[:2, :2]
    on_axis = np.abs(roots.real) <= SPLIT_TOL * np.maximum(np.abs(roots), 1e-300)
    fail(on_axis.any(axis=-1),
         lambda k: f"roots too close to the imaginary axis: {roots[k]!r}")
    n_stable = np.sum(roots.real < 0.0, axis=-1)
    n_unstable = np.sum(roots.real > 0.0, axis=-1)
    fail((n_stable != 2) | (n_unstable != 2), lambda k:
         f"stable/unstable split is {n_stable[k]}/{n_unstable[k]}, "
         f"roots {roots[k]!r}")

    ok = np.equal(failure, None)
    # sorted by real part first: a 2/2 split puts the stable pair in front
    roots = np.sort(roots, axis=-1)
    roots[~ok] = np.nan
    svals = np.full(lam.shape + (2,), np.nan)
    svals[ok] = np.linalg.svd(trace[ok], compute_uv=False)
    return LSResult(_unstack(svals[:, -1], shape), _unstack(svals[:, 0], shape),
                    _unstack(roots[:, :2], shape), _unstack(roots[:, 2:], shape),
                    _unstack(failure, shape))
