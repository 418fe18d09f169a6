"""Pointwise viscous-plastic constitutive law.

Implements Hibler's rheology in its regularized form: the linear map S
acting on 2x2 deformation tensors, the deformation measure
Delta^2(eps) = eps^T S eps and its regularization Delta_delta =
sqrt(delta + Delta^2), the ice strength P(h, a) = p* h exp(-c(1-a)),
bulk/shear viscosities, the regularized stress

    sigma_delta = 2 eta eps + (zeta - eta) tr(eps) I - (P/2) I
                = (P/2) S eps / Delta_delta - (P/2) I,

and the quasilinear coefficient tensor

    a_ij^kl = (P / (2 Delta_delta)) (S_ij^kl
              - (S eps)_ik (S eps)_jl / Delta_delta^2),

which is exactly the Jacobian of the stress part (P/2) S eps / Delta_delta
with respect to the full 2x2 deformation tensor.

S is written out only in ``s_tensor`` (its 4x4 form) and ``s_map``; a general
2x2 matrix enters through its symmetric part, ``StrainRate.from_matrix``.

Every function broadcasts over numpy arrays, so a StrainRate whose entries
are (ny, nx) fields is processed nodewise in one call.  All functions are
pure; the only state is ``s_tensor``'s read-only result, kept per
parameter set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .params import InvalidStateError, RheologyParams, check_compactness

FD_REL_STEP = 1e-6  # central-difference step of strain_derivative_gap, relative


@dataclass(frozen=True)
class StrainRate:
    """Symmetric 2x2 deformation tensor, entries in s^-1.

    e21 is identified with e12.  Entries may be scalars or equally shaped
    numpy arrays (fields).
    """

    e11: object
    e12: object
    e22: object

    @property
    def eps_i(self):
        """First invariant e11 + e22 (divergence)."""
        return self.e11 + self.e22

    @property
    def eps_ii(self):
        """Second invariant e11 - e22."""
        return self.e11 - self.e22

    @property
    def eps_iii(self):
        """Third invariant e12 (shear)."""
        return self.e12

    @classmethod
    def from_matrix(cls, m) -> "StrainRate":
        """Symmetric part of a general (..., 2, 2) matrix m.

        S m and Delta(m) depend on sym(m) only, so every general-matrix
        evaluation goes through this."""
        m = np.asarray(m)
        return cls(m[..., 0, 0], 0.5 * (m[..., 0, 1] + m[..., 1, 0]), m[..., 1, 1])

    def as_matrix(self) -> np.ndarray:
        """Dense (..., 2, 2) representation."""
        return _symmetric_matrix(self.e11, self.e12, self.e22)


@dataclass(frozen=True)
class Stress2x2:
    """Symmetric 2x2 stress tensor, entries in N m^-2."""

    s11: object
    s12: object
    s22: object

    @property
    def trace(self):
        return self.s11 + self.s22

    def as_matrix(self) -> np.ndarray:
        """Dense (..., 2, 2) representation."""
        return _symmetric_matrix(self.s11, self.s12, self.s22)


def _symmetric_matrix(x11, x12, x22) -> np.ndarray:
    """The (..., 2, 2) float matrix [[x11, x12], [x12, x22]]."""
    x11, x12, x22 = np.broadcast_arrays(x11, x12, x22)
    return np.stack([x11, x12, x12, x22], axis=-1,
                    dtype=float).reshape(x11.shape + (2, 2))


class YieldDiagnostics(NamedTuple):
    sigma_d: object
    sigma_s: object
    ellipse_residual: object


@lru_cache(maxsize=32)
def s_tensor(params: RheologyParams) -> np.ndarray:
    """The map S as a (2, 2, 2, 2) array, indexed S[i, j, k, l] = S_ij^kl.

    Contractions pair (i, k) against (j, l):
    Delta^2(eps) = sum eps_ik S_ij^kl eps_jl and
    (S eps)_ik = sum_jl S_ij^kl eps_jl.  Built once per parameter set,
    C-contiguous and read-only.
    """
    q = 1.0 / params.e**2
    # 4x4 form in (11, 12, 21, 22) vector order, rows (i,k), cols (j,l)
    s4 = np.array([
        [1.0 + q, 0.0, 0.0, 1.0 - q],
        [0.0, q, q, 0.0],
        [0.0, q, q, 0.0],
        [1.0 - q, 0.0, 0.0, 1.0 + q],
    ])
    s = np.ascontiguousarray(s4.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3))
    s.flags.writeable = False
    return s


def s_map(eps: StrainRate, params: RheologyParams) -> Stress2x2:
    """Apply S to a symmetric tensor.

    S eps = (2/e^2) eps + (1 - 1/e^2) tr(eps) I, i.e.

        [[(1+1/e^2) e11 + (1-1/e^2) e22,   (2/e^2) e12],
         [(2/e^2) e12,   (1-1/e^2) e11 + (1+1/e^2) e22]].
    """
    q = 1.0 / params.e**2
    return Stress2x2(
        s11=(1.0 + q) * eps.e11 + (1.0 - q) * eps.e22,
        s12=2.0 * q * eps.e12,
        s22=(1.0 - q) * eps.e11 + (1.0 + q) * eps.e22,
    )


def delta_sq(eps: StrainRate, params: RheologyParams):
    """Deformation measure Delta^2(eps) = eps_I^2 + (eps_II^2 + 4 eps_III^2)/e^2.

    Equals the quadratic form eps^T S eps; nonnegative.
    """
    q = 1.0 / params.e**2
    # squares as products: a scalar ** goes through libm pow, whose last bit
    # differs from x * x, so a state and a stack of states would round apart
    eps_i, eps_ii, eps_iii = eps.eps_i, eps.eps_ii, eps.eps_iii
    return eps_i * eps_i + q * (eps_ii * eps_ii + 4.0 * (eps_iii * eps_iii))


def delta_reg(eps: StrainRate, params: RheologyParams):
    """Regularized deformation measure sqrt(delta + Delta^2(eps)) >= sqrt(delta)."""
    return np.sqrt(params.delta + delta_sq(eps, params))


def pressure(h, a, params: RheologyParams):
    """Ice strength P(h, a) = p* h exp(-c (1 - a)).

    h must be nonnegative and a must lie in [0, 1]; values of a within
    STATE_SLACK outside that interval are clamped (floating-point drift),
    larger excursions raise InvalidStateError (``check_compactness``).
    """
    h = np.asarray(h, dtype=float)
    a = np.asarray(a, dtype=float)
    # fmin skips NaN, as in check_compactness
    if np.fmin.reduce(h, axis=None, initial=np.inf) < 0.0:
        raise InvalidStateError(
            f"thickness must be >= 0, min was {float(h.min())!r}")
    check_compactness(a)
    a = a.clip(0.0, 1.0)
    out = params.p_star * h * np.exp(-params.c * (1.0 - a))
    return out[()] if out.ndim == 0 else out


def pressure_derivatives(h, a, params: RheologyParams, p=None):
    """Partials (dP/dh, dP/da) = (p* exp(-c(1-a)), c P); no singularity at h = 0.

    ``p`` is ``pressure(h, a, params)`` when the caller holds it (the step
    computes P once per state); it is computed here otherwise."""
    if p is None:
        p = pressure(h, a, params)
    a = np.asarray(a, dtype=float).clip(0.0, 1.0)
    dp_dh = params.p_star * np.exp(-params.c * (1.0 - a))
    dp_da = params.c * p
    return dp_dh[()] if dp_dh.ndim == 0 else dp_dh, dp_da


def sample_state(rng, params: RheologyParams, h_star: float = 1.0, size=None):
    """Random (eps, h, a, P): normal eps, h uniform on [h*/2, 2 h*], a on [0, 1].

    ``size=n`` draws n states as arrays: all of eps, then all h, then all a,
    and P is one ``pressure`` call on the stack."""
    eps = StrainRate(*rng.normal(size=3 if size is None else (3, size)))
    h = rng.uniform(0.5 * h_star, 2.0 * h_star, size)
    a = rng.uniform(0.0, 1.0, size)
    p = pressure(h, a, params)
    return eps, h, a, float(p) if size is None else p


def viscosities(eps: StrainRate, p, params: RheologyParams):
    """Bulk and shear viscosities zeta = P / (2 Delta_delta), eta = zeta / e^2.

    Both returned values are nonnegative for P >= 0; Delta_delta > 0 keeps
    them finite for every strain rate.
    """
    dreg = delta_reg(eps, params)
    zeta = np.asarray(p, dtype=float) / (2.0 * dreg)
    eta = zeta / params.e**2
    return zeta[()] if np.ndim(zeta) == 0 else zeta, eta


def stress_sigma_delta(eps: StrainRate, h, a, params: RheologyParams) -> Stress2x2:
    """Regularized stress sigma_delta = 2 eta eps + (zeta - eta) tr(eps) I - (P/2) I.

    Algebraically identical to zeta * (S eps) - (P/2) I
    = (P/2) S eps / Delta_delta - (P/2) I.
    """
    p = pressure(h, a, params)
    zeta, eta = viscosities(eps, p, params)
    tr = eps.eps_i
    return Stress2x2(
        s11=2.0 * eta * eps.e11 + (zeta - eta) * tr - 0.5 * p,
        s12=2.0 * eta * eps.e12,
        s22=2.0 * eta * eps.e22 + (zeta - eta) * tr - 0.5 * p,
    )


def coefficient_tensor(eps: StrainRate, p, params: RheologyParams,
                       dreg=None) -> np.ndarray:
    """Quasilinear coefficients a_ij^kl of the principal part.

    a_ij^kl = (P / (2 Delta_delta)) (S_ij^kl
              - (S eps)_ik (S eps)_jl / Delta_delta^2).

    Returns shape (2, 2, 2, 2) for scalar input, (2, 2, 2, 2) + field shape
    for array input.  Satisfies the six index symmetries
    a_ij^kl = a_ji^lk = a_kl^ij = a_kj^il = a_il^kj = a_lk^ji and the
    coercivity sum a_ij^kl d_ik d_jl >= (P / (2 Delta_delta^3)) delta
    Delta^2(d) for every real 2x2 d.  ``dreg`` is ``delta_reg(eps,
    params)`` when the caller holds it (the step computes Delta_delta once
    per state); it is computed here otherwise.
    """
    if dreg is None:
        dreg = delta_reg(eps, params)
    se = s_map(eps, params)
    # (S eps) in the (i, k) slot of the contraction
    se_mat = np.empty((2, 2) + np.shape(dreg))
    se_mat[0, 0] = se.s11
    se_mat[0, 1] = se_mat[1, 0] = se.s12
    se_mat[1, 1] = se.s22
    # rank_one[i, j, k, l] = se[i, k] se[j, l], one product per entry; then
    # S - rank_one / Delta_delta^2 in its place
    bracket = se_mat[:, None, :, None] * se_mat[None, :, None, :]
    bracket /= dreg * dreg
    s_full = s_tensor(params).reshape((2, 2, 2, 2) + (1,) * np.ndim(dreg))
    np.subtract(s_full, bracket, out=bracket)
    scale = np.asarray(p, dtype=float) / (2.0 * dreg)
    return scale * bracket


def coercivity_lower_bound(eps: StrainRate, p, params: RheologyParams):
    """Pointwise ellipticity constant P / (2 Delta_delta^3), times delta below.

    The quadratic form of the coefficient tensor dominates
    (P / (2 Delta_delta^3)) * delta * Delta^2(d).
    """
    dreg = delta_reg(eps, params)
    return np.asarray(p, dtype=float) / (2.0 * (dreg * dreg * dreg))


def _stress_part_general(m: np.ndarray, p, params: RheologyParams) -> np.ndarray:
    """(P/2) S m / Delta_delta(m) for a general (possibly nonsymmetric) 2x2 m."""
    eps = StrainRate.from_matrix(m)
    return (0.5 * np.asarray(p, dtype=float) * s_map(eps, params).as_matrix()
            / delta_reg(eps, params)[..., None, None])


def strain_derivative_gap(eps: StrainRate, p, params: RheologyParams) -> float:
    """Max-abs gap between the coefficient tensor and a finite-difference
    Jacobian of the stress part (P/2) S eps / Delta_delta.

    Central differences perturb each of the four entries of the full matrix
    representation independently with step FD_REL_STEP * (1 + max|eps|).
    The contract is gap <= 1e-6 * max|a| at generic strain rates.
    """
    m0 = eps.as_matrix()
    step = FD_REL_STEP * (1.0 + np.max(np.abs(m0)))
    shifts = step * np.eye(4).reshape(4, 2, 2)  # entry (j, l) moved by step
    diff = (_stress_part_general(m0 + shifts, p, params)
            - _stress_part_general(m0 - shifts, p, params)) / (2.0 * step)
    # d(S_delta)_ik / d eps_jl, indexed [jl, i, k], stored at [i, j, k, l]
    fd = diff.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1)
    analytic = coefficient_tensor(eps, p, params)
    return float(np.max(np.abs(fd - analytic)))


def yield_diagnostics(sigma: Stress2x2, p, params: RheologyParams) -> YieldDiagnostics:
    """Compressive stress, shear stress and signed yield-ellipse residual.

    sigma_d = tr sigma, sigma_s = sqrt((s11 - s22)^2 + 4 s12^2), residual =
    (sigma_d + P)^2 + e^2 sigma_s^2 - P^2.  The residual vanishes only in the
    plastic limit (delta -> 0 with Delta >> sqrt(delta)); the motionless
    viscous state sits strictly inside the ellipse with residual -P^2.
    """
    sigma_d = sigma.trace
    sigma_s = np.sqrt((sigma.s11 - sigma.s22)**2 + 4.0 * sigma.s12**2)
    p = np.asarray(p, dtype=float)
    residual = (sigma_d + p)**2 + params.e**2 * sigma_s**2 - p**2
    return YieldDiagnostics(sigma_d, sigma_s, residual)
