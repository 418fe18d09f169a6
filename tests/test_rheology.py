"""Constitutive-law identities, checked against explicit 4x4 oracles."""

import numpy as np
import pytest

from vpice.params import InvalidStateError, RheologyParams, scaled_params
from vpice.rheology import (
    StrainRate,
    Stress2x2,
    coefficient_tensor,
    coercivity_lower_bound,
    delta_reg,
    delta_sq,
    pressure,
    pressure_derivatives,
    s_map,
    s_tensor,
    strain_derivative_gap,
    stress_sigma_delta,
    viscosities,
    yield_diagnostics,
)


def s4_oracle(e):
    """The 4x4 matrix of S in (11, 12, 21, 22) vector order."""
    q = 1.0 / e**2
    return np.array([
        [1 + q, 0, 0, 1 - q],
        [0, q, q, 0],
        [0, q, q, 0],
        [1 - q, 0, 0, 1 + q],
    ])


def as_vec4(m):
    return np.array([m[0, 0], m[0, 1], m[1, 0], m[1, 1]])


def random_strain(rng, scale=1.0):
    e11, e12, e22 = rng.normal(scale=scale, size=3)
    return StrainRate(e11, e12, e22)


# ---------------------------------------------------------------------------
# S map and deformation measure
# ---------------------------------------------------------------------------

def test_s_map_identity_strain():
    p = RheologyParams(e=2.0)
    se = s_map(StrainRate(1.0, 0.0, 1.0), p)
    assert se.s11 == pytest.approx(2.0, abs=0)
    assert se.s12 == 0.0
    assert se.s22 == pytest.approx(2.0, abs=0)


def test_s_map_zero():
    p = RheologyParams()
    se = s_map(StrainRate(0.0, 0.0, 0.0), p)
    assert se.s11 == se.s12 == se.s22 == 0.0


def test_s_map_pure_shear_against_4x4_oracle():
    p = RheologyParams(e=2.0)
    eps = StrainRate(0.0, 1.0, 0.0)
    se = s_map(eps, p)
    vec = s4_oracle(2.0) @ as_vec4(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert se.s11 == pytest.approx(vec[0], abs=1e-15)
    assert se.s12 == pytest.approx(vec[1], abs=1e-15)
    assert se.s22 == pytest.approx(vec[3], abs=1e-15)
    assert se.s12 == pytest.approx(0.5)


def test_s_map_matches_tensor_contraction_randomly():
    p = RheologyParams(e=1.7)
    s = s_tensor(p)
    rng = np.random.default_rng(11)
    for _ in range(50):
        eps = random_strain(rng)
        m = eps.as_matrix()
        oracle = np.einsum("ijkl,jl->ik", s, m)
        se = s_map(eps, p).as_matrix()
        np.testing.assert_allclose(se, oracle, rtol=0, atol=1e-14)


def test_s_tensor_is_the_4x4_form():
    s4 = s4_oracle(1.7)
    s = s_tensor(RheologyParams(e=1.7))
    for i, j, k, l in np.ndindex(2, 2, 2, 2):
        assert s[i, j, k, l] == s4[2 * i + k, 2 * j + l]


def test_general_matrix_goes_through_its_symmetric_part():
    # S m and Delta^2(m) of a nonsymmetric m, against the 4x4 form acting
    # on all four entries of m
    p = RheologyParams(e=1.7)
    s4 = s4_oracle(1.7)
    rng = np.random.default_rng(13)
    m = rng.normal(size=(20, 2, 2))
    eps = StrainRate.from_matrix(m)
    vec = np.stack([as_vec4(x) for x in m])
    np.testing.assert_allclose(eps.as_matrix(),
                               0.5 * (m + np.swapaxes(m, 1, 2)), rtol=1e-15)
    np.testing.assert_allclose(s_map(eps, p).as_matrix().reshape(20, 4),
                               vec @ s4.T, rtol=0, atol=1e-14)
    np.testing.assert_allclose(delta_sq(eps, p),
                               np.einsum("ni,ij,nj->n", vec, s4, vec),
                               rtol=1e-12)


def test_delta_sq_examples_and_oracle():
    p = RheologyParams(e=2.0)
    assert delta_sq(StrainRate(1.0, 0.0, 1.0), p) == pytest.approx(4.0, abs=0)
    assert delta_sq(StrainRate(0.0, 0.0, 0.0), p) == 0.0
    # pure shear: oracle = full eps^T S eps contraction
    eps = StrainRate(0.0, 1.0, 0.0)
    vec = as_vec4(eps.as_matrix())
    oracle = vec @ s4_oracle(2.0) @ vec
    assert oracle == pytest.approx(1.0)
    assert delta_sq(eps, p) == pytest.approx(oracle, rel=1e-14)


def test_delta_sq_matches_contraction_randomly():
    p = RheologyParams(e=2.0)
    rng = np.random.default_rng(7)
    s4 = s4_oracle(2.0)
    for _ in range(200):
        eps = random_strain(rng)
        vec = as_vec4(eps.as_matrix())
        np.testing.assert_allclose(delta_sq(eps, p), vec @ s4 @ vec, rtol=1e-12)


def test_delta_reg_examples():
    p = RheologyParams(delta=1e-4)
    assert delta_reg(StrainRate(0.0, 0.0, 0.0), p) == pytest.approx(1e-2, rel=1e-15)
    p2 = RheologyParams(delta=0.01, e=2.0)
    assert delta_reg(StrainRate(1.0, 0.0, 1.0), p2) == pytest.approx(np.sqrt(4.01), rel=1e-15)


def test_delta_reg_monotone_floor():
    p = RheologyParams(delta=1e-8)
    rng = np.random.default_rng(3)
    floor = delta_reg(StrainRate(0.0, 0.0, 0.0), p)
    for _ in range(100):
        assert delta_reg(random_strain(rng), p) >= floor


# ---------------------------------------------------------------------------
# Pressure
# ---------------------------------------------------------------------------

def test_pressure_values():
    p = RheologyParams()
    assert pressure(1.0, 1.0, p) == pytest.approx(p.p_star, rel=1e-15)
    assert pressure(2.0, 1.0, p) == pytest.approx(2 * p.p_star, rel=1e-15)
    assert pressure(1.0, 0.0, p) == pytest.approx(p.p_star * np.exp(-p.c), rel=1e-14)


def test_pressure_rejects_bad_states():
    p = RheologyParams()
    with pytest.raises(InvalidStateError):
        pressure(-0.1, 0.5, p)
    with pytest.raises(InvalidStateError):
        pressure(1.0, 1.5, p)
    with pytest.raises(InvalidStateError):
        pressure(1.0, -1e-6, p)
    # tiny drift is clamped
    assert pressure(1.0, 1.0 + 1e-12, p) == pytest.approx(p.p_star, rel=1e-12)


@pytest.mark.parametrize("h, a, message", [
    ([1.0, -0.1, 2.0], [0.5, 0.5, 0.5],
     "thickness must be >= 0, min was -0.1"),
    ([1.0, 1.0, 1.0], [0.5, 1.5, 0.5],
     "compactness left [0, 1] beyond slack 1e-10: range [0.5, 1.5]"),
    ([1.0, 1.0, 1.0], [0.5, -1e-6, 0.5],
     "compactness left [0, 1] beyond slack 1e-10: range [-1e-06, 0.5]"),
    # a NaN entry does not hide a bad one
    ([1.0, 1.0], [np.nan, 1.5],
     "compactness left [0, 1] beyond slack 1e-10: range [nan, nan]"),
])
def test_pressure_rejects_one_bad_entry_in_an_array(h, a, message):
    # the array path, which assembly takes
    with pytest.raises(InvalidStateError) as info:
        pressure(np.array(h), np.array(a), RheologyParams())
    assert str(info.value) == message


def test_pressure_clamps_array_entries_within_the_slack():
    p = RheologyParams()
    h = np.array([[1.0, 2.0, 0.5]])
    got = pressure(h, np.array([[-5e-11, 0.5, 1.0 + 5e-11]]), p)
    assert got.shape == (1, 3)
    np.testing.assert_array_equal(got, pressure(h, np.array([[0.0, 0.5, 1.0]]), p))


def test_pressure_derivatives():
    p = RheologyParams()
    dh, da = pressure_derivatives(1.3, 0.7, p)
    assert dh == pytest.approx(p.p_star * np.exp(-p.c * 0.3), rel=1e-14)
    assert da == pytest.approx(p.c * pressure(1.3, 0.7, p), rel=1e-14)
    # finite-difference cross-check
    h0, a0, step = 1.3, 0.7, 1e-7
    fd_h = (pressure(h0 + step, a0, p) - pressure(h0 - step, a0, p)) / (2 * step)
    fd_a = (pressure(h0, a0 + step, p) - pressure(h0, a0 - step, p)) / (2 * step)
    assert dh == pytest.approx(fd_h, rel=1e-8)
    assert da == pytest.approx(fd_a, rel=1e-6)


# ---------------------------------------------------------------------------
# Viscosities
# ---------------------------------------------------------------------------

def test_viscosities_sqrt_delta():
    p = RheologyParams(delta=1e-4)
    zeta, eta = viscosities(StrainRate(0.0, 0.0, 0.0), 1.0, p)
    assert zeta == pytest.approx(50.0, rel=1e-14)
    assert eta == pytest.approx(50.0 / p.e**2, rel=1e-14)


# ---------------------------------------------------------------------------
# Stress
# ---------------------------------------------------------------------------

def test_stress_at_rest_is_pressure_spherical():
    p = RheologyParams()
    sig = stress_sigma_delta(StrainRate(0.0, 0.0, 0.0), 1.0, 1.0, p)
    assert sig.s11 == pytest.approx(-0.5 * p.p_star, rel=1e-14)
    assert sig.s12 == 0.0
    assert sig.s22 == pytest.approx(-0.5 * p.p_star, rel=1e-14)


def test_stress_on_yield_curve_in_plastic_limit():
    p = RheologyParams(delta=1e-16, e=2.0, p_star=1.0, c=2.0)
    sig = stress_sigma_delta(StrainRate(1.0, 0.0, 1.0), 1.0, 1.0, p)
    # S_delta -> (P/2) I as Delta_delta -> 2, so sigma -> 0
    assert abs(sig.s11) < 1e-8
    assert abs(sig.s22) < 1e-8


def test_stress_dual_formulas_agree():
    # 2 eta eps + (zeta - eta) tr eps I - P/2 I  vs  (P/2) S eps / Delta_delta - P/2 I
    p = scaled_params()
    rng = np.random.default_rng(17)
    for _ in range(200):
        eps = random_strain(rng)
        h = rng.uniform(0.5, 2.0)
        a = rng.uniform(0.0, 1.0)
        sig = stress_sigma_delta(eps, h, a, p)
        P = pressure(h, a, p)
        se = s_map(eps, p)
        dreg = delta_reg(eps, p)
        alt11 = 0.5 * P * se.s11 / dreg - 0.5 * P
        alt12 = 0.5 * P * se.s12 / dreg
        alt22 = 0.5 * P * se.s22 / dreg - 0.5 * P
        scale = max(abs(alt11), abs(alt12), abs(alt22), 1e-300)
        assert abs(sig.s11 - alt11) <= 1e-12 * scale
        assert abs(sig.s12 - alt12) <= 1e-12 * scale
        assert abs(sig.s22 - alt22) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# Coefficient tensor
# ---------------------------------------------------------------------------

SYMMETRY_PERMS = {
    "a_ji^lk": (1, 0, 3, 2),
    "a_kl^ij": (2, 3, 0, 1),
    "a_kj^il": (2, 1, 0, 3),
    "a_il^kj": (0, 3, 2, 1),
    "a_lk^ji": (3, 2, 1, 0),
}


def test_coefficient_tensor_at_rest_is_scaled_s():
    p = RheologyParams(delta=1e-4)
    a = coefficient_tensor(StrainRate(0.0, 0.0, 0.0), 2.0, p)
    expected = (2.0 / (2.0 * np.sqrt(p.delta))) * s_tensor(p)
    np.testing.assert_allclose(a, expected, rtol=1e-14)


def test_coefficient_tensor_symmetries():
    p = scaled_params()
    rng = np.random.default_rng(23)
    for _ in range(300):
        eps = random_strain(rng)
        P = pressure(rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0), p)
        a = coefficient_tensor(eps, P, p)
        scale = np.max(np.abs(a))
        for perm in SYMMETRY_PERMS.values():
            assert np.max(np.abs(a - np.transpose(a, perm))) <= 1e-12 * scale


def test_coefficient_tensor_coercivity():
    p = scaled_params()
    rng = np.random.default_rng(29)
    for _ in range(300):
        eps = random_strain(rng)
        P = pressure(rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0), p)
        a = coefficient_tensor(eps, P, p)
        d = rng.normal(size=(2, 2))
        quad = np.einsum("ijkl,ik,jl->", a, d, d)
        bound = (coercivity_lower_bound(eps, P, p) * p.delta
                 * delta_sq(StrainRate.from_matrix(d), p))
        assert quad >= bound - 1e-10


def test_cauchy_schwarz_bound():
    p = scaled_params()
    s4 = s4_oracle(p.e)
    rng = np.random.default_rng(31)
    for _ in range(300):
        d = rng.normal(size=(2, 2))
        eps = random_strain(rng)
        dv, ev = as_vec4(d), as_vec4(eps.as_matrix())
        lhs = float(dv @ s4 @ ev) ** 2
        rhs = delta_sq(StrainRate.from_matrix(d), p) * delta_sq(eps, p)
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-300


def test_large_delta_kills_rank_one_term():
    p = RheologyParams(delta=1e12)
    eps = StrainRate(0.3, -0.1, 0.7)
    a = coefficient_tensor(eps, 5.0, p)
    expected = (5.0 / (2.0 * np.sqrt(p.delta))) * s_tensor(p)
    np.testing.assert_allclose(a, expected, rtol=1e-10,
                               atol=1e-10 * np.max(np.abs(expected)))


# ---------------------------------------------------------------------------
# Jacobian identity
# ---------------------------------------------------------------------------

def test_strain_derivative_gap_at_rest():
    p = RheologyParams(delta=1e-6, p_star=1.0)
    gap = strain_derivative_gap(StrainRate(0.0, 0.0, 0.0), 1.0, p)
    assert gap <= 1e-6 * 1.0 / np.sqrt(p.delta)


def test_strain_derivative_gap_random():
    p = scaled_params(delta=1e-4)
    rng = np.random.default_rng(37)
    for _ in range(10):
        eps = random_strain(rng)
        P = pressure(rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0), p)
        a = coefficient_tensor(eps, P, p)
        gap = strain_derivative_gap(eps, P, p)
        assert gap <= 1e-6 * np.max(np.abs(a))


# ---------------------------------------------------------------------------
# Yield diagnostics
# ---------------------------------------------------------------------------

def test_yield_viscous_rest_state_inside_ellipse():
    p = RheologyParams(p_star=1.0)
    P = 1.0
    sig = Stress2x2(-0.5 * P, 0.0, -0.5 * P)
    d = yield_diagnostics(sig, P, p)
    assert d.sigma_d == pytest.approx(-P)
    assert d.sigma_s == 0.0
    assert d.ellipse_residual == pytest.approx(-P**2)


def test_yield_plastic_limit_lands_on_ellipse():
    p = RheologyParams(delta=1e-16, e=2.0, p_star=1.0, c=2.0)
    sig = stress_sigma_delta(StrainRate(1.0, 0.0, 1.0), 1.0, 1.0, p)
    P = pressure(1.0, 1.0, p)
    d = yield_diagnostics(sig, P, p)
    assert abs(d.ellipse_residual) <= 1e-7 * P**2


def test_yield_sigma_s_nonnegative():
    p = RheologyParams()
    rng = np.random.default_rng(41)
    for _ in range(100):
        sig = Stress2x2(*rng.normal(size=3))
        d = yield_diagnostics(sig, 1.0, p)
        assert d.sigma_s >= 0.0


def test_field_broadcasting():
    p = scaled_params()
    rng = np.random.default_rng(43)
    shape = (4, 5)
    eps = StrainRate(rng.normal(size=shape), rng.normal(size=shape),
                     rng.normal(size=shape))
    P = pressure(rng.uniform(0.5, 2.0, size=shape), rng.uniform(0.0, 1.0, size=shape), p)
    a = coefficient_tensor(eps, P, p)
    assert a.shape == (2, 2, 2, 2) + shape
    one = coefficient_tensor(
        StrainRate(eps.e11[1, 2], eps.e12[1, 2], eps.e22[1, 2]), P[1, 2], p)
    np.testing.assert_allclose(a[..., 1, 2], one, rtol=1e-14)
