"""Symbol, ellipticity and boundary-condition checks."""

import dataclasses

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
import scipy.linalg as sla

from vpice import selftest
from vpice.params import RheologyParams, scaled_params
from vpice.rheology import (
    StrainRate,
    coefficient_tensor,
    coercivity_lower_bound,
    delta_reg,
    pressure,
    sample_state,
)
from vpice.symbols import (
    IM_THRESHOLD,
    LS_MIN_RATIO,
    BoundaryFormReport,
    EllipticityReport,
    LSProbe,
    LSResult,
    RootBalanceError,
    boundary_form,
    boundary_form_check,
    ellipticity_report,
    lopatinskii_shapiro_check,
    sample_ls_probes,
    symbol_polynomial,
)


def random_strain(rng, scale=1.0):
    e11, e12, e22 = rng.normal(scale=scale, size=3)
    return StrainRate(e11, e12, e22)


def probe_at(theta, lam, eps, p):
    xi = np.array([np.cos(theta), np.sin(theta)])
    nu = np.array([-np.sin(theta), np.cos(theta)])
    return LSProbe(xi=xi, nu=nu, lam=lam, eps=eps, p=p)


def probe_of(probes, k):
    """Probe k of a stack, as one probe."""
    return LSProbe(probes.xi[k], probes.nu[k], complex(probes.lam[k]),
                   StrainRate(float(probes.eps.e11[k]),
                              float(probes.eps.e12[k]),
                              float(probes.eps.e22[k])),
                   float(probes.p[k]))


# ---------------------------------------------------------------------------
# Principal symbol
# ---------------------------------------------------------------------------

def test_symbol_at_rest_axis_frequency():
    delta = 1e-6
    p = RheologyParams(e=2.0, delta=delta)
    P = 2.0 * np.sqrt(delta)
    a = coefficient_tensor(StrainRate(0.0, 0.0, 0.0), P, p)
    xi = np.array([1.0, 0.0])
    np.testing.assert_allclose(symbol_polynomial(a, xi, xi),
                               np.diag([1.25, 0.25]), rtol=1e-13)


def test_symbol_zero_frequency():
    p = RheologyParams()
    a = coefficient_tensor(StrainRate(0.1, 0.2, -0.3), 1.0, p)
    assert np.all(symbol_polynomial(a, np.zeros(2), np.zeros(2)) == 0.0)


def test_symbol_and_boundary_form_batched_match_one_at_a_time():
    # states on the trailing axis of a, frequencies on the leading axis of
    # the vectors: (5, 1) against (6,) broadcasts to (5, 6)
    p = scaled_params()
    rng = np.random.default_rng(2)
    eps, _, _, P = sample_state(rng, p, size=6)
    a = coefficient_tensor(eps, P, p)
    xi, nu = rng.normal(size=(2, 5, 1, 2))
    u, v = rng.normal(size=(2, 5, 6, 2)) + 1j * rng.normal(size=(2, 5, 6, 2))
    sym = symbol_polynomial(a, xi, xi)
    forms = boundary_form(a, xi, nu, u, v)
    assert sym.shape == (5, 6, 2, 2) and forms.shape == (5, 6)
    for f, s in np.ndindex(5, 6):
        single = symbol_polynomial(a[..., s], xi[f, 0], xi[f, 0])
        assert np.array_equal(sym[f, s], single)
        # hermitian for real frequencies
        assert np.max(np.abs(single - single.T)) <= 1e-12 * np.max(np.abs(single))
        assert forms[f, s] == boundary_form(a[..., s], xi[f, 0], nu[f, 0],
                                            u[f, s], v[f, s])


def test_symbol_accepts_complex_frequency():
    # oracle: the symbol from the six independent coefficients, by the
    # index symmetries of a
    p = scaled_params()
    a = coefficient_tensor(StrainRate(0.3, -0.2, 0.1), 1.0, p)
    z1, z2 = zeta = np.array([1.0 + 0.5j, -0.3 + 2.0j])
    a1111, a1112, a1122 = a[0, 0, 0, 0], a[0, 0, 0, 1], a[0, 0, 1, 1]
    a1212, a1222, a2222 = a[0, 1, 0, 1], a[0, 1, 1, 1], a[1, 1, 1, 1]
    m12 = a1112 * z1**2 + (a1212 + a1122) * z1 * z2 + a1222 * z2**2
    oracle = np.array([
        [a1111 * z1**2 + 2.0 * a1112 * z1 * z2 + a1122 * z2**2, m12],
        [m12, a1122 * z1**2 + 2.0 * a1222 * z1 * z2 + a2222 * z2**2]])
    np.testing.assert_allclose(symbol_polynomial(a, zeta, zeta), oracle,
                               rtol=1e-12)


# ---------------------------------------------------------------------------
# Ellipticity
# ---------------------------------------------------------------------------

def test_ellipticity_at_rest_matches_analytic_minimum():
    delta = 1e-6
    p = RheologyParams(e=2.0, delta=delta)
    P = 3.0
    report = ellipticity_report(StrainRate(0.0, 0.0, 0.0), P, p, n_samples=200, seed=1)
    # at rest the symbol eigenvalues are {c/e^2, c(1 + 1/e^2)} for every unit
    # frequency, with c = P / (2 sqrt(delta))
    analytic = (P / (2.0 * np.sqrt(delta))) / p.e**2
    assert report.min_eigenvalue == pytest.approx(analytic, rel=1e-12)
    # no entry exceeds the largest eigenvalue c (1 + 1/e^2) = (1 + e^2)
    # analytic, so this keeps the defect <= 1e-12 analytic
    assert report.relative_defect <= 1e-12 / (1.0 + p.e**2)


def test_ellipticity_random_states_positive():
    p = scaled_params()
    rng = np.random.default_rng(5)
    for _ in range(25):
        eps = random_strain(rng)
        P = pressure(rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0), p)
        report = ellipticity_report(eps, P, p, n_samples=40, seed=int(rng.integers(1 << 31)))
        assert report.passes


def test_ellipticity_relative_margin_is_margin_over_bound():
    p = scaled_params()
    eps = StrainRate(0.3, -0.2, 0.1)
    report = ellipticity_report(eps, 1.0, p, n_samples=8, seed=3)
    bound = coercivity_lower_bound(eps, 1.0, p) * p.delta / p.e**2
    assert report.relative_margin == report.min_coercivity_margin / bound


@pytest.mark.parametrize("relative, ok", [(-2e-10, False), (-0.5e-10, True),
                                          (np.nan, False)])
def test_ellipticity_suite_applies_the_relative_margin(monkeypatch, relative,
                                                       ok):
    # the pass rule reads the relative margin, whatever the absolute one,
    # of every state in the stack
    original = selftest.ellipticity_report

    def one_state_off(*args, **kw):
        report = original(*args, **kw)
        absolute = report.min_coercivity_margin.copy()
        margins = report.relative_margin.copy()
        absolute[3], margins[3] = 1.0, relative
        return dataclasses.replace(report, min_coercivity_margin=absolute,
                                   relative_margin=margins)

    monkeypatch.setattr(selftest, "ellipticity_report", one_state_off)
    passed, detail = selftest.ellipticity_suite()
    assert passed == ok
    assert detail.endswith(f"margin {relative:.2e}")


def test_ellipticity_report_equals_loop_over_single_samples():
    # the same draws, all angles and then all real and imaginary parts,
    # evaluated one sample at a time
    p = scaled_params()
    eps, P = StrainRate(0.3, -0.2, 0.1), 1.3
    report = ellipticity_report(eps, P, p, n_samples=50, seed=9)
    rng = np.random.default_rng(9)
    thetas = rng.uniform(0.0, 2.0 * np.pi, 50)
    real, imag = rng.standard_normal((2, 50, 2))
    a = coefficient_tensor(eps, P, p)
    eigs, forms, defects, sizes = [], [], [], []
    for theta, eta in zip(thetas, real + 1j * imag):
        xi = np.array([np.cos(theta), np.sin(theta)])
        eta /= np.linalg.norm(eta)
        sym = symbol_polynomial(a, xi, xi)
        eigs.append(np.linalg.eigvalsh(sym)[0])
        forms.append(np.real(np.vdot(eta, sym @ eta)))
        defects.append(np.max(np.abs(sym - sym.T)))
        sizes.append(np.max(np.abs(sym)))
    bound = coercivity_lower_bound(eps, P, p) * p.delta / p.e**2
    assert report.min_eigenvalue == min(eigs)
    assert report.relative_defect == max(defects) / max(sizes)
    assert report.min_coercivity_margin == pytest.approx(min(forms) - bound,
                                                         rel=1e-14)


def test_stacked_rheology_is_the_single_state_rheology():
    # the rheology squares and cubes by multiplication, so a scalar call
    # rounds as a stacked one; the stack holds states where libm's
    # pow(x, 2), which a scalar x ** 2 calls, rounds apart from x * x
    p = scaled_params()
    n = 3000
    eps, _, _, P = sample_state(np.random.default_rng(41), p, size=n)
    tensors = coefficient_tensor(eps, P, p)
    bounds = coercivity_lower_bound(eps, P, p)
    for k in range(n):
        state = StrainRate(float(eps.e11[k]), float(eps.e12[k]),
                           float(eps.e22[k]))
        np.testing.assert_array_equal(
            coefficient_tensor(state, float(P[k]), p), tensors[..., k])
        assert coercivity_lower_bound(state, float(P[k]), p) == bounds[k]
    squared = (eps.eps_i, eps.eps_ii, eps.eps_iii, delta_reg(eps, p))
    assert any(float(np.float64(x[k]) ** 2) != x[k] * x[k]
               for k in range(n) for x in squared)


@pytest.mark.parametrize("check, fields", [
    (ellipticity_report, ("min_eigenvalue", "min_coercivity_margin",
                          "relative_margin", "relative_defect")),
    (boundary_form_check, ("min_form", "min_conditional_form",
                           "n_conditional")),
])
def test_stacked_report_rows_do_not_interact(check, fields):
    # with the same seed, a state changed in the middle of a stack moves
    # its own row and leaves every other row as it was, bit for bit
    p = scaled_params()
    n, k = 40, 17
    eps, _, _, P = sample_state(np.random.default_rng(45), p, size=n)
    before = check(eps, P, p, n_samples=16, seed=7)
    e11, P = eps.e11.copy(), P.copy()
    e11[k], P[k] = 3.0 * e11[k], 0.5 * P[k]
    after = check(StrainRate(e11, eps.e12, eps.e22), P, p, n_samples=16,
                  seed=7)
    others = np.arange(n) != k
    for name in fields:
        np.testing.assert_array_equal(getattr(after, name)[others],
                                      getattr(before, name)[others])
    assert getattr(after, fields[0])[k] != getattr(before, fields[0])[k]
    assert after.n_samples == 16 and np.all(before.passes & after.passes)


def test_one_state_is_a_stack_of_one():
    # a single state and the stack holding only it draw and report alike
    p = scaled_params()
    eps, P = StrainRate(0.3, -0.2, 0.1), 1.3
    stack = StrainRate(np.array([0.3]), np.array([-0.2]), np.array([0.1]))
    for check in (ellipticity_report, boundary_form_check):
        single = check(eps, P, p, n_samples=32, seed=5)
        stacked = check(stack, np.array([P]), p, n_samples=32, seed=5)
        assert stacked.n_samples == single.n_samples == 32
        for name, value in dataclasses.asdict(single).items():
            if name != "n_samples":
                assert np.shape(value) == ()
                np.testing.assert_array_equal(getattr(stacked, name), [value])


@pytest.mark.parametrize("report, ok", [
    (EllipticityReport(1.0, 0.0, 0.0, 0.0, 1), True),
    (EllipticityReport(0.0, 0.0, 0.0, 0.0, 1), False),
    (EllipticityReport(1.0, 0.0, -2e-10, 0.0, 1), False),
    (EllipticityReport(np.nan, 0.0, 0.0, 0.0, 1), False),
    (EllipticityReport(1.0, np.nan, np.nan, 0.0, 1), False),
    (EllipticityReport(1.0, 0.0, 0.0, 2e-12, 1), False),
    (EllipticityReport(1.0, 0.0, 0.0, np.nan, 1), False),
    (BoundaryFormReport(0.0, 1.0, 1, 1), True),
    (BoundaryFormReport(-2e-10, 1.0, 1, 1), False),
    (BoundaryFormReport(0.0, 0.0, 1, 1), False),
    (BoundaryFormReport(np.nan, 1.0, 1, 1), False),
    (BoundaryFormReport(0.0, np.nan, 1, 1), False),
    (LSResult(1.0, 1.0, None, None), True),
    (LSResult(1e-8, 1.0, None, None), False),
    (LSResult(np.nan, 1.0, None, None), False),
    (LSResult(1.0, np.nan, None, None), False),
])
def test_pass_rules_fail_on_nan(report, ok):
    assert report.passes is ok


def test_ls_result_margin():
    assert LSResult(0.5, 2.0, None, None).margin == 0.5 - LS_MIN_RATIO * 2.0


def test_ls_suite_fails_on_nan_s_min(monkeypatch):
    # one NaN in the middle of the stack fails the suite
    original = selftest.lopatinskii_shapiro_check

    def nan_middle(*args):
        result = original(*args)
        s_min = result.s_min.copy()
        s_min[1] = np.nan
        return dataclasses.replace(result, s_min=s_min)

    monkeypatch.setattr(selftest, "lopatinskii_shapiro_check", nan_middle)
    passed, _ = selftest.ls_suite(n=3)
    assert not passed


@pytest.mark.parametrize("check", [ellipticity_report, boundary_form_check])
def test_ellipticity_rejects_empty_sampling(check):
    # a check over no samples has no minimum to pass on
    p = scaled_params()
    with pytest.raises(ValueError):
        check(StrainRate(0.0, 0.0, 0.0), 1.0, p, n_samples=0)


# ---------------------------------------------------------------------------
# Boundary form
# ---------------------------------------------------------------------------

def test_boundary_form_zero_vectors():
    p = scaled_params()
    a = coefficient_tensor(StrainRate(0.1, 0.0, -0.2), 1.0, p)
    xi = np.array([1.0, 0.0])
    nu = np.array([0.0, 1.0])
    assert boundary_form(a, xi, nu, np.zeros(2), np.zeros(2)) == 0.0


def test_boundary_form_real_parallel_vectors_can_vanish():
    # u real multiple of v makes Im(u|v) = 0; the form may vanish when the
    # rank-one combination cancels.  Construct such a cancellation directly.
    p = scaled_params()
    a = coefficient_tensor(StrainRate(0.0, 0.0, 0.0), 1.0, p)
    theta = 0.3
    xi = np.array([np.cos(theta), np.sin(theta)])
    nu = np.array([-np.sin(theta), np.cos(theta)])
    w = np.array([0.7, -0.4])
    # b_jl = w_j (xi_l - nu_l): choose u = w, v = w so b = w (x) (xi - nu)
    value = boundary_form(a, xi, nu, w, w)
    # still nonnegative, and Im(u|v) = 0
    assert value >= -1e-14
    assert abs(np.imag(np.vdot(w, w))) == 0.0


def test_boundary_form_check_equals_loop_over_single_samples():
    # the same draws, all angles and then the real and imaginary parts of
    # all u and then of all v, evaluated one sample at a time
    p = scaled_params()
    eps, P = StrainRate(0.4, -0.1, 0.2), 1.3
    report = boundary_form_check(eps, P, p, n_samples=300, seed=11)
    rng = np.random.default_rng(11)
    thetas = rng.uniform(0.0, 2.0 * np.pi, 300)
    (u_re, u_im), (v_re, v_im) = rng.standard_normal((2, 2, 300, 2))
    a = coefficient_tensor(eps, P, p)
    forms, conditional = [], []
    for theta, u, v in zip(thetas, u_re + 1j * u_im, v_re + 1j * v_im):
        xi = np.array([np.cos(theta), np.sin(theta)])
        nu = np.array([-np.sin(theta), np.cos(theta)])
        forms.append(boundary_form(a, xi, nu, u, v))
        if (abs(np.imag(np.vdot(v, u)))
                > IM_THRESHOLD * np.linalg.norm(u) * np.linalg.norm(v)):
            conditional.append(forms[-1])
    assert report.min_form == min(forms)
    assert report.min_conditional_form == min(conditional)
    assert report.n_conditional == len(conditional)


def test_boundary_form_margins():
    p = scaled_params()
    rng = np.random.default_rng(9)
    for _ in range(10):
        eps = random_strain(rng)
        P = pressure(rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0), p)
        report = boundary_form_check(eps, P, p, n_samples=300,
                                     seed=int(rng.integers(1 << 31)))
        assert report.passes and report.n_conditional > 0


# ---------------------------------------------------------------------------
# Boundary-value condition on the half line
# ---------------------------------------------------------------------------

def quartic_roots_oracle(a, lam, xi, nu):
    """Roots of det(lambda I + A_#(xi + i mu nu)) via explicit polynomial."""
    def entry(i, j):
        c0 = symbol_polynomial(a, xi, xi)[i, j] + (lam if i == j else 0.0)
        c1 = 1j * (symbol_polynomial(a, xi, nu) + symbol_polynomial(a, nu, xi))[i, j]
        c2 = -symbol_polynomial(a, nu, nu)[i, j]
        return np.array([c0, c1, c2], dtype=complex)
    p11, p22, p12 = entry(0, 0), entry(1, 1), entry(0, 1)
    det = npoly.polysub(npoly.polymul(p11, p22), npoly.polymul(p12, p12))
    return npoly.polyroots(det)


def test_ls_constant_coefficients_axis_probe():
    delta = 1e-4
    p = RheologyParams(e=2.0, delta=delta)
    eps0 = StrainRate(0.0, 0.0, 0.0)
    P = 1.0
    probe = LSProbe(xi=np.array([1.0, 0.0]), nu=np.array([0.0, 1.0]),
                    lam=1.0 + 0.0j, eps=eps0, p=P)
    result = lopatinskii_shapiro_check(probe, p)
    assert result.s_min > 0.0
    assert len(result.stable_roots) == 2
    # oracle: same four roots from the explicit quartic
    a = coefficient_tensor(eps0, P, p)
    oracle = quartic_roots_oracle(a, 1.0 + 0.0j, probe.xi, probe.nu)
    got = np.concatenate([result.stable_roots, result.unstable_roots])
    np.testing.assert_allclose(
        np.sort_complex(oracle), np.sort_complex(got), rtol=1e-8, atol=1e-10)


def test_ls_rejects_negative_real_part():
    # the probe fails with a RootBalanceError, kept in its result
    p = scaled_params()
    probe = probe_at(0.4, -1.0 + 0.0j, StrainRate(0.0, 0.0, 0.0), 1.0)
    result = lopatinskii_shapiro_check(probe, p)
    assert isinstance(result.failure, RootBalanceError)
    assert str(result.failure).startswith("Re lambda must be >= 0")
    assert np.isnan(result.s_min) and not result.passes


def test_ls_detects_roots_on_axis():
    # negative real lambda inside the symbol range puts a root on the axis;
    # bypass the precondition to exercise the split detector itself
    delta = 1e-4
    p = RheologyParams(e=2.0, delta=delta)
    eps0 = StrainRate(0.0, 0.0, 0.0)
    P = 2.0 * np.sqrt(delta)  # symbol = diag(1.25, 0.25) at xi = (1, 0)
    from vpice.symbols import _companion_matrix
    a = coefficient_tensor(eps0, P, p)
    # mu = 0 root: det(lam I + A(xi)) = 0 at lam = -1.25 (or -0.25)
    m, singular = _companion_matrix(a, -0.25 + 0.0j, np.array([1.0, 0.0]),
                                    np.array([0.0, 1.0]))
    assert not singular
    roots = np.linalg.eigvals(m)
    on_axis = np.abs(roots.real) <= 1e-9 * np.maximum(np.abs(roots), 1e-300)
    assert np.any(on_axis)


def test_ls_check_is_the_ordered_schur_form_of_the_block_companion():
    # the reference: the companion matrix stacked from its blocks and
    # scipy's ordered complex Schur form; the check must match it bit for bit
    from vpice.symbols import _companion_matrix
    p = scaled_params()
    probes, _ = sample_ls_probes(np.random.default_rng(21), p, 100)
    for k in range(100):
        probe = probe_of(probes, k)
        a = coefficient_tensor(probe.eps, probe.p, p)
        lam, xi, nu = complex(probe.lam), probe.xi, probe.nu
        c0 = lam * np.eye(2) + symbol_polynomial(a, xi, xi)
        c1 = 1j * (symbol_polynomial(a, xi, nu) + symbol_polynomial(a, nu, xi))
        c2_inv = np.linalg.inv(-symbol_polynomial(a, nu, nu))
        m = np.vstack([np.hstack([np.zeros((2, 2)), np.eye(2)]),
                       np.hstack([-c2_inv @ c0, -c2_inv @ c1])]).astype(complex)
        got, singular = _companion_matrix(a, lam, xi, nu)
        assert not singular
        np.testing.assert_array_equal(got, m)
        t, z, _ = sla.schur(m, output="complex", sort=lambda x: x.real < 0.0)
        roots = np.diag(t)
        svals = np.linalg.svd(z[:2, :2], compute_uv=False)
        result = lopatinskii_shapiro_check(probe, p)
        assert (result.s_min, result.s_max) == (svals[-1], svals[0])
        np.testing.assert_array_equal(
            result.stable_roots, np.sort_complex(roots[roots.real < 0.0]))
        np.testing.assert_array_equal(
            result.unstable_roots, np.sort_complex(roots[roots.real > 0.0]))


def test_stacked_ls_check_is_the_single_probe_results():
    # probes that fail in the middle of a stack keep their RootBalanceError
    # and leave the other results as the probes give them alone
    p = scaled_params()
    probes, _ = sample_ls_probes(np.random.default_rng(43), p, 9)
    probes.lam[4] = -1.0 + 0.5j
    probes.p[6] = 0.0  # C2 = 0
    stacked = lopatinskii_shapiro_check(probes, p)
    for k in range(9):
        single = lopatinskii_shapiro_check(probe_of(probes, k), p)
        for name in ("s_min", "s_max", "stable_roots", "unstable_roots"):
            np.testing.assert_array_equal(getattr(stacked, name)[k],
                                          getattr(single, name))
        assert str(stacked.failure[k]) == str(single.failure)
    assert [k for k, failure in enumerate(stacked.failure)
            if failure is not None] == [4, 6]
    assert str(stacked.failure[6]) == "C2 = -Q(nu, nu) is singular"
    assert list(stacked.passes) == [k not in (4, 6) for k in range(9)]


def test_ls_degenerate_lambda_zero_allowed():
    p = scaled_params()
    rng = np.random.default_rng(13)
    for _ in range(5):
        eps = random_strain(rng)
        P = pressure(rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.0), p)
        probe = probe_at(rng.uniform(0, 2 * np.pi), 0.0 + 0.0j, eps, P)
        result = lopatinskii_shapiro_check(probe, p)
        assert result.s_min > 1e-8 * result.s_max


def test_ls_random_sweep():
    p = scaled_params()
    rng = np.random.default_rng(17)
    for _ in range(200):
        eps = random_strain(rng)
        P = pressure(rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0), p)
        lam = 10 ** rng.uniform(-2, 2) * np.exp(1j * rng.uniform(-np.pi / 2, np.pi / 2))
        probe = probe_at(rng.uniform(0, 2 * np.pi), lam, eps, P)
        result = lopatinskii_shapiro_check(probe, p)
        assert result.s_min > 1e-8 * result.s_max
        # root sets agree with the explicit quartic oracle
        a = coefficient_tensor(eps, P, p)
        oracle = quartic_roots_oracle(a, lam, probe.xi, probe.nu)
        got = np.concatenate([result.stable_roots, result.unstable_roots])
        np.testing.assert_allclose(np.sort_complex(oracle), np.sort_complex(got),
                                   rtol=1e-6, atol=1e-8)


def test_ls_smin_continuous_along_path():
    p = scaled_params()
    eps = StrainRate(0.4, -0.1, 0.2)
    P = 1.3
    values = []
    for theta in np.linspace(0.0, np.pi, 40):
        probe = probe_at(theta, 0.7 + 0.3j, eps, P)
        values.append(lopatinskii_shapiro_check(probe, p).s_min)
    values = np.array(values)
    assert np.all(np.isfinite(values))
    assert np.all(values > 0.0)
    # no spurious jumps: neighboring samples stay within a mild factor
    ratio = values[1:] / values[:-1]
    assert ratio.max() < 3.0 and ratio.min() > 1.0 / 3.0


def test_probe_validation():
    with pytest.raises(ValueError):
        LSProbe(xi=np.array([1.0, 0.1]), nu=np.array([0.0, 1.0]),
                lam=1.0, eps=StrainRate(0, 0, 0), p=1.0).validate()
    with pytest.raises(ValueError):
        LSProbe(xi=np.array([1.0, 0.0]), nu=np.array([1.0, 0.0]),
                lam=1.0, eps=StrainRate(0, 0, 0), p=1.0).validate()


# ---------------------------------------------------------------------------
# Samplers: array draws from the command's generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lambda_re_min, h_star",
                         [(0.0, 1.0), (0.0, 2.5), (1e308, 1.0)])
def test_sample_ls_probes_are_valid_probes(lambda_re_min, h_star):
    # every stack passes the probe validation, with Re lambda >= 0; lambda
    # is (lambda_re_min + U(0, 1) + i U(-1, 1)) 10^U(-2, 2), so its real
    # part is at least lambda_re_min / 100.  At 1e308 some lambdas overflow
    # to inf, without a warning, and those probes fail their companion check
    p = scaled_params()
    probes, theta = sample_ls_probes(np.random.default_rng(53), p, 300,
                                     lambda_re_min, h_star)
    probes.validate()
    assert np.all(probes.lam.real >= 0.0)
    assert np.all(probes.lam.real >= 0.0099 * lambda_re_min)
    np.testing.assert_array_equal(probes.xi[:, 0], np.cos(theta))
    np.testing.assert_array_equal(probes.nu, probes.xi[:, ::-1] * [-1, 1])
    assert probes.p.shape == probes.lam.shape == theta.shape == (300,)
    assert np.all(probes.p > 0.0)
    if lambda_re_min == 1e308:
        overflowed = np.isinf(probes.lam.real)
        assert overflowed.any() and not overflowed.all()
        with np.errstate(over="ignore", invalid="ignore"):
            result = lopatinskii_shapiro_check(probes, p)
        assert {str(result.failure[k]) for k in np.flatnonzero(overflowed)
                } == {"companion matrix is not finite"}


@pytest.mark.parametrize("params", [scaled_params(), RheologyParams()])
def test_stacked_pressure_is_the_scalar_pressure(params):
    # the sampler evaluates P once on the stack of sampled states
    eps, h, a, P = sample_state(np.random.default_rng(55), params,
                                size=10_000)
    np.testing.assert_array_equal(
        P, [pressure(float(h[k]), float(a[k]), params)
            for k in range(len(h))])
