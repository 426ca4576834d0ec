"""SU(2) four-vector arithmetic and its one-bond integrals."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boselgt.errors import UsageError
from boselgt.su2 import (capital_e, su2_angle, su2_angle_norm_sq,
                         su2_bound_constants, su2_bounds_check, su2_exp,
                         su2_haar, su2_haar_density, su2_inverse, su2_log,
                         su2_mul, su2_plaquette_action, su2_to_matrix,
                         su2_z_gluon)

RNG = np.random.default_rng(77)

PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                 dtype=complex)


def random_algebra(rng, size, radius=np.pi - 0.05):
    a = rng.standard_normal((size, 3))
    r = np.linalg.norm(a, axis=-1, keepdims=True)
    scale = rng.uniform(1e-6, radius, size=(size, 1))
    return a / r * scale


def test_exp_matches_matrix_exponential():
    for a in random_algebra(RNG, 200):
        direct = scipy.linalg.expm(1j * np.tensordot(a, PAULI, axes=(0, 0)))
        assert np.max(np.abs(su2_to_matrix(su2_exp(a)) - direct)) < 1e-13


def test_exp_near_zero_series_branch():
    a = np.array([1e-9, -2e-9, 0.5e-9])
    p = su2_exp(a)
    assert p[0] == pytest.approx(1.0)
    assert np.allclose(p[1:], a, rtol=1e-12)
    assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-15)


def test_log_inverts_exp_inside_the_ball():
    a = random_algebra(RNG, 500)
    assert np.max(np.abs(su2_log(su2_exp(a)) - a)) < 1e-12


def test_log_branch_regions():
    # Reflected branch (w0 < 0), equator (w0 = 0), tiny radius, and next to -1.
    for r in (0.5, np.pi / 2, 2.5, 3.0, 1e-7, np.pi - 1e-6):
        a = np.array([0.0, r, 0.0])
        assert np.linalg.norm(su2_log(su2_exp(a))) == pytest.approx(r, rel=1e-12)


def test_log_rejects_minus_one():
    with pytest.raises(ValueError):
        su2_log(np.array([-1.0, 0.0, 0.0, 0.0]))


def test_mul_matches_matrix_product():
    p = su2_haar(RNG, size=(100,))
    q = su2_haar(RNG, size=(100,))
    via_pts = su2_to_matrix(su2_mul(p, q))
    via_mats = su2_to_matrix(p) @ su2_to_matrix(q)
    assert np.max(np.abs(via_pts - via_mats)) < 1e-14


def test_inverse_and_identity():
    p = su2_haar(RNG, size=(50,))
    prod = su2_mul(p, su2_inverse(p))
    assert np.max(np.abs(prod - [1.0, 0.0, 0.0, 0.0])) < 1e-14
    m = su2_to_matrix(p)
    assert np.max(np.abs(su2_to_matrix(su2_inverse(p)) - m.conj().swapaxes(-1, -2))) < 1e-15


def test_haar_points_are_unit_and_isotropic():
    n = 200_000
    p = su2_haar(np.random.default_rng(3), size=(n,))
    assert np.max(np.abs(np.linalg.norm(p, axis=-1) - 1.0)) < 1e-14
    # Uniform on S^3: each component has mean 0 and variance 1/4.
    se_mean = np.sqrt(0.25 / n)
    assert np.max(np.abs(p.mean(axis=0))) < 4.0 * se_mean
    second = (p * p).mean(axis=0)
    se_second = np.sqrt(np.var(p * p, axis=0) / n)
    assert np.all(np.abs(second - 0.25) < 4.0 * se_second)


def test_haar_density_normalizes_over_the_ball():
    # Radially: integral of 4 pi r^2 * sin^2(r)/(2 pi^2 r^2) over [0, pi] = 1.
    from scipy.integrate import quad
    val, _ = quad(lambda r: 4.0 * np.pi * r * r
                  * su2_haar_density(np.array([r, 0.0, 0.0])), 0.0, np.pi)
    assert val == pytest.approx(1.0, rel=1e-10)
    assert su2_haar_density(np.zeros(3)) == pytest.approx(1.0 / (2.0 * np.pi**2))


def test_angle_norm_agrees_with_spectral_log():
    for p in su2_haar(RNG, size=(50,)):
        lam = np.angle(np.linalg.eigvals(su2_to_matrix(p)))
        assert su2_angle_norm_sq(p) == pytest.approx(float(lam @ lam), rel=1e-8, abs=1e-10)


def test_plaquette_action_is_trace_form():
    p = su2_haar(RNG, size=(100,))
    m = su2_to_matrix(p)
    direct = 2.0 * np.real(2.0 - np.trace(m, axis1=-2, axis2=-1))
    assert np.max(np.abs(su2_plaquette_action(p) - direct)) < 1e-13
    assert np.all(su2_plaquette_action(p) >= 0.0)
    assert np.all(su2_plaquette_action(p) <= 8.0)


def test_small_angle_action_and_norm_keep_full_precision():
    # |A| = 1e-6: 1 - w0 and arccos(w0) lose about 1e-4 relative here.
    p = su2_exp(np.array([1e-6, 0.0, 0.0]))
    assert su2_angle(p) == pytest.approx(1e-6, rel=1e-12)
    assert su2_angle_norm_sq(p) == pytest.approx(2e-12, rel=1e-12)
    assert su2_plaquette_action(p) == pytest.approx(8.0 * np.sin(5e-7) ** 2,
                                                    rel=1e-12)


def test_capital_e_matches_quadrature():
    from scipy.integrate import quad
    for gamma in (0.3, 1.0, 2.5):
        val, _ = quad(lambda y: y * y * np.exp(-y * y), 0.0, gamma)
        assert capital_e(gamma) == pytest.approx(val, rel=1e-12)
    assert capital_e(np.inf) == pytest.approx(np.sqrt(np.pi) / 4.0, rel=1e-15)


def test_gluon_value_matches_bessel_closed_form():
    from scipy.special import ive
    for a in (1.0, 0.5, 0.1):
        for g_sq in (4.0, 1.0, 0.25):
            c = 1.0 / (a * g_sq)  # a^{d-4}/g^2 at d = 3
            closed = ive(1, 4.0 * c) / (2.0 * c)
            assert su2_z_gluon(a, g_sq, 3) == pytest.approx(closed, rel=1e-9)


def test_bounds_check_passes_across_admissible_couplings():
    for d in (2, 3, 4):
        for a in (1.0, 0.1, 0.001):
            for g_sq in (4.0, 1.0, 0.25):
                chk = su2_bounds_check(a, g_sq, d)
                assert chk.passed, (d, a, g_sq, chk)


def test_bound_constants_tighten_with_dimension():
    # More neighboring plaquettes weaken the lower constant; upper is fixed.
    lowers = [su2_bound_constants(d)[0] for d in (2, 3, 4)]
    assert lowers[0] > lowers[1] > lowers[2] > 0.0
    uppers = {su2_bound_constants(d)[1] for d in (2, 3, 4)}
    assert len(uppers) == 1


def test_usage_errors():
    with pytest.raises(UsageError):
        su2_z_gluon(0.0, 1.0, 3)
    with pytest.raises(UsageError):
        su2_z_gluon(1.5, 1.0, 3)
    with pytest.raises(UsageError):
        su2_z_gluon(1.0, -1.0, 3)
    with pytest.raises(UsageError):
        su2_z_gluon(1.0, 1.0, 5)
    with pytest.raises(UsageError):
        su2_bounds_check(1.0, 9.0, 3, g0_sq=4.0)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mul_is_associative(seed):
    rng = np.random.default_rng(seed)
    p, q, r = su2_haar(rng, size=(3,))
    left = su2_mul(su2_mul(p, q), r)
    right = su2_mul(p, su2_mul(q, r))
    assert np.max(np.abs(left - right)) < 1e-14


@settings(max_examples=50, deadline=None)
@given(x=st.floats(-1.0, 1.0), y=st.floats(-1.0, 1.0), z=st.floats(-1.0, 1.0),
       scale=st.floats(1e-8, 0.99))
@example(x=0.0, y=1.0, z=0.5, scale=0.5)  # radius pi/2, |w| just below 1
def test_exp_log_round_trip_property(x, y, z, scale):
    v = np.array([x, y, z])
    norm = np.linalg.norm(v)
    if norm == 0.0:
        v = np.array([1.0, 0.0, 0.0])
        norm = 1.0
    a = v / norm * (scale * np.pi)
    assert np.max(np.abs(su2_log(su2_exp(a)) - a)) < 1e-10
