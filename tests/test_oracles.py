"""Frozen-value oracles.

Every number here was computed through an independent route (Bessel/Toeplitz
identities via scipy.special, closed-form Gaussian integrals, Gauss-Legendre
reimplementations) and frozen as a literal.  The package must reproduce them;
nothing in this file calls back into the package to build an expectation.

The one-bond U(N) values use the Toeplitz determinant identity
z_N(c) = det[ ive(j - k, 2c) ]  (scaled modified Bessel I), and SU(2) uses
z(c) = ive(1, 4c) / (2c).
"""

import numpy as np
import pytest
from scipy.special import ive

from boselgt.bounds import bose_upper_rate, gauge_rate_bounds
from boselgt.haar import cue_norm, gue_integral, gue_norm
from boselgt.partition import z_single_bond
from boselgt.rmt import cue_gue_target, d2_limit_target
from boselgt.su2 import (capital_e, su2_bound_constants, su2_z_gluon,
                         su2_z_weyl_coupling)
from oracles import (chain_partition, transfer_kernel_norm,
                     transfer_kernel_norm_complex)

# (coupling, value) pairs frozen from the scaled-Bessel route.
Z_U1 = [
    (0.5, 0.4657596075936404),
    (1.0, 0.308508322553671),
    (4.0, 0.14343178185685032),
    (25.0, 0.056561626647454205),
    (10000.0, 0.0028209655491591634),
]
Z_U2 = [
    (0.5, 0.17370527125489363),
    (1.0, 0.048836518191137115),
    (4.0, 0.0025784675398495154),
    (25.0, 6.39876857208668e-05),
]
Z_U3 = [
    (0.5, 0.06392746102962951),
    (1.0, 0.006729462009726272),
    (4.0, 1.1632195507890798e-05),
]
Z_SU2 = [
    (0.5, 0.21526928924893765),
    (1.0, 0.08937541975121766),
    (4.0, 0.012168701844558507),
    (25.0, 0.0007948830605026051),
]


@pytest.mark.parametrize("c,expected", Z_U1)
def test_z_single_bond_u1_bessel(c, expected):
    assert z_single_bond(c, 1, kind="U").value == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("c,expected", Z_U2)
def test_z_single_bond_u2_toeplitz(c, expected):
    assert z_single_bond(c, 2, kind="U").value == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("c,expected", Z_U3)
def test_z_single_bond_u3_toeplitz(c, expected):
    assert z_single_bond(c, 3, kind="U").value == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("c", [0.5, 1.0, 4.0, 10.0])
def test_z_single_bond_un_toeplitz_closed_form(c, n):
    # Computed live: in this range the Toeplitz determinant itself is good
    # to 1.4e-11 relative.
    j = np.arange(n)
    expected = np.linalg.det(ive(j[:, None] - j[None, :], 2.0 * c))
    assert z_single_bond(c, n, kind="U").value == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("c,expected", Z_SU2)
def test_z_single_bond_su2_bessel(c, expected):
    assert z_single_bond(c, 2, kind="SU").value == pytest.approx(expected, rel=1e-9)
    assert np.exp(su2_z_weyl_coupling(c)) == pytest.approx(expected, rel=1e-9)


def su2_bessel(c):
    return ive(1, 4.0 * c) / (2.0 * c)


@pytest.mark.parametrize("c", [1e-3, 0.1, 0.5, 1.0, 2.5, 4.0, 50.0, 1e3, 1e5,
                               1e8])
def test_su2_one_bond_matches_bessel_closed_form(c):
    # Computed live; the Legendre rule reaches round-off at every c.
    expected = su2_bessel(c)
    assert z_single_bond(c, 2, kind="SU").value == pytest.approx(expected, rel=1e-13)
    assert np.exp(su2_z_weyl_coupling(c)) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("a,g_sq,d", [
    (1.0, 1e3, 4), (1.0, 10.0, 4), (1.0, 2.0, 3), (1.0, 1.0, 2),
    (0.5, 0.8, 3), (0.5, 1.0, 2), (0.02, 1.0, 3), (0.1, 0.1, 2),
    (1e-3, 0.01, 3), (1e-4, 1.0, 2),
])
def test_su2_gluon_matches_bessel_closed_form(a, g_sq, d):
    # c = a^{d-4}/g^2 runs from 1e-3 to 1e8.
    expected = su2_bessel(a ** (d - 4) / g_sq)
    assert np.exp(su2_z_gluon(a, g_sq, d)) == pytest.approx(expected, rel=1e-13)


def test_z_single_bond_u8_matches_the_toeplitz_determinant_in_mpmath():
    # z = e^{-225.03}: det[ive(j - k, 2c)] at 120 digits, compared on the log.
    import mpmath
    n, c = 8, 1000
    with mpmath.workdps(120):
        ive_k = [mpmath.besseli(k, 2 * c) * mpmath.exp(-2 * c) for k in range(n)]
        toeplitz = mpmath.matrix([[ive_k[abs(j - k)] for k in range(n)]
                                  for j in range(n)])
        expected = float(mpmath.log(mpmath.det(toeplitz)))
    assert abs(z_single_bond(c, n, kind="U").log_value - expected) <= 1e-12


@pytest.mark.parametrize("c", [1e10, 1e210, 1e300])
def test_su2_one_bond_log_matches_mpmath_below_the_double_range(c):
    # log(ive(1, 4c) / (2c)) is -727.6 at c = 1e210, where z is not a double.
    import mpmath
    with mpmath.workdps(30):
        cm = mpmath.mpf(c)
        expected = float(mpmath.log(mpmath.besseli(1, 4 * cm) * mpmath.exp(-4 * cm)
                                    / (2 * cm)))
    assert su2_z_weyl_coupling(c) == pytest.approx(expected, rel=1e-14)


def test_ensemble_norms():
    assert gue_norm(1) == pytest.approx(1.7724538509055159, rel=1e-14)
    assert gue_norm(2) == pytest.approx(3.141592653589793, rel=1e-14)
    assert gue_norm(3) == pytest.approx(8.352491995247561, rel=1e-14)
    assert cue_norm(1) == pytest.approx(6.283185307179586, rel=1e-14)
    assert cue_norm(2) == pytest.approx(78.95683520871486, rel=1e-14)
    assert cue_norm(3) == pytest.approx(1488.3012806543911, rel=1e-14)


def test_gue_integral_saturates_to_norm():
    for n in range(1, 9):
        assert np.exp(gue_integral(np.inf, n)) == pytest.approx(gue_norm(n), rel=1e-13)
        # Generous truncation already carries the full mass.
        assert np.exp(gue_integral(9.0, n)) == pytest.approx(gue_norm(n), rel=1e-10)


def test_limit_targets():
    assert cue_gue_target(1) == pytest.approx(0.28209479177387814, rel=1e-14)
    assert cue_gue_target(2) == pytest.approx(0.039788735772973836, rel=1e-14)
    assert d2_limit_target(1) == pytest.approx(-1.2655121234846454, rel=1e-14)
    assert d2_limit_target(2) == pytest.approx(-3.224171427529236, rel=1e-14)


def test_capital_e_closed_forms():
    assert capital_e(np.inf) == pytest.approx(0.44311346272637897, rel=1e-14)
    assert capital_e(1.0) == pytest.approx(0.18947234582049227, rel=1e-13)
    assert capital_e(2.0) == pytest.approx(0.4227250564924766, rel=1e-13)
    assert capital_e(0.0) == 0.0


def test_su2_bound_constants_frozen():
    for d, lower in ((2, 0.0017860427404889363),
                     (3, 0.0006315828671829986),
                     (4, 0.00034379017247625367)):
        lo, up = su2_bound_constants(d, g0_sq=4.0)
        assert lo == pytest.approx(lower, rel=1e-12)
        assert up == pytest.approx(1.0933386454765537, rel=1e-12)


@pytest.mark.parametrize("n,d,lower,upper", [
    (1, 2, -2.3069146239760214, 0.6773740579341821),
    (2, 2, -9.672715407319547, 1.5647663458873289),
    (1, 3, -2.6518153607903003, 0.6773740579341821),
    (2, 3, -11.058808657782922, 1.5647663458873289),
    (1, 4, -2.854539091522654, 0.6773740579341821),
    (2, 4, -11.869738859924812, 1.5647663458873289),
])
def test_gauge_rate_bounds_frozen(n, d, lower, upper):
    lo, up = gauge_rate_bounds("U", n, d, g0_sq=4.0)
    assert lo == pytest.approx(lower, rel=1e-8)
    assert up == pytest.approx(upper, rel=1e-12)


def test_bose_upper_rate_closed_form():
    assert bose_upper_rate(1, 2) == pytest.approx(np.log(2.0) / 4.0, rel=1e-14)
    assert bose_upper_rate(3, 4, "real") == pytest.approx(
        3 * 0.75 * np.log(2.0) / 2.0, rel=1e-14)
    assert bose_upper_rate(2, 5, "complex") == pytest.approx(
        2 * 0.8 * np.log(2.0), rel=1e-14)


def test_chain_closed_forms():
    # Massless hopping makes d kappa^2 = 1/2 for every d.
    for d in (2, 3, 4):
        assert chain_partition(2, 1, d) == pytest.approx(1.1547005383792517,
                                                         rel=1e-12)
    assert chain_partition(3, 1, 2) == pytest.approx(1.4142135623730951,
                                                     rel=1e-12)
    # Decoupled chain is exactly 1 regardless of length.
    assert chain_partition(5, 1, 2, kappa_sq=0.0) == pytest.approx(1.0, abs=1e-14)


def test_transfer_kernel_saturation_values():
    # At the massless point the real kernel is a convolution with exact
    # operator norm sqrt(4 pi); the discretization approaches from below.
    norm = transfer_kernel_norm(0.5, 1.0, n_points=512, x_max=8.0)
    assert norm <= 3.5449077018110318 * (1.0 + 1e-3)
    # The box truncation costs O(1/x_max) because the top eigenfunction is
    # flat; a larger box must move the norm up toward the limit.
    assert norm == pytest.approx(3.5449077018110318, rel=5e-2)
    wider = transfer_kernel_norm(0.5, 1.0, n_points=1024, x_max=24.0)
    assert norm < wider <= 3.5449077018110318 * (1.0 + 1e-3)
    assert wider == pytest.approx(3.5449077018110318, rel=2e-2)
    # Decoupled kernel is rank one with norm sqrt(2 pi).
    norm0 = transfer_kernel_norm(0.0, 1.0, n_points=256, x_max=8.0)
    assert norm0 == pytest.approx(np.sqrt(2.0 * np.pi), rel=1e-6)
    # Complex-field (two real components) kernel squares the real norm.
    normc = transfer_kernel_norm_complex(0.5, theta=0.3)
    assert normc <= 12.566370614359172 * (1.0 + 1e-3)
    assert normc == pytest.approx(12.566370614359172, rel=6e-2)
    # Decoupled complex kernel is rank one with norm 2 pi.
    assert transfer_kernel_norm_complex(0.0, theta=0.3) == pytest.approx(
        6.283185307179586, rel=1e-9)
