"""Haar sampling, eigenvalue-angle densities, and their quadratures."""

import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boselgt import haar
from boselgt.errors import NumericError, UsageError
from boselgt.haar import (angle_norm_sq, cue_density, cue_density_vandermonde,
                          cue_norm, gue_density, gue_integral, gue_norm,
                          haar_sample, peaked_cue_integral, weyl_integrate,
                          wrap_angle)
from boselgt.su2 import su2_haar, su2_to_matrix
from oracles import haar_sample_with_temporaries, su2_exp

RNG = np.random.default_rng(515)


def test_wrap_angle_range_and_branch():
    lam = wrap_angle(np.array([0.0, np.pi, -np.pi, 3.0 * np.pi, -2.5 * np.pi, 7.0]))
    assert np.all((lam > -np.pi) & (lam <= np.pi))
    assert lam[1] == pytest.approx(np.pi)      # pi stays pi
    assert lam[2] == pytest.approx(np.pi)      # -pi maps to the +pi branch
    assert lam[3] == pytest.approx(np.pi)
    assert lam[5] == pytest.approx(7.0 - 2.0 * np.pi)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_haar_unitarity_and_determinant(n):
    u = haar_sample(RNG, n, kind="U", size=(200,))
    eye = np.eye(n)
    dev = np.abs(np.swapaxes(u.conj(), -1, -2) @ u - eye)
    assert np.max(dev) < 1e-13
    assert np.max(np.abs(np.abs(np.linalg.det(u)) - 1.0)) < 1e-13
    su = haar_sample(RNG, max(n, 2), kind="SU", size=(200,))
    assert np.max(np.abs(np.linalg.det(su) - 1.0)) < 1e-12


def _phase_fixed_qr(seed, n, kind, size):
    """Oracle: library QR of the same Gaussians, R's diagonal made positive."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(size + (n, n)) + 1j * rng.standard_normal(size + (n, n))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (diag / np.abs(diag))[..., None, :]
    if kind == "SU":
        q[..., 0, :] *= np.conj(np.linalg.det(q))[..., None]
    return q


@pytest.mark.parametrize("n,kind", [(2, "U"), (3, "U"), (3, "SU")])
@pytest.mark.parametrize("size", [(), (9,), (4, 6)])
def test_haar_sample_is_phase_fixed_qr_of_the_same_gaussians(n, kind, size):
    seed = 31 * n + len(size)
    u = haar_sample(np.random.default_rng(seed), n, kind=kind, size=size)
    assert u.shape == size + (n, n)
    assert np.max(np.abs(u - _phase_fixed_qr(seed, n, kind, size))) < 1e-12


@pytest.mark.parametrize("n,kind", [(2, "U"), (3, "U"), (3, "SU")])
def test_haar_sample_slices_match_one_slice(monkeypatch, n, kind):
    # 91 matrices in slices of 8 (N = 2) or 5 (N = 3): the last is ragged.
    def draw(budget):
        monkeypatch.setattr(haar, "_SLICE_ENTRIES", budget)
        return haar_sample(np.random.default_rng(43), n, kind=kind, size=(13, 7))

    whole = draw(10**12)
    sliced = draw(16)
    assert len(haar.lead_slices(91, n)) > 2 and 91 % (16 // n) != 0
    assert np.array_equal(sliced, whole)

@pytest.mark.parametrize("n,kind", [(1, "U"), (2, "U"), (3, "U"), (2, "SU"),
                                    (3, "SU")])
@pytest.mark.parametrize("size", [(), (7,), (3, 5), (9000,)])
def test_haar_sample_in_place_matches_the_batch_temporaries(n, kind, size):
    # Built in its output (9000 spans two or more Gram-Schmidt slices), the
    # sampler draws the same random stream and does the same arithmetic as
    # the expressions with batch-sized complex temporaries.
    seed = 17 * n + len(size)
    got = haar_sample(np.random.default_rng(seed), n, kind=kind, size=size)
    expect = haar_sample_with_temporaries(np.random.default_rng(seed), n,
                                          kind=kind, size=size)
    assert got.shape == expect.shape and got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("n,kind", [(1, "U"), (2, "U"), (3, "U"), (2, "SU"),
                                    (3, "SU")])
def test_haar_sample_needs_one_float_plane_beyond_its_output(n, kind):
    # The matrices are built in the output; beyond it only one float plane
    # of the batch (0.5x; SU(2): its points plus one entry plane, 0.625x).
    # Separate real and imaginary draws and their complex sum needed 1x-1.5x.
    haar_sample(np.random.default_rng(0), n, kind=kind, size=(4, 3))   # warm caches
    tracemalloc.start()
    try:
        out = haar_sample(np.random.default_rng(5), n, kind=kind, size=(16384, 54))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 0.65 * out.nbytes, peak / out.nbytes


@pytest.mark.parametrize("size", [(), (9,), (4, 6)])
def test_su2_haar_sample_is_the_quaternion_route(size):
    # SU(2) bonds are uniform points on the 3-sphere, bit for bit the same
    # stream as su2_haar, with no Gram-Schmidt and no determinant.
    seed = 62 + len(size)
    u = haar_sample(np.random.default_rng(seed), 2, kind="SU", size=size)
    assert u.shape == size + (2, 2)
    expect = su2_to_matrix(su2_haar(np.random.default_rng(seed), size))
    assert np.array_equal(u, expect)


@pytest.mark.parametrize("n,kind", [(2, "U"), (3, "U"), (2, "SU"), (3, "SU")])
def test_haar_unitarity_over_many_draws(n, kind):
    u = haar_sample(np.random.default_rng(8), n, kind=kind, size=(100_000,))
    dev = np.abs(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(n))
    assert np.max(dev) <= 1e-14
    if kind == "SU":
        assert np.max(np.abs(np.linalg.det(u) - 1.0)) <= 1e-12


@pytest.mark.parametrize("n,kind", [(1, "U"), (2, "SU")])
def test_angle_norm_sq_matches_eigvals(n, kind):
    u = haar_sample(np.random.default_rng(9), n, kind=kind, size=(5, 40))
    ref = np.sum(np.angle(np.linalg.eigvals(u)) ** 2, axis=-1)
    got = angle_norm_sq(u, kind)
    assert got.shape == (5, 40)
    assert np.allclose(got, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("theta", [1e-7, 3e-7, 1e-3, 1.0, 3.0])
def test_angle_norm_sq_keeps_small_angles(theta):
    # U(1) e^{i theta} has |lam|^2 = theta^2; an SU(2) rotation by theta has
    # angles +-theta, so 2 theta^2.  The read-out keeps full relative
    # precision; eigvals agrees to its own, about 1e-16 / theta.
    axis = np.array([0.48, -0.6, 0.64])
    for mats, kind, exact in ((np.exp(1j * np.full((1, 1), theta)), "U", theta**2),
                              (su2_to_matrix(su2_exp(theta * axis)), "SU",
                               2.0 * theta**2)):
        got = angle_norm_sq(mats, kind)
        assert got == pytest.approx(exact, rel=1e-13)
        eig = np.sum(np.angle(np.linalg.eigvals(mats)) ** 2)
        assert got == pytest.approx(eig, rel=1e-13 + 1e-14 / theta)


def test_haar_first_moment_vanishes():
    # E[U] = 0 for Haar; with 2e5 samples the mean is ~ N(0, 1/(2e5 n)).
    n = 2
    m = 200_000
    u = haar_sample(np.random.default_rng(11), n, kind="U", size=(m,))
    mean = u.mean(axis=0)
    assert np.max(np.abs(mean)) < 4.0 / np.sqrt(m * n)


def test_haar_trace_second_moment():
    # E |tr U|^2 = 1 for U(N), every N >= 1.
    for n in (1, 2, 3):
        u = haar_sample(np.random.default_rng(n), n, kind="U", size=(100_000,))
        t = np.abs(np.trace(u, axis1=-2, axis2=-1)) ** 2
        se = t.std() / np.sqrt(t.size)
        assert abs(t.mean() - 1.0) < 4.0 * se


def cue_density_50_digits(row):
    """prod_{j<k} 4 sin^2((l_j - l_k)/2) of the float angles at 50 digits."""
    with mpmath.workdps(50):
        x = [mpmath.mpf(float(v)) for v in row]
        return float(mpmath.fprod(4 * mpmath.sin((x[j] - x[k]) / 2) ** 2
                                  for j in range(len(x))
                                  for k in range(j + 1, len(x))))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]))
@example(seed=2_416_009_527, n=2)  # one pair 8.2e-6 apart
def test_cue_density_routes_agree(seed, n):
    # Each route against the density at 50 digits, within its round-off.
    lam = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=(8, n))
    exact = np.array([cue_density_50_digits(row) for row in lam])
    j, k = np.triu_indices(n, 1)
    gap = lam[:, j] - lam[:, k]
    chord = np.abs(2.0 * np.sin(gap / 2.0))
    eps = np.finfo(float).eps
    # The sine route: a few ulps per pair, plus the rounding of the float
    # gap (eps |gap| / 2) amplified by cot(gap / 2), which only matters
    # where a gap wraps close to 2 pi.
    tol_sine = eps * np.sum(4.0 + np.abs(gap) / chord, axis=-1)
    assert np.all(np.abs(cue_density(lam) - exact) <= tol_sine * exact)
    # The Vandermonde route subtracts unit-modulus points, each off by about
    # eps, so a squared chord is off by about 4 eps / chord, relative.
    tol_vandermonde = eps * np.sum(4.0 + 8.0 / chord, axis=-1)
    assert np.all(np.abs(cue_density_vandermonde(lam) - exact)
                  <= tol_vandermonde * exact)


def test_cue_density_degenerate_pair_is_tiny_not_negative():
    lam = np.array([[0.3, 0.3 + 1e-9], [1.0, 1.0]])
    vals = cue_density(lam)
    assert 0.0 < vals[0] < 1e-17
    assert vals[1] == 0.0


def test_gue_density_is_squared_vandermonde():
    y = RNG.standard_normal((50, 3))
    direct = np.ones(50)
    for j in range(3):
        for k in range(j + 1, 3):
            direct *= (y[:, j] - y[:, k]) ** 2
    assert np.allclose(gue_density(y), direct, rtol=1e-13)


def test_norm_constants():
    assert cue_norm(1) == pytest.approx(2.0 * np.pi, rel=1e-15)
    assert cue_norm(2) == pytest.approx(2.0 * (2.0 * np.pi) ** 2, rel=1e-15)
    assert gue_norm(1) == pytest.approx(np.sqrt(np.pi), rel=1e-14)
    # Higher N pinned by the quadrature route instead of a rewritten formula:
    for n in (1, 2, 3):
        assert np.exp(gue_integral(np.inf, n)) == pytest.approx(gue_norm(n), rel=1e-12)


@pytest.mark.parametrize("n,kind", [(1, "U"), (2, "U"), (3, "U"), (2, "SU"), (3, "SU")])
def test_weyl_integrates_constants_to_one(n, kind):
    assert weyl_integrate(lambda lam: np.ones(lam.shape[:-1]), n, kind=kind) == \
        pytest.approx(1.0, rel=1e-10)


def test_weyl_u1_fourier_orthogonality():
    # E e^{ik lam} = 0 for k != 0 on U(1); the zero value needs the absolute
    # convergence floor since no relative target is meaningful there.
    for k in (1, 2, 5):
        val = weyl_integrate(lambda lam: np.cos(k * lam[..., 0]), 1, kind="U",
                             atol=1e-12)
        assert abs(val) < 1e-12


def test_weyl_u2_power_sum_moment():
    # E |tr U|^2 = 1: the class function |sum e^{i lam_j}|^2.
    def f(lam):
        return np.abs(np.sum(np.exp(1j * lam), axis=-1)) ** 2
    assert weyl_integrate(f, 2, kind="U") == pytest.approx(1.0, rel=1e-10)
    assert weyl_integrate(f, 2, kind="SU") == pytest.approx(1.0, rel=1e-10)


def test_weyl_matches_monte_carlo_for_wilson_weight():
    # Dual route at moderate coupling: quadrature vs direct Haar sampling.
    c = 1.5
    n = 2

    def f(lam):
        return np.exp(-2.0 * c * np.sum(1.0 - np.cos(lam), axis=-1))

    quad_val = weyl_integrate(f, n, kind="U")
    u = haar_sample(np.random.default_rng(5), n, kind="U", size=(200_000,))
    act = np.exp(-c * (2.0 * (n - np.real(np.trace(u, axis1=-2, axis2=-1)))))
    se = act.std() / np.sqrt(act.size)
    assert abs(act.mean() - quad_val) < 4.0 * se


def test_peaked_route_matches_weyl_at_crossover():
    # c = 4 is comfortably inside both methods' domains.
    c = 4.0
    for n in (1, 2, 3):
        def action(lam):
            return 2.0 * c * np.sum(1.0 - np.cos(lam), axis=-1)
        a = np.exp(peaked_cue_integral(action, n, peak_scale=c))
        b = weyl_integrate(lambda lam: np.exp(-action(lam)), n, kind="U")
        assert a == pytest.approx(b, rel=1e-8)


def test_peaked_route_handles_extreme_peaks():
    # At c = 1e8 the angle integral is effectively Gaussian with value
    # sqrt(pi/c)/(2 pi); the action must be given in the sin^2 form, since
    # 1 - cos lam at lam ~ 1e-4 carries enough cancellation noise to defeat
    # a 1e-9 convergence check.
    c = 1e8

    def action(lam):
        half = np.sin(lam / 2.0)
        return 4.0 * c * np.sum(half * half, axis=-1)

    val = np.exp(peaked_cue_integral(action, 1, peak_scale=c))
    gaussian = np.sqrt(np.pi / c) / (2.0 * np.pi)
    assert val == pytest.approx(gaussian, rel=1e-4)


def test_gue_integral_monotone_and_bounded():
    for n in (1, 2, 3):
        vals = [np.exp(gue_integral(u, n)) for u in (0.5, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < gue_norm(n) * (1.0 + 1e-12)
        assert np.exp(gue_integral(4.0, n)) == pytest.approx(gue_norm(n), rel=1e-4)
        # A box far wider than the Gaussian holds all of its mass.
        assert np.exp(gue_integral(133.0, n)) == pytest.approx(gue_norm(n), rel=1e-12)


def test_gram_determinant_error_names_the_integral():
    x = np.linspace(-1.0, 1.0, 8)
    with pytest.raises(NumericError, match="the test integral: Gram determinant"):
        haar._gram_det(x, -np.ones(8), 1, "the test integral")
    # NaN weights take the same route; the suite turns a RuntimeWarning on
    # the way into a failure.
    with pytest.raises(NumericError, match="the test integral: Gram determinant"):
        haar._gram_det(x, np.full(8, np.nan), 3, "the test integral")


def test_quadrature_usage_errors():
    with pytest.raises(UsageError):
        weyl_integrate(lambda lam: 1.0, 4, kind="U")
    with pytest.raises(UsageError):
        weyl_integrate(lambda lam: 1.0, 1, kind="SU")
    with pytest.raises(UsageError):
        weyl_integrate(lambda lam: 1.0, 2, kind="O")
    with pytest.raises(UsageError):
        gue_integral(-1.0, 2)
    with pytest.raises(UsageError):
        gue_integral(1.0, 0)
    with pytest.raises(UsageError):
        peaked_cue_integral(lambda lam: np.sum(lam * lam, axis=-1), 0, 10.0)
    assert np.exp(gue_integral(np.inf, 4)) == pytest.approx(gue_norm(4), rel=1e-12)
    with pytest.raises(UsageError):
        haar_sample(RNG, 0)
    with pytest.raises(UsageError):
        haar_sample(RNG, 2, kind="SO")
    with pytest.raises(UsageError):
        haar_sample(RNG, 1, kind="SU")
