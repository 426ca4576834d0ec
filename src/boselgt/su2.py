"""SU(2) in the four-vector parametrization, and its one-bond integrals.

A group point is a real 4-vector p = (w0, w1, w2, w3) with |p| = 1,
representing the matrix w0*1 + i(w1*s1 + w2*s2 + w3*s3) with s_i the Pauli
matrices.  An algebra point is a real 3-vector A representing A.s, whose
exponential e^{iA.s} has rotation angle |A|; the Haar density is written on
that ball.  All functions broadcast over leading axes; points live in
arrays of shape (..., 4) and algebra vectors in (..., 3).  Matrices are
logically (..., 2, 2) but stored bond-major in entry planes (entry_planes,
which haar.haar_sample shares), memory (2, 2) + reversed(...).  The package
samples points, turns them into matrices and reads their angle back; the
exp, log and product maps are test references (tests/oracles.py), and the
plaquette action of every group is actions.plaquette_actions.

The one-bond gluon integral at the end is the SU(2) counterpart of the
CUE eigenvalue integrals, one integral over the eigenvalue angle with
haar.legendre_integral on the U(N) one-bond window; the test suite checks
it against the closed form ive(1, 4c)/(2c).  The bound constants use
math.erf: numpy is the only library this module loads.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, UsageError
from .lattice import check_dimension, coupling, require_positive

# Series switch for sin(r)/r: below this radius the direct
# quotient loses digits, the 3-term even series is exact to < 1e-32 there.
SERIES_RADIUS = 1e-4

E_INF = math.sqrt(math.pi) / 4.0  # integral of y^2 e^{-y^2} over [0, inf)

# Quadratic-bound constant for the plaquette action, C^2 = 8.
QUAD_BOUND_C = 2.0 * np.sqrt(2.0)


def _sinc_ball(r):
    """sin(r)/r with a series branch near 0."""
    r = np.asarray(r, dtype=float)
    small = r < SERIES_RADIUS
    safe = np.where(small, 1.0, r)
    r2 = r * r
    series = 1.0 - r2 / 6.0 + r2 * r2 / 120.0
    return np.where(small, series, np.sin(safe) / safe)


def entry_planes(lead, n):
    """Empty complex matrices of logical shape lead + (n, n), stored bond-major.

    The memory is (n, n) + reversed(lead): plane (i, k) holds entry (i, k)
    of every matrix, the first lead axis (the samples) running fastest and
    the bond axis next.  The return value is the logical view; its base is
    that array.
    """
    base = np.empty((n, n) + tuple(lead)[::-1], dtype=complex)
    return base.transpose(tuple(range(base.ndim - 1, 1, -1)) + (0, 1))


def su2_to_matrix(p):
    """Points (..., 4) -> complex matrices (..., 2, 2), stored as entry_planes."""
    p = np.asarray(p, dtype=float)
    w0, w1, w2, w3 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    m = entry_planes(p.shape[:-1], 2)
    re, im = m.real, m.imag   # entries written part by part: no complex temporaries
    re[..., 0, 0], im[..., 0, 0] = w0, w3
    re[..., 0, 1], im[..., 0, 1] = w2, w1
    np.negative(w2, out=re[..., 1, 0])
    im[..., 1, 0] = w1
    re[..., 1, 1] = w0
    np.negative(w3, out=im[..., 1, 1])
    return m


def su2_haar(rng, size=()):
    """Haar-distributed points: uniform on the unit 3-sphere."""
    shape = (size,) if np.isscalar(size) else tuple(size)
    x = rng.standard_normal(shape + (4,))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    return x


def su2_haar_density(a):
    """Haar density on the algebra ball |A| <= pi: sin^2|A| / (2 pi^2 |A|^2).

    Normalized so its integral over the ball is 1; the value at the origin
    is 1/(2 pi^2).
    """
    a = np.asarray(a, dtype=float)
    r = np.linalg.norm(a, axis=-1)
    s = _sinc_ball(r)
    return s * s / (2.0 * np.pi**2)


def su2_angle(p):
    """Rotation angle theta = arctan2(|w|, w0) in [0, pi] of a point.

    The eigenvalue angles are +-theta.  Unlike arccos(w0) or arcsin|w| it
    keeps full relative precision at every angle, small ones included.
    """
    p = np.asarray(p, dtype=float)
    return np.arctan2(np.linalg.norm(p[..., 1:], axis=-1), p[..., 0])


def su2_angle_norm_sq(p):
    """Squared angle norm |lam|^2 = 2 theta^2 of a point, theta = su2_angle(p).

    Equals the squared coefficient norm of the principal matrix logarithm
    (eigenvalue angles are +-theta).
    """
    theta = su2_angle(p)
    return 2.0 * theta * theta


def capital_e(gamma):
    """E(gamma) = integral of y^2 e^{-y^2} over [0, gamma], gamma a scalar.

    Closed form (sqrt(pi)/4) erf(gamma) - (gamma/2) e^{-gamma^2};
    E(inf) = sqrt(pi)/4.
    """
    if gamma == math.inf:
        return E_INF
    return E_INF * math.erf(gamma) - (gamma / 2.0) * math.exp(-gamma * gamma)


def su2_z_weyl_coupling(c):
    """One-bond value over the eigenvalue-angle measure at coupling c.

    z = (1/(4 pi)) * integral over lam in (-pi, pi] of
        e^{-4c(1-cos lam)} * 4 sin^2(lam),
    the 4 sin^2 factor being the squared eigenvalue-difference density of
    the angle pair (lam, -lam).  The action is written as 8c sin^2(lam/2),
    stable for peaked c, and haar's rule runs on the window of the U(N)
    one-bond values.
    """
    require_positive(c, "coupling")
    from .haar import legendre_integral, peak_half_width  # haar imports su2

    def node_value(x, w):
        density = 4.0 * np.sin(x) ** 2
        return float(np.dot(w, np.exp(-8.0 * c * np.sin(x / 2.0) ** 2) * density))

    return legendre_integral(node_value, peak_half_width(c),
                             f"one-bond SU(2) integral at c = {c:g}") / (4.0 * np.pi)


def su2_z_gluon(a, g_sq, d):
    """One-bond gluon partition value at c = a^{d-4}/g^2.

    The radial form (2/pi) * integral over r in [0, pi] of
    e^{-4c(1-cos r)} sin^2 r is the eigenvalue-angle integral of
    su2_z_weyl_coupling (r is the rotation angle theta), so it is computed
    there.
    """
    return su2_z_weyl_coupling(coupling(a, g_sq, d))


@dataclass(frozen=True)
class Su2BoundCheck:
    """Sandwich of the scaled one-bond value between its two constants."""

    scaled_value: float
    lower: float
    upper: float

    @property
    def passed(self):
        return self.lower <= self.scaled_value <= self.upper


def su2_bound_constants(d, g0_sq=4.0):
    """(lower, upper) constants for c^{3/2} z with c = a^{d-4}/g^2.

    Valid uniformly over a in (0, 1] and g^2 <= g0_sq.  The lower constant
    comes from restricting the radial integral to [0, pi/2] with
    sin r >= 2r/pi and the quadratic action bound with 2(d-1) plaquettes
    per bond; it is evaluated at the smallest admissible coupling
    c = 1/g0_sq since E is increasing.  The upper constant (pi^2/4) E(inf)
    dominates the Gaussian tail bound for every c.
    """
    check_dimension(d)
    require_positive(g0_sq, "g0^2")
    upper = (np.pi**2 / 4.0) * E_INF
    gamma0 = np.pi * QUAD_BOUND_C * np.sqrt(2.0 * (d - 1)) / (2.0 * np.sqrt(g0_sq))
    pref = (2.0 / (np.pi * QUAD_BOUND_C * np.sqrt(2.0 * (d - 1)))) ** 3
    lower = pref * capital_e(gamma0)
    return float(lower), float(upper)


def su2_bounds_check(a, g_sq, d, g0_sq=4.0):
    """Check the a- and g-independent sandwich for the scaled one-bond value."""
    lower, upper = su2_bound_constants(d, g0_sq)
    if g_sq > g0_sq:
        raise UsageError(f"g^2 must be <= g0^2 = {g0_sq}, got {g_sq}")
    c = coupling(a, g_sq, d)
    # Checked first: where c^(3/2) overflows, z is below the normal range.
    scale = c * math.sqrt(c)
    if not scale < math.inf:
        raise NumericError(f"c^(3/2) overflows at c = {c:g}")
    scaled = scale * su2_z_gluon(a, g_sq, d)
    return Su2BoundCheck(scaled_value=float(scaled), lower=lower, upper=upper)
