"""SU(2) in the four-vector parametrization, and its one-bond integrals.

A group point is a real 4-vector p = (w0, w1, w2, w3) with |p| = 1,
representing the matrix w0*1 + i(w1*s1 + w2*s2 + w3*s3) with s_i the Pauli
matrices.  An algebra point is a real 3-vector A representing A.s, so that
the exponential e^{iA.s} has w0 = cos|A| and vector part sin(|A|)/|A| * A.
All functions broadcast over leading axes; points live in arrays of shape
(..., 4) and algebra vectors in (..., 3).

The one-bond gluon integrals at the end are the SU(2) counterparts of the
CUE eigenvalue integrals: the same number computed once over the radial
Haar density on the algebra ball and once over the eigenvalue-angle (Weyl)
measure, which is the cross-check the test suite pins down to 1e-9.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import erf

from .errors import QuadratureError, UsageError

# Series switch for sin(r)/r: below this radius the direct
# quotient loses digits, the 3-term even series is exact to < 1e-32 there.
SERIES_RADIUS = 1e-4

E_INF = np.sqrt(np.pi) / 4.0  # integral of y^2 e^{-y^2} over [0, inf)

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


def su2_exp(a):
    """Exponential e^{iA.s} of algebra vectors, shape (..., 3) -> (..., 4)."""
    a = np.asarray(a, dtype=float)
    r = np.linalg.norm(a, axis=-1)
    w0 = np.cos(r)
    vec = _sinc_ball(r)[..., None] * a
    return np.concatenate([w0[..., None], vec], axis=-1)


def su2_log(p):
    """Principal logarithm, shape (..., 4) -> (..., 3), |result| <= pi.

    The point (-1, 0, 0, 0) has no principal logarithm (every direction at
    radius pi maps to it) and raises ValueError.  The radius is su2_angle,
    arctan2(|w|, w0), which stays accurate where arcsin|w| does not: near the
    equator w0 = 0, where arcsin has unbounded slope, and near -1.
    """
    p = np.asarray(p, dtype=float)
    w0 = p[..., 0]
    w = p[..., 1:]
    wn = np.linalg.norm(w, axis=-1)
    if np.any((wn == 0.0) & (w0 < 0.0)):
        raise ValueError("logarithm undefined at -1")
    scale = su2_angle(p) / np.where(wn == 0.0, 1.0, wn)
    return scale[..., None] * w


def su2_mul(p, q):
    """Group product of points, broadcasting over leading axes.

    (w0 + i w.s)(v0 + i v.s) = w0 v0 - w.v + i(w0 v + v0 w - w x v).s,
    the cross term sign coming from s_a s_b = delta 1 + i eps_abc s_c.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    w0, w = p[..., 0], p[..., 1:]
    v0, v = q[..., 0], q[..., 1:]
    r0 = w0 * v0 - np.sum(w * v, axis=-1)
    rv = w0[..., None] * v + v0[..., None] * w - np.cross(w, v)
    return np.concatenate([r0[..., None], rv], axis=-1)


def su2_inverse(p):
    """Inverse (= conjugate transpose): negate the vector part."""
    p = np.asarray(p, dtype=float)
    return np.concatenate([p[..., :1], -p[..., 1:]], axis=-1)


def su2_to_matrix(p):
    """Points (..., 4) -> complex matrices (..., 2, 2)."""
    p = np.asarray(p, dtype=float)
    w0, w1, w2, w3 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    m = np.empty(p.shape[:-1] + (2, 2), dtype=complex)
    m[..., 0, 0] = w0 + 1j * w3
    m[..., 0, 1] = w2 + 1j * w1
    m[..., 1, 0] = -w2 + 1j * w1
    m[..., 1, 1] = w0 - 1j * w3
    return m


def su2_haar(rng, size=()):
    """Haar-distributed points: uniform on the unit 3-sphere."""
    shape = (size,) if np.isscalar(size) else tuple(size)
    x = rng.standard_normal(shape + (4,))
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


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


def su2_plaquette_action(p):
    """Wilson plaquette action 2 Re tr(1 - g) = 4 (1 - w0) of a point.

    For w0 > 0 it is evaluated as 4 |w|^2 / (1 + w0), the same number on the
    unit sphere, free of the 1 - w0 cancellation near the identity (the
    max(w0, 0) only keeps the unused branch finite at w0 = -1).
    """
    p = np.asarray(p, dtype=float)
    w0 = p[..., 0]
    near = 4.0 * np.sum(p[..., 1:] ** 2, axis=-1) / (1.0 + np.maximum(w0, 0.0))
    return np.where(w0 > 0.0, near, 4.0 * (1.0 - w0))


def capital_e(gamma):
    """E(gamma) = integral of y^2 e^{-y^2} over [0, gamma].

    Closed form (sqrt(pi)/4) erf(gamma) - (gamma/2) e^{-gamma^2};
    E(inf) = sqrt(pi)/4.
    """
    g = np.asarray(gamma, dtype=float)
    finite = np.isfinite(g)
    gf = np.where(finite, g, 1.0)
    val = (np.sqrt(np.pi) / 4.0) * erf(gf) - (gf / 2.0) * np.exp(-gf * gf)
    out = np.where(finite, val, E_INF)
    return float(out) if np.isscalar(gamma) or np.ndim(gamma) == 0 else out


def _coupling(a, g_sq, d):
    if not 0.0 < a <= 1.0:
        raise UsageError(f"lattice spacing must be in (0, 1], got {a}")
    if g_sq <= 0.0:
        raise UsageError(f"coupling g^2 must be positive, got {g_sq}")
    if d not in (2, 3, 4):
        raise UsageError(f"dimension must be 2, 3 or 4, got {d}")
    return a ** (d - 4) / g_sq


def _quad_split(f, lo, hi, c, rtol=1e-10):
    """Adaptive quadrature of f on [lo, hi], split near the e^{-4c(...)} peak."""
    mid = min(10.0 / np.sqrt(4.0 * c + 1.0), (lo + hi) / 2.0)
    mid = max(mid, lo + (hi - lo) * 1e-6)
    # quad warns when it thinks epsrel=1e-12 was missed; the achieved-error
    # check below turns that into a hard failure, so the warning is noise.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        v1, e1 = integrate.quad(f, lo, mid, epsabs=0.0, epsrel=1e-12, limit=200)
        v2, e2 = integrate.quad(f, mid, hi, epsabs=0.0, epsrel=1e-12, limit=200)
    val = v1 + v2
    achieved = (e1 + e2) / abs(val) if val != 0.0 else np.inf
    if achieved > rtol:
        raise QuadratureError("one-bond SU(2) integral did not converge", achieved)
    return val


def su2_z_gluon(a, g_sq, d):
    """One-bond gluon partition value over the radial Haar density.

    z = (2/pi) * integral over r in [0, pi] of e^{-4c(1-cos r)} sin^2 r,
    with c = a^{d-4}/g^2.
    """
    c = _coupling(a, g_sq, d)

    def f(r):
        # 4c(1 - cos r) written as 8c sin^2(r/2): stable for peaked c.
        return np.exp(-8.0 * c * np.sin(r / 2.0) ** 2) * np.sin(r) ** 2

    return (2.0 / np.pi) * _quad_split(f, 0.0, np.pi, c)


def su2_z_weyl_coupling(c):
    """One-bond value over the eigenvalue-angle measure at coupling c.

    z = (1/(4 pi)) * integral over lam in (-pi, pi] of
        e^{-4c(1-cos lam)} * 4 sin^2(lam),
    the 4 sin^2 factor being the squared eigenvalue-difference density of
    the angle pair (lam, -lam).
    """
    if c <= 0.0:
        raise UsageError(f"coupling must be positive, got {c}")

    def f(lam):
        # 4c(1 - cos lam) written as 8c sin^2(lam/2): stable for peaked c.
        return np.exp(-8.0 * c * np.sin(lam / 2.0) ** 2) * 4.0 * np.sin(lam) ** 2

    # Even integrand: integrate the half line and double.
    return (1.0 / (4.0 * np.pi)) * 2.0 * _quad_split(f, 0.0, np.pi, c)


def su2_z_weyl(a, g_sq, d):
    """su2_z_weyl_coupling at c = a^{d-4} / g^2."""
    return su2_z_weyl_coupling(_coupling(a, g_sq, d))


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
    if d not in (2, 3, 4):
        raise UsageError(f"dimension must be 2, 3 or 4, got {d}")
    if g0_sq <= 0.0:
        raise UsageError(f"g0^2 must be positive, got {g0_sq}")
    upper = (np.pi**2 / 4.0) * E_INF
    gamma0 = np.pi * QUAD_BOUND_C * np.sqrt(2.0 * (d - 1)) / (2.0 * np.sqrt(g0_sq))
    pref = (2.0 / (np.pi * QUAD_BOUND_C * np.sqrt(2.0 * (d - 1)))) ** 3
    lower = pref * capital_e(gamma0)
    return float(lower), float(upper)


def su2_bounds_check(a, g_sq, d, g0_sq=4.0):
    """Check the a- and g-independent sandwich for the scaled one-bond value."""
    if g_sq > g0_sq:
        raise UsageError(f"g^2 must be <= g0^2 = {g0_sq}, got {g_sq}")
    c = _coupling(a, g_sq, d)
    z = su2_z_gluon(a, g_sq, d)
    lower, upper = su2_bound_constants(d, g0_sq)
    return Su2BoundCheck(scaled_value=float(c**1.5 * z), lower=lower, upper=upper)
