"""Haar sampling and eigenvalue-angle (Weyl) integration for U(N) and SU(N).

Sampling orthonormalises the columns of a complex Gaussian matrix Z by
Gram-Schmidt (Mezzadri, Notices AMS 54 (2007) 592).  That is the Q of the
unique factorization Z = Q R with R upper triangular and R's diagonal
positive.  Left-multiplying Z by a fixed unitary V leaves the Gaussian law
unchanged and turns Q into V Q with the same R, so Q is Haar distributed.
A library QR needs its columns rephased to make R's diagonal positive;
without that the library's sign convention biases the distribution.
Gram-Schmidt gives a positive diagonal by construction.  Each column is
projected twice against the earlier ones, which keeps Q unitary to round-off
(classical Gram-Schmidt with one re-orthogonalisation pass).  The loops run
over the N^2 matrix entries, each vectorised over all samples, so no
per-matrix LAPACK call is made.  SU(N) samples divide the determinant out of
one row, which pushes Haar on U(N) forward to Haar on SU(N) because right
translation by special unitaries commutes with the map.

Class-function integrals reduce to the eigenvalue angles.  For U(N) the
joint angle density is prod_{j<k} 2(1 - cos(l_j - l_k)) on (-pi, pi]^N with
normalization N! (2 pi)^N; for SU(N) the last angle is eliminated through
the determinant constraint and the normalization drops one factor of 2 pi.
The squared-Vandermonde form of the same density is kept as a cross-check.

Quadrature here is for bounded smooth class functions: a tensor grid of
midpoint/trapezoid nodes, which converges spectrally for periodic
integrands.  Sharply peaked one-bond integrands are handled elsewhere with
a rescaling; see scaled_grid_integral.
"""

from math import factorial

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureError, UsageError

MAX_ANGLE_AXES_N = 3  # eigenvalue quadrature refuses N >= 4 (cost blows up)

_WEYL_NODES_SMALL = 256  # per axis for N <= 2
_WEYL_NODES_N3 = 96

# Half-width cap of the rescaled peak box: wherever the action dominates
# (4/pi^2) peak_scale |lam|^2 the tail beyond it is below e^{-70} relative.
PEAK_MAX_HALF_WIDTH = 13.5


def wrap_angle(lam):
    """Wrap angles into (-pi, pi]; the branch value -pi maps to +pi."""
    w = np.mod(np.asarray(lam, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    return np.where(w == -np.pi, np.pi, w)


# ---------------------------------------------------------------- sampling

def haar_sample(rng, n, kind="U", size=()):
    """Haar-distributed matrices of shape size + (n, n).

    kind "U" or "SU".  The Gaussian columns are orthonormalised by
    Gram-Schmidt with one re-orthogonalisation pass, entry by entry over the
    whole batch; for n = 1 that is normalizing one complex Gaussian (SU(1)
    is the trivial group).
    """
    if kind not in ("U", "SU"):
        raise UsageError(f"unknown group kind {kind!r}")
    if n < 1:
        raise UsageError(f"matrix size must be >= 1, got {n}")
    shape = (size,) if np.isscalar(size) else tuple(size)
    if n == 1:
        if kind == "SU":
            return np.ones(shape + (1, 1), dtype=complex)
        z = rng.standard_normal(shape + (1, 1)) + 1j * rng.standard_normal(shape + (1, 1))
        return z / np.abs(z)
    z = rng.standard_normal(shape + (n, n)) + 1j * rng.standard_normal(shape + (n, n))
    q = np.empty_like(z)
    done = []   # finished columns and their conjugates, one plane per row
    for k in range(n):
        col = [z[..., i, k].copy() for i in range(n)]
        for _ in range(2):
            for u, conj_u in done:
                c = conj_u[0] * col[0]
                for i in range(1, n):
                    c += conj_u[i] * col[i]
                for i in range(n):
                    col[i] -= c * u[i]
        norm = np.sqrt(sum(x.real * x.real + x.imag * x.imag for x in col))
        for i, x in enumerate(col):
            x /= norm
            q[..., i, k] = x
        done.append((col, [np.conj(x) for x in col]))
    if kind == "SU":
        det = np.linalg.det(q)
        q[..., 0, :] = q[..., 0, :] * np.conj(det)[..., None]
    return q


# ------------------------------------------------------- ensemble densities

def cue_density(angles):
    """prod_{j<k} 2 (1 - cos(l_j - l_k)) over the last axis of `angles`.

    Evaluated as 4 sin^2((l_j - l_k)/2), which keeps full precision for
    nearly degenerate pairs where the subtraction form loses to round-off;
    in particular the pointwise bound against the squared gap survives in
    floating point because |sin u| <= |u| does.
    """
    lam = np.asarray(angles, dtype=float)
    n = lam.shape[-1]
    out = np.ones(lam.shape[:-1])
    for j in range(n):
        for k in range(j + 1, n):
            half = np.sin((lam[..., j] - lam[..., k]) / 2.0)
            out = out * 4.0 * half * half
    return out


def cue_density_vandermonde(angles):
    """|prod_{j<k} (e^{i l_j} - e^{i l_k})|^2, the same density, other route."""
    lam = np.asarray(angles, dtype=float)
    z = np.exp(1j * lam)
    n = lam.shape[-1]
    out = np.ones(lam.shape[:-1])
    for j in range(n):
        for k in range(j + 1, n):
            out = out * np.abs(z[..., j] - z[..., k]) ** 2
    return out


def gue_density(y):
    """Squared Vandermonde prod_{j<k} (y_j - y_k)^2 over the last axis."""
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    out = np.ones(y.shape[:-1])
    for j in range(n):
        for k in range(j + 1, n):
            out = out * (y[..., j] - y[..., k]) ** 2
    return out


def cue_norm(n):
    """Normalization of the U(N) angle density: (2 pi)^N N!."""
    return (2.0 * np.pi) ** n * float(factorial(n))


def gue_norm(n):
    """Gaussian integral of the squared Vandermonde:

    integral over R^N of e^{-|y|^2} prod_{j<k}(y_j - y_k)^2
        = (2 pi)^{N/2} 2^{-N^2/2} prod_{j=1..N} j!.
    """
    return (2.0 * np.pi) ** (n / 2.0) * 2.0 ** (-n * n / 2.0) * \
        float(np.prod([float(factorial(j)) for j in range(1, n + 1)]))


# ------------------------------------------------------------- quadrature

def _angle_nodes(m):
    """Uniform nodes in (-pi, pi] with weight 2 pi / m (periodic trapezoid)."""
    return -np.pi + 2.0 * np.pi * (np.arange(1, m + 1)) / m


def _weyl_value(f, n, kind, m):
    nodes = _angle_nodes(m)
    w = 2.0 * np.pi / m
    if kind == "U":
        grids = np.meshgrid(*[nodes] * n, indexing="ij")
        lam = np.stack([g.ravel() for g in grids], axis=-1)
        weight = w**n / cue_norm(n)
    else:
        free = n - 1
        grids = np.meshgrid(*[nodes] * free, indexing="ij")
        lam_free = np.stack([g.ravel() for g in grids], axis=-1)
        lam_last = wrap_angle(-np.sum(lam_free, axis=-1))
        lam = np.concatenate([lam_free, lam_last[:, None]], axis=-1)
        weight = w**free / (factorial(n) * (2.0 * np.pi) ** free)
    vals = np.asarray(f(lam), dtype=float)
    return float(np.sum(vals * cue_density(lam)) * weight)


def weyl_integrate(f, n, kind="U", rtol=1e-8, atol=0.0):
    """Haar expectation of a class function given by its angle form.

    f maps an array (..., N) of eigenvalue angles to values (...,).  The
    measure is normalized: f = 1 integrates to 1.  The grid is halved once
    and the difference must satisfy
    |fine - coarse| <= max(rtol |fine|, atol), else a QuadratureError reports
    the achieved relative tolerance.  The absolute floor matters only for
    integrals that vanish by symmetry, where no relative target is meaningful;
    the default atol=0 keeps the check purely relative.
    """
    if kind not in ("U", "SU"):
        raise UsageError(f"unknown group kind {kind!r}")
    if kind == "SU" and n < 2:
        raise UsageError("SU(N) needs N >= 2")
    if n > MAX_ANGLE_AXES_N:
        raise UsageError(
            f"eigenvalue-angle quadrature supports N <= {MAX_ANGLE_AXES_N}, got {n}")
    nodes = _WEYL_NODES_SMALL if n <= 2 else _WEYL_NODES_N3
    val = _weyl_value(f, n, kind, nodes)
    coarse = _weyl_value(f, n, kind, nodes // 2)
    err = abs(val - coarse)
    if err > max(rtol * abs(val), atol):
        achieved = err / max(abs(val), 1e-300)
        raise QuadratureError("eigenvalue-angle quadrature did not converge", achieved)
    return val


def scaled_grid_integral(f, n_axes, half_width, nodes=None):
    """Tensor Gauss-Legendre integral of f over [-half_width, half_width]^n_axes.

    f maps (m, n_axes) points to (m,) values and must be smooth; used for
    one-bond integrands after rescaling the peak to unit width.  With two or
    more axes f is called once per node of the first axis, on the full grid
    of the others, so one call sees nodes^(n_axes - 1) points.
    """
    if n_axes > MAX_ANGLE_AXES_N:
        raise UsageError(
            f"grid integral supports up to {MAX_ANGLE_AXES_N} axes, got {n_axes}")
    if nodes is None:
        nodes = 192 if n_axes <= 2 else 128
    x, w = leggauss(nodes)
    x = x * half_width
    w = w * half_width
    if n_axes == 1:
        return float(np.sum(w * np.asarray(f(x[:, None]), dtype=float)))
    rest = np.meshgrid(*[x] * (n_axes - 1), indexing="ij")
    rest_pts = np.stack([g.ravel() for g in rest], axis=-1)
    rest_w = np.ones(rest_pts.shape[0])
    for axis, g in enumerate(np.meshgrid(*[w] * (n_axes - 1), indexing="ij")):
        rest_w = rest_w * g.ravel()
    total = 0.0
    for i in range(nodes):
        pts = np.concatenate(
            [np.full((rest_pts.shape[0], 1), x[i]), rest_pts], axis=-1)
        total += w[i] * float(np.sum(rest_w * np.asarray(f(pts), dtype=float)))
    return total


def peaked_cue_integral(action_of_angles, n, peak_scale, rtol=1e-9):
    """(1/cue_norm) integral over (-pi, pi]^N of e^{-action} * cue density.

    For actions concentrated near the origin with curvature ~ peak_scale:
    substituting lam = y / sqrt(s), s = max(peak_scale, 1), moves the peak to
    unit width, and Gauss-Legendre on [-Y, Y]^N with
    Y = min(pi sqrt(s), PEAK_MAX_HALF_WIDTH) resolves it.  The truncation is
    safe whenever the action dominates (4/pi^2) * peak_scale * |lam|^2.
    Convergence is checked by halving the node count.
    """
    s = max(float(peak_scale), 1.0)
    root = np.sqrt(s)
    half = min(np.pi * root, PEAK_MAX_HALF_WIDTH)

    def integrand(y):
        lam = y / root
        return np.exp(-action_of_angles(lam)) * cue_density(lam)

    def value(m):
        raw = scaled_grid_integral(integrand, n_axes=n, half_width=half, nodes=m)
        return raw * root ** (-n) / cue_norm(n)

    nodes = 192 if n <= 2 else 128
    fine = value(nodes)
    coarse = value(nodes // 2)
    achieved = abs(fine - coarse) / max(abs(fine), 1e-300)
    if achieved > rtol:
        raise QuadratureError("one-bond angle integral did not converge", achieved)
    return fine


def gue_integral(u, n):
    """integral over [-u, u]^N of e^{-|y|^2} prod_{j<k}(y_j - y_k)^2.

    u = inf uses Gauss-Hermite nodes (exact: the Vandermonde factor is a
    polynomial of degree 2(N-1) per variable); finite u uses Gauss-Legendre
    with the Gaussian folded into the integrand.  At u = inf the value is
    gue_norm(N).
    """
    if n > MAX_ANGLE_AXES_N:
        raise UsageError(f"gue_integral supports N <= {MAX_ANGLE_AXES_N}, got {n}")
    if n < 1:
        raise UsageError(f"N must be >= 1, got {n}")
    if np.isinf(u):
        x, w = hermgauss(64)
        if n == 1:
            return float(np.sum(w))
        grids = np.meshgrid(*[x] * n, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        wts = np.ones(pts.shape[0])
        for g in np.meshgrid(*[w] * n, indexing="ij"):
            wts = wts * g.ravel()
        return float(np.sum(wts * gue_density(pts)))
    if u <= 0.0:
        raise UsageError(f"integration half-width must be positive, got {u}")
    return scaled_grid_integral(
        lambda y: np.exp(-np.sum(y * y, axis=-1)) * gue_density(y),
        n_axes=n, half_width=float(u))
