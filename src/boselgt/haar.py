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
over the N^2 matrix entries, each vectorised over a slice of about 8192 / N
matrices (lead_slices, shared with the plaquette kernel
actions.plaquette_actions, which takes one plaquette at a time over 8192
samples, and the stacked Bose bands of partition.log_z_bose), so no
per-matrix LAPACK call is made.
A batch is logically size + (N, N), as every caller indexes it, but it
is stored bond-major in entry planes (su2.entry_planes): memory (N, N) +
reversed(size), so plane (i, k) holds entry (i, k) of every matrix with the
samples running fastest.  The plaquette kernel (actions.plaquette_actions)
and the Bose builder (partition.bose_quadratic_form) read those rows in
place, and both accept any layout, bit for bit.  The matrices are built in
the output: the real parts of the batch's Gaussian entries are drawn into
one C-ordered float buffer (the random stream fills the logical order) and
copied into the output's planes, then the imaginary
parts (all real parts first, as two separate draws would take them); each
slice is then orthonormalised in place on its entry planes.  The
arithmetic is that of the complex-temporary route tests/oracles.py keeps,
so the matrices are bit for bit the same.  Beyond its output a batch needs
that one float plane (half the output): under tracemalloc 0.5x for U(1),
U(2), U(3), SU(2) and SU(3) at 16384 x 54, where separate real and
imaginary draws and their complex sum needed 1.0-1.5x (numpy 2.4, 2-vCPU
Xeon).  One whole-batch draw per part rather than one per slice keeps two
worker threads from contending for the interpreter lock on many small
calls.  SU(2) samples are uniform points on the unit 3-sphere
(su2.su2_haar), normalised before the planes are allocated and written
into them part by part, with no complex temporaries and no determinant.
SU(N >= 3) samples divide the determinant out of one row, which pushes
Haar on U(N) forward to Haar on SU(N) because right translation by special
unitaries commutes with the map; for N = 3 the determinant is the triple
product of the entry planes, for N >= 4 one LU per matrix.  haar_sample is
the one sampler of bond matrices for every group, and angle_norm_sq reads
the eigenvalue angles of its matrices back (the plaquette-bound checks use
it).

Class-function integrals reduce to the eigenvalue angles.  For U(N) the
joint angle density is prod_{j<k} 2(1 - cos(l_j - l_k)) on (-pi, pi]^N with
normalization N! (2 pi)^N; for SU(N) the last angle is eliminated through
the determinant constraint and the normalization drops one factor of 2 pi.
The squared-Vandermonde form of the same density is kept as a cross-check.

weyl_integrate is a tensor grid of periodic trapezoid nodes for bounded
smooth class functions (N <= 3); it serves as the independent reference.
The one-bond and Gaussian integrals have integrands that are products over
the angles, so they go through Andreief's identity instead: the N-fold
integral of prod_j w(x_j) |det[p_a(x_j)]|^2 is N! det[integral of w p_a
conj(p_b)], an N x N determinant of 1-D integrals, which _gram_det takes by
Arnoldi: one basis at every coupling and any N.

legendre_integral, Gauss-Legendre on a symmetric window checked against half
as many nodes, is the one 1-D rule, in logs: U(N) Gram determinants, the
Gaussian box and the SU(2) angle integral (su2 imports it inside functions).
The one-bond integrals run in the peak variable x = s lam (peak_stretch),
where every integrand is O(1), so log z is exact even where z ~ c^{-d(N)/2}
is far outside the double range.
"""

from functools import lru_cache
from math import factorial, log, sqrt

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import NumericError, QuadratureError, UsageError
from .su2 import entry_planes, su2_angle_norm_sq, su2_haar, su2_to_matrix

# Entries per temporary plane of the sliced gauge kernels (128 KiB complex):
# about 8192 / N matrices per Gram-Schmidt slice of the sampler, and 8192
# samples per plaquette of the plaquette kernel, one slice per default
# block.  16384 is within noise of 8192 on gauge-mc and bound-verify
# wall_s and peak_rss_mb (perfbench/run.py --seed 43 --seconds 15
# --trace 0, ten alternating pairs each, 2-vCPU Xeon), so the smaller
# planes are kept.
_SLICE_ENTRIES = 8192

MAX_ANGLE_AXES_N = 3  # eigenvalue quadrature refuses N >= 4 (cost blows up)

_WEYL_NODES_SMALL = 256  # per axis for N <= 2
_WEYL_NODES_N3 = 96

# Half-width cap in peak widths 1/sqrt(peak_scale): wherever the action
# dominates (4/pi^2) peak_scale |lam|^2 the tail beyond it is below e^{-70}.
PEAK_MAX_HALF_WIDTH = 13.5

# Gauss-Legendre nodes of every 1-D integral; the convergence check of
# legendre_integral repeats the integral on half as many and demands the
# logs to agree to this.
_GRAM_NODES = 256
PEAK_QUAD_RTOL = 1e-9


def wrap_angle(lam):
    """Wrap angles into (-pi, pi]; the branch value -pi maps to +pi."""
    w = np.mod(np.asarray(lam, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    return np.where(w == -np.pi, np.pi, w)


def check_group(kind, n):
    """Raise UsageError unless kind(n) is U(N >= 1) or SU(N >= 2)."""
    if kind not in ("U", "SU"):
        raise UsageError(f"unknown group kind {kind!r}")
    if n < 1:
        raise UsageError(f"matrix size must be >= 1, got {n}")
    if kind == "SU" and n < 2:
        raise UsageError("SU(N) needs N >= 2")


# ---------------------------------------------------------------- sampling

def lead_slices(m, width, entries=None):
    """Slices covering range(m), each of about entries // width items.

    entries defaults to _SLICE_ENTRIES, read at call time.
    """
    step = max(1, (_SLICE_ENTRIES if entries is None else entries) // width)
    return [slice(lo, min(lo + step, m)) for lo in range(0, m, step)]


def haar_sample(rng, n, kind="U", size=()):
    """Haar-distributed matrices of shape size + (n, n).

    kind "U" or "SU".  The output is stored bond-major in entry planes
    (su2.entry_planes).  SU(2) comes from quaternion points (su2.su2_haar).
    Otherwise the output is allocated once and the matrices are built in
    it: the real parts of the batch's Gaussian entries are drawn into one
    float buffer and copied into the output, then the imaginary parts; U(1)
    divides by the modulus, and the other groups orthonormalise the columns
    by Gram-Schmidt with one re-orthogonalisation pass, entry by entry in
    place on each slice of the planes (lead_slices).
    """
    check_group(kind, n)
    if kind == "SU" and n == 2:
        return su2_to_matrix(su2_haar(rng, size))
    shape = (size,) if np.isscalar(size) else tuple(size)
    out = entry_planes(shape, n)
    buf = np.empty(out.shape)
    for part in (out.real, out.imag):
        rng.standard_normal(out=buf)
        part[...] = buf
    del buf   # freed first: the peak stays out + one float plane
    if n == 1:
        out /= np.abs(out)   # a float plane in out's memory order
        return out
    q = out.base.reshape(n, n, -1)   # entry (i, k) of every matrix is q[i, k]
    for s in lead_slices(q.shape[-1], n):
        planes = q[..., s]
        done = []   # finished columns and their conjugates, one plane per row
        for k in range(n):
            col = [planes[i, k] for i in range(n)]
            for _ in range(2):
                for u, conj_u in done:
                    c = conj_u[0] * col[0]
                    for i in range(1, n):
                        c += conj_u[i] * col[i]
                    for i in range(n):
                        col[i] -= c * u[i]
            norm = np.sqrt(sum(x.real * x.real + x.imag * x.imag for x in col))
            for x in col:
                x /= norm
            done.append((col, [np.conj(x) for x in col]))
        if kind == "SU":
            if n == 3:
                (a, d, g), (b, e, h), (c, f, i) = (col for col, _ in done)
                det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
            else:
                det = np.linalg.det(np.moveaxis(planes, -1, 0))
            planes[0] *= np.conj(det)
    return out


def angle_norm_sq(mats, kind):
    """Squared eigenvalue-angle norm sum_j lam_j^2 of unitaries (..., N, N) -> (...).

    U(1) reads the angle of the one entry; SU(2) reads the quaternion back
    from the entries su2_to_matrix lays out and takes su2_angle_norm_sq, which
    keeps full relative precision at small angles; other groups take the
    angles of np.linalg.eigvals.
    """
    n = mats.shape[-1]
    if n == 1:
        lam = np.angle(mats[..., 0, 0])
        return lam * lam
    if kind == "SU" and n == 2:
        top, right = mats[..., 0, 0], mats[..., 0, 1]
        return su2_angle_norm_sq(
            np.stack([top.real, right.imag, right.real, top.imag], axis=-1))
    lam = np.angle(np.linalg.eigvals(mats))
    return np.sum(lam * lam, axis=-1)


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
    check_group(kind, n)
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


_legendre = lru_cache(maxsize=None)(leggauss)  # nodes on [-1, 1], once per m


def _gram_det(u, weights, n, what):
    """log det of the N x N Gram matrix sum_i w_i u_i^a conj(u_i^b) under a 1-D rule.

    u holds the basis values (degree 1 in x or in e^{ix}) at the rule's
    nodes x_i, so det[u(x_j)^a] is their Vandermonde determinant; by
    Andreief's identity det is 1/N! times the N-fold integral of prod_j
    w(x_j) times its square under the rule.  The powers are never formed
    (Vandermonde with Arnoldi, Brubeck, Nakatsukasa & Trefethen, SIAM Rev.
    63 (2021) 405): from the constant vector, step a multiplies q_{a-1} by u,
    orthogonalises it once against q_0 .. q_{a-1} in the inner product
    sum_i w_i conj(x_i) y_i and divides it by its norm h_a.  The Gram matrix
    is L L^H with L_aa = h_0 ... h_a, so log det = sum_a (N - a) log h_a^2.
    A norm^2 that is not > 0, NaN included, is a NumericError naming `what`.
    """
    if n < 1:
        raise UsageError(f"matrix size must be >= 1, got {n}")
    q = np.empty((n, u.size), dtype=np.result_type(u, weights))
    wq = np.empty_like(q)   # row a is w conj(q_a), the projection functional
    v, wv, log_det = np.ones_like(q[0]), weights, 0.0
    for a in range(n):
        norm_sq = float((wv @ v).real)
        if not norm_sq > 0.0:
            raise NumericError(f"{what}: Gram determinant step {a} of {n}, norm^2 {norm_sq:g}")
        log_det += (n - a) * log(norm_sq)
        if a == n - 1:
            return log_det
        h = sqrt(norm_sq)
        q[a], wq[a] = v / h, wv / h
        v = u * q[a]
        v -= (wq[:a + 1] @ v) @ q[:a + 1]
        wv = v.conj() * weights


def legendre_integral(node_log, half_width, what):
    """node_log(x, w), a log, for the Gauss-Legendre rule (x, w) on [-half_width, half_width].

    Run at _GRAM_NODES and at half as many nodes: logs more than
    PEAK_QUAD_RTOL apart (to first order, that relative gap of the values)
    are a QuadratureError naming `what`.  Returns the fine log.
    """
    fine, coarse = (node_log(half_width * x, half_width * w) for x, w in
                    (_legendre(_GRAM_NODES), _legendre(_GRAM_NODES // 2)))
    achieved = abs(fine - coarse)
    if not achieved <= PEAK_QUAD_RTOL:
        raise QuadratureError(f"{what} did not converge", achieved)
    return fine


def peak_stretch(peak_scale):
    """s = max(1, pi sqrt(peak_scale) / PEAK_MAX_HALF_WIDTH): the peak variable
    x = s lam on |x| <= pi spans |lam| <= min(pi, PEAK_MAX_HALF_WIDTH /
    sqrt(peak_scale))."""
    return max(1.0, np.pi * sqrt(peak_scale) / PEAK_MAX_HALF_WIDTH)


def peaked_cue_integral(action_of_angles, n, peak_scale):
    """log of (1/cue_norm) integral over (-pi, pi]^N of e^{-action} * cue density.

    Precondition: the action is a sum of per-angle terms sum_j phi(lam_j);
    it is called on angles of shape (m, 1) to get the 1-D weight e^{-phi}.
    The rule runs in the peak variable x = s lam on |x| <= pi, s =
    peak_stretch(peak_scale).  Where the action dominates (4/pi^2) *
    peak_scale * |lam|^2, the weight cut off at |lam| = pi/s is negligible,
    but that bounds the weight only: the top orthonormal polynomials grow
    toward the cut faster than the weight falls.  For U(20) just past s = 1
    the dropped arc moves log z by 2.5e-11 at peak_scale 18.6, 3.3e-11 at
    19 and 5.7e-12 at 20 against mpmath (U(<= 16) stays within 1.2e-13),
    and the two-rule convergence check cannot see it.  The Gram basis
    s (e^{ix/s} - 1)^a vanishes at the peak and is O(1) on the window, so
    every entry is O(1) at any peak_scale.  In lam entry (a, b) carries
    s^{-(a+b+1)}, so the determinant carries s^{-N^2}: log z = log det -
    N^2 log s.
    """
    s = peak_stretch(peak_scale)
    what = f"one-bond angle integral at peak scale {peak_scale:g}"

    def gram(x, w):
        weights = (w / (2.0 * np.pi)) * np.exp(-action_of_angles(x[:, None] / s))
        return _gram_det(s * np.expm1(1j * x / s), weights, n, what)

    return legendre_integral(gram, np.pi, what) - n * n * log(s)


def gue_integral(u, n):
    """log of the integral over [-u, u]^N of e^{-|y|^2} prod_{j<k}(y_j - y_k)^2.

    N! times the Gram determinant of the monomials y^a, with the Gaussian
    folded into the Gauss-Legendre weights.  The box is clipped at
    PEAK_MAX_HALF_WIDTH, past which the Gaussian mass is below double
    precision, so u = inf is that box and gives log gue_norm(N).
    """
    if not u > 0.0:
        raise UsageError(f"integration half-width must be positive, got {u}")
    what = f"Gaussian box integral at u = {u:g}"
    return legendre_integral(
        lambda y, w: _gram_det(y, w * np.exp(-y * y), n, what) + log(factorial(n)),
        min(float(u), PEAK_MAX_HALF_WIDTH), what)
