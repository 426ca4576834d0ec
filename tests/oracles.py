"""Reference implementations the tests compare the package against.

No command reaches them, so they live with the tests: SU(2) four-vector
arithmetic and the quaternion plaquette action (the independent route to
actions.plaquette_actions), the Haar sampler's expressions with
batch-sized temporaries (haar.haar_sample builds its matrices in place),
lexicographic site indexing, the field-level Bose actions and gauge
transformations, identity bond arrays (no command builds one: the
package takes identity-bond Bose values from a closed form), the full Bose
form Q in band storage (partition builds only its Schur complement on one
parity class), the Gaussian chain and transfer kernels behind
the Bose upper rate, and the d = 2 one-bond and L-independent rate bounds.
"""

import numpy as np

from boselgt.errors import NumericError, UsageError
from boselgt.haar import cue_norm, gue_norm, lead_slices
from boselgt.partition import logdet_posdef, z_single_bond
from boselgt.su2 import _sinc_ball, su2_angle

# ------------------------------------------------------------------- SU(2)

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


# -------------------------------------------------------------- sampling

def haar_sample_with_temporaries(rng, n, kind="U", size=()):
    """Haar matrices through batch-sized temporaries, the same random stream.

    The real and imaginary Gaussian entries are two batch arrays joined by
    re + 1j * im; U(1) is z / |z|; SU(2) is x / |x| on the quaternion points
    with complex entry sums; the other groups run Gram-Schmidt with one
    re-orthogonalisation pass over haar.lead_slices of the batch, on fresh
    column arrays.  haar.haar_sample, which builds every matrix in its
    output, must give the same matrices bit for bit.
    """
    shape = (size,) if np.isscalar(size) else tuple(size)
    if kind == "SU" and n == 2:
        x = rng.standard_normal(shape + (4,))
        w0, w1, w2, w3 = np.moveaxis(x / np.linalg.norm(x, axis=-1, keepdims=True), -1, 0)
        m = np.empty(shape + (2, 2), dtype=complex)
        m[..., 0, 0] = w0 + 1j * w3
        m[..., 0, 1] = w2 + 1j * w1
        m[..., 1, 0] = -w2 + 1j * w1
        m[..., 1, 1] = w0 - 1j * w3
        return m
    if n == 1:
        z = rng.standard_normal(shape + (1, 1)) + 1j * rng.standard_normal(shape + (1, 1))
        return z / np.abs(z)
    re = rng.standard_normal(shape + (n, n)).reshape(-1, n, n)
    im = rng.standard_normal(shape + (n, n)).reshape(-1, n, n)
    q = np.empty(re.shape, dtype=complex)
    for s in lead_slices(len(q), n):
        done = []
        for k in range(n):
            col = [re[s, i, k] + 1j * im[s, i, k] for i in range(n)]
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
                q[s, i, k] = x
            done.append((col, [np.conj(x) for x in col]))
        if kind == "SU":
            if n == 3:
                (a, d, g), (b, e, h), (c, f, i) = (col for col, _ in done)
                det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
            else:
                det = np.linalg.det(q[s])
            q[s, 0, :] = q[s, 0, :] * np.conj(det)[:, None]
    return q.reshape(shape + (n, n))


# ---------------------------------------------------------- gauge configs

def identity_bonds(n, size):
    """Identity bond matrices of shape size + (n, n), complex and writable."""
    return np.ones(size)[..., None, None] * np.eye(n, dtype=complex)


# ----------------------------------------------------------------- lattice

def site_index(lattice, coords):
    """Dense index of a 1-based coordinate tuple (lexicographic order)."""
    coords = np.asarray(coords)
    if coords.shape[-1] != lattice.d:
        raise ValueError(f"expected {lattice.d} coordinates, got {coords.shape[-1]}")
    if np.any(coords < 1) or np.any(coords > lattice.L):
        raise ValueError(f"coordinates must lie in 1..{lattice.L}")
    idx = np.zeros(coords.shape[:-1], dtype=np.int64)
    for k in range(lattice.d):
        idx = idx * lattice.L + (coords[..., k] - 1)
    return idx if idx.ndim else int(idx)


# ------------------------------------------------------ field-level actions

def gauge_transform(lattice, bonds, site_unitaries):
    """g_b -> r_tail g_b r_head^dag for per-site matrices (n_sites, N, N)."""
    r = np.asarray(site_unitaries, dtype=complex)
    return r[lattice.bond_tail] @ bonds @ np.conj(
        np.swapaxes(r[lattice.bond_head], -1, -2))


def field_transform(field, site_unitaries):
    """phi_x -> r_x phi_x (use orthogonal r for real fields)."""
    r = np.asarray(site_unitaries)
    out = np.einsum("sij,sj->si", r, np.asarray(field))
    return np.real(out) if np.isrealobj(field) and np.isrealobj(r) else out


def _hopping_sum(lattice, bonds, field):
    """sum over bonds of Re <phi_tail, g_b phi_head>."""
    phi = np.asarray(field)
    moved = np.einsum("bij,bj->bi", bonds, phi[lattice.bond_head])
    return float(np.sum(np.real(np.conj(phi[lattice.bond_tail]) * moved)))


def bose_action(params, bonds, field):
    """Scaled Bose action sum_x |phi_x|^2 / 2 - kappa^2 sum_b Re<phi, g phi>."""
    _check_field(params, field)
    lat = params.lattice
    site = 0.5 * float(np.sum(np.abs(field) ** 2))
    return site - params.scaling.kappa_sq * _hopping_sum(lat, bonds, field)


def bose_action_unscaled(params, bonds, field):
    """Unscaled Bose action; equals bose_action(params, bonds, s_B * field)."""
    _check_field(params, field)
    lat = params.lattice
    s = params.scaling
    site = 0.5 * s.bose_scale**2 * float(np.sum(np.abs(field) ** 2))
    hop = params.kappa_u_sq * params.a ** (params.d - 2)
    return site - hop * _hopping_sum(lat, bonds, field)


def _check_field(params, field):
    phi = np.asarray(field)
    expect = (params.lattice.n_sites, params.n)
    if phi.shape != expect:
        raise ValueError(f"field must have shape {expect}, got {phi.shape}")
    if params.field_kind == "real" and np.iscomplexobj(phi):
        raise ValueError("real model given a complex field")


# ------------------------------------------------------------- Bose form Q

def banded_form(n_nodes, width, tails, heads, hops):
    """Lower band of Q = 1 - (hopping blocks), stacked over the lead axes.

    hops has shape lead + (n_links, width, width) and ab the layout
    (kd + 1,) + lead + (n_nodes * width,) with ab[k, ..., c] = Q[..., c + k, c].
    Link i adds -hops[i] at block (tails[i], heads[i]) and its transpose at
    the mirrored block; heads[i] > tails[i], so only the transpose lies in
    the lower band.  The band is kd = max(heads - tails) * width + width - 1
    wide, and no two links share an entry, so one scatter places them all.
    """
    lead = hops.shape[:-3]
    kd = int((heads - tails).max()) * width + width - 1
    ab = np.zeros((kd + 1,) + lead + (n_nodes * width,))
    ab[0] = 1.0
    # Entry [i, r, c] is Q[heads[i] w + r, tails[i] w + c]; the index arrays
    # straddle the lead axes, so the values come as (n_links, w, w) + lead.
    a = np.arange(width)
    rows = (heads * width)[:, None, None] + a[:, None]
    cols = (tails * width)[:, None, None] + a
    ab[rows - cols, ..., cols] = -np.moveaxis(
        np.swapaxes(hops, -1, -2), range(len(lead)), range(-len(lead), 0))
    return ab


def bose_form_band(params, bonds):
    """Band of the full Bose form Q with S_Bose = phi^T Q phi / 2.

    Fields are site-major blocks of width N (real) or 2 N (complex, the
    R^{2N} embedding of each bond), so M = n_sites * width.  Diagonal blocks
    are the identity; each bond contributes -kappa^2 times its coupling
    block and the transpose on the mirrored position.
    """
    lat = params.lattice
    if params.field_kind == "real":
        blocks = np.real(bonds)
    else:
        re, im = np.real(bonds), np.imag(bonds)
        blocks = np.block([[re, -im], [im, re]])
    return banded_form(lat.n_sites, blocks.shape[-1], lat.bond_tail,
                       lat.bond_head, params.scaling.kappa_sq * blocks)


# ------------------------------------------------------- chain and kernels

def chain_partition(length, n, d, gauge_list=None, kappa_sq=None):
    """Gaussian chain value det(1 - d kappa^2 A)^{-1/2} on an open line.

    A is the symmetrized adjacency with one orthogonal block per link (the
    identity when gauge_list is None).  The value does not depend on the
    gauge blocks at all, which is asserted cheaply via the similarity
    transform structure in the tests.  kappa_sq defaults to the massless
    hopping 1/(2d); the closed form for length 2, N = 1 is
    (1 - d^2 kappa^4)^{-1/2}.
    """
    if length < 2:
        raise UsageError(f"chain length must be >= 2, got {length}")
    if kappa_sq is None:
        kappa_sq = 1.0 / (2.0 * d)
    if gauge_list is None:
        gauge_list = [np.eye(n)] * (length - 1)
    if len(gauge_list) != length - 1:
        raise ValueError(f"need {length - 1} gauge blocks, got {len(gauge_list)}")
    for g in gauge_list:
        if np.shape(g) != (n, n):
            raise ValueError(f"gauge blocks must be {n} x {n}, got {np.shape(g)}")
    links = np.arange(length - 1)
    hops = d * kappa_sq * np.asarray(gauge_list, dtype=float)
    ab = banded_form(length, n, links, links + 1, hops[None])   # a stack of one
    logdet = logdet_posdef(ab, context="chain quadratic form")[0]
    return float(np.exp(-0.5 * logdet))


def transfer_kernel_matrix(d_kappa_sq=0.5, g=1.0, n_points=512, x_max=8.0):
    """Symmetrized discretization of the one-bond transfer kernel (N = 1 real).

    T(x, y) = e^{-x^2/4} e^{d kappa^2 x g y} e^{-y^2/4} on [-x_max, x_max],
    midpoint grid, scaled by the cell width so singular values approximate
    the L2(R) operator norm.  At d kappa^2 = 1/2 and g = 1 the kernel is
    e^{-(x-y)^2/4} whose exact norm is sqrt(4 pi).
    """
    step = 2.0 * x_max / n_points
    x = -x_max + step * (np.arange(n_points) + 0.5)
    kernel = np.exp(-x[:, None] ** 2 / 4.0
                    + d_kappa_sq * g * x[:, None] * x[None, :]
                    - x[None, :] ** 2 / 4.0)
    return step * kernel


def transfer_kernel_norm(d_kappa_sq=0.5, g=1.0, n_points=512, x_max=8.0):
    """Largest singular value of the discretized one-bond kernel."""
    k = transfer_kernel_matrix(d_kappa_sq, g, n_points, x_max)
    return float(np.linalg.norm(k, ord=2))


# transfer_kernel_norm_complex: midpoint grid per axis, power-iteration stop.
COMPLEX_KERNEL_POINTS = 96
COMPLEX_KERNEL_X_MAX = 9.0
COMPLEX_KERNEL_RTOL = 1e-10
COMPLEX_KERNEL_MAX_ITER = 500


def transfer_kernel_norm_complex(d_kappa_sq=0.5, theta=0.3):
    """Norm of the complex-field kernel for U(1), discretized on R^2.

    The field has two real components; the coupling rotates by theta.  The
    exact norm at d kappa^2 = 1/2 is 4 pi (the square of the real case).

    The grid operator is n_points^2 square (COMPLEX_KERNEL_POINTS per axis),
    far too large to materialize, but the kernel factors into four one-axis
    coupling matrices

        K(x, y) = f(x1) f(x2) prod_{ij} exp(t R_ij x_i y_j) f(y1) f(y2),

    so one matvec is two tensor contractions of O(n_points^3) memory.  The
    top singular value comes from power iteration on K^T K (K itself is not
    symmetric for theta != 0), stopped at relative change COMPLEX_KERNEL_RTOL.
    """
    n_points = COMPLEX_KERNEL_POINTS
    step = 2.0 * COMPLEX_KERNEL_X_MAX / n_points
    x = -COMPLEX_KERNEL_X_MAX + step * (np.arange(n_points) + 0.5)
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    t = d_kappa_sq
    e = {(i, j): np.exp(t * rot[i, j] * np.outer(x, x)) for i in (0, 1)
         for j in (0, 1)}
    f = np.exp(-x * x / 4.0)

    def apply_kernel(v, transpose):
        # v indexed (y1, y2); contract y2 first, then y1; transpose swaps
        # the roles of R and R^T, i.e. mirrors the (i, j) indices.
        def blk(i, j):
            return e[(j, i)] if transpose else e[(i, j)]
        u = (f[:, None] * f[None, :]) * v
        w = np.einsum("ad,bd,cd->abc", blk(0, 1), blk(1, 1), u, optimize=True)
        out = np.einsum("ac,bc,abc->ab", blk(0, 0), blk(1, 0), w, optimize=True)
        return (f[:, None] * f[None, :]) * out * step**2

    # Deterministic positive start; the top eigenfunction has no nodes.
    v = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / 8.0)
    v /= np.linalg.norm(v)
    sigma_sq_prev = 0.0
    for _ in range(COMPLEX_KERNEL_MAX_ITER):
        w = apply_kernel(apply_kernel(v, False), True)
        sigma_sq = float(np.linalg.norm(w))
        v = w / sigma_sq
        if abs(sigma_sq - sigma_sq_prev) <= COMPLEX_KERNEL_RTOL * sigma_sq:
            return float(np.sqrt(sigma_sq))
        sigma_sq_prev = sigma_sq
    raise NumericError("power iteration for the complex kernel norm "
                       f"did not converge in {COMPLEX_KERNEL_MAX_ITER} steps")


# ------------------------------------------------------------------ bounds

def d2_bond_upper_checks(params):
    """Direct one-bond inequalities for d = 2: scaled z against two constants.

    Returns (scaled_value, literal_constant, sharp_constant); the scaled
    value must not exceed either.  The sharp constant is
    (pi/2)^{N^2} gue_norm/cue_norm, the literal one replaces pi/2 by
    pi^2/2 and is therefore much looser.  Both are U(N) constants, so SU
    raises UsageError; SU(2) has su2.su2_bounds_check.
    """
    if params.d != 2:
        raise UsageError(f"d = 2 only, got d = {params.d}")
    if params.kind != "U":
        raise UsageError(
            f"the d = 2 one-bond constants are for U(N), got {params.kind}({params.n}); "
            "su2_bounds_check covers SU(2)")
    n = params.n
    c = params.scaling.coupling
    z = z_single_bond(c, n, kind=params.kind).value
    scaled = c ** (n * n / 2.0) * z
    ratio = gue_norm(n) / cue_norm(n)
    literal = (np.pi**2 / 2.0) ** (n * n) * ratio
    sharp = (np.pi / 2.0) ** (n * n) * ratio
    return float(scaled), float(literal), float(sharp)


def combined_rates_uniform(consts, d):
    """L-independent majorant of BoundConstants.combined_rates in dimension d:
    Lr/Ls < d, so the gauge rate is scaled by d with the sign kept on the
    safe side."""
    return (consts.bose_lower + d * min(consts.gauge_lower, 0.0),
            consts.bose_upper + d * max(consts.gauge_upper, 0.0))
