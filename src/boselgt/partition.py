"""Partition values: exact Bose determinants, gauge Monte Carlo, one-bond
integrals, and the transfer-kernel (chain) constructions.

All Gaussian integrals use the measure with a factor (2 pi)^{-1/2} per real
field component, so a decoupled site integrates to exactly 1 and the Bose
partition value is det(Q)^{-1/2} per real flavor, with Q the quadratic form
of the action.  Complex fields are handled through the standard embedding
of C^N into R^{2N}: a unitary g becomes the orthogonal 2N x 2N block matrix
[[Re g, -Im g], [Im g, Re g]], the determinant of the real form is the
square of the Hermitian one, and a complex flavor contributes det^{-1}.

Quadratic forms are kept in LAPACK lower band storage, ab[k, c] = Q[c + k, c].
Sites are ordered lexicographically, so a bond couples sites at most
L^{d-1} apart and Q has lower bandwidth kd = (L^{d-1} + 1) * width - 1 with
width = N (real) or 2 N (complex).  The banded Cholesky costs about M kd^2
instead of M^3 / 3 and stores (kd + 1) M entries instead of M^2.

A stack of forms, one per gauge configuration in a bond array of shape
lead + (n_bonds, N, N), is one array ab of shape (kd + 1,) + lead + (M,)
with ab[k, ..., c] = Q[..., c + k, c].  The band axis comes first, so
ab.reshape(kd + 1, -1) is, without a copy, the band of the block-diagonal
matrix of all the forms: entries past the end of each form are zero, so
neighbours do not couple, and one banded Cholesky factorises the stack.
This module is the only place that lays out or factorises Q.

Values that can leave the double range are carried as logarithms; Estimate
keeps both, with log_value authoritative, and carries its error on the log
scale, where a known scale factor does not touch it.

scipy is imported inside logdet_posdef, the one function that uses it, so
the commands that never factorise a form start without loading it.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import mc
from .actions import identity_bonds, plaquette_actions
from .errors import NotPositiveDefiniteError, NumericError, UsageError
from .haar import check_group, haar_sample, peaked_cue_integral
from .lattice import require_positive
# weyl_integrate, su2_haar and su2_to_matrix are not called here:
# perfbench/spans.py rebinds them in this module, and its Tracer.rebind
# fails on a missing name.
from .haar import weyl_integrate
from .su2 import su2_haar, su2_to_matrix

METHODS = ("exact-determinant", "quadrature", "monte-carlo")


@dataclass(frozen=True)
class Estimate:
    """A partition value (or similar scalar) with provenance.

    log_value is always finite and authoritative; value is exp(log_value)
    when that fits in a double and 0.0 / inf otherwise.  std_error_log is
    the standard error of log_value: for Monte Carlo the relative standard
    error sigma / mean of the unscaled sample mean, 0 for deterministic
    methods.  A known scale, such as the gauge scale s_Y^{d(N) Lr}, shifts
    log_value and leaves std_error_log alone, so every rescaling is
    replace(est, log_value=est.log_value + shift).  For Monte Carlo
    estimates n_samples and seed identify the run.
    """

    log_value: float
    std_error_log: float
    method: str
    n_samples: int = 0
    seed: int | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.std_error_log < 0.0:
            raise ValueError(f"std_error_log must be >= 0, got {self.std_error_log}")

    @property
    def value(self):
        if self.log_value > 709.0:
            return np.inf
        if self.log_value < -745.0:
            return 0.0
        return float(np.exp(self.log_value))

    @property
    def std_error(self):
        """Standard error of value (0.0 for exact estimates, even at inf)."""
        return self.value * self.std_error_log if self.std_error_log else 0.0

    @classmethod
    def exact(cls, log_value, method="exact-determinant"):
        return cls(log_value=float(log_value), std_error_log=0.0, method=method)

    @classmethod
    def from_moments(cls, moments, seed):
        m = moments
        if m.mean <= 0.0:
            raise NumericError(
                f"Monte Carlo mean of a positive quantity came out {m.mean:.6e}: "
                "the weights underflowed")
        return cls(log_value=float(np.log(m.mean)),
                   std_error_log=m.std_error / m.mean,
                   method="monte-carlo", n_samples=m.n, seed=seed)


# ----------------------------------------------------------- Bose sector

def _banded_form(n_nodes, width, tails, heads, hops):
    """Lower band of Q = 1 - (hopping blocks), stacked over the lead axes.

    hops has shape lead + (n_links, width, width) and ab the module's layout
    (kd + 1,) + lead + (n_nodes * width,).  Link i adds -hops[i] at block
    (tails[i], heads[i]) and its transpose at the mirrored block; heads[i] >
    tails[i], so only the transpose lies in the lower band.  The band is
    kd = max(heads - tails) * width + width - 1 wide, and no two links share
    an entry, so one scatter places them all.
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


def bose_quadratic_form(params, bonds):
    """Real symmetric Q with S_Bose = phi^T Q phi / 2, in lower band storage.

    bonds has shape lead + (n_bonds, N, N) and ab has shape
    (kd + 1,) + lead + (M,).  Fields are site-major blocks of width N for
    real fields and 2 N for complex ones (the R^{2N} embedding of each
    bond), so M = n_sites * width.  Diagonal blocks are the
    identity; each bond contributes -kappa^2 times its coupling block and
    the transpose on the mirrored position.
    """
    lat = params.lattice
    if params.field_kind == "real":
        blocks = np.real(bonds)
    else:
        re, im = np.real(bonds), np.imag(bonds)
        blocks = np.block([[re, -im], [im, re]])
    return _banded_form(lat.n_sites, blocks.shape[-1], lat.bond_tail,
                        lat.bond_head, params.scaling.kappa_sq * blocks)


def logdet_posdef(ab, context="quadratic form"):
    """log det of symmetric positive definite band matrices via Cholesky.

    A 2-D band ab[k, c] = Q[c + k, c] gives a float; a stack of shape
    (kd + 1,) + lead + (M,) gives an array over lead, from one banded
    Cholesky of the block-diagonal stack.  The Gershgorin bound says
    eigenvalues are at least 1 - 2 d kappa^2 times the largest coupling row
    sum, so well inside the hopping range the factorization cannot fail; if
    it does (e.g. at the massless edge with round-off), the smallest
    eigenvalue of the stack is named in the error.
    """
    import scipy.linalg

    stacked = ab.reshape(ab.shape[0], -1)
    try:
        chol = scipy.linalg.cholesky_banded(stacked, lower=True)
    except np.linalg.LinAlgError:
        smallest = scipy.linalg.eigvals_banded(
            stacked, lower=True, select="i", select_range=(0, 0))
        raise NotPositiveDefiniteError(
            f"{context} is not positive definite", float(smallest[0])) from None
    logdet = 2.0 * np.sum(np.log(chol[0].reshape(ab.shape[1:])), axis=-1)
    return float(logdet) if ab.ndim == 2 else logdet


def z_bose_exact(params, bonds):
    """Exact scaled Bose partition value det(Q)^{-n_flavors/2} as an Estimate.

    For complex fields Q is the real embedding, giving det^{-n_flavors}
    of the Hermitian form automatically.
    """
    ab = bose_quadratic_form(params, bonds)
    logdet = logdet_posdef(ab, context="Bose quadratic form")
    return Estimate.exact(-0.5 * params.n_flavors * logdet)


def z_bose_exact_unscaled(params, scaled):
    """Unscaled Bose value from the scaled Estimate of z_bose_exact.

    Q_u = s_B^2 Q exactly, so log Z_B shifts by -(n_flavors / 2) M log s_B^2.
    """
    m = params.lattice.n_sites * params.n * (1 if params.field_kind == "real" else 2)
    shift = m * np.log(params.scaling.bose_scale**2)
    return replace(scaled, log_value=scaled.log_value - 0.5 * params.n_flavors * shift)


# ---------------------------------------------------------- gauge sector

def z_wilson_mc(params, n_samples, seed, n_workers=1, gauge_fixed=False,
                block_size=mc.DEFAULT_BLOCK_SIZE):
    """Monte Carlo mean of e^{-S_w} over Haar bond configurations.

    With gauge_fixed=True only the bonds outside the enhanced temporal tree
    are sampled (tree bonds stay at the identity), which leaves the value
    unchanged by gauge invariance and cuts the sampled volume; the variance
    is comparable either way.  Warns when the relative standard error
    exceeds 10%.
    """
    lat = params.lattice
    if gauge_fixed:
        active = params.gauge_fixing.retained_bonds
    else:
        active = np.arange(lat.n_bonds)
    coupling = params.scaling.coupling
    n = params.n

    def block(rng, count):
        bonds = identity_bonds(n, (count, lat.n_bonds))
        bonds[:, active] = haar_sample(rng, n, kind=params.kind,
                                       size=(count, len(active)))
        action = coupling * np.sum(plaquette_actions(lat, bonds), axis=-1)
        return np.exp(-action)

    moments = mc.sample_mean(block, n_samples, seed,
                             n_workers=n_workers, block_size=block_size)
    est = Estimate.from_moments(moments, seed)
    if est.std_error_log > 0.1:
        warnings.warn(
            f"gauge Monte Carlo relative error {est.std_error_log:.1%} "
            "exceeds 10%; increase n_samples", stacklevel=2)
    return est


# -------------------------------------------------------- one-bond values

def z_single_bond(c, n=1, kind="U"):
    """One-bond gauge partition value at coupling c = a^{d-4} / g^2.

    The Haar average of e^{-c |1 - g|_HS^2} written over eigenvalue angles:
    U(N) for every N through the Gram determinant of peaked_cue_integral,
    SU(2) through its radial angle integral.
    """
    require_positive(c, "coupling")
    check_group(kind, n)
    if kind == "SU":
        if n != 2:
            raise UsageError("one-bond values for SU(N) are implemented for N = 2 only")
        # Angles (lam, -lam) with density 4 sin^2(lam).  Imported here so
        # that a rebinding of su2.su2_z_weyl_coupling is seen.
        from .su2 import su2_z_weyl_coupling
        return su2_z_weyl_coupling(c)

    # The angle action 2c sum(1 - cos lam) is evaluated as 4c sum sin^2(lam/2):
    # same number, but free of the 1 - cos cancellation that otherwise floods
    # the convergence check with round-off noise once c is large and the
    # relevant angles shrink like 1/sqrt(c).
    def action(lam):
        half = np.sin(lam / 2.0)
        return 4.0 * c * np.sum(half * half, axis=-1)

    return peaked_cue_integral(action, n, peak_scale=c)


def z_wilson_d2_exact(params):
    """For d = 2 the gauge partition value factorizes over retained bonds.

    Column-by-column Haar integration removes one bond per plaquette, so
    Z_w equals z_single_bond^{(L-1)^2} exactly; returned in log form.
    """
    if params.d != 2:
        raise UsageError(f"exact factorization requires d = 2, got {params.d}")
    z = z_single_bond(params.scaling.coupling, params.n, params.kind)
    n_ret = params.gauge_fixing.n_retained
    return Estimate.exact(n_ret * float(np.log(z)), method="quadrature")


# ----------------------------------------------------- chain and kernels

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
    ab = _banded_form(length, n, links, links + 1, hops)
    logdet = logdet_posdef(ab, context="chain quadratic form")
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


def complex_embedding_blocks(g):
    """(M, L) for a unitary g: M = [[g, ig], [-ig, g]] and L = M + conj(M).

    L is real and equals twice the real embedding [[Re g, -Im g], [Im g,
    Re g]], which is orthogonal, so L^T L = 4 * identity; the tests assert
    this numerically for random unitaries.
    """
    g = np.asarray(g, dtype=complex)
    m = np.block([[g, 1j * g], [-1j * g, g]])
    l = m + np.conj(m)
    return m, np.real(l)


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
