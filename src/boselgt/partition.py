"""Partition values: exact Bose determinants, gauge Monte Carlo and one-bond
integrals.

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
log_z_bose is the one Bose log-determinant path: bose-exact, the Bose
check and the full model all take log Z_B from it, stacked over slices of
about 2 MiB of band, and this module is the only place that lays out or
factorises Q.

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
from .actions import wilson_action
from .errors import NotPositiveDefiniteError, NumericError, UsageError
from .haar import check_group, haar_sample, lead_slices, peaked_cue_integral
from .lattice import require_positive
# weyl_integrate, su2_haar and su2_to_matrix are not called here:
# perfbench/spans.py rebinds them in this module, and its Tracer.rebind
# fails on a missing name.
from .haar import weyl_integrate
from .su2 import su2_haar, su2_to_matrix

METHODS = ("exact-determinant", "quadrature", "monte-carlo")
# exp overflows a double above this log value.
LOG_MAX_DOUBLE = float(np.log(np.finfo(float).max))
# Below this mean the squared deviations of the weights can underflow, so
# their m2, and with it the error bar, may read 0.
MIN_MC_MEAN = float(np.sqrt(np.finfo(float).tiny))
# Band entries per slice of a stacked Bose band (2 MiB of doubles).
BOSE_SLICE_ENTRIES = 1 << 18


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
        if self.log_value > LOG_MAX_DOUBLE:
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
        """Monte Carlo estimate from the merged Moments of positive weights.

        Raises NumericError when the mean is below MIN_MC_MEAN: at 0 every
        weight underflowed, and above 0 the error bar may have.
        """
        m = moments
        if not m.mean >= MIN_MC_MEAN:
            raise NumericError(
                f"Monte Carlo mean of a positive quantity came out {m.mean:.6e}, "
                f"below {MIN_MC_MEAN:.3e} (the square root of the smallest normal "
                "double): the weights or their squared deviations underflowed")
        return cls(log_value=float(np.log(m.mean)),
                   std_error_log=m.std_error / m.mean,
                   method="monte-carlo", n_samples=m.n, seed=seed)


# ----------------------------------------------------------- Bose sector

def _bandwidth(tails, heads, width):
    """Lower bandwidth kd of Q: the widest link, in fields, plus its block."""
    return int((heads - tails).max()) * width + width - 1


def _field_width(params):
    return params.n * (1 if params.field_kind == "real" else 2)


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
    kd = _bandwidth(tails, heads, width)
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


def log_z_bose(params, bonds):
    """Scaled log Z_B = -(n_flavors / 2) log det Q(g) per configuration.

    bonds has shape lead + (n_bonds, N, N); the result has shape lead (a
    0-d array for one configuration).  The forms are built and factorised
    as stacks over slices of about BOSE_SLICE_ENTRIES band entries
    (haar.lead_slices), so memory stays near the bonds whatever the lead
    size.  Forms in a stack do not couple, so each value equals that of
    its form factorised alone (bit for bit in every case tested, LAPACK's
    blocked kd >= 32 path too).  For complex fields Q is the real
    embedding, giving det^{-n_flavors} of the Hermitian form.
    """
    lat = params.lattice
    width = _field_width(params)
    kd = _bandwidth(lat.bond_tail, lat.bond_head, width)
    per_form = (kd + 1) * lat.n_sites * width
    lead = bonds.shape[:-3]
    flat = bonds.reshape((-1,) + bonds.shape[-3:])
    out = np.empty(len(flat))
    for s in lead_slices(len(flat), per_form, BOSE_SLICE_ENTRIES):
        out[s] = -0.5 * params.n_flavors * logdet_posdef(
            bose_quadratic_form(params, flat[s]), context="Bose quadratic form")
    return out.reshape(lead)


def z_bose_exact(params, bonds):
    """Exact scaled Bose partition value det(Q)^{-n_flavors/2} as an Estimate."""
    return Estimate.exact(log_z_bose(params, bonds))


def z_bose_exact_unscaled(params, scaled):
    """Unscaled Bose value from the scaled Estimate of z_bose_exact.

    Q_u = s_B^2 Q exactly, so log Z_B shifts by -(n_flavors / 2) M log s_B^2.
    """
    m = params.lattice.n_sites * _field_width(params)
    shift = m * np.log(params.scaling.bose_scale**2)
    return replace(scaled, log_value=scaled.log_value - 0.5 * params.n_flavors * shift)


# ---------------------------------------------------------- gauge sector

def z_wilson_mc(params, n_samples, seed, n_workers=1, gauge_fixed=False,
                block_size=mc.DEFAULT_BLOCK_SIZE):
    """Monte Carlo mean of e^{-S_w} over Haar bond configurations.

    With gauge_fixed=True only the bonds outside the enhanced temporal tree
    are drawn and passed to the kernel with their bond ids; the tree bonds
    are the identity, which the kernel supplies, so a block holds no full
    bond array.  Gauge invariance leaves the value unchanged, and the
    variance is comparable either way.  Warns when the relative standard
    error exceeds 10%.
    """
    active = params.gauge_fixing.retained_bonds if gauge_fixed else None
    n_active = params.lattice.n_bonds if active is None else len(active)

    def block(rng, count):
        bonds = haar_sample(rng, params.n, kind=params.kind, size=(count, n_active))
        return np.exp(-wilson_action(params, bonds, active))

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

