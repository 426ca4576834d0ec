"""Partition values: exact Bose determinants, gauge Monte Carlo and one-bond
integrals.

All Gaussian integrals use the measure with a factor (2 pi)^{-1/2} per real
field component, so a decoupled site integrates to exactly 1 and the Bose
partition value is det(Q)^{-1/2} per real flavor, with Q the quadratic form
of the action, S_Bose = phi^T Q phi / 2.  Complex fields are handled
through the standard embedding of C^N into R^{2N}: a unitary g becomes the
orthogonal 2N x 2N block matrix [[Re g, -Im g], [Im g, Re g]], the
determinant of the real form is the square of the Hermitian one, and a
complex flavor contributes det^{-1}.

Symmetric forms A are kept in LAPACK lower band storage, ab[k, c] =
A[c + k, c].  Sites are ordered lexicographically, so a bond couples sites at most
L^{d-1} apart and the full form Q has lower bandwidth kd = (L^{d-1} + 1) *
width - 1 with width = N (real) or 2 N (complex), on M = n_sites * width
columns.  The box with free boundaries is bipartite and every bond joins
the two parity classes, so in parity order Q = [[1, -B], [-B^T, 1]], with B
the kappa^2-scaled coupling from one class to the other.  Eliminating the
second class exactly leaves the Schur complement S = 1 - B B^T on the
first, and det Q = det S: the even-odd reduction of lattice QCD (T.
DeGrand and P. Rossi, Comput. Phys. Commun. 60 (1990) 211).  The kept
class is the sites whose 0-based coordinates sum to an odd number, never
the larger class.  Two kept sites couple in S when they share a
neighbour, so S has Q's bandwidth kd (for L >= 3; less at L = 2) on half
the columns, and its banded Cholesky, about M_kept kd^2, does half the
work.  The geometry of S (which bond products land on which band entries,
in a fixed summation order) is a plan cached per (d, L, width).

A stack of forms, one per gauge configuration in a bond array of logical
shape lead + (n_bonds, N, N) (any layout; haar.haar_sample stores it
bond-major in entry planes, which the builder reads in place), is one
array ab of shape (kd + 1,) + lead +
(M_kept,) with ab[k, ..., c] = S[..., c + k, c].  The band axis comes
first, so ab.reshape(kd + 1, -1) is, without a copy, the band of the
block-diagonal matrix of all the forms: entries past the end of each form
are zero, so neighbours do not couple, and one banded Cholesky factorises
the stack.  The band memory runs form by form and column by column, so
LAPACK factorises it in place.  Drawn configurations have one factorisation
path, log_z_bose: bose-exact --gauge random, the Bose check and the full
model all take log Z_B from it, stacked over slices of about 2 MiB of band
and builder temporaries, and this module is the only place that lays out
or factorises S.  Identity bonds need no factorisation: there Q is the
free hopping form of the box, whose spectrum is known, and
log_z_bose_identity sums it in closed form (the sweep and bose-exact
--gauge identity).  Two consequences of the reduction to keep in mind:

* z_bose_exact_unscaled still shifts by the full M = n_sites * width,
  since Q_u = s_B^2 Q on every field, kept or eliminated;
* a NotPositiveDefiniteError from log_z_bose names the first pivot of
  S's Cholesky factor that was not positive, not an eigenvalue of S or Q;
  with unitary bonds and kappa^2 <= 1/(2d) S is positive definite, so only
  bonds that are not unitary reach it.

Values that can leave the double range are carried as logarithms; Estimate
keeps both, with log_value authoritative, and carries its error on the log
scale, where a known scale factor does not touch it.

scipy is loaded inside logdet_posdef, the one function that uses it, so
the commands that never factorise a form, the sweep and bose-exact
--gauge identity among them, run without loading it.  The commands that do
load only scipy's Cython LAPACK module, never scipy.linalg (whose import
costs 28 MB and a quarter of a second), and only for LAPACK's dpbtrf.
Loading it sets the OpenBLAS behind that module to one thread, for good:
every factorisation then runs on one BLAS thread, in the caller's thread
or a Monte Carlo worker, so workers and BLAS threads do not oversubscribe
the cores, and no other module knows about LAPACK or BLAS.
"""

import ctypes
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import mc
from .actions import PlaquettePlan, wilson_action
from .errors import NotPositiveDefiniteError, NumericError, UsageError
from .haar import check_group, haar_sample, lead_slices, peaked_cue_integral
from .lattice import Lattice, require_positive
# weyl_integrate, su2_haar and su2_to_matrix are not called here:
# perfbench/spans.py rebinds them in this module, and its Tracer.rebind
# fails on a missing name.
from .haar import weyl_integrate
from .su2 import su2_haar, su2_to_matrix

METHODS = ("exact-determinant", "quadrature", "monte-carlo")
# exp of a log value in [LOG_MIN_NORMAL, LOG_MAX_DOUBLE] is a normal double:
# below it is subnormal or 0, above it overflows.
LOG_MIN_NORMAL = float(np.log(np.finfo(float).tiny))
LOG_MAX_DOUBLE = float(np.log(np.finfo(float).max))
# The smallest Monte Carlo mean an Estimate is given for, as a policy: such a
# mean comes from rare large weights, and nothing yet tests their tail.
MIN_MC_MEAN = float(np.sqrt(np.finfo(float).tiny))
# Band entries per slice of a stacked Bose band (2 MiB of doubles).
BOSE_SLICE_ENTRIES = 1 << 18


def exp_is_normal(log_value):
    """Whether exp(log_value) is a normal double: not subnormal, 0 or inf."""
    return LOG_MIN_NORMAL <= log_value <= LOG_MAX_DOUBLE


def safe_value(log_value):
    """exp(log_value) when it is a normal double, else None: the one exp of
    every reported value, so a payload's std_error is value * std_error_log."""
    return math.exp(log_value) if exp_is_normal(log_value) else None


@dataclass(frozen=True)
class Estimate:
    """A partition value (or similar scalar) with provenance.

    log_value is always finite and authoritative; value is exp(log_value)
    when that is a normal double and 0.0 / inf otherwise.  std_error_log is
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
        """exp(log_value) when that is a normal double, else inf or 0.0."""
        return safe_value(self.log_value) or (np.inf if self.log_value > 0.0 else 0.0)

    @property
    def std_error(self):
        """Standard error of value (0.0 for exact estimates, even at inf)."""
        return self.value * self.std_error_log if self.std_error_log else 0.0

    @classmethod
    def exact(cls, log_value, method="exact-determinant"):
        return cls(log_value=float(log_value), std_error_log=0.0, method=method)

    @classmethod
    def from_moments(cls, moments, seed):
        """Monte Carlo estimate from the merged mc.Moments of positive weights.

        log_value = shift + log(mean); std_error_log = sqrt(m2 / ((n - 1) n)) /
        mean.  NumericError when the mean is below MIN_MC_MEAN.
        """
        m = moments
        log_mean = m.shift + math.log(m.mean)
        if not log_mean >= math.log(MIN_MC_MEAN):
            mean = safe_value(log_mean)
            shown = f"exp({log_mean:.6g})" if mean is None else f"{mean:.6e}"
            raise NumericError(
                f"Monte Carlo mean of a positive quantity came out {shown}, "
                f"below {MIN_MC_MEAN:.3e} (the square root of the smallest normal "
                "double), the smallest mean an estimate is given for")
        return cls(log_value=log_mean,
                   std_error_log=math.sqrt(m.m2 / ((m.n - 1) * m.n)) / m.mean,
                   method="monte-carlo", n_samples=m.n, seed=seed)


# ----------------------------------------------------------- Bose sector

def _field_width(params):
    return params.n * (1 if params.field_kind == "real" else 2)


def _padded_groups(keys, values, pad):
    """Values grouped by key: a (depth, n_groups) table and the keys.

    Column g lists values[keys == groups[g]] in their given order and is
    filled up with pad; groups are the distinct keys in increasing order.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    new = np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
    group = np.cumsum(new) - 1
    rank = np.arange(len(keys)) - np.flatnonzero(new)[group]
    table = np.full((rank.max() + 1, group[-1] + 1), pad)
    table[rank, group] = values[order]
    return table, sorted_keys[new]


@dataclass(frozen=True, eq=False)
class _SchurPlan:
    """Where the entries of S = 1 - B B^T come from and where they go.

    The kept sites are those whose 0-based coordinates sum to an odd
    number, never the larger parity class; S is indexed by their rank in
    site order.  flip lists the bonds whose kept end is the head, where B
    holds the transpose of the bond's coupling block.  Bond id n_bonds is a
    zero block that pads every table.  diag (depth, n_kept) lists the bonds
    at each kept site, whose products B_b B_b^T sum to its diagonal block;
    left and right (2, n_off) list, for each lower off-diagonal block
    (k1, k2) with k1 > k2, the bonds from k1 and from k2 to the one or two
    eliminated sites next to both.  Every sum runs down a table column, so
    its order is fixed.  diag_pos and off_pos (width, width, n_blocks) give
    each block entry (i, j) its offset in a form's band laid out column by
    column, c (kd + 1) + r - c; entries above the diagonal of a diagonal
    block go to their mirror, which holds the same value.  form_entries
    counts, per form in doubles, every array bose_quadratic_form allocates,
    from the sizes of these tables.
    """

    n_bonds: int
    kd: int
    m: int
    flip: np.ndarray
    diag: np.ndarray
    left: np.ndarray
    right: np.ndarray
    diag_pos: np.ndarray
    off_pos: np.ndarray
    form_entries: int


@lru_cache(maxsize=None)
def _schur_plan(d, L, width):
    lat = Lattice(d, L)
    tail, head, nb = lat.bond_tail, lat.bond_head, lat.n_bonds
    kept = (lat.site_coords.sum(axis=1) - d) % 2 == 1
    rank = np.cumsum(kept) - 1
    n_kept = int(kept.sum())
    tail_kept = kept[tail]
    k_of = rank[np.where(tail_kept, tail, head)]
    e_of = np.where(tail_kept, head, tail)

    bond_ids = np.arange(nb)
    diag = _padded_groups(k_of, bond_ids, pad=nb)[0]
    # Ordered pairs of bonds at one eliminated site, from the later kept
    # site to the earlier one: (slot i, slot j, eliminated site) in C order.
    at_e = _padded_groups(e_of, bond_ids, pad=nb)[0]
    x, y = np.broadcast_arrays(at_e[:, None], at_e[None, :])
    k_pad = np.append(k_of, -1)
    lower = (x < nb) & (y < nb) & (k_pad[x] > k_pad[y])
    b1, b2 = x[lower], y[lower]
    pairs, blocks = _padded_groups(k_of[b1] * n_kept + k_of[b2],
                                   np.arange(len(b1)), pad=len(b1))
    left = np.append(b1, nb)[pairs]
    right = np.append(b2, nb)[pairs]
    off_k1, off_k2 = blocks // n_kept, blocks % n_kept
    kd = int((off_k1 - off_k2).max()) * width + width - 1

    a = np.arange(width)[:, None, None]
    b = np.arange(width)[None, :, None]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    diag_col = np.arange(n_kept) * width + lo
    diag_pos = diag_col * (kd + 1) + hi - lo
    row, col = off_k1 * width + a, off_k2 * width + b
    off_pos = col * (kd + 1) + row - col
    m = n_kept * width
    flip = np.flatnonzero(~tail_kept)
    # Doubles per form: the band, hops, the flip's gathered copy, the three
    # gathers, the two block outputs and one product (the larger).
    n_off = len(blocks)
    form_entries = (kd + 1) * m + width**2 * (
        nb + 1 + len(flip) + diag.size + left.size + right.size
        + n_kept + n_off + max(n_kept, n_off))
    return _SchurPlan(nb, kd, m, flip, diag, left, right,
                      diag_pos.ravel(), off_pos.ravel(), form_entries)


def _gram(left, right, start):
    """start - sum over k and slots c of left[i, k, c] right[j, k, c].

    left and right have shape (w, w, depth) + rest and the result (w, w) +
    rest.  One product at a time is formed, in one reused array, and
    subtracted from the result, k major and slot minor, so every entry sums
    in the same order whatever rest is.
    """
    w, depth = left.shape[1], left.shape[2]
    acc = np.empty((w, w) + left.shape[3:])
    acc[...] = start
    term = np.empty_like(acc)
    for k in range(w):
        for c in range(depth):
            acc -= np.multiply(left[:, None, k, c], right[None, :, k, c], out=term)
    return acc


def bose_quadratic_form(params, bonds):
    """Lower band of the Schur complement S of the Bose form Q.

    bonds has logical shape lead + (n_bonds, N, N) and ab has the module's
    layout (kd + 1,) + lead + (M_kept,) with M_kept = n_kept * width.  The
    bond blocks are read as rows (N, N, n_bonds, forms), the layout in which
    haar_sample stores a one-axis lead, so filling hops from its draws
    copies runs of contiguous samples, not a transpose.  Q = [[1,
    -B], [-B^T, 1]] in parity order, with B the kappa^2-scaled coupling from
    the kept sites to the eliminated ones, so det Q = det S with S = 1 -
    B B^T.  Bond b between kept site k and eliminated site e has block
    B_b = kappa^2 G_b (k the tail) or kappa^2 G_b^T (k the head), with
    G_b = Re(g_b) for real fields and the R^{2N} embedding of g_b for
    complex ones.  The band memory is ordered form by form and column by
    column, so the stacked band is Fortran-ordered and LAPACK factorises it
    in place.
    """
    lat, n_, k2 = params.lattice, params.n, params.scaling.kappa_sq
    width = _field_width(params)
    plan = _schur_plan(lat.d, lat.L, width)
    lead = bonds.shape[:-3]
    n, nb = math.prod(lead), plan.n_bonds
    # hops[i, k, b, f] = B_b[i, k] of form f; bond nb is the zero block.
    g = bonds.reshape((n,) + bonds.shape[-3:]).transpose(2, 3, 1, 0)
    hops = np.empty((width, width, nb + 1, n))
    hops[:, :, nb] = 0.0
    np.multiply(g.real, k2, out=hops[:n_, :n_, :nb])
    if width > n_:   # the R^{2N} embedding [[Re g, -Im g], [Im g, Re g]]
        np.multiply(g.imag, -k2, out=hops[:n_, n_:, :nb])
        np.multiply(g.imag, k2, out=hops[n_:, :n_, :nb])
        np.multiply(g.real, k2, out=hops[n_:, n_:, :nb])
    hops[:, :, plan.flip] = hops[:, :, plan.flip].swapaxes(0, 1)

    diag = np.take(hops, plan.diag, axis=2)
    band = np.zeros((n, plan.m * (plan.kd + 1)))
    identity = np.eye(width)[:, :, None, None]
    band[:, plan.diag_pos] = _gram(diag, diag, identity).reshape(-1, n).T
    band[:, plan.off_pos] = _gram(np.take(hops, plan.left, axis=2),
                                  np.take(hops, plan.right, axis=2), 0.0).reshape(-1, n).T
    band = band.reshape(lead + (plan.m, plan.kd + 1))
    return band.transpose((band.ndim - 1,) + tuple(range(band.ndim - 1)))


def logdet_posdef(ab):
    """log det of a stack of symmetric positive definite band matrices.

    ab has the module's layout (kd + 1,) + lead + (M,), and the result is
    an array over lead, from one banded Cholesky of the block-diagonal
    stack.  When the stack's columns are contiguous, the layout
    bose_quadratic_form returns, LAPACK factorises ab in place and ab holds
    the factor afterwards; any band that is not Fortran-contiguous is
    factorised on a copy, with the same result.  The Schur band S = 1 -
    B B^T of unitary bonds at kappa^2 <= 1/(2d) is positive definite: its
    bond blocks have norm at most kappa^2, so by the diamagnetic inequality
    (B. Simon, J. Funct. Anal. 32 (1979) 97) its smallest eigenvalue is at
    least that of identity bonds at the massless edge, sin^2(pi / (L + 1))
    > 0.  A band that is not positive definite raises
    NotPositiveDefiniteError with the first pivot that was not positive, the
    value LAPACK leaves in its diagonal, whichever layout ab has.  Entries
    that are not finite raise ValueError.

    LAPACK's dpbtrf comes from scipy's Cython LAPACK module, loaded from its
    file on the first call (once, under a lock, since that call may come
    from a worker thread) or taken from sys.modules when it is loaded
    already.  Loading it runs scipy's package __init__ but not
    scipy.linalg's: 3.7 MB and 23 ms against 28 MB and 274 ms for
    scipy.linalg (2-vCPU Xeon, numpy loaded).  dpbtrf is called
    through the module's capsule with ctypes, which releases the
    interpreter lock for the call, so two Monte Carlo worker threads
    factorise at once.  scipy's f2py wrapper of the same routine holds the
    lock throughout: a d4 L8 band took 7.39 ms per block on one thread and
    7.73 on two through it, and 4.03 on two through the capsule (one BLAS
    thread).  The load also sets the OpenBLAS behind the module to one
    thread (_lapack_of), so every call runs on one BLAS thread.  That is as
    fast or faster for the bands the benchmark, tests and scripts
    factorise (kd up to 512), and two workers do not oversubscribe two
    cores; a single band of kd >= 1000 factorises 40-65% slower than on
    OpenBLAS's default two threads (2-vCPU Xeon).  A BLAS without
    OpenBLAS's thread-count setter keeps its own threads, which is slower
    on two workers but gives the same factors.
    """
    global _LAPACK
    if _LAPACK is None:
        with _LAPACK_LOCK:
            if _LAPACK is None:
                module = sys.modules.get("scipy.linalg.cython_lapack")
                if module is None:
                    import scipy
                    spec = importlib.machinery.PathFinder.find_spec(
                        "scipy.linalg.cython_lapack",
                        [os.path.join(scipy.__path__[0], "linalg")])
                    module = importlib.util.module_from_spec(spec)
                    spec.loader.exec_module(module)
                    # The module enters itself in sys.modules.  Left there, a
                    # later import of scipy.linalg would find it and not bind
                    # it as scipy.linalg.cython_lapack; imported anew, it is
                    # this same module.
                    if sys.modules.get(spec.name) is module:
                        del sys.modules[spec.name]
                _LAPACK = _lapack_of(module)
    chol = np.require(ab.reshape(ab.shape[0], -1), dtype=float, requirements="FAW")
    info = ctypes.c_int()
    _LAPACK(b"L", ctypes.c_int(chol.shape[1]), ctypes.c_int(chol.shape[0] - 1),
            chol.ctypes.data, ctypes.c_int(chol.shape[0]), ctypes.byref(info))
    not_finite = "Bose quadratic form has entries that are not finite"
    if info.value > 0:
        # LAPACK stops at the first pivot that is not positive.  Reference
        # LAPACK's blocked path (kd >= 32) stops at a NaN one too, where
        # OpenBLAS runs on to a log det that is not finite.
        pivot = float(chol[0, info.value - 1])
        if np.isnan(pivot):
            raise ValueError(not_finite)
        raise NotPositiveDefiniteError("Bose quadratic form is not positive definite",
                                       pivot)
    logdet = 2.0 * np.sum(np.log(chol[0].reshape(ab.shape[1:])), axis=-1)
    if not np.all(np.isfinite(logdet)):
        raise ValueError(not_finite)
    return logdet


# Names of the BLAS thread-count setter: scipy's bundled OpenBLAS since
# scipy 1.13, plain OpenBLAS before.
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_set_num_threads", "openblas_set_num_threads")


def _lapack_of(cython_lapack):
    """dpbtrf as a ctypes caller, with its BLAS set to one thread.

    The first of _BLAS_THREAD_SYMBOLS that the library behind dpbtrf
    exports is called with 1, before logdet_posdef publishes dpbtrf, so no
    factorisation runs on more threads; a BLAS that exports neither keeps
    its own.  The setting holds for the whole process: scipy code the host
    runs afterwards uses one BLAS thread too.
    """
    dpbtrf = _capsule_function(cython_lapack.__pyx_capi__["dpbtrf"])
    # A library handle finds the symbols of everything the module links.
    lib = ctypes.CDLL(cython_lapack.__file__)
    for name in _BLAS_THREAD_SYMBOLS:
        if hasattr(lib, name):
            set_threads = getattr(lib, name)
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)
            break
    return dpbtrf


_LAPACK = None   # dpbtrf, once logdet_posdef has loaded LAPACK
_LAPACK_LOCK = threading.Lock()


def _capsule_function(capsule):
    """ctypes caller of a void (char *, int *, int *, double *, int *, int *) capsule.

    ctypes passes the ints by reference and releases the GIL for the call.
    """
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    int_p = ctypes.POINTER(ctypes.c_int)
    signature = ctypes.CFUNCTYPE(None, ctypes.c_char_p, int_p, int_p,
                                 ctypes.c_void_p, int_p, int_p)
    return signature(get_pointer(capsule, get_name(capsule)))


def log_z_bose(params, bonds):
    """Scaled log Z_B = -(n_flavors / 2) log det S(g) per configuration.

    bonds has shape lead + (n_bonds, N, N); the result has shape lead (a
    0-d array for one configuration).  The forms are built and factorised
    as stacks over slices of about BOSE_SLICE_ENTRIES doubles of band and
    builder temporaries (haar.lead_slices), so memory stays near the bonds
    whatever the lead size.  Forms in a stack do not couple, and the
    builder works entry by entry, so each value equals that of its form
    factorised alone (bit for bit in every case tested, LAPACK's blocked
    kd >= 32 path too).  For complex fields S comes from the real
    embedding, giving det^{-n_flavors} of the Hermitian form.
    """
    lat = params.lattice
    plan = _schur_plan(lat.d, lat.L, _field_width(params))
    lead = bonds.shape[:-3]
    flat = bonds.reshape((-1,) + bonds.shape[-3:])
    out = np.empty(len(flat))
    for s in lead_slices(len(flat), plan.form_entries, BOSE_SLICE_ENTRIES):
        logdet = logdet_posdef(bose_quadratic_form(params, flat[s]))
        out[s] = 0.0 - 0.5 * params.n_flavors * logdet   # +0.0, not -0.0, at kappa = 0
    return out.reshape(lead)


def log_z_bose_identity(params):
    """Scaled log Z_B at identity bonds, in closed form.

    With every bond the identity, Q = 1 - kappa^2 A (x) 1_width for the
    adjacency A of the free-boundary box.  A is the sum over directions of
    the path graph on L sites, whose eigenvalues are 2 cos(pi k / (L + 1)),
    k = 1..L, so Q has the eigenvalues 1 - 2 kappa^2 sum_mu cos(pi k_mu /
    (L + 1)), k in [1, L]^d, each width times, and log Z_B(1) =
    -(n_flavors width / 2) sum_k log(1 - 2 kappa^2 sum_mu cos(pi k_mu /
    (L + 1))).  Raises NotPositiveDefiniteError naming the smallest
    eigenvalue, 1 - 2 kappa^2 max_k sum_mu cos(pi k_mu / (L + 1)), when it
    is not positive.
    """
    c = np.cos(np.pi * np.arange(1, params.L + 1) / (params.L + 1))
    grid = np.meshgrid(*[c] * params.d, indexing="ij")
    lam = 2.0 * params.scaling.kappa_sq * sum(grid)
    smallest = 1.0 - float(lam.max())
    if not smallest > 0.0:
        raise NotPositiveDefiniteError(
            "Bose quadratic form at identity bonds is not positive definite",
            smallest)
    return 0.0 - 0.5 * params.n_flavors * _field_width(params) * float(
        np.sum(np.log1p(-lam)))


def z_bose_exact(params, bonds=None):
    """Exact scaled Bose partition value det(Q)^{-n_flavors/2} as an Estimate.

    bonds None stands for every bond the identity, whose value comes from
    the closed form log_z_bose_identity; given bonds are factorised by
    log_z_bose.
    """
    if bonds is None:
        return Estimate.exact(log_z_bose_identity(params))
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
    """Monte Carlo mean of e^{-S_w} over Haar bond configurations, from -S_w.

    With gauge_fixed=True only the bonds outside the enhanced temporal tree
    are drawn, and the one plaquette plan of the call treats the tree bonds
    as the identity, so a block holds no full bond array.  Gauge invariance
    leaves the value unchanged, and the variance is comparable either way.
    Warns when the relative standard error exceeds 10%.
    """
    plan = PlaquettePlan.for_bonds(
        params.lattice, params.gauge_fixing.retained_bonds if gauge_fixed else None)

    def block(rng, count):
        bonds = haar_sample(rng, params.n, kind=params.kind, size=(count, plan.n_drawn))
        return -wilson_action(params, plan, bonds)

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
    """One-bond gauge partition value at coupling c = a^{d-4} / g^2, an exact Estimate.

    The Haar average of e^{-c |1 - g|_HS^2} written over eigenvalue angles:
    U(N) for every N through the Gram determinant of peaked_cue_integral,
    SU(2) through its radial angle integral.  Both return log z, exact
    where z itself leaves the double range (z ~ c^{-d(N)/2} as c -> inf).
    """
    require_positive(c, "coupling")
    check_group(kind, n)
    if kind == "SU":
        if n != 2:
            raise UsageError("one-bond values for SU(N) are implemented for N = 2 only")
        # Angles (lam, -lam) with density 4 sin^2(lam).  Imported here so
        # that a rebinding of su2.su2_z_weyl_coupling is seen.
        from .su2 import su2_z_weyl_coupling
        return Estimate.exact(su2_z_weyl_coupling(c), method="quadrature")

    # The angle action 2c sum(1 - cos lam) is evaluated as 4c sum sin^2(lam/2):
    # same number, but free of the 1 - cos cancellation that otherwise floods
    # the convergence check with round-off noise once c is large and the
    # relevant angles shrink like 1/sqrt(c).
    def action(lam):
        half = np.sin(lam / 2.0)
        return 4.0 * c * np.sum(half * half, axis=-1)

    return Estimate.exact(peaked_cue_integral(action, n, c), method="quadrature")


def z_wilson_d2_exact(params):
    """For d = 2 the gauge partition value factorizes over retained bonds.

    Column-by-column Haar integration removes one bond per plaquette, so
    Z_w equals z_single_bond^{(L-1)^2} exactly; returned in log form.
    """
    if params.d != 2:
        raise UsageError(f"exact factorization requires d = 2, got {params.d}")
    log_z = z_single_bond(params.scaling.coupling, params.n, params.kind).log_value
    return Estimate.exact(params.lattice.n_retained * log_z, method="quadrature")
