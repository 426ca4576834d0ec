"""Model parameters, lattice actions, and the scaling between pictures.

Two equivalent descriptions of the Bose sector are used.  The unscaled one
carries the bare mass m_u, bare hopping kappa_u^2 and explicit powers of the
lattice spacing; the scaled one absorbs everything into a single hopping
parameter

    kappa^2 = u / (a^2 + 2 d u),   u = kappa_u^2 / m_u^2,

(kappa^2 = 1/(2d) in the massless case) together with the field rescaling
phi = s_B phi_u, s_B^2 = a^{d-2} (m_u^2 a^2 + 2 d kappa_u^2).  The identity
S_u(phi / s_B) = S(phi) holds exactly and is what the scaling tests pin.

The gauge sector uses the Wilson plaquette action

    S_w = (a^{d-4} / g^2) * sum over plaquettes of |1 - hol(p)|_HS^2,

where hol(p) = g1 g2 g3^dag g4^dag multiplies the four bond matrices around
the plaquette with the two backward bonds inverted.  With the half-plaquette
products A = g1 g2 and B = g4 g3 the holonomy is A B^dag, and since B is
unitary

    |1 - hol(p)|_HS^2 = |B - A|_F^2 = |g1 g2 - g4 g3|_F^2,

which is how the action is evaluated: a sum of squares, never negative and
free of the cancellation in 2(N - Re tr hol) near the identity, where small
lattice spacing puts every plaquette.  Per plaquette it lies in [0, 4N].
The kernel takes the flattened lead (sample) axes in slices of about
8192 / n_plaq samples (haar.lead_slices), so each temporary entry plane
holds about 8192 complex entries (128 KiB) and the memory it needs beyond
its output stays the same whatever the batch size.

A gauge configuration is a plain complex bond array of shape
lead + (n_bonds, N, N), one matrix per bond; random ones come from
haar.haar_sample and the trivial one from identity_bonds.

Fields are arrays of shape (n_sites, N): real dtype for the real model,
complex for the complex model.  The hopping term is written once as
-kappa^2 * Re <phi_x, g_b phi_y>, which reduces to phi_x . Re(g_b) phi_y
for real fields.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UsageError
# haar_sample is not called here: perfbench/spans.py rebinds it in this
# module, and its Tracer.rebind fails on a missing name.
from .haar import check_group, haar_sample, lead_slices
from .lattice import GaugeFixing, Lattice, coupling, require_positive

FIELD_KINDS = ("real", "complex")


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set of the coupled model on a finite lattice."""

    d: int
    L: int
    n: int = 1                 # matrix size N of the gauge group
    kind: str = "U"            # "U" or "SU"
    field_kind: str = "real"
    a: float = 1.0
    g_sq: float = 1.0
    g0_sq: float = 4.0         # admissible range is 0 < g_sq <= g0_sq
    kappa_u_sq: float = 1.0
    m_u: float = 0.0
    n_flavors: int = 1

    def __post_init__(self):
        check_group(self.kind, self.n)
        if self.field_kind not in FIELD_KINDS:
            raise UsageError(f"field kind must be one of {FIELD_KINDS}, got {self.field_kind!r}")
        require_positive(self.g0_sq, "g0^2")
        if not 0.0 < self.g_sq <= self.g0_sq:
            raise UsageError(
                f"g^2 must lie in (0, g0^2] = (0, {self.g0_sq}], got {self.g_sq}")
        if self.m_u < 0.0:
            raise UsageError(f"bare mass must be >= 0, got {self.m_u}")
        if self.kappa_u_sq < 0.0:
            raise UsageError(f"bare hopping must be >= 0, got {self.kappa_u_sq}")
        if self.kappa_u_sq == 0.0 and self.m_u == 0.0:
            raise UsageError("kappa_u^2 and m_u cannot both vanish")
        if self.n_flavors < 1:
            raise UsageError(f"flavor count must be >= 1, got {self.n_flavors}")
        self.lattice  # Lattice validates d, L, a.

    @cached_property
    def lattice(self):
        return Lattice(d=self.d, L=self.L, a=self.a)

    @cached_property
    def gauge_fixing(self):
        return GaugeFixing.enhanced_temporal(self.lattice)

    @property
    def scaling(self):
        return ScalingFactors.from_params(self)


@dataclass(frozen=True)
class ScalingFactors:
    """Derived scale factors connecting the unscaled and scaled pictures."""

    bose_scale: float    # s_B, field rescaling of the Bose sector
    gauge_scale: float   # s_Y = a^{(d-4)/2} / g, gluon field rescaling
    kappa_sq: float      # merged hopping parameter of the scaled action
    coupling: float      # c = a^{d-4} / g^2, one-bond action strength

    @classmethod
    def from_params(cls, p):
        a, d = p.a, p.d
        s_b_sq = a ** (d - 2) * (p.m_u**2 * a**2 + 2.0 * d * p.kappa_u_sq)
        if p.m_u == 0.0:
            # Algebraic limit of u/(a^2 + 2 d u) as u -> inf.
            kappa_sq = 1.0 / (2.0 * d)
        elif p.kappa_u_sq == 0.0:
            kappa_sq = 0.0
        else:
            u = p.kappa_u_sq / p.m_u**2
            kappa_sq = u / (a**2 + 2.0 * d * u)
        return cls(
            bose_scale=float(np.sqrt(s_b_sq)),
            gauge_scale=float(a ** ((d - 4) / 2.0) / np.sqrt(p.g_sq)),
            kappa_sq=float(kappa_sq),
            coupling=float(coupling(a, p.g_sq, d)),
        )


# ------------------------------------------------------------ gauge configs

def identity_bonds(n, size):
    """Identity bond matrices of shape size + (n, n), complex and writable."""
    shape = (size,) if np.isscalar(size) else tuple(size)
    return np.broadcast_to(np.eye(n, dtype=complex), shape + (n, n)).copy()


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


# ------------------------------------------------------------------ actions

def plaquette_actions(lattice, bonds):
    """|1 - hol|_HS^2 = |g1 g2 - g4 g3|_F^2 per plaquette, shape (..., n_plaq).

    The bonds are moved to entry planes (N, N, samples, n_bonds), the four
    corners gathered with np.take, and the half-plaquette products
    A = g1 g2 and B = g4 g3 formed entry by entry, vectorised over samples
    and plaquettes, so no per-matrix matmul loop is involved.  The lead axes
    are flattened and taken in slices of about _SLICE_ENTRIES // n_plaq
    samples (haar.lead_slices), each written into one preallocated output.
    """
    pb = lattice.plaq_bonds
    n = bonds.shape[-1]
    flat = bonds.reshape((-1,) + bonds.shape[-3:])
    out = np.empty((len(flat), len(pb)))
    for s in lead_slices(len(flat), len(pb)):
        # Contiguous so that each gathered plane g[i, j] is too.
        planes = np.ascontiguousarray(np.moveaxis(flat[s], (-2, -1), (0, 1)))
        g1, g2, g3, g4 = (np.take(planes, pb[:, c], axis=-1) for c in range(4))
        total = 0.0
        for i in range(n):
            for k in range(n):
                x = g1[i, 0] * g2[0, k]
                y = g4[i, 0] * g3[0, k]
                for j in range(1, n):
                    x += g1[i, j] * g2[j, k]
                    y += g4[i, j] * g3[j, k]
                x -= y
                total = total + (x.real * x.real + x.imag * x.imag)
        out[s] = total
    return out.reshape(bonds.shape[:-3] + (len(pb),))


def wilson_action(params, bonds):
    """Total gauge action (a^{d-4}/g^2) * sum of plaquette actions."""
    lat = params.lattice
    return params.scaling.coupling * np.sum(plaquette_actions(lat, bonds), axis=-1)


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
