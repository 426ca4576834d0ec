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

Fields are arrays of shape (n_sites, N): real dtype for the real model,
complex for the complex model.  The hopping term is written once as
-kappa^2 * Re <phi_x, g_b phi_y>, which reduces to phi_x . Re(g_b) phi_y
for real fields.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import UsageError
from .haar import haar_sample
from .lattice import GaugeFixing, Lattice

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
        if self.kind not in ("U", "SU"):
            raise UsageError(f"unknown group kind {self.kind!r}")
        if self.kind == "SU" and self.n < 2:
            raise UsageError("SU(N) needs N >= 2")
        if self.n < 1:
            raise UsageError(f"matrix size must be >= 1, got {self.n}")
        if self.field_kind not in FIELD_KINDS:
            raise UsageError(f"field kind must be one of {FIELD_KINDS}, got {self.field_kind!r}")
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
        # Lattice validates d, L, a.
        Lattice(d=self.d, L=self.L, a=self.a)

    @cached_property
    def lattice(self):
        return Lattice(d=self.d, L=self.L, a=self.a)

    @cached_property
    def gauge_fixing(self):
        return GaugeFixing.enhanced_temporal(self.lattice)

    @property
    def scaling(self):
        return ScalingFactors.from_params(self)

    def with_(self, **kw):
        return replace(self, **kw)


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
            coupling=float(a ** (d - 4) / p.g_sq),
        )


# ------------------------------------------------------------ gauge configs

@dataclass(frozen=True)
class GaugeConfig:
    """One bond matrix per lattice bond, shape (n_bonds, N, N) complex."""

    lattice: Lattice
    kind: str
    n: int
    bonds: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bonds, dtype=complex)
        expect = (self.lattice.n_bonds, self.n, self.n)
        if b.shape != expect:
            raise ValueError(f"bond array must have shape {expect}, got {b.shape}")
        object.__setattr__(self, "bonds", b)

    @classmethod
    def identity(cls, lattice, n=1, kind="U"):
        eye = np.broadcast_to(np.eye(n, dtype=complex),
                              (lattice.n_bonds, n, n)).copy()
        return cls(lattice=lattice, kind=kind, n=n, bonds=eye)

    @classmethod
    def random(cls, lattice, rng, n=1, kind="U"):
        mats = haar_sample(rng, n, kind=kind, size=lattice.n_bonds)
        return cls(lattice=lattice, kind=kind, n=n, bonds=mats)


def gauge_transform(config, site_unitaries):
    """g_b -> r_tail g_b r_head^dag for per-site matrices (n_sites, N, N)."""
    r = np.asarray(site_unitaries, dtype=complex)
    lat = config.lattice
    new = r[lat.bond_tail] @ config.bonds @ np.conj(
        np.swapaxes(r[lat.bond_head], -1, -2))
    return GaugeConfig(lattice=lat, kind=config.kind, n=config.n, bonds=new)


def field_transform(field, site_unitaries):
    """phi_x -> r_x phi_x (use orthogonal r for real fields)."""
    r = np.asarray(site_unitaries)
    out = np.einsum("sij,sj->si", r, np.asarray(field))
    return np.real(out) if np.isrealobj(field) and np.isrealobj(r) else out


# ------------------------------------------------------------------ actions

def _half_products(lattice, bonds):
    """A = g1 g2 and B = g4 g3 per plaquette as entry planes.

    Each is an N x N nested list whose entry [i][k] has shape
    (..., n_plaq); the products run entry by entry, vectorised over the
    lead axes and plaquettes, so no per-matrix matmul loop is involved.
    """
    # Entry planes first, (N, N, ..., n_bonds), contiguous so that each
    # gathered plane g[i, j] is too.
    planes = np.ascontiguousarray(np.moveaxis(bonds, (-2, -1), (0, 1)))
    g1, g2, g3, g4 = (np.take(planes, lattice.plaq_bonds[:, c], axis=-1)
                      for c in range(4))
    n = bonds.shape[-1]

    def product(x, y):
        out = []
        for i in range(n):
            row = []
            for k in range(n):
                acc = x[i, 0] * y[0, k]
                for j in range(1, n):
                    acc += x[i, j] * y[j, k]
                row.append(acc)
            out.append(row)
        return out

    return product(g1, g2), product(g4, g3)


def plaquette_holonomies(lattice, bonds):
    """Holonomy A B^dag per plaquette for bonds of shape (..., n_bonds, N, N)."""
    a, b = _half_products(lattice, bonds)
    n = len(a)
    hol = [[sum(a[i][j] * np.conj(b[k][j]) for j in range(n)) for k in range(n)]
           for i in range(n)]
    return np.moveaxis(np.array(hol), (0, 1), (-2, -1))


def plaquette_actions(lattice, bonds):
    """|1 - hol|_HS^2 = |g1 g2 - g4 g3|_F^2 per plaquette, shape (..., n_plaq)."""
    a, b = _half_products(lattice, bonds)
    total = 0.0
    for row_a, row_b in zip(a, b):
        for x, y in zip(row_a, row_b):
            x -= y
            total = total + (x.real * x.real + x.imag * x.imag)
    return total


def wilson_action(params, config_or_bonds):
    """Total gauge action (a^{d-4}/g^2) * sum of plaquette actions."""
    bonds = getattr(config_or_bonds, "bonds", config_or_bonds)
    lat = params.lattice
    return params.scaling.coupling * np.sum(plaquette_actions(lat, bonds), axis=-1)


def _hopping_sum(lattice, bonds, field):
    """sum over bonds of Re <phi_tail, g_b phi_head>."""
    phi = np.asarray(field)
    moved = np.einsum("bij,bj->bi", bonds, phi[lattice.bond_head])
    return float(np.sum(np.real(np.conj(phi[lattice.bond_tail]) * moved)))


def bose_action(params, config, field):
    """Scaled Bose action sum_x |phi_x|^2 / 2 - kappa^2 sum_b Re<phi, g phi>."""
    _check_field(params, field)
    lat = params.lattice
    site = 0.5 * float(np.sum(np.abs(field) ** 2))
    return site - params.scaling.kappa_sq * _hopping_sum(lat, config.bonds, field)


def bose_action_unscaled(params, config, field):
    """Unscaled Bose action; equals bose_action(params, config, s_B * field)."""
    _check_field(params, field)
    lat = params.lattice
    s = params.scaling
    site = 0.5 * s.bose_scale**2 * float(np.sum(np.abs(field) ** 2))
    hop = params.kappa_u_sq * params.a ** (params.d - 2)
    return site - hop * _hopping_sum(lat, config.bonds, field)


def _check_field(params, field):
    phi = np.asarray(field)
    expect = (params.lattice.n_sites, params.n)
    if phi.shape != expect:
        raise ValueError(f"field must have shape {expect}, got {phi.shape}")
    if params.field_kind == "real" and np.iscomplexobj(phi):
        raise ValueError("real model given a complex field")
