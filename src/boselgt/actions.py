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
Bonds that are not drawn are the identity.  Which corners the kernel must
multiply is a PlaquettePlan, built once from the lattice and the drawn
bond ids where a caller chooses them and passed to every kernel call:
under the enhanced temporal gauge no tree corner is read or multiplied.
The kernel (plaquette_actions) goes through the plaquettes one at a time,
each over a slice of 8192 samples of the flattened lead axes
(haar.lead_slices), and reads every drawn corner in place, so each
temporary entry plane holds at most 8192 complex entries (128 KiB) and the
memory it needs beyond its output stays the same whatever the batch size.

A gauge configuration is logically a complex array lead + (k, N, N) of the
matrices on the k bonds its plan lists (all n_bonds unless it lists fewer);
each other bond is the identity.  Random matrices come from
haar.haar_sample, which stores them bond-major in entry planes, memory
(N, N, k) + reversed(lead); the kernel reads those rows in place, never
writes them, and accepts any layout with the same result, bit for bit.
The field-level actions and the gauge transformations that check the Bose
quadratic form live with the tests (tests/oracles.py).
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
    g0_sq: float = 4.0         # the bounds hold for 0 < g_sq <= g0_sq
    kappa_u_sq: float = 1.0
    m_u: float = 0.0
    n_flavors: int = 1

    def __post_init__(self):
        check_group(self.kind, self.n)
        if self.field_kind not in FIELD_KINDS:
            raise UsageError(f"field kind must be one of {FIELD_KINDS}, got {self.field_kind!r}")
        require_positive(self.g_sq, "coupling g^2")
        for value, what in ((self.m_u, "bare mass"), (self.kappa_u_sq, "bare hopping")):
            if not 0.0 <= value < np.inf:  # NaN fails too
                raise UsageError(f"{what} must be finite and >= 0, got {value}")
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

    @cached_property
    def coupling(self):   # c = a^{d-4} / g^2, the one-bond action strength
        return coupling(self.a, self.g_sq, self.d)

    @property
    def scaling(self):
        return ScalingFactors.from_params(self)


@dataclass(frozen=True)
class ScalingFactors:
    """Derived scale factors connecting the unscaled and scaled pictures."""

    bose_scale: float    # s_B, field rescaling of the Bose sector
    kappa_sq: float      # merged hopping parameter of the scaled action

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
            kappa_sq=float(kappa_sq),
        )


# ------------------------------------------------------------------ actions

@dataclass(frozen=True, eq=False)
class PlaquettePlan:
    """Which corners of each plaquette are drawn, as kernel columns.

    Built once per bond set (for_bonds) where the caller chooses the bonds,
    and only read by plaquette_actions, so worker threads share one plan.
    halves holds per plaquette, in plaquette order, the pair (A, B) of the
    drawn-corner columns of its halves A = g1 g2 and B = g4 g3: none, one
    or two ints per half, a lone drawn corner first, and the half with more
    drawn corners as A (|A - B|^2 is symmetric).
    """

    n_drawn: int
    halves: tuple

    @classmethod
    def for_bonds(cls, lattice, bond_ids=None):
        """The plan for drawn bonds bond_ids (default: all, in order).

        Column j of the kernel's bond array is bond bond_ids[j]; every bond
        not listed is the identity.
        """
        ids = np.arange(lattice.n_bonds) if bond_ids is None else bond_ids
        col = np.full(lattice.n_bonds, -1)
        col[ids] = np.arange(len(ids))
        halves = col[lattice.plaq_bonds][:, [[0, 1], [3, 2]]]   # (P, half, corner)
        rank = np.count_nonzero(halves >= 0, axis=-1)
        one = rank == 1
        halves[one] = -np.sort(-halves[one])   # a lone drawn corner comes first
        swap = rank[:, 1] > rank[:, 0]
        halves[swap], rank[swap] = halves[swap, ::-1], rank[swap, ::-1]
        return cls(n_drawn=len(ids), halves=tuple(
            tuple(tuple(h[:r]) for h, r in zip(pair, ranks))
            for pair, ranks in zip(halves.tolist(), rank.tolist())))


def plaquette_actions(plan, bonds):
    """|1 - hol|_HS^2 = |g1 g2 - g4 g3|_F^2 per plaquette, shape (..., n_plaq).

    bonds (lead + (k, N, N)) holds the k drawn bonds of plan, in its order.
    Only drawn corners are multiplied: a one-corner half is that matrix, an
    identity half subtracts 1 from the diagonal, and two identity halves
    give 0.  x * 1 and x + 0 are exact, so each action is bit for bit the
    one of the full product.  The lead axes are flattened and the bonds
    read as rows (N, N, k, samples), which is how haar_sample stores a
    one-axis lead; any other layout gives the same values (a multi-axis
    lead of haar_sample's is copied by the flattening).  The kernel takes
    one plaquette at a time over a slice of _SLICE_ENTRIES samples
    (haar.lead_slices): each drawn corner is the view rows[:, :, col, s],
    never gathered or written, the products are formed entry by entry with
    no per-matrix matmul, and each total goes straight into its column of
    the preallocated (samples, n_plaq) output, so sums over plaquettes keep
    their order.  Its temporaries are a few slice-long planes whatever the
    batch size.  Each plaquette costs a fixed few us of interpreter work
    per slice, so tiny batches on large boxes are slower than a gathered
    kernel, and full blocks are faster.
    """
    n, drawn = bonds.shape[-1], bonds.shape[-3]
    if drawn != plan.n_drawn:
        raise ValueError(f"plan of {plan.n_drawn} drawn bonds given {drawn} bond matrices")
    flat = bonds.reshape((int(np.prod(bonds.shape[:-3])),) + bonds.shape[-3:])
    rows = flat.transpose(2, 3, 1, 0)   # (N, N, k, samples)
    out = np.empty((len(flat), len(plan.halves)))
    for s in lead_slices(len(flat), 1):
        for p, corners in enumerate(plan.halves):
            a, b = ([rows[:, :, c, s] for c in h] for h in corners)
            total = 0.0   # stays 0 for two identity halves
            for i in range(n if a else 0):
                for k in range(n):
                    x = _half_entry(a, i, k)
                    if b:
                        x = x - _half_entry(b, i, k)
                    elif i == k:
                        x = x - 1.0
                    total = total + (x.real * x.real + x.imag * x.imag)
            out[s, p] = total
    return out.reshape(bonds.shape[:-3] + (len(plan.halves),))


def _half_entry(half, i, k):
    """Entry (i, k) of a half product from its drawn corners (one or two)."""
    if len(half) == 1:
        return half[0][i, k]
    x = half[0][i, 0] * half[1][0, k]
    for j in range(1, len(half[0])):
        x += half[0][i, j] * half[1][j, k]
    return x


def wilson_action(params, plan, bonds):
    """Total gauge action (a^{d-4}/g^2) * sum of plaquette actions."""
    return params.coupling * np.sum(plaquette_actions(plan, bonds), axis=-1)
