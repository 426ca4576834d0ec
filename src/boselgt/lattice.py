"""Finite hypercubic lattice geometry with free boundary conditions.

Sites carry 1-based coordinates x = (x^0, ..., x^{d-1}), each in 1..L, and
are enumerated lexicographically (x^0 slowest, x^{d-1} fastest).  A bond is
a pair (site, direction mu) with x^mu < L, pointing from x to x + e^mu.  A
plaquette is (site, mu, nu) with mu < nu and both forward steps available;
its boundary is walked x -> x+e^mu -> x+e^mu+e^nu -> x+e^nu -> x, so the
holonomy uses the bonds

    b1 = (x, mu), b2 = (x+e^mu, nu), b3 = (x+e^nu, mu), b4 = (x, nu)

with b3 and b4 traversed backwards (signs +, +, -, -).

Direction 0 plays the role of time.  The gauge-fixing tree is the enhanced
temporal one: all time bonds, plus for each spatial direction k >= 1 the
direction-k bonds in the slice where all earlier coordinates equal 1.  That
is a spanning tree (checked by union-find), so L^d - 1 bonds are fixed and
the rest are retained.
"""

from dataclasses import dataclass
from functools import cached_property
from math import comb, inf

import numpy as np

from .errors import NumericError, UsageError


def check_dimension(d):
    if d not in (2, 3, 4):
        raise UsageError(f"dimension must be 2, 3 or 4, got {d}")


def _check_spacing(a):
    if not 0.0 < a <= 1.0:
        raise UsageError(f"lattice spacing must be in (0, 1], got {a}")


def require_positive(value, what):
    """UsageError naming the value unless 0 < value < inf (NaN fails too)."""
    if not 0.0 < value < inf:
        raise UsageError(f"{what} must be positive, got {value}; allowed range (0, inf)")


def coupling(a, g_sq, d):
    """One-bond strength c = a^{d-4} / g^2; NumericError if c overflows."""
    _check_spacing(a)
    require_positive(g_sq, "coupling g^2")
    check_dimension(d)
    try:
        c = a ** (d - 4) / g_sq
    except OverflowError:
        c = inf
    if c == inf:  # c >= 1/g^2 > 0, so overflow is the only way out of range
        raise NumericError(f"coupling c = a^{d - 4}/g^2 overflows at a = {a}, g^2 = {g_sq}")
    return c


@dataclass(frozen=True)
class Lattice:
    """Hypercubic lattice with d in {2,3,4}, L >= 2 sites per side, spacing a."""

    d: int
    L: int
    a: float = 1.0

    def __post_init__(self):
        check_dimension(self.d)
        if not isinstance(self.L, (int, np.integer)) or self.L < 2:
            raise UsageError(f"side length must be an integer >= 2, got {self.L}")
        _check_spacing(self.a)

    # ---- counts (closed forms; the enumerations below must agree) ----

    @property
    def n_sites(self):
        return self.L**self.d

    @property
    def n_bonds(self):
        return self.d * self.L ** (self.d - 1) * (self.L - 1)

    @property
    def n_plaquettes(self):
        return comb(self.d, 2) * self.L ** (self.d - 2) * (self.L - 1) ** 2

    # ---- sites ----

    @cached_property
    def site_coords(self):
        """Array (n_sites, d) of 1-based coordinates in enumeration order."""
        grids = np.meshgrid(*[np.arange(1, self.L + 1)] * self.d, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    # ---- bonds ----

    @cached_property
    def _bond_arrays(self):
        # nonzero walks the mask row-major: site-major, then direction.
        site, direction = np.nonzero(self.site_coords < self.L)
        head = site + self.L ** (self.d - 1 - direction)
        table = np.full((self.n_sites, self.d), -1, dtype=np.int64)
        table[site, direction] = np.arange(len(site))
        return site, direction, head, table

    @property
    def bond_tail(self):
        """Site index each bond starts at, shape (n_bonds,)."""
        return self._bond_arrays[0]

    @property
    def bond_dir(self):
        """Direction mu of each bond, shape (n_bonds,)."""
        return self._bond_arrays[1]

    @property
    def bond_head(self):
        """Site index each bond points to, shape (n_bonds,)."""
        return self._bond_arrays[2]

    # ---- plaquettes ----

    @cached_property
    def _plaq_arrays(self):
        table = self._bond_arrays[3]
        pair_mu, pair_nu = np.triu_indices(self.d, 1)
        forward = self.site_coords < self.L
        # nonzero walks the mask row-major: site-major, then mu, then nu.
        site, pair = np.nonzero(forward[:, pair_mu] & forward[:, pair_nu])
        mu, nu = pair_mu[pair], pair_nu[pair]
        step = self.L ** (self.d - 1 - np.arange(self.d))
        bonds = np.stack([table[site, mu], table[site + step[mu], nu],
                          table[site + step[nu], mu], table[site, nu]], axis=-1)
        return site, mu, nu, bonds

    @property
    def plaq_bonds(self):
        """Bond ids (b1, b2, b3, b4) per plaquette, shape (n_plaquettes, 4).

        The holonomy is g[b1] g[b2] g[b3]^{-1} g[b4]^{-1}.
        """
        return self._plaq_arrays[3]


def _union_find_spanning(n_sites, tails, heads):
    """True if the given edges form a spanning tree on n_sites vertices."""
    if len(tails) != n_sites - 1:
        return False
    parent = np.arange(n_sites)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for t, h in zip(tails, heads):
        rt, rh = find(t), find(h)
        if rt == rh:
            return False  # cycle
        parent[rt] = rh
    return True


@dataclass(frozen=True)
class GaugeFixing:
    """Enhanced temporal gauge: tree bond mask and the retained complement."""

    lattice: Lattice
    tree_mask: np.ndarray

    @classmethod
    def enhanced_temporal(cls, lattice):
        coords = lattice.site_coords
        tail = lattice.bond_tail
        mu = lattice.bond_dir
        mask = mu == 0
        for k in range(1, lattice.d):
            in_slice = np.all(coords[tail][:, :k] == 1, axis=1)
            mask = mask | ((mu == k) & in_slice)
        fixing = cls(lattice=lattice, tree_mask=mask)
        if not fixing.is_spanning_tree():
            raise AssertionError("enhanced temporal bonds do not form a spanning tree")
        return fixing

    def is_spanning_tree(self):
        lat = self.lattice
        idx = np.nonzero(self.tree_mask)[0]
        return _union_find_spanning(lat.n_sites, lat.bond_tail[idx], lat.bond_head[idx])

    @property
    def tree_bonds(self):
        return np.nonzero(self.tree_mask)[0]

    @property
    def retained_bonds(self):
        return np.nonzero(~self.tree_mask)[0]

    @property
    def n_retained(self):
        return int(np.sum(~self.tree_mask))


def n_retained_bonds(d, L):
    """Retained bond count d L^{d-1}(L-1) - (L^d - 1) without building arrays."""
    lat = Lattice(d=d, L=L)
    return lat.n_bonds - (lat.n_sites - 1)
