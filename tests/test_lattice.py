"""Lattice geometry: counts, enumeration invariants, gauge tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boselgt.errors import UsageError
from boselgt.lattice import GaugeFixing, Lattice, n_retained_bonds
from oracles import site_index

SMALL_GRID = [(d, L) for d in (2, 3, 4) for L in (2, 3, 4) if L**d <= 256]


@pytest.mark.parametrize("d,L", SMALL_GRID)
def test_counts_match_closed_forms(d, L):
    lat = Lattice(d=d, L=L)
    assert lat.n_sites == L**d
    assert lat.n_bonds == d * L ** (d - 1) * (L - 1)
    from math import comb
    assert lat.n_plaquettes == comb(d, 2) * L ** (d - 2) * (L - 1) ** 2
    # Enumerations agree with the closed forms.
    assert len(lat.bond_tail) == lat.n_bonds
    assert lat.plaq_bonds.shape == (lat.n_plaquettes, 4)


@pytest.mark.parametrize("d,L,expected", [
    (2, 2, 1), (2, 3, 4), (2, 6, 25),
    (3, 2, 5), (3, 3, 28),
    (4, 2, 17), (4, 3, 136),
])
def test_retained_bond_counts(d, L, expected):
    # (L-1)^2, (2L+1)(L-1)^2 and (3L^3 - L^2 - L - 1)(L-1) respectively.
    assert n_retained_bonds(d, L) == expected
    lat = Lattice(d=d, L=L)
    assert GaugeFixing.enhanced_temporal(lat).n_retained == expected


def test_site_enumeration_is_lexicographic():
    lat = Lattice(d=2, L=3)
    coords = lat.site_coords
    assert coords[0].tolist() == [1, 1]
    assert coords[1].tolist() == [1, 2]   # last coordinate fastest
    assert coords[3].tolist() == [2, 1]   # first coordinate slowest
    for s in range(lat.n_sites):
        assert site_index(lat, coords[s]) == s


def test_site_index_rejects_out_of_range():
    lat = Lattice(d=2, L=3)
    with pytest.raises(ValueError):
        site_index(lat, (0, 1))
    with pytest.raises(ValueError):
        site_index(lat, (1, 4))
    with pytest.raises(ValueError):
        site_index(lat, (1, 1, 1))


def test_bond_endpoints_differ_by_unit_step():
    lat = Lattice(d=3, L=3)
    coords = lat.site_coords
    delta = coords[lat.bond_head] - coords[lat.bond_tail]
    assert np.all(np.sum(np.abs(delta), axis=1) == 1)
    assert np.all(delta[np.arange(lat.n_bonds), lat.bond_dir] == 1)


def loop_bond_arrays(lat):
    """Per-site enumeration of the bonds: the reference for the vectorised tables."""
    coords = lat.site_coords
    sites, dirs = [], []
    for s in range(lat.n_sites):
        for mu in range(lat.d):
            if coords[s, mu] < lat.L:
                sites.append(s)
                dirs.append(mu)
    site = np.array(sites, dtype=np.int64)
    direction = np.array(dirs, dtype=np.int64)
    head_coords = coords[site].copy()
    head_coords[np.arange(len(site)), direction] += 1
    head = site_index(lat, head_coords)
    table = np.full((lat.n_sites, lat.d), -1, dtype=np.int64)
    table[site, direction] = np.arange(len(site))
    return site, direction, head, table


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("L", [2, 3, 5])
def test_bond_arrays_match_loop_enumeration(d, L):
    lat = Lattice(d=d, L=L)
    for got, want in zip(lat._bond_arrays, loop_bond_arrays(lat)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def loop_plaq_arrays(lat):
    """Per-site enumeration of the plaquettes: the reference for the vectorised tables."""
    coords = lat.site_coords
    table = lat._bond_arrays[3]
    site, mus, nus, bonds = [], [], [], []
    for s in range(lat.n_sites):
        for mu in range(lat.d):
            if coords[s, mu] >= lat.L:
                continue
            for nu in range(mu + 1, lat.d):
                if coords[s, nu] >= lat.L:
                    continue
                c_mu = coords[s].copy()
                c_mu[mu] += 1
                c_nu = coords[s].copy()
                c_nu[nu] += 1
                site.append(s)
                mus.append(mu)
                nus.append(nu)
                bonds.append((table[s, mu], table[site_index(lat, c_mu), nu],
                              table[site_index(lat, c_nu), mu], table[s, nu]))
    return (np.array(site, dtype=np.int64), np.array(mus, dtype=np.int64),
            np.array(nus, dtype=np.int64), np.array(bonds, dtype=np.int64))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("L", [2, 3, 5])
def test_plaq_arrays_match_loop_enumeration(d, L):
    lat = Lattice(d=d, L=L)
    for got, want in zip(lat._plaq_arrays, loop_plaq_arrays(lat), strict=True):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def bond_at(lat, coords, mu):
    """Forward bond at 1-based coords in direction mu, read from the bond table."""
    return lat._bond_arrays[3][site_index(lat, coords), mu]


def test_bond_table_round_trip():
    lat = Lattice(d=2, L=3)
    b = bond_at(lat, (1, 1), 1)
    assert lat.bond_tail[b] == site_index(lat, (1, 1))
    assert lat.bond_head[b] == site_index(lat, (1, 2))
    assert bond_at(lat, (1, 3), 1) == -1  # forward step leaves the lattice


def test_plaquette_boundary_walk():
    lat = Lattice(d=2, L=2)
    assert lat.n_plaquettes == 1
    b1, b2, b3, b4 = lat.plaq_bonds[0]
    # x -> x+e0 -> x+e0+e1 -> x+e1 -> x with x = (1,1).
    assert b1 == bond_at(lat, (1, 1), 0)
    assert b2 == bond_at(lat, (2, 1), 1)
    assert b3 == bond_at(lat, (1, 2), 0)
    assert b4 == bond_at(lat, (1, 1), 1)


def test_horizontal_plaquette_counts():
    def n_horizontal(lat):  # plaquettes not involving direction 0
        return int(np.count_nonzero(lat._plaq_arrays[1] >= 1))
    lat = Lattice(d=3, L=2)
    assert lat.n_plaquettes == 6
    assert n_horizontal(lat) == 2   # only the (1,2)-plane avoids direction 0
    assert n_horizontal(Lattice(d=2, L=4)) == 0
    lat4 = Lattice(d=4, L=2)
    assert lat4.n_plaquettes == 24
    assert n_horizontal(lat4) == 12


@pytest.mark.parametrize("d,L", SMALL_GRID)
def test_bond_plaquette_incidence_bound(d, L):
    lat = Lattice(d=d, L=L)
    counts = np.bincount(lat.plaq_bonds.ravel())
    assert counts.sum() == 4 * lat.n_plaquettes
    assert counts.max() <= 2 * (d - 1)


@pytest.mark.parametrize("d,L", SMALL_GRID)
def test_enhanced_temporal_tree_spans(d, L):
    lat = Lattice(d=d, L=L)
    fixing = GaugeFixing.enhanced_temporal(lat)
    assert fixing.is_spanning_tree()
    assert len(fixing.tree_bonds) == lat.n_sites - 1
    assert fixing.n_retained == lat.n_bonds - (lat.n_sites - 1)
    # Tree and retained sets partition the bonds.
    both = np.concatenate([fixing.tree_bonds, fixing.retained_bonds])
    assert np.array_equal(np.sort(both), np.arange(lat.n_bonds))


def test_tree_content_matches_construction():
    lat = Lattice(d=3, L=3)
    fixing = GaugeFixing.enhanced_temporal(lat)
    coords = lat.site_coords
    for b in fixing.tree_bonds:
        mu = lat.bond_dir[b]
        tail = coords[lat.bond_tail[b]]
        # time bonds always; spatial direction k only with earlier coords 1.
        assert mu == 0 or np.all(tail[:mu] == 1)


def test_invalid_lattices_rejected():
    with pytest.raises(UsageError):
        Lattice(d=5, L=2)
    with pytest.raises(UsageError):
        Lattice(d=2, L=1)
    with pytest.raises(UsageError):
        Lattice(d=2, L=3, a=0.0)
    with pytest.raises(UsageError):
        Lattice(d=2, L=3, a=1.5)
    # Boundaries are always free; there is no knob to ask for another.
    with pytest.raises(TypeError):
        Lattice(d=2, L=3, boundary="periodic")


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([2, 3]), L=st.integers(2, 4), data=st.data())
def test_site_index_inverts_coords(d, L, data):
    lat = Lattice(d=d, L=L)
    coords = tuple(data.draw(st.integers(1, L)) for _ in range(d))
    s = site_index(lat, coords)
    assert tuple(lat.site_coords[s]) == coords
