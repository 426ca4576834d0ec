"""Model parameters, gauge/matter actions, and the two-picture scaling."""

from dataclasses import replace

import tracemalloc

import numpy as np
import pytest

from boselgt import haar
from boselgt.actions import (FIELD_KINDS, ModelParams, PlaquettePlan,
                             ScalingFactors, plaquette_actions,
                             wilson_action)
from boselgt.errors import UsageError
from boselgt.haar import haar_sample
from boselgt.partition import log_z_bose
from boselgt.su2 import su2_to_matrix
from oracles import (bose_action, bose_action_unscaled, field_transform,
                     gauge_transform, identity_bonds, su2_exp, su2_inverse,
                     su2_mul, su2_plaquette_action)

RNG = np.random.default_rng(2024)


def small_params(**kw):
    base = dict(d=2, L=3, n=1, kind="U", a=0.7, g_sq=1.3)
    base.update(kw)
    return ModelParams(**base)


def random_field(params, rng):
    shape = (params.lattice.n_sites, params.n)
    if params.field_kind == "complex":
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return rng.standard_normal(shape)


# ------------------------------------------------------------------ scaling

def test_kappa_sq_massless_limit():
    for d in (2, 3, 4):
        p = ModelParams(d=d, L=2, m_u=0.0, kappa_u_sq=2.5)
        assert p.scaling.kappa_sq == pytest.approx(1.0 / (2.0 * d), rel=1e-15)


def test_kappa_sq_decoupled_limit():
    p = ModelParams(d=3, L=2, m_u=1.5, kappa_u_sq=0.0)
    assert p.scaling.kappa_sq == 0.0


def test_scaling_factors_hand_values():
    p = ModelParams(d=3, L=2, a=0.5, g_sq=2.0, m_u=2.0, kappa_u_sq=0.7)
    s = p.scaling
    # s_B^2 = a^{d-2} (m^2 a^2 + 2 d kappa_u^2) = 0.5 * (1.0 + 4.2)
    assert s.bose_scale == pytest.approx(np.sqrt(0.5 * 5.2), rel=1e-15)
    # c = a^{d-4} / g^2 = s_Y^2, with s_Y = a^{(d-4)/2} / g
    assert p.coupling == pytest.approx(0.5 ** (-1) / 2.0, rel=1e-15)
    u = 0.7 / 4.0
    assert s.kappa_sq == pytest.approx(u / (0.25 + 6.0 * u), rel=1e-15)


def test_kappa_sq_stays_below_free_boundary():
    # kappa^2 < 1/(2d) strictly for m_u > 0, approaching it as m_u -> 0.
    vals = [ModelParams(d=3, L=2, a=1.0, m_u=m, kappa_u_sq=1.0).scaling.kappa_sq
            for m in (2.0, 0.5, 0.01, 0.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(1.0 / 6.0)
    assert vals[-2] < 1.0 / 6.0


@pytest.mark.parametrize("field_kind", FIELD_KINDS)
def test_two_pictures_give_the_same_action(field_kind):
    p = small_params(field_kind=field_kind, n=2, a=0.3, m_u=1.2, kappa_u_sq=0.8)
    rng = np.random.default_rng(10)
    cfg = haar_sample(rng, 2, size=p.lattice.n_bonds)
    phi_u = random_field(p, rng)
    s_b = p.scaling.bose_scale
    assert bose_action_unscaled(p, cfg, phi_u) == pytest.approx(
        bose_action(p, cfg, s_b * phi_u), rel=1e-12)


# ------------------------------------------------------------- gauge sector

def test_identity_config_has_zero_action():
    p = small_params(n=2)
    cfg = identity_bonds(2, p.lattice.n_bonds)
    plan = PlaquettePlan.for_bonds(p.lattice)
    assert wilson_action(p, plan, cfg) == 0.0
    assert np.all(plaquette_actions(plan, cfg) == 0.0)


def test_plaquette_action_range():
    p = ModelParams(d=3, L=3, n=2, kind="SU")
    cfg = haar_sample(np.random.default_rng(4), 2, kind="SU",
                      size=p.lattice.n_bonds)
    acts = plaquette_actions(PlaquettePlan.for_bonds(p.lattice), cfg)
    assert acts.shape == (p.lattice.n_plaquettes,)
    assert np.all(acts >= 0.0)
    assert np.all(acts <= 4.0 * p.n)


def test_u1_holonomy_signs():
    # One plaquette: phases add along the walk, subtract on the return legs.
    p = ModelParams(d=2, L=2)
    lat = p.lattice
    theta = np.array([0.31, -0.52, 0.17, 0.08])
    bonds = np.ones((lat.n_bonds, 1, 1), dtype=complex)
    b1, b2, b3, b4 = lat.plaq_bonds[0]
    for b, t in zip((b1, b2, b3, b4), theta):
        bonds[b, 0, 0] = np.exp(1j * t)
    total = theta[0] + theta[1] - theta[2] - theta[3]
    act = plaquette_actions(PlaquettePlan.for_bonds(lat), bonds)[0]
    assert act == pytest.approx(2.0 * (1.0 - np.cos(total)), rel=1e-13)


def _matmul_chain(lattice, bonds):
    """Oracle holonomy g1 g2 g3^dag g4^dag by explicit batched matmul."""
    g1, g2, g3, g4 = (bonds[..., lattice.plaq_bonds[:, c], :, :] for c in range(4))
    dag = lambda m: np.conj(np.swapaxes(m, -1, -2))
    return np.matmul(np.matmul(np.matmul(g1, g2), dag(g3)), dag(g4))


@pytest.mark.parametrize("n,kind", [(1, "U"), (2, "U"), (3, "U"),
                                    (2, "SU"), (3, "SU")])
@pytest.mark.parametrize("lead", [(), (7,), (3, 5)])
def test_plaquette_kernel_matches_matmul_chain(n, kind, lead):
    lat = ModelParams(d=3, L=2).lattice
    rng = np.random.default_rng(100 * n + len(lead))
    bonds = haar_sample(rng, n, kind=kind, size=lead + (lat.n_bonds,))
    hol = _matmul_chain(lat, bonds)
    expect = 2.0 * (n - np.real(np.trace(hol, axis1=-2, axis2=-1)))
    got = plaquette_actions(PlaquettePlan.for_bonds(lat), bonds)
    assert got.shape == lead + (lat.n_plaquettes,)
    assert np.max(np.abs(got - expect)) < 1e-13


@pytest.mark.parametrize("n,kind", [(1, "U"), (2, "U"), (3, "U"),
                                    (2, "SU"), (3, "SU")])
@pytest.mark.parametrize("lead", [(), (7,), (3, 5)])
def test_kernels_read_any_layout_bit_for_bit(n, kind, lead):
    # haar_sample stores its draws bond-major in entry planes, memory
    # (N, N) + reversed(lead + (k,)); the kernels and the Bose builder read
    # them in place, and a C-ordered copy gives the same bytes.
    params = ModelParams(d=3, L=2, n=n, kind=kind, m_u=0.5)
    rng = np.random.default_rng(40 * n + len(lead))
    for fixed in (False, True):
        plan = PlaquettePlan.for_bonds(
            params.lattice, params.gauge_fixing.retained_bonds if fixed else None)
        size = lead + (plan.n_drawn,)
        draws = haar_sample(rng, n, kind=kind, size=size)
        rows = draws.transpose((draws.ndim - 2, draws.ndim - 1)
                               + tuple(range(draws.ndim - 3, -1, -1)))
        assert draws.base.shape == rows.shape == (n, n) + size[::-1]
        assert draws.base.flags.c_contiguous and rows.flags.c_contiguous
        assert np.shares_memory(rows, draws.base)
        copy = np.array(draws, order="C")
        got, expect = plaquette_actions(plan, draws), plaquette_actions(plan, copy)
        assert got.shape == lead + (len(plan.back),)
        assert got.tobytes() == expect.tobytes()
        got, expect = wilson_action(params, plan, draws), wilson_action(params, plan, copy)
        assert got.shape == lead and got.tobytes() == expect.tobytes()
        if not fixed:
            got, expect = log_z_bose(params, draws), log_z_bose(params, copy)
            assert got.shape == lead and got.tobytes() == expect.tobytes()


def _drawn_bond_ids(params, which, rng):
    """Bond ids of a draw: all (None), the gauge-fixed retained set, the
    first 1 or 3 corners of one plaquette, or a random unsorted subset."""
    lat = params.lattice
    if which == "retained":
        return params.gauge_fixing.retained_bonds
    if which.startswith("corners-"):
        return lat.plaq_bonds[lat.n_plaquettes // 2][:int(which[-1])]
    if which == "random":
        return rng.permutation(lat.n_bonds)[:lat.n_bonds // 2]
    return None


@pytest.mark.parametrize("d,L", [(2, 3), (3, 2), (4, 2)])
@pytest.mark.parametrize("n,kind", [(1, "U"), (2, "U"), (2, "SU"), (3, "U")])
@pytest.mark.parametrize("lead", [(), (7,), (3, 5), (1000,)])
def test_plaquette_slices_match_one_slice(monkeypatch, d, L, n, kind, lead):
    # Slices of 6 samples: several per batch, and a ragged last one for
    # every lead but ().  Drawn bonds under their plan give, bit for bit,
    # the action of the full bond array with every other bond the identity,
    # and one plan serves every slicing.
    params = ModelParams(d=d, L=L)
    lat = params.lattice
    every = PlaquettePlan.for_bonds(lat)
    rng = np.random.default_rng(d + 10 * n)
    for which in ("all", "retained", "corners-1", "corners-3", "random"):
        ids = _drawn_bond_ids(params, which, rng)
        plan = PlaquettePlan.for_bonds(lat, ids)
        bonds = identity_bonds(n, lead + (lat.n_bonds,))
        drawn = slice(None) if ids is None else ids
        draws = haar_sample(rng, n, kind=kind, size=bonds[..., drawn, 0, 0].shape)
        bonds[..., drawn, :, :] = draws
        monkeypatch.setattr(haar, "_SLICE_ENTRIES", 10**12)
        whole = plaquette_actions(every, bonds)
        assert np.array_equal(plaquette_actions(plan, draws), whole), which
        monkeypatch.setattr(haar, "_SLICE_ENTRIES", 6 * lat.n_plaquettes)
        assert np.array_equal(plaquette_actions(every, bonds), whole), which
        assert np.array_equal(plaquette_actions(plan, draws), whole), which


def _half_class_pairs(lattice, ids):
    """(richer, poorer) counts of drawn corners of the halves g1 g2 and g4 g3."""
    drawn = np.isin(lattice.plaq_bonds, ids).astype(int)
    a, b = drawn[:, 0] + drawn[:, 1], drawn[:, 3] + drawn[:, 2]
    return set(zip(np.maximum(a, b).tolist(), np.minimum(a, b).tolist()))


@pytest.mark.parametrize("n,kind", [(1, "U"), (2, "SU"), (2, "U"), (3, "U")])
def test_plaquette_plan_is_bit_identical_for_every_half_class_pair(n, kind):
    # Only drawn corners are gathered and multiplied; x * 1 and x + 0 are
    # exact, so every pair of half classes (identity, one or two drawn
    # corners) gives the action of the identity-padded full array bit for bit.
    params = ModelParams(d=3, L=3)
    lat = params.lattice
    rng = np.random.default_rng(23 + n)
    corners = lat.plaq_bonds[0]
    id_sets = [corners[:k] for k in (1, 2, 3, 4)]   # check_plaquette_quadratic's
    id_sets += [corners[[0, 3]], corners[[2, 1]], corners[[2]], corners[:0],
                rng.permutation(lat.n_bonds)[:lat.n_bonds // 2],
                params.gauge_fixing.retained_bonds]
    every = PlaquettePlan.for_bonds(lat)
    seen = set()
    for ids in id_sets:
        plan = PlaquettePlan.for_bonds(lat, ids)
        draws = haar_sample(rng, n, kind=kind, size=(50, len(ids)))
        full = identity_bonds(n, (50, lat.n_bonds))
        full[:, ids] = draws
        got = plaquette_actions(plan, draws)
        assert got.tobytes() == plaquette_actions(every, full).tobytes(), ids
        assert _plan_class_pairs(plan) == _half_class_pairs(lat, ids), ids
        seen |= _plan_class_pairs(plan)
    assert seen == {(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)}


def _plan_class_pairs(plan):
    """(A, B) drawn-corner counts of a plan's plaquette groups."""
    return {(len(a), len(b)) for _, _, a, b in plan.groups}


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_retained_bond_plan_groups_three_class_pairs_at_most(d, L):
    # Under the enhanced temporal gauge the plan groups only (1, 0), (1, 1)
    # and (2, 2) halves: no plaquette lies wholly in the tree (a tree has no
    # cycle), and none has three retained corners or a retained half facing
    # a tree half.  d2 L2 is the one plaquette with one retained corner,
    # d = 2 adds (1, 1) from L = 3, and d >= 3 has all three pairs.
    params = ModelParams(d=d, L=L)
    plan = PlaquettePlan.for_bonds(params.lattice, params.gauge_fixing.retained_bonds)
    pairs = _plan_class_pairs(plan)
    if d == 2:
        assert pairs == ({(1, 0)} if L == 2 else {(1, 0), (1, 1)})
    else:
        assert pairs == {(1, 0), (1, 1), (2, 2)}
    assert plan.n_drawn == params.lattice.n_retained
    assert sorted(plan.back) == list(range(params.lattice.n_plaquettes))


def test_all_bond_plan_is_one_group_in_plaquette_order():
    lat = ModelParams(d=3, L=3).lattice
    plan = PlaquettePlan.for_bonds(lat)
    assert _plan_class_pairs(plan) == {(2, 2)}
    ((first, stop, a, b),) = plan.groups
    assert (first, stop) == (0, lat.n_plaquettes) == (0, plan.width)
    assert np.array_equal(np.stack(a + b, axis=-1), lat.plaq_bonds[:, [0, 1, 3, 2]])
    assert np.array_equal(plan.back, np.arange(lat.n_plaquettes))
    assert plan.n_drawn == lat.n_bonds


def test_plaquette_actions_reject_a_bond_id_count_that_differs():
    lat = ModelParams(d=2, L=2).lattice
    draws = identity_bonds(2, (5, 1))
    for ids in ([0, 1], None):
        with pytest.raises(ValueError, match="drawn bonds given 1 bond matrices"):
            plaquette_actions(PlaquettePlan.for_bonds(lat, ids), draws)


def _traced_peak_beyond_output(fn):
    """Peak memory numpy allocates during fn() minus the bytes it returns."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - out.nbytes, out.nbytes


def test_plaquette_kernel_memory_does_not_grow_with_the_batch():
    lat = ModelParams(d=3, L=3).lattice
    extra = []
    for samples in (2048, 16384):
        bonds = haar_sample(np.random.default_rng(5), 2,
                            size=(samples, lat.n_bonds))
        extra.append(_traced_peak_beyond_output(
            lambda: plaquette_actions(PlaquettePlan.for_bonds(lat), bonds))[0])
    assert max(extra) <= 2.0 * min(extra), extra


@pytest.mark.parametrize("samples", [2048, 16384])
def test_haar_sample_memory_is_the_draws_alone(samples):
    # The matrices are built in the output; beyond it, one float plane of
    # the Gaussian draws (0.5x) and slice-sized planes are allowed (separate
    # real and imaginary draws are 1x).
    n_bonds = ModelParams(d=3, L=3).lattice.n_bonds
    extra, out = _traced_peak_beyond_output(
        lambda: haar_sample(np.random.default_rng(5), 2,
                            size=(samples, n_bonds)))
    assert extra <= 0.6 * out, (extra, out)

@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
def test_plaquette_action_keeps_precision_near_identity(eps):
    # Small lattice spacing puts every plaquette near the identity, where
    # 2(N - Re tr hol) cancels; the kernel must keep full relative precision.
    lat = ModelParams(d=3, L=3).lattice
    pb = lat.plaq_bonds
    rng = np.random.default_rng(77)
    pts = su2_exp(eps * rng.standard_normal((lat.n_bonds, 3)))
    hol = su2_mul(su2_mul(su2_mul(pts[pb[:, 0]], pts[pb[:, 1]]),
                          su2_inverse(pts[pb[:, 2]])), su2_inverse(pts[pb[:, 3]]))
    expect = su2_plaquette_action(hol)
    plan = PlaquettePlan.for_bonds(lat)
    got = plaquette_actions(plan, su2_to_matrix(pts))
    assert np.max(np.abs(got / expect - 1.0)) < 1e-12

    theta = eps * rng.standard_normal(lat.n_bonds)
    s = theta[pb[:, 0]] + theta[pb[:, 1]] - theta[pb[:, 2]] - theta[pb[:, 3]]
    expect = 4.0 * np.sin(s / 2.0) ** 2
    got = plaquette_actions(plan, np.exp(1j * theta)[:, None, None])
    assert np.max(np.abs(got / expect - 1.0)) < 1e-12


def test_wilson_action_coupling_prefactor():
    p = small_params(a=0.5, g_sq=2.0)  # c = a^{-2}/g^2 = 2
    cfg = haar_sample(np.random.default_rng(8), 1, size=p.lattice.n_bonds)
    plan = PlaquettePlan.for_bonds(p.lattice)
    raw = float(np.sum(plaquette_actions(plan, cfg)))
    assert wilson_action(p, plan, cfg) == pytest.approx(2.0 * raw, rel=1e-13)


def test_wilson_action_is_gauge_invariant():
    p = ModelParams(d=3, L=2, n=2)
    rng = np.random.default_rng(12)
    cfg = haar_sample(rng, 2, size=p.lattice.n_bonds)
    rots = haar_sample(rng, 2, size=(p.lattice.n_sites,))
    moved = gauge_transform(p.lattice, cfg, rots)
    plan = PlaquettePlan.for_bonds(p.lattice)
    assert wilson_action(p, plan, moved) == pytest.approx(
        wilson_action(p, plan, cfg), rel=1e-10)


def test_bose_action_gauge_covariance_complex():
    p = ModelParams(d=2, L=3, n=2, field_kind="complex", m_u=0.4, kappa_u_sq=1.1)
    rng = np.random.default_rng(13)
    cfg = haar_sample(rng, 2, size=p.lattice.n_bonds)
    phi = random_field(p, rng)
    rots = haar_sample(rng, 2, size=(p.lattice.n_sites,))
    val = bose_action(p, gauge_transform(p.lattice, cfg, rots),
                      field_transform(phi, rots))
    assert val == pytest.approx(bose_action(p, cfg, phi), rel=1e-12)


def test_bose_action_gauge_covariance_real():
    # Real model: rotate with real orthogonal matrices so the field stays real.
    p = ModelParams(d=2, L=3, n=2, field_kind="real", m_u=0.4, kappa_u_sq=1.1)
    rng = np.random.default_rng(14)
    cfg = haar_sample(rng, 2, size=p.lattice.n_bonds)
    phi = random_field(p, rng)
    q, r = np.linalg.qr(rng.standard_normal((p.lattice.n_sites, 2, 2)))
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    val = bose_action(p, gauge_transform(p.lattice, cfg, q),
                      field_transform(phi, q))
    assert val == pytest.approx(bose_action(p, cfg, phi), rel=1e-12)


def test_decoupled_action_is_pure_gaussian():
    p = small_params(m_u=1.0, kappa_u_sq=0.0)
    cfg = haar_sample(np.random.default_rng(3), 1, size=p.lattice.n_bonds)
    phi = random_field(p, np.random.default_rng(4))
    assert bose_action(p, cfg, phi) == pytest.approx(
        0.5 * float(np.sum(phi * phi)), rel=1e-14)


# ------------------------------------------------------------- construction

def test_params_validation():
    with pytest.raises(UsageError):
        ModelParams(d=2, L=2, kind="O")
    with pytest.raises(UsageError):
        ModelParams(d=2, L=2, kind="SU", n=1)
    with pytest.raises(UsageError):
        ModelParams(d=2, L=2, n=0)
    for g_sq in (-1.0, 0.0, np.inf, np.nan):
        with pytest.raises(UsageError, match=r"coupling g\^2 must be positive"):
            ModelParams(d=2, L=2, g_sq=g_sq)
    with pytest.raises(UsageError):
        ModelParams(d=2, L=2, m_u=0.0, kappa_u_sq=0.0)
    with pytest.raises(UsageError):
        ModelParams(d=2, L=2, m_u=-0.5)
    with pytest.raises(UsageError):
        ModelParams(d=2, L=2, n_flavors=0)
    with pytest.raises(UsageError):
        ModelParams(d=2, L=2, field_kind="quaternion")
    with pytest.raises(Exception):
        ModelParams(d=5, L=2)
    with pytest.raises(Exception):
        ModelParams(d=2, L=2, a=1.5)


def test_replace_revalidates():
    p = small_params()
    q = replace(p, a=0.1)
    assert q.a == 0.1 and p.a == 0.7
    assert q.lattice.a == 0.1
    with pytest.raises(UsageError):
        replace(p, g_sq=-100.0)


def test_identity_bonds_shape():
    lat = ModelParams(d=2, L=2).lattice
    bonds = identity_bonds(2, lat.n_bonds)
    assert bonds.shape == (lat.n_bonds, 2, 2)
    assert bonds.dtype == complex
    assert np.all(bonds == np.eye(2))
    stacked = identity_bonds(2, (3, lat.n_bonds))
    assert stacked.shape == (3, lat.n_bonds, 2, 2)
    stacked[0, 0] = 0.0  # writable, and no two bonds share memory
    assert np.all(stacked[1:, 0] == np.eye(2))


def test_field_checks():
    p = small_params(field_kind="real")
    cfg = identity_bonds(1, p.lattice.n_bonds)
    with pytest.raises(ValueError):
        bose_action(p, cfg, np.zeros((3, 1)))
    with pytest.raises(ValueError):
        bose_action(p, cfg, np.zeros((p.lattice.n_sites, 1), dtype=complex))


def test_field_transform_keeps_real_fields_real():
    phi = RNG.standard_normal((4, 2))
    rots = np.broadcast_to(np.eye(2), (4, 2, 2))
    out = field_transform(phi, rots)
    assert not np.iscomplexobj(out)
    assert np.array_equal(out, phi)
