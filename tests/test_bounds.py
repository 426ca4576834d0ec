"""Volume-rate bounds, their reports, and the sampled verifiers."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from boselgt import bounds, mc, partition
from boselgt.actions import ModelParams, PlaquettePlan, plaquette_actions, wilson_action
from boselgt.bounds import (BoundConstants, BoundReport, bose_upper_rate,
                            check_plaquette_quadratic,
                            elementary_inequality_suite, gauge_rate_bounds,
                            group_dim, sampled_checks, verify_bose_bounds,
                            verify_full_model, verify_gauge_bounds)
from boselgt.cli import report_sampled_check
from boselgt.errors import UsageError
from boselgt.haar import haar_sample, lead_slices
from boselgt.partition import (Estimate, bose_quadratic_form, log_z_bose,
                               logdet_posdef, z_bose_exact, z_wilson_mc)
from oracles import combined_rates_uniform, d2_bond_upper_checks


# --------------------------------------------------------------- constants

def test_group_dim():
    assert group_dim("U", 1) == 1
    assert group_dim("U", 3) == 9
    assert group_dim("SU", 2) == 3
    assert group_dim("SU", 3) == 8
    with pytest.raises(UsageError):
        group_dim("O", 2)


def test_bose_upper_rate_forms():
    assert bose_upper_rate(1, 2) == pytest.approx(np.log(2.0) / 4.0, rel=1e-15)
    assert bose_upper_rate(3, 4) == pytest.approx(9.0 * np.log(2.0) / 8.0, rel=1e-15)
    assert bose_upper_rate(2, 5, "complex") == pytest.approx(
        2.0 * bose_upper_rate(2, 5, "real"), rel=1e-15)
    # Rate grows with L toward N ln(2)/2 and with N linearly.
    assert bose_upper_rate(1, 2) < bose_upper_rate(1, 6) < np.log(2.0) / 2.0


def test_gauge_rate_bounds_ordering_and_g0_dependence():
    for kind, n in (("U", 1), ("U", 2), ("SU", 2)):
        for d in (2, 3, 4):
            lo, up = gauge_rate_bounds(kind, n, d)
            assert lo < up
    # Widening the admissible coupling range can only lower the lower rate;
    # the upper rate never moves.
    lo_wide, up_wide = gauge_rate_bounds("U", 2, 3, g0_sq=16.0)
    lo_narrow, up_narrow = gauge_rate_bounds("U", 2, 3, g0_sq=1.0)
    assert lo_wide < lo_narrow
    assert up_wide == up_narrow


def test_gauge_rate_bounds_usage_errors():
    with pytest.raises(UsageError):
        gauge_rate_bounds("SU", 3, 3)
    with pytest.raises(UsageError):
        gauge_rate_bounds("O", 2, 3)
    with pytest.raises(UsageError):
        gauge_rate_bounds("U", 2, 5)


def test_constants_for_params_and_combination():
    p = ModelParams(d=3, L=3, n=2, kind="SU")
    consts = BoundConstants.for_params(p)
    assert consts.bose_lower == 0.0
    assert consts.bose_upper == pytest.approx(bose_upper_rate(2, 3))
    lo, up = consts.combined_rates(p.lattice)
    ratio = 28 / 27  # retained bonds over sites at d = 3, L = 3
    assert lo == pytest.approx(consts.gauge_lower * ratio)
    assert up == pytest.approx(consts.bose_upper + consts.gauge_upper * ratio)


@pytest.mark.parametrize("kind,n", [("U", 1), ("U", 2), ("SU", 2)])
@pytest.mark.parametrize("d", [2, 3])
def test_uniform_rates_majorize_every_lattice_size(kind, n, d):
    p0 = ModelParams(d=d, L=2, n=n, kind=kind)
    consts = BoundConstants.for_params(p0)
    u_lo, u_up = combined_rates_uniform(consts, d)
    for L in (2, 3, 4, 5):
        lat = ModelParams(d=d, L=L, n=n, kind=kind).lattice
        lo, up = consts.combined_rates(lat)
        assert u_lo <= lo + 1e-15
        assert u_up >= up - 1e-15


def test_rates_do_not_depend_on_spacing_or_coupling():
    base = ModelParams(d=2, L=4, n=1)
    ref = BoundConstants.for_params(base)
    for a in (1.0, 1e-2, 1e-4):
        for g_sq in (4.0, 0.5):
            assert BoundConstants.for_params(replace(base, a=a, g_sq=g_sq)) == ref


def test_coupling_above_g0_is_refused_by_the_bounds_only():
    # g^2 <= g0^2 is a hypothesis of the bounds: the model takes g^2 = 8.
    p = ModelParams(d=2, L=2, g_sq=8.0, g0_sq=4.0)
    with pytest.raises(UsageError,
                       match=r"g\^2 must lie in \(0, g0\^2\] = \(0, 4.0\], got 8.0"):
        BoundConstants.for_params(p)
    assert BoundConstants.for_params(replace(p, g0_sq=8.0)).gauge_lower < 0.0


# ----------------------------------------------------------------- reports

def test_deterministic_verdicts():
    ok = BoundReport(name="x", log_value=0.5, log_lower=0.0, log_upper=1.0)
    assert ok.verdict == "pass"
    edge = BoundReport(name="x", log_value=1.0 + 1e-10, log_lower=0.0, log_upper=1.0)
    assert edge.verdict == "pass"  # inside the relative tolerance band
    bad = BoundReport(name="x", log_value=1.1, log_lower=0.0, log_upper=1.0)
    assert bad.verdict == "fail"


def test_stochastic_verdicts():
    mid = BoundReport(name="x", log_value=0.5, log_lower=0.0, log_upper=1.0,
                      std_error_log=0.1, n_samples=100, method="monte-carlo")
    assert mid.verdict == "pass"
    straddle = BoundReport(name="x", log_value=0.9, log_lower=0.0, log_upper=1.0,
                           std_error_log=0.1, n_samples=100, method="monte-carlo")
    assert straddle.verdict == "inconclusive"
    outside = BoundReport(name="x", log_value=2.0, log_lower=0.0, log_upper=1.0,
                          std_error_log=0.1, n_samples=100, method="monte-carlo")
    assert outside.verdict == "fail"


# ------------------------------------------------------- sampled checks

def test_sampled_checks_count_violations_and_worst_margin_exactly():
    # Per block: "ramp" holds count - 3 values from -3 up, so three
    # negatives and a worst margin of -3; "gauss" holds the block's normal
    # draws, recounted below from the same streams; "safe" carries an
    # empty comparison next to a constant one.
    def block(rng, count):
        return {"ramp": [np.arange(count - 3) - 3.0, np.full(3, 7.0)],
                "gauss": [rng.standard_normal(count)],
                "safe": [np.full(count, 0.5), np.empty(0)]}

    n_samples, block_size, seed = 1000, 128, 11
    runs = [sampled_checks(block, n_samples, seed, n_workers=w,
                           block_size=block_size) for w in (1, 4)]
    assert runs[0] == runs[1]
    out = runs[0]
    n_blocks = -(-n_samples // block_size)
    draws = np.concatenate([
        mc.block_rng(seed, i).standard_normal(min(block_size, n_samples - i * block_size))
        for i in range(n_blocks)])
    assert (out["ramp"].violations, out["ramp"].worst_margin) == (3 * n_blocks, -3.0)
    assert out["gauss"].violations == int(np.count_nonzero(draws < 0.0)) > 0
    assert out["gauss"].worst_margin == float(np.min(draws))
    assert (out["safe"].violations, out["safe"].worst_margin) == (0, 0.5)
    assert out["safe"].passed and not out["gauss"].passed
    assert all(chk.name == name and chk.n_samples == n_samples
               for name, chk in out.items())


def test_a_nan_slack_is_a_violation(capsys):
    # NaN compares false with 0 either way: it fails the check, not passes it.
    def block(rng, count):
        s = np.ones(count)
        s[0] = np.nan
        return {"nan": [s]}

    chk = sampled_checks(block, 10, 0)["nan"]
    assert chk.violations >= 1 and not chk.passed
    assert np.isnan(chk.worst_margin)
    assert report_sampled_check(chk)["verdict"] == "fail"
    assert capsys.readouterr().out.startswith("nan: fail (1 violations in 10 draws")


# ----------------------------------------------------------- the verifiers

def test_bose_verifier_passes_and_is_deterministic():
    p = ModelParams(d=2, L=3, m_u=0.0, kappa_u_sq=1.0)
    a = verify_bose_bounds(p, n_configs=40, seed=2)
    b = verify_bose_bounds(p, n_configs=40, seed=2, n_workers=4)
    assert a.passed and a.violations == 0
    assert a.worst_margin >= 0.0
    assert b == a


def test_bose_verifier_complex_fields():
    p = ModelParams(d=2, L=2, n=2, field_kind="complex", m_u=0.0, kappa_u_sq=1.0)
    chk = verify_bose_bounds(p, n_configs=30, seed=4)
    assert chk.passed


def test_bose_verifier_margin_matches_per_configuration_values():
    # The check's one block draws its configurations in one haar_sample
    # call from block_rng(seed, 0); redraw that batch and take each
    # configuration's log Z_B from z_bose_exact.
    p = ModelParams(d=2, L=3, n=2, field_kind="complex", n_flavors=3,
                    m_u=0.0, kappa_u_sq=1.0)
    count, seed = 20, 6
    chk = verify_bose_bounds(p, count, seed)
    bonds = haar_sample(mc.block_rng(seed, 0), p.n, kind=p.kind,
                        size=(count, p.lattice.n_bonds))
    log_z = np.array([z_bose_exact(p, bonds[j]).log_value
                      for j in range(count)])
    log_cap = p.n_flavors * p.lattice.n_sites * bose_upper_rate(p.n, p.L, "complex")
    margins = np.minimum(log_z, log_cap - log_z)
    assert chk.worst_margin == np.min(margins)
    assert chk.violations == np.count_nonzero(margins < 0.0)


def test_bose_cap_counts_every_flavor():
    # Z_B for n_f flavors is the n_f-th power of the one-flavor value, so
    # the cap on log Z_B is n_f * rate * n_sites.
    chk = verify_bose_bounds(ModelParams(d=2, L=3, n_flavors=8), 50, seed=0)
    assert chk.violations == 0
    assert chk.worst_margin >= 0.0


def test_gauge_verifier_d2_is_exact():
    rep = verify_gauge_bounds(ModelParams(d=2, L=4, a=0.01))
    assert rep.method == "quadrature"
    assert rep.std_error_log == 0.0
    assert rep.verdict == "pass"


@pytest.mark.filterwarnings("ignore:gauge Monte Carlo relative error")
def test_gauge_verifier_d3_monte_carlo():
    # Deliberately small sample: the 10% noise warning is expected here and
    # the pass verdict already accounts for the window.
    p = ModelParams(d=3, L=2, n=2, kind="SU")
    rep = verify_gauge_bounds(p, n_samples=20_000, seed=0, n_workers=2)
    assert rep.method == "monte-carlo"
    assert rep.verdict == "pass"


def test_full_model_verifier():
    p = ModelParams(d=2, L=2, m_u=0.0, kappa_u_sq=1.0)
    rep = verify_full_model(p, n_samples=4000, seed=1, block_size=1000)
    assert rep.verdict == "pass"
    with pytest.raises(UsageError):
        verify_full_model(replace(p, field_kind="complex"), n_samples=10, seed=0)
    with pytest.raises(UsageError):
        verify_full_model(replace(p, n_flavors=2), n_samples=10, seed=0)


@pytest.mark.parametrize("n,kind", [(1, "U"), (2, "SU")])
def test_full_model_verifier_matches_matter_sector_api(n, kind):
    p = ModelParams(d=2, L=2, n=n, kind=kind, g_sq=2.0)
    count, seed = 64, 1
    rep = verify_full_model(p, n_samples=count, seed=seed, block_size=count)
    # The one block draws from block_rng(seed, 0); redraw the same bonds and
    # weight them through the per-configuration matter-sector API.
    bonds = haar_sample(mc.block_rng(seed, 0), n, kind=kind,
                        size=(count, p.lattice.n_bonds))
    plan = PlaquettePlan.for_bonds(p.lattice)
    log_w = [-wilson_action(p, plan, b)
             - 0.5 * logdet_posdef(bose_quadratic_form(p, b[None]))[0]
             for b in bonds]
    log_scale = (group_dim(kind, n) * p.lattice.n_retained
                 * 0.5 * np.log(p.coupling))
    assert log_scale != 0.0
    w = np.exp(log_w)
    assert rep.log_value - log_scale == pytest.approx(
        np.log(np.mean(w)), rel=1e-12, abs=1e-12)
    # sigma_log is the relative error of the unscaled mean, whatever the scale.
    assert rep.std_error_log == pytest.approx(
        np.std(w, ddof=1) / np.sqrt(count) / np.mean(w), rel=1e-10)


@pytest.mark.filterwarnings("ignore:gauge Monte Carlo relative error")
@pytest.mark.parametrize("n_workers", [1, 2])
def test_each_estimator_and_check_builds_one_plaquette_plan_per_call(
        monkeypatch, n_workers):
    # The plan depends only on the bond set, so it is built where the bonds
    # are chosen and every block (eight here, on one or two threads) reuses it.
    built = []
    for_bonds = PlaquettePlan.for_bonds

    def counted(cls, lattice, bond_ids=None):
        built.append(None if bond_ids is None else len(bond_ids))
        return for_bonds(lattice, bond_ids)

    monkeypatch.setattr(PlaquettePlan, "for_bonds", classmethod(counted))
    p = ModelParams(d=3, L=2, n=2, kind="SU")
    run = dict(n_workers=n_workers, block_size=32)
    for gauge_fixed in (False, True):
        z_wilson_mc(p, 256, seed=1, gauge_fixed=gauge_fixed, **run)
    verify_full_model(p, 256, seed=1, **run)
    check_plaquette_quadratic("U", 1, 3, 256, seed=1, **run)
    elementary_inequality_suite(256, seed=1, **run)
    assert built == [None, p.lattice.n_retained, None, 3, 1]


@pytest.mark.parametrize("n_workers", [1, 2])
def test_full_model_slices_equal_one_unsliced_factorisation(monkeypatch, n_workers):
    p = ModelParams(d=3, L=2, n=2, kind="U", g_sq=2.0)
    count, block, seed = 96, 32, 5
    # Slices are sized by the band and the builder's temporaries per form.
    per_form = partition._schur_plan(p.d, p.L, p.n).form_entries
    # Seven forms per slice: each 32-sample block runs as 7, 7, 7, 7, 4.
    monkeypatch.setattr(partition, "BOSE_SLICE_ENTRIES", 7 * per_form)
    assert [s.stop - s.start for s in lead_slices(
        block, per_form, partition.BOSE_SLICE_ENTRIES)] == [7, 7, 7, 7, 4]
    rep = verify_full_model(p, count, seed, n_workers=n_workers, block_size=block)
    plan = PlaquettePlan.for_bonds(p.lattice)

    def unsliced(rng, m):
        bonds = haar_sample(rng, p.n, kind=p.kind, size=(m, p.lattice.n_bonds))
        log_z_b = -0.5 * logdet_posdef(bose_quadratic_form(p, bonds))
        return log_z_b - wilson_action(p, plan, bonds)

    est = Estimate.from_moments(
        mc.sample_mean(unsliced, count, seed, block_size=block), seed)
    log_scale = (group_dim(p.kind, p.n) * p.lattice.n_retained
                 * 0.5 * np.log(p.coupling))
    assert rep.log_value == est.log_value + log_scale
    assert rep.std_error_log == est.std_error_log

    # A Bose-check block (configurations drawn one by one and stacked),
    # complex with three flavours and wider forms, in slices of 7, 7, 7, 7,
    # 4; and one unstacked configuration.  Each value is its form's own
    # factorisation, bit for bit.
    q = replace(p, field_kind="complex", n_flavors=3)
    rng = np.random.default_rng(seed)
    bonds = np.stack([haar_sample(rng, q.n, size=q.lattice.n_bonds)
                      for _ in range(block)])
    alone = [-0.5 * 3 * logdet_posdef(bose_quadratic_form(q, b[None]))[0]
             for b in bonds]
    monkeypatch.setattr(partition, "BOSE_SLICE_ENTRIES",
                        7 * partition._schur_plan(q.d, q.L, 2 * q.n).form_entries)
    assert np.array_equal(log_z_bose(q, bonds), alone)
    single = log_z_bose(q, bonds[3])
    assert single.shape == () and single == alone[3]


def test_full_model_block_holds_about_its_draws():
    # The Bose band is built and factorised over slices of the block, so a
    # block peaks near its Haar draws plus their plaquette planes, not at a
    # stacked band of every sample.
    p = ModelParams(d=3, L=2, n=2, kind="SU")
    samples = 8192
    draw_bytes = samples * p.lattice.n_bonds * p.n**2 * 16
    verify_full_model(p, 64, seed=3, block_size=64)  # tables and scipy, once
    tracemalloc.start()
    try:
        verify_full_model(p, samples, seed=3, block_size=samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * draw_bytes, peak / draw_bytes


@pytest.mark.filterwarnings("ignore:gauge Monte Carlo relative error")
def test_gauge_verifier_error_does_not_move_with_the_scale():
    # At a = 0.5 the gauge scale s_Y^{d(N) Lr} is far from 1; it shifts the
    # log value and leaves the relative error of the Monte Carlo mean alone.
    p = ModelParams(d=3, L=2, n=2, kind="SU", a=0.5)
    count, seed = 4000, 3
    rep = verify_gauge_bounds(p, n_samples=count, seed=seed)
    raw = z_wilson_mc(p, count, seed, gauge_fixed=True)
    log_scale = (group_dim("SU", 2) * p.lattice.n_retained
                 * 0.5 * np.log(p.coupling))
    assert abs(log_scale) > 1.0
    assert rep.log_value == pytest.approx(raw.log_value + log_scale, rel=1e-14)
    assert rep.std_error_log == pytest.approx(raw.std_error / raw.value, rel=1e-12)


def test_d2_bond_upper_checks():
    for g_sq in (4.0, 1.0, 0.25):
        for n in (1, 2):
            scaled, literal, sharp = d2_bond_upper_checks(
                ModelParams(d=2, L=2, n=n, a=0.3, g_sq=g_sq))
            assert scaled <= sharp <= literal
    with pytest.raises(UsageError):
        d2_bond_upper_checks(ModelParams(d=3, L=2))


def test_d2_bond_upper_checks_rejects_su():
    # The constants are U(N) ones; SU(2) has its own sandwich.
    with pytest.raises(UsageError, match="su2_bounds_check"):
        d2_bond_upper_checks(ModelParams(d=2, L=2, n=2, kind="SU", a=0.01))


@pytest.mark.parametrize("kind,n", [("U", 1), ("SU", 2), ("U", 2), ("U", 3),
                                    ("SU", 3)])
def test_plaquette_quadratic_runs_the_action_kernel(monkeypatch, kind, n):
    # Every group checks the bound on the action the Monte Carlo integrates:
    # each draw is one plaquette evaluated by bounds.plaquette_actions.
    evaluated = []

    def counted(plan, bonds):
        out = plaquette_actions(plan, bonds)
        evaluated.append(out.size)
        return out

    monkeypatch.setattr(bounds, "plaquette_actions", counted)
    for k in (1, 2, 3, 4):
        chk = check_plaquette_quadratic(kind, n, k, n_samples=20_000, seed=k)
        assert chk.passed and 0.0 <= chk.worst_margin < np.inf, chk
    chk = check_plaquette_quadratic(kind, n, 2, n_samples=4000, seed=0,
                                    block_size=2000)
    assert chk.passed, chk
    assert sum(evaluated) == 4 * 20_000 + 4000


def test_plaquette_quadratic_reports_an_injected_violation(monkeypatch):
    # An action raised by 5N breaks A_p <= 4N on every draw, by at least N,
    # and A_p <= k N |lam|^2 wherever |lam|^2 < A_p; for U(1), k = 1 that
    # second count is redone from the same draws (one block, seed window 0).
    n_samples, seed = 3000, 5
    monkeypatch.setattr(bounds, "plaquette_actions",
                        lambda plan, bonds: plaquette_actions(plan, bonds) + 5.0)
    chk = check_plaquette_quadratic("U", 1, 1, n_samples, seed)
    lam = np.angle(haar_sample(mc.block_rng(seed, 0), 1, kind="U",
                               size=(n_samples, 1))[:, 0, 0, 0])
    action = 4.0 * np.sin(lam / 2.0) ** 2 + 5.0
    quadratic_slack = lam * lam - action
    assert chk.violations == n_samples + int(np.count_nonzero(quadratic_slack < 0.0))
    assert n_samples < chk.violations < 2 * n_samples
    assert chk.worst_margin == pytest.approx(
        min(np.min(quadratic_slack), np.min(4.0 - action)), rel=1e-12)
    assert chk.worst_margin <= -1.0 and not chk.passed


def _tiny_angle_u1(rng, n, kind="U", size=()):
    """U(1) draws at |theta| in [1e-12, 1e-5], normalised as haar_sample does."""
    count = size[0]
    theta = np.exp(rng.uniform(np.log(1e-12), np.log(1e-5), count))
    theta *= rng.choice([-1.0, 1.0], count)
    g = rng.uniform(0.3, 2.0, count) * np.exp(1j * theta)
    return (g / np.abs(g))[:, None, None, None]


def test_plaquette_quadratic_recounts_round_off_exactly(monkeypatch, capsys):
    # At tiny angles the U(1), k = 1 slack theta^4 / 12 is below the round-off
    # of theta^2: every negative float slack is recomputed at 50 digits and,
    # its exact slack being >= 0, recounted rather than counted.
    n_samples, seed = 600, 4
    monkeypatch.setattr(bounds, "haar_sample", _tiny_angle_u1)
    mats = _tiny_angle_u1(mc.block_rng(seed, 0), 1, size=(n_samples, 1))
    lat = bounds.Lattice(d=2, L=2)
    plan = PlaquettePlan.for_bonds(lat, lat.plaq_bonds[0][:1])
    float_slack = (np.angle(mats[:, 0, 0, 0]) ** 2
                   - plaquette_actions(plan, mats)[:, 0])
    negative = int(np.count_nonzero(float_slack < 0.0))
    assert negative > 20
    chk = check_plaquette_quadratic("U", 1, 1, n_samples, seed)
    assert chk.passed and chk.violations == 0
    assert chk.recounted == negative
    assert chk.worst_margin >= 0.0
    payload = report_sampled_check(chk)
    assert payload["recounted"] == negative
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == (f"{chk.name} round-off recount: {negative} float "
                         "slacks below 0 hold at 50 digits")


def test_plaquette_quadratic_recount_keeps_kernel_errors(monkeypatch):
    # An action 1e-24 too large is tiny, but far above the round-off of the
    # draws it makes negative (|theta| < 2e-6, action < 4e-12): the exact
    # recount leaves every one of them a violation.
    n_samples, seed = 300, 6
    monkeypatch.setattr(bounds, "haar_sample", _tiny_angle_u1)
    monkeypatch.setattr(bounds, "plaquette_actions",
                        lambda plan, bonds: plaquette_actions(plan, bonds) + 1e-24)
    mats = _tiny_angle_u1(mc.block_rng(seed, 0), 1, size=(n_samples, 1))
    lat = bounds.Lattice(d=2, L=2)
    plan = PlaquettePlan.for_bonds(lat, lat.plaq_bonds[0][:1])
    float_slack = (np.angle(mats[:, 0, 0, 0]) ** 2 - 1e-24
                   - plaquette_actions(plan, mats)[:, 0])
    negative = int(np.count_nonzero(float_slack < 0.0))
    assert negative > 50
    chk = check_plaquette_quadratic("U", 1, 1, n_samples, seed)
    assert chk.violations == negative and chk.recounted == 0
    assert chk.worst_margin < 0.0


def test_checks_without_an_exact_route_report_no_recount(capsys):
    chk = sampled_checks(lambda rng, count: {"x": [rng.uniform(size=count)]}, 100, 0)["x"]
    assert chk.recounted is None
    assert "recounted" not in report_sampled_check(chk)
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_plaquette_quadratic_rejects_bad_k():
    with pytest.raises(UsageError):
        check_plaquette_quadratic("U", 1, 0, n_samples=10, seed=0)
    with pytest.raises(UsageError):
        check_plaquette_quadratic("U", 1, 5, n_samples=10, seed=0)
    with pytest.raises(UsageError):
        check_plaquette_quadratic("SU", 1, 1, n_samples=10, seed=0)


def test_elementary_suite_small_run():
    out = elementary_inequality_suite(50_000, seed=0, n_workers=2)
    assert set(out) == {"upper-quadratic", "lower-quadratic", "density-upper",
                        "density-lower", "su2-pointwise"}
    for name, chk in out.items():
        assert chk.passed, (name, chk.violations)
        assert 0.0 <= chk.worst_margin < np.inf, (name, chk.worst_margin)
