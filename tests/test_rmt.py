"""Gaussian-ensemble limits of the one-bond values."""

import numpy as np
import pytest

from boselgt.errors import UsageError
from boselgt.rmt import (cue_gue_target, d2_free_energy, d2_limit_target,
                         sweep_cue_gue, sweep_d2_limit, w_of_beta, w_ratio)

# Frozen targets: gue_norm(n) / cue_norm(n) and its log.
TARGET_1 = 0.28209479177387814
TARGET_2 = 0.039788735772973836
LOG_TARGET_1 = -1.2655121234846454
LOG_TARGET_2 = -3.224171427529236


def test_targets_are_frozen():
    assert cue_gue_target(1) == pytest.approx(TARGET_1, rel=1e-15)
    assert cue_gue_target(2) == pytest.approx(TARGET_2, rel=1e-15)
    assert d2_limit_target(1) == pytest.approx(LOG_TARGET_1, rel=1e-15)
    assert d2_limit_target(2) == pytest.approx(LOG_TARGET_2, rel=1e-15)


@pytest.mark.parametrize("n,rel", [(1, 2e-5), (2, 5e-5)])
def test_cosine_ratio_approaches_target(n, rel):
    assert w_ratio(1e-4, n) == pytest.approx(cue_gue_target(n), rel=rel)


@pytest.mark.parametrize("n", [3, 4])
def test_cosine_ratio_error_falls_tenfold_per_decade(n):
    # The approach to the Gaussian target is O(beta), so each decade of the
    # coupling c = 1/beta from 1e2 to 1e6 cuts the error tenfold.  At c = 1e6
    # the error is ~2e-7, far above the quadrature's 1e-9 tolerance, so the
    # ratio of errors measures the limit and not round-off.
    errs = [w_ratio(beta, n) / cue_gue_target(n) - 1.0
            for beta in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
    assert all(9.0 < a / b < 11.0 for a, b in zip(errs, errs[1:]))


def test_quadratic_ratio_approaches_target():
    # n = 1 has no density factor, so only the (negligible) box truncation
    # separates the ratio from the target.  For n = 2 the angle density's
    # sine factors still carry an O(beta) correction: 4 sin^2(u/2) = u^2 (1 -
    # u^2/12 + ...) with u^2 ~ beta, so ~ 2.5e-5 relative at beta = 1e-4.
    assert w_ratio(1e-4, 1, action="quadratic") == pytest.approx(
        cue_gue_target(1), rel=1e-6)
    assert w_ratio(1e-4, 2, action="quadratic") == pytest.approx(
        cue_gue_target(2), rel=5e-5)
    # U(3) at beta = 0.01 is a value, 1% from the target, not a failure.
    assert w_ratio(1e-2, 3, action="quadratic") == pytest.approx(
        cue_gue_target(3), rel=2e-2)


def test_quadratic_action_closed_form_at_unit_beta():
    # (1/2pi) integral of e^{-lam^2} over the angle box = erf(pi)/(2 sqrt pi).
    from scipy.special import erf
    assert w_of_beta(1.0, 1, action="quadratic") == pytest.approx(
        float(erf(np.pi)) / (2.0 * np.sqrt(np.pi)), rel=1e-10)


def test_two_actions_agree_only_in_the_limit():
    # At beta = 1 the cosine and quadratic actions differ visibly; by
    # beta = 1e-4 they agree to the anharmonic correction O(beta).
    assert abs(w_of_beta(1.0, 1) - w_of_beta(1.0, 1, action="quadratic")) > 1e-3
    a = w_ratio(1e-4, 1)
    b = w_ratio(1e-4, 1, action="quadratic")
    assert a == pytest.approx(b, rel=1e-3)


def test_d2_free_energy_converges_monotonically_in_error():
    errs = [abs(d2_free_energy(a) - d2_limit_target(1))
            for a in (1.0, 0.1, 0.01, 0.001)]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-2


def test_d2_free_energy_depends_on_c_only():
    # c = 1/(a^2 g^2): trading a for g^2 at fixed c changes nothing.
    assert d2_free_energy(0.1, n=1, g_sq=1.0) == pytest.approx(
        d2_free_energy(0.05, n=1, g_sq=4.0), rel=1e-12)


def test_usage_errors():
    with pytest.raises(UsageError):
        w_of_beta(0.0, 1)
    with pytest.raises(UsageError):
        w_of_beta(1.0, 1, action="quartic")
    with pytest.raises(UsageError):
        d2_free_energy(0.0)
    with pytest.raises(UsageError):
        d2_free_energy(2.0)
    with pytest.raises(UsageError):
        d2_free_energy(1.0, g_sq=0.0)


def test_sweep_structure():
    sw = sweep_cue_gue((1e-1, 1e-2), 1)
    assert sw.parameter == "beta"
    assert sw.values == (0.1, 0.01)
    assert len(sw.results) == 2
    rows = sw.rows()
    assert rows[1][3] < rows[0][3]
    assert rows[0][0] == 0.1
    assert rows[0][2] == pytest.approx(cue_gue_target(1))
    assert rows[0][3] == pytest.approx(abs(sw.results[0] - sw.target))

    sd = sweep_d2_limit((1.0, 0.1), n=2)
    assert sd.parameter == "a"
    assert sd.target == pytest.approx(LOG_TARGET_2)
    rows = sd.rows()
    assert rows[1][3] < rows[0][3]
