"""Partition values: exact determinants, Monte Carlo, one-bond, kernels."""

import ctypes
import math
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from boselgt import mc, partition
from boselgt.actions import ModelParams, ScalingFactors
from boselgt.errors import NotPositiveDefiniteError, NumericError, UsageError
from boselgt.haar import haar_sample
from boselgt.mc import Moments
from boselgt.partition import (BOSE_SLICE_ENTRIES, LOG_MAX_DOUBLE, LOG_MIN_NORMAL,
                               MIN_MC_MEAN, Estimate, bose_quadratic_form,
                               exp_is_normal, log_z_bose, log_z_bose_identity,
                               logdet_posdef, z_bose_exact, z_bose_exact_unscaled,
                               z_single_bond, z_wilson_d2_exact, z_wilson_mc)
from boselgt.records import estimate_payload
from oracles import (bose_form_band, chain_partition, gauge_transform,
                     identity_bonds, transfer_kernel_matrix)


def quad_z_4d(q, x_max=10.0, m=48):
    """Brute-force (2 pi)^{-M/2} integral of e^{-phi^T Q phi / 2} for M = 4.

    Plain tensor-grid trapezoid; with the Gaussian tails at e^{-25} and node
    spacing well under the narrowest principal width this is exact to about
    1e-10 relative, which independently pins the sign and placement of every
    entry of Q.
    """
    assert q.shape == (4, 4)
    x = np.linspace(-x_max, x_max, m)
    h = x[1] - x[0]
    expo = np.zeros((m,) * 4)
    for i in range(4):
        for j in range(4):
            if q[i, j] != 0.0:
                shape_i = [1, 1, 1, 1]
                shape_i[i] = m
                shape_j = [1, 1, 1, 1]
                shape_j[j] = m
                expo = expo - 0.5 * q[i, j] * (x.reshape(shape_i) * x.reshape(shape_j))
    return float(np.sum(np.exp(expo))) * h**4 / (2.0 * np.pi) ** 2


def band_to_dense(ab):
    """Symmetric dense matrix from LAPACK lower band storage ab[k, c] = Q[c + k, c]."""
    m = ab.shape[1]
    q = np.zeros((m, m))
    for k in range(ab.shape[0]):
        c = np.arange(m - k)
        q[c + k, c] = q[c, c + k] = ab[k, :m - k]
    return q


def dense_to_band(q):
    """Full-width lower band storage of a dense symmetric matrix."""
    m = q.shape[0]
    ab = np.zeros((m, m))
    for k in range(m):
        ab[k, :m - k] = np.diagonal(q, -k)
    return ab


def dense_bose_form(params, bonds):
    """Per-bond dense build of Q, independent of the band scatter."""
    lat = params.lattice
    width = params.n if params.field_kind == "real" else 2 * params.n
    q = np.eye(lat.n_sites * width)
    for b in range(lat.n_bonds):
        g = bonds[b]
        if params.field_kind == "real":
            blk = np.real(g)
        else:
            blk = np.block([[np.real(g), -np.imag(g)], [np.imag(g), np.real(g)]])
        i, j = lat.bond_tail[b] * width, lat.bond_head[b] * width
        q[i:i + width, j:j + width] -= params.scaling.kappa_sq * blk
        q[j:j + width, i:i + width] -= params.scaling.kappa_sq * blk.T
    return q


# ---------------------------------------------------------------- Estimate

def test_estimate_value_clamps():
    assert Estimate.exact(800.0).value == np.inf
    assert Estimate.exact(-800.0).value == 0.0
    assert Estimate.exact(0.0).value == 1.0
    assert Estimate.exact(800.0).std_error_log == 0.0
    assert Estimate.exact(800.0).std_error == 0.0


def test_estimate_validation():
    with pytest.raises(ValueError):
        Estimate(log_value=0.0, std_error_log=0.0, method="guesswork")
    with pytest.raises(ValueError):
        Estimate(log_value=0.0, std_error_log=-1.0, method="quadrature")


def test_estimate_from_moments():
    # Scaled weights of mean 0.5 and sample variance 0.25 behind a shift of 3.
    moments = Moments(n=100, shift=3.0, mean=0.5, m2=99.0 * 0.25)
    est = Estimate.from_moments(moments, seed=5)
    assert est.log_value == pytest.approx(3.0 + np.log(0.5), rel=1e-15)
    assert est.std_error_log == pytest.approx(0.1, rel=1e-15)
    assert est.std_error == pytest.approx(0.1 * 0.5 * np.exp(3.0), rel=1e-14)
    assert est.method == "monte-carlo"
    assert est.n_samples == 100 and est.seed == 5


def test_estimate_value_spans_the_whole_double_range():
    for log_value in (709.5, LOG_MAX_DOUBLE, -700.0):
        est = Estimate.exact(log_value)
        assert est.value == pytest.approx(math.exp(log_value), rel=1e-15)
    assert Estimate.exact(np.nextafter(LOG_MAX_DOUBLE, np.inf)).value == np.inf
    assert Estimate.exact(-746.0).value == 0.0


def test_one_range_test_decides_the_value_and_its_payload():
    inside = (LOG_MIN_NORMAL, 0.0, LOG_MAX_DOUBLE)
    outside = (np.nextafter(LOG_MIN_NORMAL, -np.inf), -800.0,
               np.nextafter(LOG_MAX_DOUBLE, np.inf), 800.0)
    for log_value in inside + outside:
        normal = exp_is_normal(log_value)
        assert normal == (log_value in inside)
        est = Estimate.exact(log_value)
        assert normal == (0.0 < est.value < np.inf)
        assert normal == (estimate_payload(est)["value"] is not None)


def test_a_payloads_error_is_its_value_times_the_log_error_exactly():
    rng = np.random.default_rng(31)
    logs = rng.uniform(LOG_MIN_NORMAL, LOG_MAX_DOUBLE, size=20_000)
    errors = rng.uniform(0.0, 0.5, size=logs.size)
    for log_value, err in zip(logs.tolist(), errors.tolist()):
        pay = estimate_payload(
            Estimate(log_value=log_value, std_error_log=err, method="monte-carlo"))
        assert pay["value"] == math.exp(log_value)
        assert pay["std_error"] == pay["value"] * err


def test_subnormal_values_and_their_errors_are_null_together():
    # exp(-720) is subnormal: value and std_error both read 0.0 / null,
    # where std_error used to come out as 1.016e-314 beside a null value.
    est = Estimate(log_value=-720.0, std_error_log=0.05, method="monte-carlo")
    assert est.value == 0.0 and est.std_error == 0.0
    pay = estimate_payload(est)
    assert pay["value"] is None and pay["std_error"] is None
    assert pay["log_value"] == -720.0
    below = np.nextafter(LOG_MIN_NORMAL, -np.inf)
    assert Estimate.exact(below).value == 0.0
    edge = Estimate(log_value=LOG_MIN_NORMAL, std_error_log=0.5, method="monte-carlo")
    assert edge.value == pytest.approx(np.finfo(float).tiny, rel=1e-15)
    pay = estimate_payload(edge)
    assert pay["value"] == edge.value and pay["std_error"] == edge.std_error > 0.0
    for log_value in (800.0, -800.0, below):
        pay = estimate_payload(Estimate.exact(log_value))
        assert pay["value"] is None and pay["std_error"] is None


def test_mean_whose_squared_deviations_can_underflow_is_refused():
    # The reduction keeps weights near e^{-390} in range, but a mean below
    # sqrt(smallest normal) is still refused, as a policy; the message names
    # the mean whether or not it is a normal double.
    with pytest.raises(NumericError, match="came out 2.127400e-170, below"):
        Estimate.from_moments(
            Moments(n=5000, shift=math.log(2.1274e-170), mean=1.0, m2=0.0), seed=3)
    # Below the normal range the message names the mean by its log.
    with pytest.raises(NumericError, match=r"came out exp\(-856\.271\), below"):
        Estimate.from_moments(
            Moments(n=5000, shift=-856.271, mean=1.0, m2=0.0), seed=3)
    assert MIN_MC_MEAN ** 2 == np.finfo(float).tiny
    edge = Estimate.from_moments(
        Moments(n=100, shift=math.log(MIN_MC_MEAN), mean=1.0, m2=0.0), seed=0)
    assert edge.log_value == math.log(MIN_MC_MEAN)


def test_rescaling_by_replace_keeps_the_log_error():
    # A known scale factor shifts log_value; the error of the log, and so
    # the relative error of the value, stays what the sample gave.
    est = Estimate.from_moments(Moments(n=100, shift=0.0, mean=0.5, m2=24.75), seed=5)
    scaled = replace(est, log_value=est.log_value + 3.0)
    assert scaled.std_error_log == est.std_error_log
    assert scaled.std_error == pytest.approx(np.exp(3.0) * est.std_error, rel=1e-14)
    assert (scaled.method, scaled.n_samples, scaled.seed) == ("monte-carlo", 100, 5)


def test_mean_below_the_floor_is_a_numeric_error_not_a_pivot():
    # Weights e^{-S} far below 1 are a Monte Carlo failure, not a quadratic
    # form that failed to be positive definite.
    with pytest.raises(NumericError, match="below 1.492e-154") as err:
        Estimate.from_moments(Moments(n=100, shift=-5000.0, mean=0.01, m2=0.5), seed=0)
    assert not isinstance(err.value, NotPositiveDefiniteError)


# ------------------------------------------------------------- Bose sector

def test_real_model_matches_brute_force_quadrature_identity_gauge():
    p = ModelParams(d=2, L=2, m_u=2.0, kappa_u_sq=1.0)  # kappa^2 = 1/8
    cfg = identity_bonds(1, p.lattice.n_bonds)
    q = band_to_dense(bose_form_band(p, cfg))
    assert np.array_equal(q, dense_bose_form(p, cfg))
    assert np.array_equal(q, q.T)
    assert np.all(np.diag(q) == 1.0)
    direct = quad_z_4d(q)
    assert z_bose_exact(p, cfg).value == pytest.approx(direct, rel=1e-8)


def test_real_model_matches_brute_force_quadrature_random_gauge():
    p = ModelParams(d=2, L=2, m_u=1.0, kappa_u_sq=0.9)
    cfg = haar_sample(np.random.default_rng(21), 1, size=p.lattice.n_bonds)
    q = band_to_dense(bose_form_band(p, cfg))
    assert np.array_equal(q, dense_bose_form(p, cfg))
    direct = quad_z_4d(q)
    assert z_bose_exact(p, cfg).value == pytest.approx(direct, rel=1e-8)


def test_complex_model_matches_hermitian_determinant():
    # Independent route: the complex Gaussian value is det(H)^{-n_f} for the
    # Hermitian form H; the real 2N-embedding the code integrates must agree.
    p = ModelParams(d=2, L=3, n=2, field_kind="complex", n_flavors=3,
                    m_u=0.7, kappa_u_sq=1.3)
    cfg = haar_sample(np.random.default_rng(31), 2, size=p.lattice.n_bonds)
    lat, n, k2 = p.lattice, p.n, p.scaling.kappa_sq
    h = np.eye(lat.n_sites * n, dtype=complex)
    for b in range(lat.n_bonds):
        i, j = lat.bond_tail[b] * n, lat.bond_head[b] * n
        h[i:i + n, j:j + n] -= k2 * cfg[b]
        h[j:j + n, i:i + n] -= k2 * cfg[b].conj().T
    sign, logdet = np.linalg.slogdet(h)
    assert sign == pytest.approx(1.0)
    assert z_bose_exact(p, cfg).log_value == pytest.approx(
        -p.n_flavors * logdet, rel=1e-10)


def test_bose_value_gauge_invariance():
    p = ModelParams(d=2, L=3, n=2, field_kind="complex", m_u=0.3, kappa_u_sq=1.0)
    rng = np.random.default_rng(41)
    cfg = haar_sample(rng, 2, size=p.lattice.n_bonds)
    rots = haar_sample(rng, 2, size=(p.lattice.n_sites,))
    a = z_bose_exact(p, cfg).log_value
    b = z_bose_exact(p, gauge_transform(p.lattice, cfg, rots)).log_value
    assert b == pytest.approx(a, rel=1e-10)


@pytest.mark.parametrize("n", [1, 2])
def test_real_fields_are_invariant_only_under_orthogonal_site_rotations(n):
    # Real fields couple through Re(g): Re(r g r'^T) = r Re(g) r'^T for
    # orthogonal r, but not for unitary r, so the full model of real fields
    # has only O(N) site symmetry and cannot be gauge-fixed to U(N) trees.
    p = ModelParams(d=2, L=3, n=n)
    rng = np.random.default_rng(43)
    cfg = haar_sample(rng, n, size=p.lattice.n_bonds)
    orthogonal, _ = np.linalg.qr(rng.standard_normal((p.lattice.n_sites, n, n)))
    unitary = haar_sample(rng, n, size=p.lattice.n_sites)
    a = z_bose_exact(p, cfg).log_value
    b = z_bose_exact(p, gauge_transform(p.lattice, cfg, orthogonal)).log_value
    c = z_bose_exact(p, gauge_transform(p.lattice, cfg, unitary)).log_value
    assert b == pytest.approx(a, rel=1e-10)
    assert abs(c - a) > 1e-3


def test_decoupled_bose_value_is_one():
    for field_kind in ("real", "complex"):
        p = ModelParams(d=3, L=2, m_u=1.0, kappa_u_sq=0.0, field_kind=field_kind)
        cfg = identity_bonds(1, p.lattice.n_bonds)
        assert z_bose_exact(p, cfg).log_value == 0.0


def test_scaled_unscaled_shift_is_the_volume_log():
    for field_kind, width in (("real", 1), ("complex", 2)):
        p = ModelParams(d=2, L=3, a=0.2, m_u=1.1, kappa_u_sq=0.6,
                        field_kind=field_kind, n_flavors=2)
        cfg = haar_sample(np.random.default_rng(51), 1, size=p.lattice.n_bonds)
        scaled = z_bose_exact(p, cfg)
        shift = scaled.log_value - z_bose_exact_unscaled(p, scaled).log_value
        m = p.lattice.n_sites * width
        assert shift == pytest.approx(
            p.n_flavors * m * np.log(p.scaling.bose_scale), rel=1e-10)


def test_logdet_posdef_routes_and_failure():
    rng = np.random.default_rng(61)
    a = rng.standard_normal((6, 6))
    q = a @ a.T + 6.0 * np.eye(6)
    # A stack of one form: the band axis, one lead entry, the columns.
    assert logdet_posdef(dense_to_band(q)[:, None]) == pytest.approx(
        [np.linalg.slogdet(q)[1]], rel=1e-12)
    # The first pivot that is not positive, 1 - 2^2, from a C-ordered band
    # (factorised on a copy) and from a Fortran-ordered one (in place) alike.
    indefinite = dense_to_band(np.array([[1.0, 2.0], [2.0, 1.0]]))[:, None]
    for band in (indefinite, np.asfortranarray(indefinite)):
        with pytest.raises(NotPositiveDefiniteError,
                           match="Bose quadratic form is not positive definite") as err:
            logdet_posdef(band)
        assert err.value.smallest_pivot == -3.0


@pytest.mark.parametrize("params,lead", [
    (ModelParams(d=3, L=2, n=2, kind="SU"), (64,)),   # a stacked slice
    (ModelParams(d=4, L=8), ()),                       # one d4 L8 band
])
def test_logdet_posdef_is_scipy_dpbtrf_bit_for_bit(params, lead):
    import scipy.linalg

    bonds = haar_sample(np.random.default_rng(29), params.n, kind=params.kind,
                        size=lead + (params.lattice.n_bonds,))
    ab = bose_quadratic_form(params, bonds)
    c_ordered = ab.copy()
    kept = c_ordered.copy()
    chol, info = scipy.linalg.lapack.dpbtrf(ab.reshape(ab.shape[0], -1), lower=1)
    assert info == 0
    expect = 2.0 * np.sum(np.log(chol[0].reshape(ab.shape[1:])), axis=-1)
    # The builder's band is factorised in place, into scipy's factor.
    assert logdet_posdef(ab).tobytes() == expect.tobytes()
    assert ab.reshape(ab.shape[0], -1).tobytes() == chol.tobytes()
    # Any other layout is factorised on a copy and left as it was.
    assert logdet_posdef(c_ordered).tobytes() == expect.tobytes()
    assert np.array_equal(c_ordered, kept)


def test_logdet_posdef_releases_the_interpreter_lock():
    # While a worker thread factorises a band of 50 ms or more, the main
    # thread keeps running Python: its longest gap between loop iterations
    # stays below half the factorisation.  A call that held the lock would
    # stop it for the whole factorisation.
    def band(m, kd=767):
        ab = np.full((kd + 1, 1, m), -1.0, order="F")
        ab[0] = 2.0 * kd + 1.0   # diagonally dominant, so positive definite
        return ab

    logdet_posdef(band(8))   # scipy loaded
    m, alone = 512, 0.0
    while alone < 0.08:   # columns doubled until a factorisation takes 80 ms
        m *= 2
        ab = band(m)
        start = time.perf_counter()
        logdet_posdef(ab)
        alone = time.perf_counter() - start
    ab = band(m)
    took = []

    def worker():
        start = time.perf_counter()
        logdet_posdef(ab)
        took.append(time.perf_counter() - start)

    thread = threading.Thread(target=worker)
    longest, last = 0.0, time.perf_counter()
    deadline = last + 60.0
    thread.start()
    while thread.is_alive() and last < deadline:
        now = time.perf_counter()
        longest, last = max(longest, now - last), now
    thread.join(timeout=1.0)
    assert not thread.is_alive() and len(took) == 1
    assert took[0] >= 0.05, took
    assert longest < 0.5 * took[0], (longest, took[0])


def small_band(kd=40, m=200):
    ab = np.full((kd + 1, 1, m), -1.0, order="F")
    ab[0] = 2.0 * kd + 1.0   # diagonally dominant, so positive definite
    return ab


def test_without_blas_thread_functions_two_workers_keep_the_factors(monkeypatch):
    monkeypatch.setattr(partition, "_BLAS_THREAD_SYMBOLS", ("no_set",))
    monkeypatch.setattr(partition, "_LAPACK", None)
    expect = logdet_posdef(small_band())   # loads again, without the setter
    got = mc.map_blocks(lambda rng, m: logdet_posdef(small_band()), 6, 0, 2, 1)
    assert all(np.array_equal(g, expect) for g in got)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("field_kind", ["real", "complex"])
@pytest.mark.parametrize("d,L", [(2, 4), (3, 3), (4, 2)])
def test_band_form_matches_dense_per_bond_build(d, L, field_kind, n):
    p = ModelParams(d=d, L=L, n=n, field_kind=field_kind,
                    m_u=0.5, kappa_u_sq=1.0)
    cfg = haar_sample(np.random.default_rng(10 * d + n), n, size=p.lattice.n_bonds)
    dense = dense_bose_form(p, cfg)
    q_band = bose_form_band(p, cfg)
    assert np.array_equal(band_to_dense(q_band), dense)
    sign, expect = np.linalg.slogdet(dense)
    assert sign == 1.0
    assert logdet_posdef(q_band[:, None]) == pytest.approx([expect], rel=1e-10)
    # det S = det Q: the Schur complement carries the whole determinant.
    assert logdet_posdef(bose_quadratic_form(p, cfg)[:, None]) == pytest.approx(
        [expect], rel=1e-10)


def odd_sites(lattice):
    """Sites whose 0-based coordinates sum to an odd number, in site order."""
    return np.flatnonzero((lattice.site_coords.sum(axis=1) - lattice.d) % 2 == 1)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("field_kind", ["real", "complex"])
@pytest.mark.parametrize("d,L", [(2, 4), (2, 5), (3, 3), (4, 2)])
def test_band_is_the_schur_complement_of_dense_q(d, L, field_kind, n):
    # Q = [[1, -B], [-B^T, 1]] on (odd, even) sites, so S = 1 - B B^T.
    p = ModelParams(d=d, L=L, n=n, field_kind=field_kind, m_u=0.5)
    cfg = haar_sample(np.random.default_rng(7 * d + L), n, size=p.lattice.n_bonds)
    w = n if field_kind == "real" else 2 * n
    fields = (w * odd_sites(p.lattice)[:, None] + np.arange(w)).ravel()
    others = np.setdiff1d(np.arange(p.lattice.n_sites * w), fields)
    q = dense_bose_form(p, cfg)
    assert np.array_equal(q[np.ix_(others, others)], np.eye(len(others)))
    b = -q[np.ix_(fields, others)]
    ab = bose_quadratic_form(p, cfg)
    assert ab.shape[1] == len(fields) <= len(others)
    # kd is Q's for L >= 3; at L = 2 no kept pair is two time steps apart.
    assert ab.shape[0] == bose_form_band(p, cfg).shape[0] or L == 2
    s = band_to_dense(ab)
    assert np.allclose(s, np.eye(len(fields)) - b @ b.T, rtol=0.0, atol=1e-15)
    # Entries outside the band are zero: the band holds all of S.
    rows, cols = np.nonzero(np.abs(np.eye(len(fields)) - b @ b.T) > 1e-15)
    assert np.max(np.abs(rows - cols)) <= ab.shape[0] - 1


@pytest.mark.parametrize("field_kind,width", [("real", 2), ("complex", 4)])
@pytest.mark.parametrize("d,L", [(2, 4), (3, 3), (4, 3)])
def test_band_holds_every_nonzero(d, L, field_kind, width):
    p = ModelParams(d=d, L=L, n=2, field_kind=field_kind, m_u=0.5)
    cfg = haar_sample(np.random.default_rng(d), 2, size=p.lattice.n_bonds)
    rows, cols = np.nonzero(dense_bose_form(p, cfg))
    kd = bose_form_band(p, cfg).shape[0] - 1
    assert kd == np.max(np.abs(rows - cols))
    assert kd == (L ** (d - 1) + 1) * width - 1
    # The Schur complement keeps the bandwidth on half the columns.
    assert bose_quadratic_form(p, cfg).shape[0] - 1 == kd


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("field_kind", ["real", "complex"])
@pytest.mark.parametrize("d,L", [(2, 4), (3, 3)])
def test_stacked_bands_factorise_as_one(d, L, field_kind, n):
    p = ModelParams(d=d, L=L, n=n, field_kind=field_kind,
                    m_u=0.5, kappa_u_sq=1.0)
    rng = np.random.default_rng(100 * d + 10 * n)
    configs = [haar_sample(rng, n, size=p.lattice.n_bonds) for _ in range(5)]
    bands = [bose_quadratic_form(p, cfg) for cfg in configs]
    ab = bose_quadratic_form(p, np.stack(configs))
    assert np.array_equal(ab, np.stack(bands, axis=1))
    logdets = logdet_posdef(ab)
    assert logdets.shape == (5,)
    # Entries past the end of each form are zero, so the block-diagonal
    # stack factorises into the per-form Cholesky factors, at these band
    # widths bit for bit.
    assert np.array_equal(logdets, [logdet_posdef(b[:, None])[0] for b in bands])
    for logdet, cfg in zip(logdets, configs):
        sign, expect = np.linalg.slogdet(dense_bose_form(p, cfg))
        assert sign == 1.0
        assert logdet == pytest.approx(expect, rel=1e-10)


def test_stacked_band_failure_names_the_same_pivot_in_either_layout():
    p = ModelParams(d=2, L=3, n=2, m_u=0.5, kappa_u_sq=1.0)
    rng = np.random.default_rng(7)
    bonds = np.stack([haar_sample(rng, 2, size=p.lattice.n_bonds)
                      for _ in range(5)])
    ab = bose_quadratic_form(p, bonds)
    # Set the third form's diagonal to -1: that form is indefinite by
    # itself while the other four stay positive definite.
    ab[0, 2] = -1.0
    assert np.linalg.eigvalsh(band_to_dense(ab[:, 2]))[0] < 0.0
    # Forms do not couple, so the first pivot that is not positive is the
    # third form's first diagonal entry, whether the band is factorised on
    # a C-ordered copy or, in the builder's layout, in place.
    for band in (ab.copy(), ab):
        with pytest.raises(NotPositiveDefiniteError) as err:
            logdet_posdef(band)
        assert err.value.smallest_pivot == -1.0


def test_bose_failure_names_a_negative_pivot():
    # Bonds twice the identity push the hopping past the positive range.
    p = ModelParams(d=2, L=3, n=1)
    bonds = 2.0 * identity_bonds(1, p.lattice.n_bonds)
    assert np.linalg.eigvalsh(dense_bose_form(p, bonds))[0] < 0.0
    # The Cholesky pivots of S are ratios of its leading principal minors.
    s = band_to_dense(bose_quadratic_form(p, bonds))
    minors = [np.linalg.det(s[:j, :j]) for j in range(1, len(s) + 1)]
    pivots = np.array(minors) / np.r_[1.0, minors[:-1]]
    first = pivots[np.argmax(pivots <= 0.0)]
    assert first < 0.0
    with pytest.raises(NotPositiveDefiniteError, match="Bose quadratic form") as err:
        log_z_bose(p, bonds)
    assert err.value.smallest_pivot == pytest.approx(first, rel=1e-12)


@pytest.mark.parametrize("d,L,n,field_kind,kind", [
    (2, 3, 1, "real", "U"), (2, 8, 2, "complex", "U"),
    (3, 4, 2, "real", "SU"), (4, 3, 2, "real", "U"),
])
def test_haar_bonds_keep_s_above_the_massless_identity_floor(d, L, n, field_kind, kind):
    # Diamagnetic inequality: bond blocks of norm <= 1 cannot raise the
    # largest singular value of B above its identity-bond value, 2 d kappa^2
    # cos(pi / (L + 1)), so at the massless edge kappa^2 = 1/(2d) every
    # eigenvalue of S = 1 - B B^T is at least sin^2(pi / (L + 1)) > 0 and
    # drawn bonds never reach the factorisation's failure.
    p = ModelParams(d=d, L=L, n=n, kind=kind, field_kind=field_kind, m_u=0.0)
    assert p.scaling.kappa_sq == 1.0 / (2 * d)
    bonds = haar_sample(np.random.default_rng(10 * d + L), n, kind=kind,
                        size=(8, p.lattice.n_bonds))
    bonds[0] = identity_bonds(n, p.lattice.n_bonds)   # where the floor is reached
    ab = bose_quadratic_form(p, bonds)
    floor = np.sin(np.pi / (L + 1)) ** 2
    smallest = [np.linalg.eigvalsh(band_to_dense(ab[:, i]))[0] for i in range(len(bonds))]
    assert smallest[0] == pytest.approx(floor, rel=1e-12)
    assert min(smallest) >= floor - 1e-12


def test_non_finite_bonds_are_refused():
    p = ModelParams(d=2, L=3, n=1)
    bonds = identity_bonds(1, p.lattice.n_bonds)
    bonds[4] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        log_z_bose(p, bonds)


def test_non_finite_bonds_are_refused_on_the_blocked_path():
    # kd = 33 >= 32: dpbtrf factorises in blocks, not column by column.
    p = ModelParams(d=3, L=4, n=2)
    bonds = haar_sample(np.random.default_rng(3), 2, size=(2, p.lattice.n_bonds))
    assert bose_quadratic_form(p, bonds).shape[0] - 1 == 33
    bonds[1, 5] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        log_z_bose(p, bonds)


def test_a_nan_pivot_is_refused_as_not_finite(monkeypatch):
    # Reference LAPACK stops at a NaN pivot, where OpenBLAS runs through
    # it; either way the error is ValueError, not NotPositiveDefiniteError.
    def stops_at_a_nan(uplo, n, kd, data, ldab, info):
        ctypes.c_double.from_address(data).value = np.nan
        info._obj.value = 1

    monkeypatch.setattr(partition, "_LAPACK", stops_at_a_nan)
    with pytest.raises(ValueError, match="not finite"):
        logdet_posdef(np.ones((1, 1, 3)))


@pytest.mark.parametrize("field_kind,n_flavors", [("real", 1), ("complex", 2)])
@pytest.mark.parametrize("m_u", [0.0, 0.7])
@pytest.mark.parametrize("d,L,n", [(2, 2, 1), (2, 7, 2), (3, 3, 1), (3, 6, 2),
                                   (4, 3, 2), (4, 8, 1)])
def test_identity_bonds_match_the_closed_form(d, L, n, field_kind, n_flavors, m_u):
    # m_u = 0 is the massless edge kappa^2 = 1/(2d); d4 L8 is the benchmark's
    # largest form, where a dense determinant is out of reach.
    p = ModelParams(d=d, L=L, n=n, field_kind=field_kind, n_flavors=n_flavors,
                    m_u=m_u)
    if m_u == 0.0:
        assert p.scaling.kappa_sq == 1.0 / (2 * d)
    expect = log_z_bose_identity(p)
    got = log_z_bose(p, identity_bonds(n, p.lattice.n_bonds))
    assert got == pytest.approx(expect, rel=1e-12)


def test_z_bose_exact_without_bonds_is_the_closed_form():
    p = ModelParams(d=3, L=3, n=2, field_kind="complex", m_u=0.3)
    est = z_bose_exact(p)
    assert est.method == "exact-determinant"
    assert est.log_value == log_z_bose_identity(p)
    factorised = z_bose_exact(p, identity_bonds(2, p.lattice.n_bonds))
    assert est.log_value == pytest.approx(factorised.log_value, rel=1e-12)


def test_exact_zero_log_z_bose_is_positive_zero():
    # kappa^2 = 0 makes S the identity, so log Z_B is exactly 0; both routes
    # return +0.0, so no record or printout reads -0.
    p = ModelParams(d=2, L=3, n=2, field_kind="complex", n_flavors=3,
                    m_u=1.0, kappa_u_sq=0.0)
    assert p.scaling.kappa_sq == 0.0
    bonds = haar_sample(np.random.default_rng(0), 2, size=(4, p.lattice.n_bonds))
    values = [log_z_bose_identity(p), float(log_z_bose(p, bonds[0])),
              *log_z_bose(p, bonds)]
    assert [math.copysign(1.0, v) for v in values] == [1.0] * 6
    assert values == [0.0] * 6


@pytest.mark.parametrize("d,L", [(2, 2), (2, 3), (3, 2)])
def test_closed_form_names_the_smallest_eigenvalue_of_q(d, L, monkeypatch):
    # kappa^2 = 0.6 > 1/(2d) puts the identity form outside the positive range.
    original = ScalingFactors.from_params
    monkeypatch.setattr(ScalingFactors, "from_params", classmethod(
        lambda cls, p: replace(original(p), kappa_sq=0.6)))
    p = ModelParams(d=d, L=L, n=1)
    q_min = np.linalg.eigvalsh(
        dense_bose_form(p, identity_bonds(1, p.lattice.n_bonds)))[0]
    assert q_min < 0.0
    with pytest.raises(NotPositiveDefiniteError,
                       match="Bose quadratic form at identity bonds") as err:
        log_z_bose_identity(p)
    assert err.value.smallest_pivot == pytest.approx(q_min, rel=1e-12)


def test_exact_d4_l8_log_det_peaks_below_the_full_form_band():
    # The Schur band has half Q's columns and is factorised in place, so
    # one d4 L8 value needs less than Q's band alone (twice that when Q
    # was built and LAPACK worked on a copy).
    p = ModelParams(d=4, L=8, n=1)
    bonds = haar_sample(np.random.default_rng(3), 1, size=p.lattice.n_bonds)
    q_band_bytes = 8 * (p.lattice.L ** 3 + 1) * p.lattice.n_sites
    log_z_bose(p, bonds)  # plan, tables and scipy, once
    tracemalloc.start()
    try:
        log_z_bose(p, bonds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < q_band_bytes, peak / q_band_bytes


@pytest.mark.parametrize("count, d, L, n, kind, field_kind, n_flavors", [
    (8192, 3, 2, 2, "SU", "real", 1), (8192, 2, 3, 1, "U", "real", 1),
    (256, 3, 4, 2, "U", "real", 1), (4096, 2, 3, 2, "U", "complex", 3)])
def test_stacked_log_z_bose_peaks_within_its_slice_budget(count, d, L, n, kind,
                                                          field_kind, n_flavors):
    # Slices hold form_entries doubles per form, so a count that misses an
    # array of the builder shows as a peak above the budget.
    p = ModelParams(d=d, L=L, n=n, kind=kind, field_kind=field_kind,
                    n_flavors=n_flavors)
    bonds = haar_sample(np.random.default_rng(3), n, kind=kind,
                        size=(count, p.lattice.n_bonds))
    log_z_bose(p, bonds[:1])  # plan, tables and scipy, once
    tracemalloc.start()
    try:
        log_z_bose(p, bonds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    budget = 8 * BOSE_SLICE_ENTRIES + 8 * count
    assert peak <= budget, peak / budget


# ------------------------------------------------------------ gauge sector

def test_wilson_mc_is_worker_invariant():
    p = ModelParams(d=2, L=2)
    a = z_wilson_mc(p, n_samples=20_000, seed=7, block_size=4096)
    b = z_wilson_mc(p, n_samples=20_000, seed=7, n_workers=4, block_size=4096)
    assert a.log_value == b.log_value
    assert a.std_error == b.std_error


def test_wilson_mc_agrees_with_d2_exact():
    p = ModelParams(d=2, L=2)
    exact = z_wilson_d2_exact(p)
    assert exact.std_error == 0.0
    for gauge_fixed in (False, True):
        est = z_wilson_mc(p, n_samples=40_000, seed=3, gauge_fixed=gauge_fixed)
        sigma_log = est.std_error_log
        assert abs(est.log_value - exact.log_value) < 3.0 * sigma_log


def test_gauge_fixed_sampling_agrees_with_free():
    # Freezing the tree bonds cuts the sampled volume without moving the
    # value; the two estimators must agree within their joint error.
    p = ModelParams(d=2, L=3)
    free = z_wilson_mc(p, n_samples=20_000, seed=9)
    fixed = z_wilson_mc(p, n_samples=20_000, seed=9, gauge_fixed=True)
    joint = np.hypot(free.std_error_log, fixed.std_error_log)
    assert abs(free.log_value - fixed.log_value) < 3.0 * joint


def _block_peak_over_draws(params, samples):
    """tracemalloc peak of one gauge-fixed z_wilson_mc block over its draw bytes."""
    draw_bytes = samples * params.lattice.n_retained * params.n**2 * 16
    params.lattice.plaq_bonds  # tables are built once per lattice, not per block
    tracemalloc.start()
    try:
        z_wilson_mc(params, samples, seed=3, gauge_fixed=True, block_size=samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / draw_bytes


@pytest.mark.filterwarnings("ignore:gauge Monte Carlo relative error")
def test_gauge_fixed_block_holds_only_its_draws():
    # The tree bonds are the identity, which the kernel supplies, and the
    # sampler builds its matrices in place: a block peaks at its draws plus
    # one float plane of Gaussians (1.5x), with no full bond array and no
    # complex Gaussian temporaries (2.05x here with them).
    ratio = _block_peak_over_draws(ModelParams(d=4, L=3, n=2, g_sq=4.0), 2048)
    assert ratio <= 1.6, ratio


@pytest.mark.filterwarnings("ignore:gauge Monte Carlo relative error")
def test_gauge_fixed_u1_block_peaks_below_twice_its_draws():
    # d3 L3 U(1): 28 draws and 36 plaquette actions per sample, so the
    # action array alone is 0.64x the draws (2.54x in all with separate
    # real and imaginary draws and complex temporaries in the sampler).
    ratio = _block_peak_over_draws(ModelParams(d=3, L=3, n=1), 8192)
    assert ratio <= 2.0, ratio


def test_wilson_mc_warns_when_noisy():
    p = ModelParams(d=2, L=3, g_sq=0.02)  # coupling 50: deep peaked regime
    with pytest.warns(UserWarning, match="relative error"):
        z_wilson_mc(p, n_samples=256, seed=1, block_size=256)


def test_d2_exact_requires_d2():
    with pytest.raises(UsageError):
        z_wilson_d2_exact(ModelParams(d=3, L=2))


def test_single_bond_usage_errors():
    with pytest.raises(UsageError):
        z_single_bond(0.0)
    with pytest.raises(UsageError):
        z_single_bond(1.0, n=3, kind="SU")
    for c in (2.0, 10.0):
        with pytest.raises(UsageError):
            z_single_bond(c, n=2, kind="O")
        with pytest.raises(UsageError):
            z_single_bond(c, n=0)


def test_single_bond_is_continuous_at_the_method_switch():
    # No method switch remains: c = 4, where two quadratures used to meet,
    # must show no jump.
    below = z_single_bond(4.0 - 1e-9, n=2).value
    above = z_single_bond(4.0 + 1e-9, n=2).value
    assert below == pytest.approx(above, rel=1e-7)


# ----------------------------------------------------- chain and kernels

def test_chain_value_ignores_gauge_blocks():
    rng = np.random.default_rng(71)
    blocks = []
    for _ in range(3):
        q, r = np.linalg.qr(rng.standard_normal((2, 2)))
        blocks.append(q * np.sign(np.diag(r)))
    with_gauge = chain_partition(4, 2, 3, gauge_list=blocks)
    without = chain_partition(4, 2, 3)
    assert with_gauge == pytest.approx(without, rel=1e-12)


def test_chain_validation():
    with pytest.raises(UsageError):
        chain_partition(1, 1, 2)
    with pytest.raises(ValueError):
        chain_partition(3, 1, 2, gauge_list=[np.eye(1)])
    with pytest.raises(ValueError):
        chain_partition(2, 2, 2, gauge_list=[np.eye(3)])


def test_transfer_kernel_matrix_shape_and_symmetry():
    k = transfer_kernel_matrix(n_points=64, x_max=6.0)
    assert k.shape == (64, 64)
    assert np.allclose(k, k.T, atol=1e-15)
    assert np.all(k > 0.0)

