"""Deterministic blocked Monte Carlo driver."""

import functools
import threading

import numpy as np
import pytest

from boselgt.errors import UsageError
from boselgt.mc import Moments, block_rng, map_blocks, sample_mean
from boselgt.partition import Estimate


def gauss_block(rng, m):
    return rng.standard_normal(m)


def test_block_rng_streams_are_separated():
    a = block_rng(7, 0).standard_normal(4)
    b = block_rng(7, 1).standard_normal(4)
    c = block_rng(8, 0).standard_normal(4)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)
    # Re-keying reproduces the stream exactly.
    assert np.array_equal(a, block_rng(7, 0).standard_normal(4))


def test_map_blocks_order_and_sizes():
    sizes = map_blocks(lambda rng, m: m, n_total=10, seed=0, block_size=4)
    assert sizes == [4, 4, 2]
    idx = map_blocks(lambda rng, m: rng.integers(1 << 30), n_total=12, seed=3,
                     block_size=4)
    # Results come back in block order whatever computed them.
    assert idx == map_blocks(lambda rng, m: rng.integers(1 << 30), n_total=12,
                             seed=3, n_workers=3, block_size=4)


def test_map_blocks_rejects_empty_run():
    with pytest.raises(ValueError):
        map_blocks(lambda rng, m: m, n_total=0, seed=0)


@pytest.mark.parametrize("workers", [1, 2, 4, 7])
def test_worker_count_never_changes_the_answer(workers):
    base = sample_mean(gauss_block, n_total=50_000, seed=42, block_size=1024)
    other = sample_mean(gauss_block, n_total=50_000, seed=42,
                        n_workers=workers, block_size=1024)
    assert other == base  # bit-identical n, shift, mean and m2


def test_block_size_is_part_of_the_run_identity():
    a = sample_mean(gauss_block, n_total=4096, seed=1, block_size=1024)
    b = sample_mean(gauss_block, n_total=4096, seed=1, block_size=2048)
    assert a.mean != b.mean


def wide_block(rng, m):
    """Log-weights spread over [-800, 800] nats, far past the double range."""
    return rng.uniform(-800.0, 800.0, size=m)


def mpmath_log_mean_and_error(log_weights):
    """log of the mean weight and its relative standard error, in mpmath."""
    import mpmath
    with mpmath.workdps(50):
        w = [mpmath.exp(mpmath.mpf(float(x))) for x in log_weights]
        n = len(w)
        mean = mpmath.fsum(w) / n
        var = mpmath.fsum((x - mean) ** 2 for x in w) / (n - 1)
        return float(mpmath.log(mean)), float(mpmath.sqrt(var / n) / mean)


def test_log_weights_across_the_double_range_match_mpmath():
    # Blocks of 64, 64, 64, 8 whose largest weights differ by many nats, so
    # every merge rescales one side.
    n, seed, size = 200, 11, 64
    est = Estimate.from_moments(sample_mean(wide_block, n, seed, block_size=size), seed)
    flat = np.concatenate(map_blocks(wide_block, n, seed, block_size=size))
    log_mean, rel_error = mpmath_log_mean_and_error(flat)
    assert est.log_value == pytest.approx(log_mean, rel=1e-15)
    assert est.std_error_log == pytest.approx(rel_error, rel=1e-12)
    assert est.n_samples == n


def test_mean_of_log_weights_near_each_other_keeps_its_small_error():
    # Weights within 1e-9 of each other: the error bar is about 6e-11 and
    # must not cancel to noise.
    def near(rng, m):
        return 500.0 + 1e-9 * rng.standard_normal(m)

    est = Estimate.from_moments(sample_mean(near, 300, 4, block_size=64), 4)
    flat = np.concatenate(map_blocks(near, 300, 4, block_size=64))
    log_mean, rel_error = mpmath_log_mean_and_error(flat)
    assert est.log_value == pytest.approx(log_mean, rel=1e-15)
    assert est.std_error_log == pytest.approx(rel_error, rel=1e-6)


def test_identical_log_weights_give_a_zero_error_bar():
    mom = sample_mean(lambda rng, m: np.full(m, 900.0), 100, 0, block_size=7)
    est = Estimate.from_moments(mom, 0)
    assert est.log_value == 900.0
    assert est.std_error_log == 0.0


def test_a_constant_added_to_every_log_weight_only_shifts_the_log_value():
    base = Estimate.from_moments(sample_mean(wide_block, 500, 2, block_size=64), 2)
    for c in (-1000.0, -3.5, 0.25, 700.0):
        shifted = Estimate.from_moments(
            sample_mean(lambda rng, m: wide_block(rng, m) + c, 500, 2, block_size=64), 2)
        assert shifted.log_value - c == pytest.approx(base.log_value, abs=1e-12)
        assert shifted.std_error_log == pytest.approx(base.std_error_log, rel=1e-12)


@pytest.mark.parametrize("workers", [2, 4])
def test_wide_log_weights_are_bit_identical_for_any_worker_count(workers):
    base = sample_mean(wide_block, 1000, 6, block_size=64)
    assert sample_mean(wide_block, 1000, 6, n_workers=workers, block_size=64) == base


def one_block(log_weights):
    return sample_mean(lambda rng, m: log_weights, log_weights.size, 0,
                       block_size=log_weights.size)


def test_moments_merge_matches_flat_computation():
    # Blocks of 5, 2, 117 and 64 log-weights whose largest ones differ, so
    # every merge rescales one side to the larger shift.
    rng = np.random.default_rng(9)
    chunks = [rng.standard_normal(k) + shift
              for k, shift in ((5, 3.0), (2, -40.0), (117, 0.0), (64, 2.0))]
    acc = functools.reduce(Moments.merged, map(one_block, chunks))
    flat = one_block(np.concatenate(chunks))
    assert (acc.n, acc.shift) == (flat.n, flat.shift)
    assert acc.mean == pytest.approx(flat.mean, rel=1e-14)
    assert acc.m2 == pytest.approx(flat.m2, rel=1e-13)


def test_a_mean_of_one_sample_is_refused():
    with pytest.raises(UsageError, match="needs at least 2 samples, got 1"):
        sample_mean(gauss_block, n_total=1, seed=0)


def test_sample_mean_estimates_the_mean():
    # Log-weights N(0.5, 0.3^2): the mean weight is e^{0.5 + 0.045}.
    mom = sample_mean(lambda rng, m: rng.normal(0.5, 0.3, size=m),
                      n_total=200_000, seed=5, n_workers=4)
    est = Estimate.from_moments(mom, 5)
    assert abs(est.log_value - 0.545) < 4.0 * est.std_error_log
    sigma = np.sqrt(np.expm1(0.09) / 200_000)
    assert est.std_error_log == pytest.approx(sigma, rel=0.05)


def test_map_blocks_raises_the_first_failed_block_for_any_worker_count():
    # A block's first draw tells which block it is.
    firsts = [block_rng(0, i).integers(1 << 62) for i in range(8)]

    def block(rng, m):
        i = firsts.index(rng.integers(1 << 62))
        if i in (2, 5):
            raise RuntimeError(f"block {i}")
        return i

    for workers in (1, 2, 4):
        with pytest.raises(RuntimeError, match="block 2"):
            map_blocks(block, n_total=8, seed=0, n_workers=workers, block_size=1)


def test_one_worker_or_one_block_runs_in_the_callers_thread():
    def thread_name(rng, m):
        return threading.current_thread().name

    main = threading.current_thread().name
    assert map_blocks(thread_name, n_total=4, seed=0, n_workers=4, block_size=4) == [main]
    assert map_blocks(thread_name, n_total=4, seed=0, n_workers=1, block_size=1) == [main] * 4
    assert main not in map_blocks(thread_name, n_total=4, seed=0, n_workers=2, block_size=1)
