"""Deterministic blocked Monte Carlo driver."""

import threading

import numpy as np
import pytest

from boselgt.mc import Moments, block_moments, block_rng, map_blocks, sample_mean


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
    assert other.n == base.n
    assert other.mean == base.mean  # bit-identical, not approximately
    assert other.m2 == base.m2


def test_block_size_is_part_of_the_run_identity():
    a = sample_mean(gauss_block, n_total=4096, seed=1, block_size=1024)
    b = sample_mean(gauss_block, n_total=4096, seed=1, block_size=2048)
    assert a.mean != b.mean


def test_moments_merge_matches_flat_computation():
    rng = np.random.default_rng(9)
    chunks = [rng.standard_normal(k) for k in (5, 1, 117, 64)]
    acc = Moments()
    for ch in chunks:
        acc = acc.merged(block_moments(ch))
    flat = np.concatenate(chunks)
    assert acc.n == flat.size
    assert acc.mean == pytest.approx(float(np.mean(flat)), rel=1e-13)
    assert acc.variance == pytest.approx(float(np.var(flat, ddof=1)), rel=1e-12)
    assert acc.std_error == pytest.approx(
        float(np.std(flat, ddof=1) / np.sqrt(flat.size)), rel=1e-12)


def test_moments_merge_with_empty_is_identity():
    m = block_moments(np.arange(4.0))
    assert Moments().merged(m) == m
    assert m.merged(Moments()) == m
    assert Moments(n=1, mean=3.0).std_error == 0.0


def test_sample_mean_estimates_the_mean():
    mom = sample_mean(lambda rng, m: rng.normal(2.0, 3.0, size=m),
                      n_total=200_000, seed=5, n_workers=4)
    assert abs(mom.mean - 2.0) < 4.0 * mom.std_error
    assert mom.std_error == pytest.approx(3.0 / np.sqrt(200_000), rel=0.05)


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
