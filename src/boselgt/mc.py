"""Deterministic blocked Monte Carlo driver.

Reproducibility contract: a run is identified by (seed, n_total, block_size).
Sample index space is cut into fixed-size blocks; block i draws from a
counter-based generator advanced to a window reserved for that block, and
block summaries are merged strictly in block order.  Workers only decide who
computes which block, so results are bit-identical for any worker count.

sample_mean takes log-weights, which span hundreds of nats, and keeps each
block's weights scaled by its largest, so no weight leaves the double range.
"""

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import UsageError

DEFAULT_BLOCK_SIZE = 8192

# Counter window per block; a block may consume at most this many 64-bit
# draws.  8192 samples of a few thousand doubles each stay far below 2^40.
_BLOCK_STRIDE = 1 << 40


def check_seed(seed):
    """The seed is the 128-bit Philox key, so it must lie in [0, 2^128)."""
    if not 0 <= seed < 1 << 128:
        raise UsageError(f"seed must lie in [0, 2^128), got {seed}")


def block_rng(seed, block_index):
    """Generator for one block: Philox keyed by seed, counter offset by block."""
    check_seed(seed)
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(block_index * _BLOCK_STRIDE)
    return np.random.Generator(bitgen)


def _block_sizes(n_total, block_size):
    n_blocks = (n_total + block_size - 1) // block_size
    return [(i, min(block_size, n_total - i * block_size)) for i in range(n_blocks)]


def map_blocks(block_fn, n_total, seed, n_workers=1, block_size=DEFAULT_BLOCK_SIZE):
    """Run block_fn(rng, count) per block, returning results in block order.

    A call with one worker or one block runs in the caller's thread.
    """
    for what, value in (("sample count", n_total), ("block size", block_size),
                        ("worker count", n_workers)):
        if value < 1:
            raise UsageError(f"{what} must be at least 1, got {value}")
    tasks = _block_sizes(n_total, block_size)
    n_workers = min(n_workers, len(tasks))
    if n_workers == 1:
        return [block_fn(block_rng(seed, i), m) for i, m in tasks]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        futures = [pool.submit(block_fn, block_rng(seed, i), m) for i, m in tasks]
        return [f.result() for f in futures]


@dataclass(frozen=True)
class Moments:
    """n weights e^w as e^shift times scaled weights of mean mean and summed
    squared deviations m2; a block's shift is its largest log-weight w."""

    n: int
    shift: float
    mean: float
    m2: float

    def merged(self, other):
        """Chan et al. update after rescaling both sides to the larger shift."""
        shift = max(self.shift, other.shift)
        a, b = math.exp(self.shift - shift), math.exp(other.shift - shift)
        n = self.n + other.n
        delta = other.mean * b - self.mean * a
        return Moments(n, shift, self.mean * a + delta * other.n / n,
                       self.m2 * a * a + other.m2 * b * b + delta * delta * self.n * other.n / n)


def sample_mean(sample_block, n_total, seed, n_workers=1, block_size=DEFAULT_BLOCK_SIZE):
    """Moments of e^w for log-weights w = sample_block(rng, count), blockwise.

    Deterministic in (seed, n_total, block_size) regardless of n_workers.
    One sample is a UsageError (map_blocks refuses fewer): its error is 0/0.
    """
    if n_total == 1:
        raise UsageError("a Monte Carlo mean needs at least 2 samples, got 1")

    def block(rng, m):
        w = sample_block(rng, m)
        shift = float(np.max(w))
        x = np.exp(w - shift)
        mean = float(np.mean(x))
        return Moments(w.size, shift, mean, float(np.sum((x - mean) ** 2)))

    return functools.reduce(Moments.merged, map_blocks(
        block, n_total, seed, n_workers=n_workers, block_size=block_size))
