"""Deterministic blocked Monte Carlo driver.

Reproducibility contract: a run is identified by (seed, n_total, block_size).
Sample index space is cut into fixed-size blocks; block i draws from a
counter-based generator advanced to a window reserved for that block, and
block summaries are merged strictly in block order.  Workers only decide who
computes which block, so results are bit-identical for any worker count.
"""

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
    """Run block_fn(rng, count) per block, returning results in block order."""
    for what, value in (("sample count", n_total), ("block size", block_size),
                        ("worker count", n_workers)):
        if value < 1:
            raise UsageError(f"{what} must be at least 1, got {value}")
    tasks = _block_sizes(n_total, block_size)
    if n_workers == 1:
        return [block_fn(block_rng(seed, i), m) for i, m in tasks]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        futures = [pool.submit(block_fn, block_rng(seed, i), m) for i, m in tasks]
        return [f.result() for f in futures]


@dataclass
class Moments:
    """Streaming count / mean / sum of squared deviations."""

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def merged(self, other):
        """Pairwise merge (Chan et al. update); order of calls is fixed by caller."""
        if self.n == 0:
            return Moments(other.n, other.mean, other.m2)
        if other.n == 0:
            return Moments(self.n, self.mean, self.m2)
        n = self.n + other.n
        delta = other.mean - self.mean
        mean = self.mean + delta * other.n / n
        m2 = self.m2 + other.m2 + delta * delta * self.n * other.n / n
        return Moments(n, mean, m2)

    @property
    def variance(self):
        return self.m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def std_error(self):
        return float(np.sqrt(self.variance / self.n)) if self.n > 1 else 0.0


def block_moments(values):
    """Moments of one block of sample values."""
    v = np.asarray(values, dtype=float)
    mean = float(np.mean(v))
    return Moments(n=v.size, mean=mean, m2=float(np.sum((v - mean) ** 2)))


def sample_mean(sample_block, n_total, seed, n_workers=1, block_size=DEFAULT_BLOCK_SIZE):
    """Mean/variance of sample_block(rng, count) -> (count,) values, blockwise.

    Deterministic in (seed, n_total, block_size) regardless of n_workers.
    """
    parts = map_blocks(lambda rng, m: block_moments(sample_block(rng, m)),
                       n_total, seed, n_workers=n_workers, block_size=block_size)
    acc = Moments()
    for p in parts:
        acc = acc.merged(p)
    return acc

