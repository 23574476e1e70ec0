"""Embedding-table drift measured with squared MMD under a Gaussian kernel,
and its conversion to an update compression ratio.

The statistic is the biased V-statistic (diagonal terms included):

    MMD^2 = mean K(x_i, x_j) - 2 mean K(x_i, y_j) + mean K(y_i, y_j)

with K(x, y) = exp(-||x - y||^2 / (2 sigma^2)), where sigma is the median
pairwise distance over the pooled sample (1.0 when that median is zero,
i.e. all pooled rows coincide).

No pooled n x n matrix is formed: the median reads the strict upper
triangle's n(n-1)/2 distances from one buffer, and the three kernel
matrices take turns in one preallocated array. Every squared distance is
``(|x_i|^2 + |y_j|^2) - 2 x_i.y_j``, clamped at 0, in that order, so the
statistic keeps the bits of the full-matrix form.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .numkit import Rng

RATIO_C = 0.2  # choose_ratio's C, so an adaptive r is never below ceil(1/C) = 5
RATIO_MAX = 2**53  # the largest r choose_ratio returns; above it a float64 skips integers
MMD_POOL_MAX = 8192  # rows a run's MMD may pool: their upper-triangle distance buffer is then 256 MiB
_MMD_BLOCK = 128  # rows of pairwise products the MMD forms at a time


def _upper_sq_dists(pooled: np.ndarray) -> np.ndarray:
    """The pooled rows' squared distances over the strict upper triangle,
    row by row in one n(n-1)/2 buffer, from _MMD_BLOCK rows of products at
    a time."""
    n = len(pooled)
    sq = (pooled * pooled).sum(1)
    upper = np.empty(n * (n - 1) // 2)
    slab = np.empty((min(_MMD_BLOCK, n), n))
    at = 0
    for lo in range(0, n, _MMD_BLOCK):
        prod = np.matmul(pooled[lo:lo + _MMD_BLOCK], pooled.T, out=slab[:n - lo])
        prod *= 2.0
        for i, row in enumerate(prod, lo):
            dst = upper[at:at + n - 1 - i]
            np.add(sq[i], sq[i + 1:], out=dst)
            dst -= row[i + 1:]
            at += n - 1 - i
    return upper


def median_heuristic(pooled: np.ndarray) -> float:
    """Median pairwise Euclidean distance over the pooled rows. The squared
    distances of the strict upper triangle fill one preallocated buffer,
    where the clamp at 0, the square root and the median run in place."""
    upper = _upper_sq_dists(pooled)
    np.maximum(upper, 0.0, out=upper)
    med = float(np.median(np.sqrt(upper, out=upper), overwrite_input=True)) if upper.size else 0.0
    return med if med > 0 else 1.0


def _kernel_mean(a: np.ndarray, b: np.ndarray, denom: float, buf: np.ndarray) -> float:
    """Mean of exp(-||a_i - b_j||^2 / denom), its (len(a), len(b)) matrix
    built in ``buf`` and transformed there in place."""
    sq_a, sq_b = (a * a).sum(1), (b * b).sum(1)
    K = np.matmul(a, b.T, out=buf[:len(a) * len(b)].reshape(len(a), len(b)))
    K *= 2.0
    for lo in range(0, len(a), _MMD_BLOCK):
        block = K[lo:lo + _MMD_BLOCK]
        np.subtract(sq_a[lo:lo + _MMD_BLOCK, None] + sq_b, block, out=block)
    np.maximum(K, 0.0, out=K)
    np.negative(K, out=K)
    K /= denom
    return np.exp(K, out=K).mean()


def _sample_size(count: int, rows: int) -> int:
    """Rows an MMD sample of ``count`` keeps from a table of ``rows``: 0 or
    more than the table means every row."""
    return rows if count == 0 or count >= rows else count


def _sample_rows(x: np.ndarray, count: int, rng: Rng) -> np.ndarray:
    size = _sample_size(count, len(x))
    return x if size == len(x) else x[rng.sample(len(x), size)]


def check_pool(samples: int, vocab: int) -> None:
    """An MMD of two |V|-row tables pools ``samples`` rows of each; more
    than MMD_POOL_MAX pooled rows is a ConfigError."""
    pooled = 2 * _sample_size(samples, vocab)
    if pooled > MMD_POOL_MAX:
        raise ConfigError(f"the MMD sample pools {pooled} rows of |V| = {vocab}, more than "
                          f"{MMD_POOL_MAX}; set mmd_samples to at most {MMD_POOL_MAX // 2}")


def mmd2(X_t: np.ndarray, X_t1: np.ndarray, samples: int, seed: int) -> float:
    """Squared MMD between sampled rows of two tables, clamped at 0.

    ``samples`` rows (0: every row) are drawn independently from each table,
    deterministically per ``seed``.
    """
    a = np.asarray(X_t, dtype=np.float64)
    b = np.asarray(X_t1, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("tables must be 2-D with equal embedding dimension")
    if len(a) == 0 or len(b) == 0:
        raise ValueError("tables must be non-empty")
    rng = Rng(seed)
    sx = _sample_rows(a, samples, rng.child("mmd-x"))
    sy = _sample_rows(b, samples, rng.child("mmd-y"))
    sigma = median_heuristic(np.vstack([sx, sy]))
    denom = 2.0 * sigma * sigma
    buf = np.empty(max(len(sx), len(sy)) ** 2)
    kxx = _kernel_mean(sx, sx, denom, buf)
    kxy = _kernel_mean(sx, sy, denom, buf)
    kyy = _kernel_mean(sy, sy, denom, buf)
    return max(0.0, float(kxx - 2.0 * kxy + kyy))


def choose_ratio(mmd: float, skip_threshold: float) -> int | None:
    """ceil(1 / (RATIO_C * (2 sigmoid(mmd) - 1))), at most RATIO_MAX, or
    None (skip the update) when mmd is at or below ``skip_threshold``.

    2 sigmoid(mmd) - 1 is computed as tanh(mmd / 2), which does not cancel
    for a tiny mmd. Non-increasing in mmd and bounded below by ceil(1/RATIO_C).
    """
    if mmd < 0:
        raise ValueError("mmd must be non-negative")
    if mmd <= skip_threshold:
        return None
    denom = RATIO_C * math.tanh(mmd / 2.0)
    # RATIO_MAX is a power of two, so this test is exact and 1 / denom < RATIO_MAX past it
    return math.ceil(1.0 / denom) if denom * RATIO_MAX > 1.0 else RATIO_MAX
