"""Embedding-table drift measured with squared MMD under a Gaussian kernel,
and its conversion to an update compression ratio.

The statistic is the biased V-statistic (diagonal terms included):

    MMD^2 = mean K(x_i, x_j) - 2 mean K(x_i, y_j) + mean K(y_i, y_j)

with K(x, y) = exp(-||x - y||^2 / (2 sigma^2)), where sigma is the median
pairwise distance over the pooled sample (1.0 when that median is zero,
i.e. all pooled rows coincide).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .numkit import Rng

RATIO_C = 0.2  # choose_ratio's C, so an adaptive r is never below ceil(1/C) = 5
RATIO_MAX = 2**53  # the largest r choose_ratio returns; above it a float64 skips integers
MMD_POOL_MAX = 8192  # rows a run's MMD may pool: their float64 distance matrix is then 512 MiB


def _pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d2 = (a * a).sum(1)[:, None] + (b * b).sum(1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0)


def median_heuristic(pooled: np.ndarray) -> float:
    """Median pairwise Euclidean distance over the pooled rows. The upper
    triangle is copied once, through a boolean mask an eighth the matrix's
    size, and its square root and median are taken in place."""
    d2 = _pairwise_sq_dists(pooled, pooled)
    upper = d2[~np.tri(len(pooled), dtype=bool)]
    med = float(np.median(np.sqrt(upper, out=upper), overwrite_input=True)) if upper.size else 0.0
    return med if med > 0 else 1.0


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
    kxx = np.exp(-_pairwise_sq_dists(sx, sx) / denom).mean()
    kxy = np.exp(-_pairwise_sq_dists(sx, sy) / denom).mean()
    kyy = np.exp(-_pairwise_sq_dists(sy, sy) / denom).mean()
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
