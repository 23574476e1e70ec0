import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from odup.adaptive import RATIO_C, RATIO_MAX, choose_ratio, median_heuristic, mmd2
from odup.errors import ConfigError
from odup.numkit import Rng, sigmoid
from odup.pipeline import ExperimentConfig

from helpers import _pairwise_sq_dists, mmd2_reference, normal


class TestMmd2:
    def test_identical_tables_zero(self):
        rng = Rng(1)
        X = rng.uniform((40, 8))
        assert mmd2(X, X.copy(), 0, 0) <= 1e-12

    def test_median_heuristic_single_pair(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[3.0, 4.0]])
        # pooled median distance = 5 -> K(a,b) = exp(-25/50)
        got = mmd2(a, b, 0, 0)
        assert abs(got - (2.0 - 2.0 * math.exp(-0.5))) < 1e-12

    def test_noise_scale_monotone(self):
        rng = Rng(7)
        X = rng.uniform((80, 8))
        vals = []
        for s in (0.01, 0.05, 0.1, 0.5, 1.0):
            noisy = X + normal(Rng(3), s, X.shape)
            vals.append(mmd2(X, noisy, 0, 2))
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_symmetry_under_swap(self):
        rng = Rng(9)
        A = rng.uniform((30, 5))
        B = rng.uniform((50, 5)) + 0.3
        ab = mmd2(A, B, 20, 4)
        ba = mmd2(B, A, 20, 4)
        # same kernel, swapped roles; x/y sample streams differ so compare
        # full-sample case for exactness
        full_ab = mmd2(A, B, 0, 0)
        full_ba = mmd2(B, A, 0, 0)
        assert abs(full_ab - full_ba) < 1e-15
        assert ab >= 0 and ba >= 0

    def test_sampling_deterministic(self):
        rng = Rng(2)
        A = rng.uniform((100, 6))
        B = rng.uniform((100, 6)) + 0.1
        assert mmd2(A, B, 32, 11) == mmd2(A, B, 32, 11)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mmd2(np.zeros((3, 4)), np.zeros((3, 5)), 0, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mmd2(np.zeros((0, 4)), np.zeros((3, 4)), 0, 0)

    @pytest.mark.parametrize("rows, d, samples", [
        (300, 16, 0),  # c4-queue's and demo's pool: 600 rows
        (1850, 32, 512),  # ingest-adaptive's: 1024 rows
        (4096, 16, 4096),  # MMD_POOL_MAX's 8192 rows
    ])
    def test_matches_the_full_matrix_form(self, rows, d, samples):
        X = normal(Rng(rows), 0.1, (rows, d)).astype(np.float32)
        Y = (X + normal(Rng(rows + 1), 0.01, (rows, d))).astype(np.float32)
        assert mmd2(X, Y, samples, 5) == mmd2_reference(X, Y, samples, 5)

    def test_peak_memory_at_samples_2048(self):
        # the 4096-row pool's upper triangle alone is 0.5 * 4096**2 * 8 B
        X = normal(Rng(0), 0.1, (3000, 32))
        Y = X + normal(Rng(1), 0.01, X.shape)
        tracemalloc.start()
        try:
            mmd2(X, Y, 2048, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * 4096 * 4096 * 8

    def test_nonnegative_clamp(self):
        rng = Rng(5)
        for seed in range(5):
            A = Rng(seed).uniform((20, 4))
            B = Rng(seed + 100).uniform((20, 4))
            assert mmd2(A, B, 0, seed) >= 0.0


class TestMedianHeuristic:
    def test_degenerate_pool_falls_back(self):
        assert median_heuristic(np.zeros((5, 3))) == 1.0

    def test_two_points(self):
        pool = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert abs(median_heuristic(pool) - 5.0) < 1e-12

    @pytest.mark.parametrize("rows", [2, 3, 600, 1024, 1537])
    def test_matches_triu_indices_form(self, rows):
        pool = normal(Rng(rows), 1.0, (rows, 32))
        d2 = _pairwise_sq_dists(pool, pool)
        iu = np.triu_indices(rows, k=1)
        assert median_heuristic(pool) == float(np.median(np.sqrt(d2[iu])))

    def test_peak_memory_near_the_distance_matrix(self):
        # the strict upper triangle alone is 0.5 * 2048**2 * 8 B; no n x n array is formed
        pool = normal(Rng(0), 1.0, (2048, 32))
        tracemalloc.start()
        try:
            median_heuristic(pool)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * 2048 * 2048 * 8


class TestChooseRatio:
    def test_zero_mmd_skips(self):
        assert choose_ratio(0.0, 1e-6) is None

    def test_below_threshold_skips(self):
        assert choose_ratio(5e-4, 1e-3) is None

    def test_half_mmd_oracle(self):
        # 1 / (0.2 * (2*sigmoid(0.5) - 1)) = 20.4149 -> ceil 21
        got = choose_ratio(0.5, 1e-6)
        inner = 1.0 / (0.2 * (2.0 * float(sigmoid(np.float64(0.5))) - 1.0))
        assert math.ceil(inner) == got == 21

    def test_saturates_at_ceil_inv_c(self):
        # sigmoid rounds to 1.0 in float64 once mmd > ~37
        assert choose_ratio(50.0, 1e-6) == 5
        assert choose_ratio(100.0, 1e-6) == 5

    def test_non_increasing_in_mmd(self):
        grid = [0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 50.0]
        rs = [choose_ratio(m, 1e-6) for m in grid]
        assert all(a >= b for a, b in zip(rs, rs[1:]))
        assert all(r >= 5 for r in rs)

    @settings(max_examples=100)
    @given(mmd=st.floats(1e-5, 100.0))
    def test_lower_bound(self, mmd):
        assert choose_ratio(mmd, 0.0) >= math.ceil(1.0 / RATIO_C)

    @settings(max_examples=200)
    @given(a=st.floats(0.0, 1e-5, exclude_min=True, allow_subnormal=True),
           b=st.floats(0.0, 1e-5, exclude_min=True, allow_subnormal=True))
    @example(a=5e-324, b=1e-16)  # mmd / 2 rounds to 0; 2 sigmoid(mmd) - 1 rounds to 0
    @example(a=1e-310, b=1e-5)  # 1 / (C tanh(mmd / 2)) overflows to inf
    def test_tiny_mmd_gives_a_finite_non_increasing_ratio(self, a, b):
        lo, hi = sorted((a, b))
        r_lo, r_hi = choose_ratio(lo, 0.0), choose_ratio(hi, 0.0)
        assert type(r_lo) is int and type(r_hi) is int
        assert 5 <= r_hi <= r_lo <= RATIO_MAX

    def test_negative_mmd_rejected(self):
        with pytest.raises(ValueError):
            choose_ratio(-0.1, 1e-6)

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="skip_threshold must be non-negative"):
            ExperimentConfig(skip_threshold=-1.0)


class TestMmdConfig:
    def test_sample_count_bounds(self):
        for samples in (1, -1):
            with pytest.raises(ConfigError, match="mmd_samples must be >= 2"):
                ExperimentConfig(mmd_samples=samples)
        ExperimentConfig(mmd_samples=0)
        ExperimentConfig(mmd_samples=2)
