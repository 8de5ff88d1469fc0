"""Gaussian projection determinism and statistics."""

import numpy as np
import pytest

from dualsketch.data import Dataset, make_low_rank
from dualsketch.sketch import (
    gaussian_matrix,
    gaussian_sketch,
    identity_sketch,
    project,
)


class TestGaussianMatrix:
    def test_deterministic(self):
        assert np.array_equal(gaussian_matrix(2, 2, 7), gaussian_matrix(2, 2, 7))

    def test_entry_mean_within_four_sigma(self):
        r = gaussian_matrix(1000, 100, 5)
        band = 4.0 / np.sqrt(1000 * 100)
        assert abs(r.mean()) <= band  # band is 0.01265

    def test_entry_variance(self):
        r = gaussian_matrix(500, 500, 1)
        assert 0.98 <= r.var() <= 1.02

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            gaussian_matrix(0, 3, 1)
        with pytest.raises(ValueError):
            gaussian_matrix(3, 0, 1)


class TestProject:
    def test_scaled_identity_is_exact(self):
        data = Dataset(np.eye(2), np.array([1.0, -1.0]))
        sk = project(data, np.sqrt(2.0) * np.eye(2), 2)
        np.testing.assert_allclose(sk.sketched_features, np.eye(2), atol=1e-15)

    def test_zero_matrix(self):
        data = make_low_rank(5, 4, 2, "random", seed=1)
        sk = project(data, np.zeros((5, 3)), 3)
        assert np.all(sk.sketched_features == 0.0)

    def test_matches_direct_recomputation(self):
        data = make_low_rank(20, 10, 3, "random", seed=2)
        sk = gaussian_sketch(data, 8, seed=9)
        direct = sk.matrix_r.T @ data.features / np.sqrt(8)
        rel = np.linalg.norm(sk.sketched_features - direct) / np.linalg.norm(direct)
        assert rel <= 1e-12

    def test_input_dataset_untouched(self):
        data = make_low_rank(6, 6, 2, "random", seed=3)
        before = data.features.copy()
        gaussian_sketch(data, 4, seed=0)
        assert np.array_equal(data.features, before)

    def test_matrix_reproducible_from_seed(self):
        data = make_low_rank(10, 5, 2, "random", seed=4)
        sk = gaussian_sketch(data, 6, seed=123)
        assert np.array_equal(sk.matrix_r, gaussian_matrix(10, 6, 123))

    def test_dimension_mismatch(self):
        data = make_low_rank(5, 4, 2, "random", seed=1)
        with pytest.raises(ValueError):
            project(data, np.zeros((4, 3)), 3)
        with pytest.raises(ValueError):
            project(data, np.zeros((5, 3)), 2)

    def test_norm_preservation_johnson_lindenstrauss(self):
        # At m = 200 and eps = 0.5 the per-vector failure probability is
        # 2 exp(-m (eps^2 - eps^3) / 4) ~ 0.004, so 5 failures out of 100
        # independent draws is already far into the tail.
        rng = np.random.default_rng(31)
        m, eps = 200, 0.5
        failures = 0
        for trial in range(100):
            x = rng.standard_normal(50)
            r = gaussian_matrix(50, m, 9000 + trial)
            xs = r.T @ x / np.sqrt(m)
            ratio = np.dot(xs, xs) / np.dot(x, x)
            if not (1.0 - eps) <= ratio <= (1.0 + eps):
                failures += 1
        assert failures <= 5

    def test_unbiased_gram_over_seeds(self):
        data = make_low_rank(10, 10, 3, "random", seed=6)
        target = data.features.T @ data.features
        acc = np.zeros_like(target)
        n_seeds, m = 200, 8
        for seed in range(n_seeds):
            sk = gaussian_sketch(data, m, seed=seed)
            acc += sk.sketched_features.T @ sk.sketched_features
        acc /= n_seeds
        col_norms = np.linalg.norm(data.features, axis=0)
        scale = np.outer(col_norms, col_norms)
        assert np.all(np.abs(acc - target) <= 5.0 / np.sqrt(n_seeds) * scale)


class TestIdentityInjection:
    def test_identity_sketch_copies_features(self):
        data = make_low_rank(9, 6, 2, "random", seed=10)
        sk = identity_sketch(data)
        np.testing.assert_allclose(sk.sketched_features, data.features, atol=1e-12)
        assert sk.m == data.d
