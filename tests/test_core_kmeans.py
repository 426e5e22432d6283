"""Unit tests for the binary k-means clustering (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.config import KMeansConfig
from repro.core.kmeans import (
    binary_kmeans,
    cluster_partition,
    deduplicate_rows,
    filter_calibration_rows,
    hamming_distance_matrix,
    unique_binary_rows,
)


class TestHammingDistanceMatrix:
    def test_basic(self):
        rows = np.array([[1, 0, 1], [0, 0, 0]], dtype=np.uint8)
        centers = np.array([[1, 0, 1], [1, 1, 1]], dtype=np.uint8)
        distances = hamming_distance_matrix(rows, centers)
        assert distances.shape == (2, 2)
        assert distances[0, 0] == 0
        assert distances[0, 1] == 1
        assert distances[1, 0] == 2
        assert distances[1, 1] == 3

    def test_matches_bruteforce(self, rng):
        rows = (rng.random((40, 12)) < 0.3).astype(np.uint8)
        centers = (rng.random((7, 12)) < 0.3).astype(np.uint8)
        fast = hamming_distance_matrix(rows, centers)
        brute = (rows[:, None, :] != centers[None, :, :]).sum(axis=2)
        assert np.array_equal(fast, brute)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance_matrix(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            hamming_distance_matrix(np.zeros(3), np.zeros((2, 3)))

    @pytest.mark.parametrize(
        "rows, centers",
        [
            ([[2, 0]], [[0, 0]]),
            ([[0.6, 1]], [[1, 1]]),
            ([[0, 1]], [[1, -1]]),
        ],
    )
    def test_rejects_non_binary(self, rows, centers):
        with pytest.raises(ValueError, match="0/1"):
            hamming_distance_matrix(np.array(rows), np.array(centers))

    def test_wide_rows_sum_over_words(self, rng):
        # 130 bits pack into three 64-bit words.
        rows = (rng.random((30, 130)) < 0.5).astype(np.uint8)
        centers = (rng.random((5, 130)) < 0.5).astype(np.uint8)
        brute = (rows[:, None, :] != centers[None, :, :]).sum(axis=2)
        assert np.array_equal(hamming_distance_matrix(rows, centers), brute)
        assert hamming_distance_matrix(np.ones((1, 130)), np.zeros((1, 130)))[0, 0] == 130


class TestFilterCalibrationRows:
    def test_removes_all_zero_and_one_hot(self):
        rows = np.array(
            [[0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 1]], dtype=np.uint8
        )
        filtered = filter_calibration_rows(rows)
        assert filtered.shape[0] == 2
        assert np.all(filtered.sum(axis=1) >= 2)

    def test_keep_all_zero_when_disabled(self):
        rows = np.array([[0, 0], [1, 1]], dtype=np.uint8)
        filtered = filter_calibration_rows(rows, filter_all_zero=False)
        assert filtered.shape[0] == 2

    def test_keep_one_hot_when_disabled(self):
        rows = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        filtered = filter_calibration_rows(rows, filter_one_hot=False)
        assert filtered.shape[0] == 2

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            filter_calibration_rows(np.zeros(4))


class TestBinaryKmeans:
    def test_centers_are_binary(self, binary_matrix):
        result = binary_kmeans(binary_matrix, 8)
        assert result.centers.shape == (8, binary_matrix.shape[1])
        assert set(np.unique(result.centers)) <= {0, 1}

    def test_assignments_cover_all_rows(self, binary_matrix):
        result = binary_kmeans(binary_matrix, 8)
        assert result.assignments.shape == (binary_matrix.shape[0],)
        assert result.assignments.min() >= 0
        assert result.assignments.max() < 8

    def test_clustered_data_has_low_inertia(self, rng):
        # Two well-separated prototypes: inertia should approach the noise level.
        proto_a = np.zeros(16, dtype=np.uint8)
        proto_b = np.ones(16, dtype=np.uint8)
        rows = np.array([proto_a if i % 2 else proto_b for i in range(100)])
        result = binary_kmeans(rows, 2)
        assert result.inertia == 0

    def test_deterministic_for_seed(self, binary_matrix):
        a = binary_kmeans(binary_matrix, 6, KMeansConfig(seed=7))
        b = binary_kmeans(binary_matrix, 6, KMeansConfig(seed=7))
        assert np.array_equal(a.centers, b.centers)

    def test_more_clusters_never_hurts_inertia(self, binary_matrix):
        few = binary_kmeans(binary_matrix, 2, KMeansConfig(seed=1))
        many = binary_kmeans(binary_matrix, 16, KMeansConfig(seed=1))
        assert many.inertia <= few.inertia

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            binary_kmeans(np.zeros((0, 4), dtype=np.uint8), 2)

    def test_invalid_cluster_count(self, binary_matrix):
        with pytest.raises(ValueError):
            binary_kmeans(binary_matrix, 0)

    def test_pattern_set_property(self, binary_matrix):
        result = binary_kmeans(binary_matrix, 4)
        assert result.pattern_set.num_patterns == 4

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="0/1"):
            binary_kmeans(np.array([[3, 0], [0, 5]]), 1)
        with pytest.raises(ValueError, match="0/1"):
            cluster_partition(np.array([[0.6, 1.0, 1.0]]), 1)

    def test_drop_keeps_empty_cluster_stale(self):
        # One distinct row but two clusters: the second centre is a random
        # padding row that never wins a member.  "drop" leaves it as it
        # was initialised, "reseed" replaces it with the farthest row.
        rows = np.ones((10, 8), dtype=np.uint8)
        seed = 3
        stale = (np.random.default_rng(seed).random((1, 8)) < 0.5).astype(np.uint8)[0]
        assert not stale.all()

        dropped = binary_kmeans(rows, 2, KMeansConfig(seed=seed, empty_cluster_strategy="drop"))
        np.testing.assert_array_equal(dropped.centers[1], stale)
        assert np.all(dropped.assignments == 0)
        assert dropped.inertia == 0

        reseeded = binary_kmeans(rows, 2, KMeansConfig(seed=seed))
        np.testing.assert_array_equal(reseeded.centers[1], rows[0])


class TestClusterPartition:
    def test_returns_pattern_set(self, binary_matrix):
        pattern_set = cluster_partition(binary_matrix, 8)
        assert pattern_set.width == binary_matrix.shape[1]
        assert 1 <= pattern_set.num_patterns <= 8

    def test_few_unique_rows_returned_directly(self):
        rows = np.tile(np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=np.uint8), (10, 1))
        pattern_set = cluster_partition(rows, 8)
        assert pattern_set.num_patterns == 2

    def test_degenerate_partition(self):
        rows = np.zeros((20, 4), dtype=np.uint8)
        pattern_set = cluster_partition(rows, 8)
        assert pattern_set.num_patterns >= 1

    def test_one_hot_only_partition(self):
        rows = np.eye(4, dtype=np.uint8)
        pattern_set = cluster_partition(rows, 2)
        assert pattern_set.num_patterns >= 1


class TestUniqueBinaryRows:
    """unique_binary_rows must agree exactly with np.unique(axis=0)."""

    @pytest.mark.parametrize("width", [1, 3, 8, 9, 16, 33])
    @pytest.mark.parametrize("density", [0.1, 0.5, 0.9])
    def test_matches_np_unique(self, width, density):
        rng = np.random.default_rng(width * 10 + int(density * 10))
        rows = (rng.random((200, width)) < density).astype(np.uint8)
        expected = np.unique(rows, axis=0)
        np.testing.assert_array_equal(unique_binary_rows(rows), expected)

    def test_empty_and_degenerate_inputs(self):
        empty = np.zeros((0, 4), dtype=np.uint8)
        np.testing.assert_array_equal(
            unique_binary_rows(empty), np.unique(empty, axis=0)
        )
        single = np.ones((5, 1), dtype=np.uint8)
        np.testing.assert_array_equal(
            unique_binary_rows(single), np.unique(single, axis=0)
        )

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            unique_binary_rows(np.zeros(4, dtype=np.uint8))

    def test_precomputed_unique_rows_change_nothing(self):
        rng = np.random.default_rng(0)
        rows = (rng.random((120, 12)) < 0.5).astype(np.uint8)
        plain = binary_kmeans(rows, 8)
        seeded = binary_kmeans(rows, 8, unique_rows=deduplicate_rows(rows))
        np.testing.assert_array_equal(plain.centers, seeded.centers)
        np.testing.assert_array_equal(plain.assignments, seeded.assignments)
        assert plain.inertia == seeded.inertia
