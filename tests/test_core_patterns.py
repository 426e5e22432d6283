"""Unit tests for repro.core.patterns."""

import numpy as np
import pytest

from repro.core.patterns import NO_PATTERN, Pattern, PatternSet


class TestPattern:
    def test_basic_properties(self):
        pattern = Pattern(index=1, bits=np.array([1, 0, 1, 1], dtype=np.uint8))
        assert pattern.width == 4
        assert pattern.popcount == 3

    def test_reserved_index_rejected(self):
        with pytest.raises(ValueError):
            Pattern(index=0, bits=np.array([1, 0], dtype=np.uint8))

    def test_hamming_distance(self):
        pattern = Pattern(index=2, bits=np.array([1, 1, 0, 0], dtype=np.uint8))
        assert pattern.hamming_distance(np.array([1, 0, 0, 1])) == 2
        assert pattern.hamming_distance(np.array([1, 1, 0, 0])) == 0

    def test_hamming_distance_shape_mismatch(self):
        pattern = Pattern(index=1, bits=np.array([1, 0], dtype=np.uint8))
        with pytest.raises(ValueError):
            pattern.hamming_distance(np.array([1, 0, 1]))

    def test_equality_and_hash(self):
        a = Pattern(index=1, bits=np.array([1, 0], dtype=np.uint8))
        b = Pattern(index=1, bits=np.array([1, 0], dtype=np.uint8))
        c = Pattern(index=2, bits=np.array([1, 0], dtype=np.uint8))
        assert a == b
        assert hash(a) == hash(b)
        assert a != c


class TestPatternSet:
    @pytest.fixture
    def pattern_set(self):
        return PatternSet(np.array([[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 1, 1]], dtype=np.uint8))

    def test_sizes(self, pattern_set):
        assert pattern_set.num_patterns == 3
        assert pattern_set.width == 4
        assert len(pattern_set) == 3

    def test_indexing_is_one_based(self, pattern_set):
        assert np.array_equal(pattern_set[1].bits, [1, 0, 1, 0])
        assert np.array_equal(pattern_set[3].bits, [1, 1, 1, 1])

    def test_index_out_of_range(self, pattern_set):
        with pytest.raises(IndexError):
            pattern_set[0]
        with pytest.raises(IndexError):
            pattern_set[4]

    def test_bits_of_no_pattern_is_zero(self, pattern_set):
        assert np.array_equal(pattern_set.bits_of(NO_PATTERN), np.zeros(4))

    def test_iteration_yields_patterns(self, pattern_set):
        patterns = list(pattern_set)
        assert [p.index for p in patterns] == [1, 2, 3]

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            PatternSet(np.array([[0, 2], [1, 0]]))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            PatternSet(np.array([1, 0, 1]))

    def test_compute_pwps(self, pattern_set):
        weights = np.arange(8, dtype=np.float64).reshape(4, 2)
        pwps = pattern_set.compute_pwps(weights)
        assert pwps.shape == (4, 2)  # q + 1 rows
        assert np.array_equal(pwps[0], [0.0, 0.0])
        expected = pattern_set.matrix.astype(float) @ weights
        assert np.allclose(pwps[1:], expected)

    def test_compute_pwps_shape_mismatch(self, pattern_set):
        with pytest.raises(ValueError):
            pattern_set.compute_pwps(np.zeros((3, 2)))

    def test_memory_bits(self, pattern_set):
        assert pattern_set.memory_bits() == 12

    def test_matrix_is_read_only(self, pattern_set):
        with pytest.raises(ValueError):
            pattern_set.matrix[0, 0] = 1

    def test_from_patterns(self):
        pattern_set = PatternSet.from_patterns([[1, 0], [0, 1]])
        assert pattern_set.num_patterns == 2

    def test_from_patterns_empty(self):
        with pytest.raises(ValueError):
            PatternSet.from_patterns([])

    def test_equality(self, pattern_set):
        other = PatternSet(pattern_set.matrix.copy())
        assert pattern_set == other
