"""Differential tests: the popcount k-means and decomposition vs the GEMM oracle.

Production clusters and matches only the distinct rows with a packed
popcount kernel; ``tests/reference/kmeans.py`` computes every distance of
every row as a float64 GEMM.  Both must agree bit for bit, including the
dtypes, the tie-breaks and the empty-cluster handling.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import kmeans as reference

from repro.core.config import KMeansConfig
from repro.core.kmeans import binary_kmeans
from repro.core.patterns import PatternSet
from repro.core.sparsity import decompose_tile

WIDTHS = (1, 7, 8, 9, 16, 63, 64, 65, 130)


@st.composite
def duplicated_rows(draw):
    """A binary matrix drawn from a few prototypes, so rows repeat heavily.

    The prototypes may include the all-zero and the all-ones row; a few
    rows are independent noise.
    """
    width = draw(st.sampled_from(WIDTHS))
    num_rows = draw(st.integers(1, 200))
    num_prototypes = draw(st.integers(1, 10))
    density = draw(st.sampled_from((0.05, 0.5, 0.95)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prototypes = (rng.random((num_prototypes, width)) < density).astype(np.uint8)
    if draw(st.booleans()):
        prototypes[0] = 0
    if draw(st.booleans()):
        prototypes[-1] = 1
    rows = prototypes[rng.integers(0, num_prototypes, num_rows)]
    noise = rng.random(num_rows) < draw(st.sampled_from((0.0, 0.2)))
    rows[noise] = rng.random((int(noise.sum()), width)) < density
    return rows


def assert_same_clustering(result, expected):
    np.testing.assert_array_equal(result.centers, expected.centers)
    assert result.centers.dtype == expected.centers.dtype
    np.testing.assert_array_equal(result.assignments, expected.assignments)
    assert result.assignments.dtype == expected.assignments.dtype
    assert result.inertia == expected.inertia
    assert result.iterations == expected.iterations


@settings(max_examples=150, deadline=None)
@given(
    rows=duplicated_rows(),
    clusters=st.integers(1, 10),
    max_iterations=st.sampled_from((1, 2, 25)),
    tolerance=st.sampled_from((0.0, 1e-3, 0.02, 0.05, 0.2)),
    strategy=st.sampled_from(("reseed", "drop")),
    seed=st.integers(0, 5),
)
def test_kmeans_matches_gemm_oracle(rows, clusters, max_iterations, tolerance, strategy, seed):
    config = KMeansConfig(
        max_iterations=max_iterations,
        tolerance=tolerance,
        seed=seed,
        empty_cluster_strategy=strategy,
    )
    assert_same_clustering(
        binary_kmeans(rows, clusters, config),
        reference.binary_kmeans(rows, clusters, config),
    )


@settings(max_examples=150, deadline=None)
@given(rows=duplicated_rows(), num_patterns=st.integers(1, 12), data=st.data())
def test_decompose_tile_matches_gemm_oracle(rows, num_patterns, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    width = rows.shape[1]
    # Patterns partly copied from the tile (exact matches, ties between
    # equal patterns) and partly random.
    patterns = (rng.random((num_patterns, width)) < 0.5).astype(np.uint8)
    copied = rng.random(num_patterns) < 0.5
    patterns[copied] = rows[rng.integers(0, rows.shape[0], int(copied.sum()))]
    pattern_set = PatternSet(patterns)

    result = decompose_tile(rows, pattern_set)
    expected = reference.decompose_tile(rows, pattern_set)
    np.testing.assert_array_equal(result.pattern_indices, expected.pattern_indices)
    assert result.pattern_indices.dtype == expected.pattern_indices.dtype
    np.testing.assert_array_equal(result.level2, expected.level2)
    assert result.level2.dtype == expected.level2.dtype


def test_clusters_at_least_unique_rows():
    """q above the number of distinct rows pads with random centres."""
    rows = np.tile(np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8), (7, 1))
    for strategy in ("reseed", "drop"):
        config = KMeansConfig(empty_cluster_strategy=strategy)
        assert_same_clustering(
            binary_kmeans(rows, 5, config), reference.binary_kmeans(rows, 5, config)
        )
