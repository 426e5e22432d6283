"""Float64-GEMM reference model of the binary k-means and the decomposition.

This is the oracle the popcount kernel in :mod:`repro.core.kmeans` (and
the deduplicated :func:`repro.core.sparsity.decompose_tile`) is tested
against.  It computes every Hamming distance over all rows, duplicates
included, through the dot-product identity ``H(x, c) = |x| + |c| - 2 x.c``
as one BLAS GEMM: every intermediate is a small integer bounded by the
row width, exactly representable in float64, so the distances are exact.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import KMeansConfig
from repro.core.kmeans import ClusteringResult
from repro.core.patterns import PatternSet
from repro.core.sparsity import TileDecomposition


def gemm_hamming(rows: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Pairwise Hamming distances of binary ``rows`` and ``centers`` (int64)."""
    rows_f = np.asarray(rows, dtype=np.float64)
    centers_f = np.asarray(centers, dtype=np.float64)
    cross = rows_f @ centers_f.T
    row_pop = rows_f.sum(axis=1, keepdims=True)
    center_pop = centers_f.sum(axis=1, keepdims=True).T
    return (row_pop + center_pop - 2 * cross).astype(np.int64)


def _init_centers(rows: np.ndarray, q: int, rng: np.random.Generator) -> np.ndarray:
    """Initialise ``q`` centres from distinct rows where possible."""
    unique_rows = np.unique(rows, axis=0)
    if unique_rows.shape[0] >= q:
        idx = rng.choice(unique_rows.shape[0], size=q, replace=False)
        return unique_rows[idx].copy()
    extra = q - unique_rows.shape[0]
    random_bits = (rng.random((extra, rows.shape[1])) < 0.5).astype(np.uint8)
    return np.vstack([unique_rows, random_bits])


def binary_kmeans(
    rows: np.ndarray, num_clusters: int, config: KMeansConfig | None = None
) -> ClusteringResult:
    """Hamming-distance k-means (Algorithm 1) over every row."""
    config = config or KMeansConfig()
    rows = np.asarray(rows, dtype=np.uint8)
    rng = np.random.default_rng(config.seed)
    centers = _init_centers(rows, num_clusters, rng)
    assignments = np.zeros(rows.shape[0], dtype=np.int64)
    n_rows = rows.shape[0]
    num_cols = rows.shape[1]
    iterations = 0
    nonzero_rows, nonzero_cols = np.nonzero(rows)

    for iteration in range(config.max_iterations):
        iterations = iteration + 1
        distances = gemm_hamming(rows, centers)
        new_assignments = distances.argmin(axis=1)

        changed = int(np.count_nonzero(new_assignments != assignments))
        assignments = new_assignments

        new_centers = centers.copy()
        counts = np.bincount(assignments, minlength=num_clusters)
        sums = np.bincount(
            assignments[nonzero_rows] * num_cols + nonzero_cols,
            minlength=num_clusters * num_cols,
        ).reshape(num_clusters, num_cols)
        occupied = counts > 0
        new_centers[occupied] = (
            2 * sums[occupied] >= counts[occupied, None]
        ).astype(np.uint8)
        empty = np.flatnonzero(~occupied)
        if empty.size and config.empty_cluster_strategy == "reseed":
            row_dist = distances[np.arange(n_rows), assignments]
            farthest = int(row_dist.argmax())
            new_centers[empty] = rows[farthest]

        converged = np.array_equal(new_centers, centers) and changed == 0
        centers = new_centers
        if converged or (iteration > 0 and changed <= config.tolerance * n_rows):
            break

    distances = gemm_hamming(rows, centers)
    assignments = distances.argmin(axis=1)
    inertia = int(distances[np.arange(n_rows), assignments].sum())
    return ClusteringResult(
        centers=centers.astype(np.uint8),
        assignments=assignments,
        inertia=inertia,
        iterations=iterations,
    )


def decompose_tile(tile: np.ndarray, patterns: PatternSet) -> TileDecomposition:
    """Match every row of a binary tile to its nearest pattern (Section 3.1)."""
    tile = np.asarray(tile, dtype=np.uint8)
    num_rows = tile.shape[0]
    pattern_indices = np.zeros(num_rows, dtype=np.int32)
    level2 = np.zeros(tile.shape, dtype=np.int8)
    if num_rows == 0:
        return TileDecomposition(pattern_indices, level2, patterns, tile)

    distances = gemm_hamming(tile, patterns.matrix)
    best_pattern = distances.argmin(axis=1)
    best_distance = distances[np.arange(num_rows), best_pattern]
    popcounts = tile.sum(axis=1).astype(np.int64)
    use_pattern = best_distance < popcounts

    pattern_indices[use_pattern] = best_pattern[use_pattern].astype(np.int32) + 1
    pattern_matrix = patterns.matrix.astype(np.int16)
    assigned = pattern_matrix[best_pattern[use_pattern]]
    level2[use_pattern] = (tile[use_pattern].astype(np.int16) - assigned).astype(np.int8)
    level2[~use_pattern] = tile[~use_pattern].astype(np.int8)
    return TileDecomposition(
        pattern_indices=pattern_indices,
        level2=level2,
        patterns=patterns,
        original=tile,
    )
