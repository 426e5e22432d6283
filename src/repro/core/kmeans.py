"""Binary k-means clustering with Hamming distance (Algorithm 1).

The Phi calibration stage clusters the binary activation rows of each
partition and uses the (rounded) cluster centres as the partition's
patterns.  Hamming distance between a row and its centre equals the number
of correction elements the row would need in the Level 2 matrix, so
minimising the within-cluster Hamming distance directly maximises Level 2
sparsity (Section 3.2 of the paper).

This module also holds the one Hamming kernel of the package: rows are
bit-packed into unsigned words (:func:`pack_rows`) and the distance of two
rows is the popcount of their XOR (:func:`packed_hamming`,
:func:`nearest_centers`).  Calibration and decomposition run it on the
distinct rows of their input only (:func:`deduplicate_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import KMeansConfig
from .patterns import PatternSet, _validate_binary


@dataclass(frozen=True)
class ClusteringResult:
    """Outcome of the binary k-means clustering.

    Attributes
    ----------
    centers:
        Binary matrix of shape ``(q, k)`` holding the rounded cluster
        centres (the calibrated patterns).
    assignments:
        For each input row the index (0-based) of its cluster centre.
    inertia:
        Total Hamming distance between rows and their assigned centres.
    iterations:
        Number of Lloyd iterations performed.
    """

    centers: np.ndarray
    assignments: np.ndarray
    inertia: int
    iterations: int

    @property
    def pattern_set(self) -> PatternSet:
        """The cluster centres wrapped as a :class:`PatternSet`."""
        return PatternSet(self.centers)


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """Pack binary rows into unsigned words, one row per output row.

    Each row's bits are packed big-endian (``np.packbits``) into the
    narrowest unsigned word that holds them (8, 16, 32 or 64 bits), or into
    several 64-bit words for rows wider than 64 bits; the zero padding bits
    never differ between two packed rows.  The words are returned in native
    byte order, so for a single word the integer order of the packed rows
    equals the lexicographic order of the bit rows.

    Parameters
    ----------
    rows:
        Binary ``uint8`` matrix of shape ``(n, k)``.

    Returns
    -------
    numpy.ndarray
        Unsigned matrix of shape ``(n, w)`` with ``w = max(1, ceil(k / 64))``.
    """
    num_rows, width = rows.shape
    num_bytes = max(1, -(-width // 8))
    word_bytes = min(8, 1 << (num_bytes - 1).bit_length())
    padded_width = -(-num_bytes // word_bytes) * word_bytes * 8
    if width != padded_width:
        padded = np.zeros((num_rows, padded_width), dtype=np.uint8)
        padded[:, :width] = rows
        rows = padded
    # Rows padded to whole words pack as one flat bit stream, far faster
    # than packing along a short row axis.
    packed = np.packbits(rows.reshape(-1)).reshape(num_rows, padded_width // 8)
    return packed.view(f">u{word_bytes}").astype(f"u{word_bytes}")


def packed_hamming(row_words: np.ndarray, center_words: np.ndarray) -> np.ndarray:
    """Pairwise Hamming distances between rows packed by :func:`pack_rows`.

    The distance of two binary rows is the popcount of their XOR, summed
    over the words of a row; the result is exact for every width and uses
    the narrowest unsigned dtype that holds the largest possible distance
    (``uint8`` up to 64 bits).

    Parameters
    ----------
    row_words:
        Packed rows of shape ``(n, w)``.
    center_words:
        Packed centres of shape ``(q, w)``, packed from the same width.

    Returns
    -------
    numpy.ndarray
        Unsigned matrix of shape ``(n, q)``.
    """
    num_words = row_words.shape[1]
    dtype = np.min_scalar_type(num_words * 8 * row_words.itemsize)
    distances = np.bitwise_count(row_words[:, 0, None] ^ center_words[None, :, 0])
    distances = distances.astype(dtype, copy=False)
    for word in range(1, num_words):
        distances += np.bitwise_count(
            row_words[:, word, None] ^ center_words[None, :, word]
        )
    return distances


def nearest_centers(
    row_words: np.ndarray, center_words: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Index and Hamming distance of each packed row's nearest centre.

    Ties go to the first (lowest-index) centre, as ``argmin`` breaks them.
    The distances are laid out centre-major and each is fused with its
    centre index into one key, ``distance << shift | index``, so a single
    element-wise minimum over the centres yields both the smallest distance
    and, among equal distances, the smallest index.

    Returns
    -------
    tuple of numpy.ndarray
        ``(index, distance)``, both of shape ``(n,)``; ``index`` is ``intp``.
    """
    num_centers = center_words.shape[0]
    shift = max(1, (num_centers - 1).bit_length())
    max_distance = 8 * row_words.itemsize * row_words.shape[1]
    keys = packed_hamming(center_words, row_words).astype(
        np.min_scalar_type(max_distance << shift | (num_centers - 1))
    )
    keys <<= shift
    keys |= np.arange(num_centers, dtype=keys.dtype)[:, None]
    best = keys.min(axis=0)
    return (best & ((1 << shift) - 1)).astype(np.intp), best >> shift


def hamming_distance_matrix(rows: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Pairwise Hamming distances between binary ``rows`` and ``centers``.

    Parameters
    ----------
    rows:
        Binary matrix of shape ``(n, k)``.
    centers:
        Binary matrix of shape ``(q, k)``.

    Returns
    -------
    numpy.ndarray
        Integer matrix of shape ``(n, q)``.
    """
    rows = _validate_binary(rows, "rows")
    centers = _validate_binary(centers, "centers")
    if rows.shape[1] != centers.shape[1]:
        raise ValueError(
            f"width mismatch: rows have {rows.shape[1]} bits, centers have "
            f"{centers.shape[1]}"
        )
    return packed_hamming(pack_rows(rows), pack_rows(centers)).astype(np.int64)


@dataclass(frozen=True)
class UniqueRows:
    """The distinct rows of a binary matrix and how they map back to it.

    Attributes
    ----------
    rows:
        The ``(u, k)`` distinct rows, sorted as ``np.unique(rows, axis=0)``.
    words:
        The distinct rows packed by :func:`pack_rows`.
    first:
        For each distinct row the index of its first occurrence.
    inverse:
        For each original row the index of its distinct row.
    counts:
        How often each distinct row occurs.
    """

    rows: np.ndarray
    words: np.ndarray
    first: np.ndarray
    inverse: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return int(self.rows.shape[0])


def deduplicate_rows(rows: np.ndarray) -> UniqueRows:
    """Deduplicate the rows of a binary matrix in one sort of packed words.

    Big-endian packing (:func:`pack_rows`) preserves the lexicographic row
    order exactly (the first differing bit decides both comparisons, the
    zero padding bits can only tie), so the distinct rows come out in
    ``np.unique(rows, axis=0)`` order while sorting one integer per row
    for widths up to 64 bits (several words sort lexicographically).
    """
    rows = _validate_binary(rows, "rows")
    words = pack_rows(rows)
    if words.shape[1] == 1:
        keys, first, inverse, counts = np.unique(
            words[:, 0], return_index=True, return_inverse=True, return_counts=True
        )
        unique_words = keys[:, None]
    else:
        unique_words, first, inverse, counts = np.unique(
            words, axis=0, return_index=True, return_inverse=True, return_counts=True
        )
    return UniqueRows(
        rows=rows[first],
        words=unique_words,
        first=first,
        inverse=inverse.reshape(-1),
        counts=counts,
    )


def unique_binary_rows(rows: np.ndarray) -> np.ndarray:
    """Sorted unique rows of a binary matrix (fast ``np.unique(axis=0)``)."""
    return deduplicate_rows(rows).rows


def filter_calibration_rows(
    rows: np.ndarray,
    *,
    filter_all_zero: bool = True,
    filter_one_hot: bool = True,
) -> np.ndarray:
    """Remove rows that are pointless to cluster (Algorithm 1, step 2).

    All-zero rows require no computation at all, and one-hot rows cannot
    profit from a pattern because the PWP of a one-hot pattern is just a row
    of the weight matrix.
    """
    rows = _validate_binary(rows, "rows")
    popcounts = rows.sum(axis=1)
    keep = np.ones(rows.shape[0], dtype=bool)
    if filter_all_zero:
        keep &= popcounts != 0
    if filter_one_hot:
        keep &= popcounts != 1
    return rows[keep]


def _init_centers(
    unique_rows: np.ndarray, q: int, rng: np.random.Generator
) -> np.ndarray:
    """Initialise ``q`` centres from distinct rows where possible."""
    if unique_rows.shape[0] >= q:
        idx = rng.choice(unique_rows.shape[0], size=q, replace=False)
        return unique_rows[idx].copy()
    # Fewer unique rows than requested centres: take every unique row and
    # pad with random binary vectors so the shape contract holds.
    extra = q - unique_rows.shape[0]
    random_bits = (rng.random((extra, unique_rows.shape[1])) < 0.5).astype(np.uint8)
    return np.vstack([unique_rows, random_bits])


def binary_kmeans(
    rows: np.ndarray,
    num_clusters: int,
    config: KMeansConfig | None = None,
    *,
    unique_rows: UniqueRows | None = None,
) -> ClusteringResult:
    """Cluster binary rows with Hamming-distance k-means (Algorithm 1).

    Lloyd iterations run on the distinct rows only, each weighted by its
    multiplicity: duplicate rows always share an assignment, so every
    count, centre and tie-break equals the one over all rows.

    Parameters
    ----------
    rows:
        Binary matrix of shape ``(n, k)`` with the calibration rows
        (already filtered of all-zero / one-hot rows by the caller).
    num_clusters:
        Number of clusters ``q`` to produce.
    config:
        Clustering hyper-parameters; defaults to :class:`KMeansConfig`.
    unique_rows:
        Optional precomputed ``deduplicate_rows(rows)``; callers that
        already deduplicated the rows pass it so it is not recomputed.

    Returns
    -------
    ClusteringResult
        Centres rounded to {0, 1}, per-row assignments, final inertia and
        iteration count.
    """
    config = config or KMeansConfig()
    rows = _validate_binary(rows, "rows")
    if rows.shape[0] == 0:
        raise ValueError("cannot cluster an empty set of rows")
    if num_clusters < 1:
        raise ValueError("num_clusters must be >= 1")
    unique = unique_rows if unique_rows is not None else deduplicate_rows(rows)

    rng = np.random.default_rng(config.seed)
    centers = _init_centers(unique.rows, num_clusters, rng)
    n_rows = rows.shape[0]
    num_cols = rows.shape[1]
    weights = unique.counts
    assignments = np.zeros(len(unique), dtype=np.intp)
    iterations = 0

    # The nonzero coordinates of the distinct rows drive the per-cluster
    # bit sums; each 1 bit counts once per occurrence of its row.
    nonzero_rows, nonzero_cols = np.nonzero(unique.rows)
    nonzero_weights = weights[nonzero_rows]

    for iteration in range(config.max_iterations):
        iterations = iteration + 1
        new_assignments, row_dist = nearest_centers(unique.words, pack_rows(centers))

        changed = int(weights[new_assignments != assignments].sum())
        assignments = new_assignments

        # Update each centre as the rounded mean of its members, in one
        # pass: per-cluster bit sums via a weighted bincount over the
        # (cluster, column) pairs of every 1 bit, then the >= 0.5 rounding
        # as 2 * sum >= count (float64 holds these integer sums exactly).
        new_centers = centers.copy()
        counts = np.bincount(assignments, weights=weights, minlength=num_clusters)
        sums = np.bincount(
            assignments[nonzero_rows] * num_cols + nonzero_cols,
            weights=nonzero_weights,
            minlength=num_clusters * num_cols,
        ).reshape(num_clusters, num_cols)
        occupied = counts > 0
        new_centers[occupied] = (
            2 * sums[occupied] >= counts[occupied, None]
        ).astype(np.uint8)
        empty = np.flatnonzero(~occupied)
        if empty.size and config.empty_cluster_strategy == "reseed":
            # Reseed with the row farthest from its current centre, the
            # first such row in input order (all empty clusters receive the
            # same farthest row).
            farthest = np.flatnonzero(row_dist == row_dist.max())
            new_centers[empty] = unique.rows[farthest[unique.first[farthest].argmin()]]

        converged = np.array_equal(new_centers, centers) and changed == 0
        centers = new_centers
        if converged or (iteration > 0 and changed <= config.tolerance * n_rows):
            break

    assignments, row_dist = nearest_centers(unique.words, pack_rows(centers))
    return ClusteringResult(
        centers=centers.astype(np.uint8),
        assignments=assignments[unique.inverse],
        inertia=int(row_dist.astype(np.int64) @ weights),
        iterations=iterations,
    )


def cluster_partition(
    rows: np.ndarray,
    num_patterns: int,
    *,
    config: KMeansConfig | None = None,
    filter_all_zero: bool = True,
    filter_one_hot: bool = True,
) -> PatternSet:
    """Produce the pattern set of one partition from its calibration rows.

    This is the complete Algorithm 1 pipeline: filter degenerate rows, run
    binary k-means, and wrap the rounded centres as a :class:`PatternSet`.
    When fewer than ``num_patterns`` useful rows remain after filtering the
    pattern count is reduced accordingly (deduplicated unique rows are used
    directly as patterns).
    """
    filtered = filter_calibration_rows(
        rows, filter_all_zero=filter_all_zero, filter_one_hot=filter_one_hot
    )
    if filtered.shape[0] == 0:
        # Degenerate partition: nothing worth a pattern.  Return a single
        # all-ones pattern so downstream code still has a valid set; the
        # decomposer will simply never pick it if it does not help.
        return PatternSet(np.ones((1, filtered.shape[1]), dtype=np.uint8))

    unique = deduplicate_rows(filtered)
    if len(unique) <= num_patterns:
        return PatternSet(unique.rows)

    result = binary_kmeans(filtered, num_patterns, config, unique_rows=unique)
    # Deduplicate rounded centres; duplicates waste pattern slots.
    centers = unique_binary_rows(result.centers)
    return PatternSet(centers)
