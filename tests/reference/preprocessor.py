"""Object-level reference model of the Phi preprocessor (Section 4.2).

This is the oracle the counter-level path in :mod:`repro.hw.preprocessor`
is tested against.  It materialises every unit: the pattern matcher
emits Level 2 rows, the compressor turns them into :class:`CompressedRow`
objects, and the packer places their :class:`PackUnit` streams into
:class:`Pack` objects.  The simulator never builds any of these; it only
needs the counts, which ``Packer.pack_counts`` and ``pack_counts_batch``
compute with the same window-placement algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.patterns import PatternSet
from repro.core.sparsity import TileDecomposition, decompose_tile
from repro.hw import preprocessor as hw
from repro.hw.config import ArchConfig
from repro.hw.preprocessor import CompressedCounts, PackCounts

#: Unit label: a {+1,-1} correction element that accumulates a weight row.
LABEL_NONZERO = "nonzero"
#: Unit label: a partial sum carried from the previous K partition.
LABEL_PSUM = "psum"



@dataclass(frozen=True)
class PackUnit:
    """One unit of the compact Level 2 data structure.

    Attributes
    ----------
    label:
        Either :data:`LABEL_NONZERO` (weight accumulation) or
        :data:`LABEL_PSUM` (partial-sum accumulation).
    index:
        Column index of the weight row, or the partial-sum slot index.
    value:
        +1 or -1 for nonzeros; always +1 for partial sums.
    row_id:
        The output row this unit contributes to.
    """

    label: str
    index: int
    value: int
    row_id: int

    def __post_init__(self) -> None:
        if self.label not in (LABEL_NONZERO, LABEL_PSUM):
            raise ValueError(f"invalid unit label {self.label!r}")
        if self.value not in (-1, 1):
            raise ValueError("unit value must be +1 or -1")


def _make_unit(label: str, index: int, value: int, row_id: int) -> PackUnit:
    """Construct a :class:`PackUnit` bypassing dataclass validation.

    Internal fast path for unit streams whose labels and values the caller
    has already checked; the public ``PackUnit(...)`` constructor keeps its
    validation.
    """
    unit = object.__new__(PackUnit)
    object.__setattr__(unit, "label", label)
    object.__setattr__(unit, "index", index)
    object.__setattr__(unit, "value", value)
    object.__setattr__(unit, "row_id", row_id)
    return unit


@dataclass
class Pack:
    """A fixed-capacity group of units processed by the L2 processor."""

    capacity: int
    units: list[PackUnit] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.num_weight_units = sum(
            1 for u in self.units if u.label == LABEL_NONZERO
        )
        self.num_psum_units = sum(1 for u in self.units if u.label == LABEL_PSUM)

    @property
    def num_units(self) -> int:
        """Number of occupied units."""
        return len(self.units)

    @property
    def free_space(self) -> int:
        """Remaining unit slots."""
        return self.capacity - len(self.units)

    @property
    def row_ids(self) -> list[int]:
        """Distinct output rows contributing units, in insertion order."""
        seen: list[int] = []
        for unit in self.units:
            if unit.row_id not in seen:
                seen.append(unit.row_id)
        return seen

    def psum_banks(self, num_banks: int) -> set[int]:
        """Partial-sum buffer banks already referenced by this pack."""
        return {unit.row_id % num_banks for unit in self.units if unit.label == LABEL_PSUM}

    def add_row(self, units: list[PackUnit]) -> None:
        """Append all units of one compressed row."""
        if len(units) > self.free_space:
            raise ValueError("row does not fit into the pack")
        self.units.extend(units)
        for unit in units:
            if unit.label == LABEL_NONZERO:
                self.num_weight_units += 1
            else:
                self.num_psum_units += 1

    @property
    def utilization(self) -> float:
        """Fraction of occupied unit slots."""
        return self.num_units / self.capacity if self.capacity else 0.0


@dataclass(frozen=True)
class CompressedRow:
    """Column-index representation of one nonzero Level 2 row."""

    row_id: int
    columns: tuple[int, ...]
    values: tuple[int, ...]
    needs_psum: bool

    @property
    def num_nonzeros(self) -> int:
        """Number of {+1, -1} corrections in the row."""
        return len(self.columns)

    def units(self) -> list[PackUnit]:
        """Expand the row into pack units (corrections plus partial sum)."""
        row_id = self.row_id
        units = []
        for col, val in zip(self.columns, self.values):
            # Mirrors PackUnit.__post_init__'s value check; the labels are
            # the module constants, so the label check cannot fail here.
            if val != 1 and val != -1:
                raise ValueError("unit value must be +1 or -1")
            units.append(_make_unit(LABEL_NONZERO, col, val, row_id))
        if self.needs_psum:
            units.append(_make_unit(LABEL_PSUM, row_id, 1, row_id))
        return units


@dataclass
class MatcherResult:
    """Output of the pattern matcher for one activation tile."""

    decomposition: TileDecomposition
    cycles: int
    comparisons: int

    @property
    def pattern_indices(self) -> np.ndarray:
        """Assigned pattern index per row (0 = no pattern)."""
        return self.decomposition.pattern_indices

    @property
    def level2(self) -> np.ndarray:
        """The {+1, 0, -1} Level 2 correction matrix."""
        return self.decomposition.level2


class PatternMatcher:
    """1-D systolic array of matcher units (one per pattern).

    The array sustains one activation row per cycle; its pipeline-fill
    latency is hidden by overlapping with L1/L2 processing, so the cycle
    cost of a tile is its row count.
    """

    def __init__(self, config: ArchConfig) -> None:
        self.config = config

    def match_tile(
        self,
        tile: np.ndarray,
        patterns: PatternSet,
        *,
        decomposition: TileDecomposition | None = None,
    ) -> MatcherResult:
        """Match every row of a binary tile against the pattern set.

        When the caller already holds the tile's decomposition (the
        simulator decomposes the full layer once for its metrics), passing
        it via ``decomposition`` skips the redundant re-match; the cycle
        and comparison accounting is unchanged because the systolic array
        still streams every row past every matcher unit.
        """
        if decomposition is None:
            decomposition = decompose_tile(tile, patterns)
        rows = tile.shape[0]
        comparisons = rows * patterns.num_patterns
        return MatcherResult(
            decomposition=decomposition, cycles=rows, comparisons=comparisons
        )


@dataclass
class CompressorResult:
    """Output of the compressor for one Level 2 tile."""

    rows: list[CompressedRow]
    cycles: int
    filtered_rows: int

    @property
    def total_nonzeros(self) -> int:
        """Total corrections across all surviving rows."""
        return sum(row.num_nonzeros for row in self.rows)


class Compressor:
    """Filter all-zero Level 2 rows and extract column indices."""

    def __init__(self, config: ArchConfig) -> None:
        self.config = config

    def compress(
        self, level2: np.ndarray, *, needs_psum: bool = True
    ) -> CompressorResult:
        """Compress a ``(M, k)`` Level 2 matrix into sparse rows."""
        level2 = np.asarray(level2)
        num_rows = level2.shape[0]
        # One pass over the whole tile: np.nonzero walks the matrix in
        # row-major order, so slicing the flat index arrays by per-row
        # counts yields exactly the per-row ``flatnonzero`` results.
        row_idx, col_idx = np.nonzero(level2)
        counts = np.bincount(row_idx, minlength=num_rows)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        columns = col_idx.tolist()
        values = level2[row_idx, col_idx].astype(int).tolist()

        rows: list[CompressedRow] = []
        filtered = 0
        for row_id in range(num_rows):
            start, stop = offsets[row_id], offsets[row_id + 1]
            if start == stop:
                filtered += 1
                continue
            rows.append(
                CompressedRow(
                    row_id=row_id,
                    columns=tuple(columns[start:stop]),
                    values=tuple(values[start:stop]),
                    needs_psum=needs_psum,
                )
            )
        # The compressor scans one matcher output row per cycle.
        return CompressorResult(rows=rows, cycles=num_rows, filtered_rows=filtered)

    def compress_counts(
        self, level2: np.ndarray, *, needs_psum: bool = True
    ) -> CompressedCounts:
        """Counter-level :meth:`compress`: per-row nonzero counts only.

        The cycle model never inspects column indices or values, so this
        skips the per-row object construction while agreeing with
        :meth:`compress` on every quantity both report (row ids, nonzero
        counts, cycles, filtered rows).  It is the per-tile equivalent of
        :func:`repro.hw.simulator.plan_preprocess`.
        """
        level2 = np.asarray(level2)
        num_rows = level2.shape[0]
        nonzeros = np.count_nonzero(level2, axis=1)
        kept = np.flatnonzero(nonzeros)
        return CompressedCounts(
            row_ids=kept,
            row_nonzeros=nonzeros[kept],
            needs_psum=needs_psum,
            cycles=num_rows,
            filtered_rows=num_rows - int(kept.size),
        )


@dataclass
class PackerResult:
    """Output of the packer for one tile."""

    packs: list[Pack]
    cycles: int
    evictions: int

    @property
    def average_utilization(self) -> float:
        """Mean pack occupancy (1.0 = every unit slot used)."""
        if not self.packs:
            return 0.0
        return float(np.mean([pack.utilization for pack in self.packs]))

    @property
    def total_units(self) -> int:
        """Total units across all packs."""
        return sum(pack.num_units for pack in self.packs)


class Packer(hw.Packer):
    """The production packer plus :meth:`pack_rows`, its object-level twin.

    ``pack_counts`` (inherited) runs the window placement on integers;
    :meth:`pack_rows` runs it on materialised :class:`Pack` objects.
    """

    def pack_rows(self, rows: list[CompressedRow]) -> PackerResult:
        """Pack the compressed rows of one tile."""
        capacity = self.config.pack_size
        num_windows = self.config.packer_windows
        windows: list[Pack] = [Pack(capacity) for _ in range(num_windows)]
        # Window occupancy and partial-sum banks are mirrored in plain
        # lists so the placement scan does not re-derive them from the
        # unit lists on every probe.
        used = [0] * num_windows
        banks: list[set[int]] = [set() for _ in range(num_windows)]
        finished: list[Pack] = []
        evictions = 0
        cycles = 0

        for row in rows:
            cycles += 1
            all_units = row.units()
            row_bank = row.row_id % self.num_banks
            # With the calibrated pattern count a row never exceeds a pack
            # (Section 4.2.2); tiny pattern sets used in sweeps can violate
            # that, in which case the row is split across several packs.
            chunks = [
                all_units[i : i + capacity] for i in range(0, len(all_units), capacity)
            ]
            for units in chunks:
                num_units = len(units)
                # The partial-sum unit is always the last of the row, so
                # only the final chunk can claim a psum bank.
                has_psum = units[-1].label == LABEL_PSUM
                target = -1
                for i in range(num_windows):
                    if capacity - used[i] < num_units:
                        continue
                    if row.needs_psum and row_bank in banks[i]:
                        continue
                    target = i
                    break
                if target < 0:
                    # Evict the most-filled window and reuse it.
                    victim = max(range(num_windows), key=used.__getitem__)
                    if used[victim]:
                        finished.append(windows[victim])
                        evictions += 1
                    windows[victim] = Pack(capacity)
                    used[victim] = 0
                    banks[victim] = set()
                    target = victim
                windows[target].add_row(units)
                used[target] += num_units
                if has_psum:
                    banks[target].add(units[-1].row_id % self.num_banks)

        for window in windows:
            if window.num_units:
                finished.append(window)
        return PackerResult(packs=finished, cycles=cycles, evictions=evictions)

@dataclass
class PreprocessorResult:
    """Combined result of matching, compressing and packing one tile."""

    matcher: MatcherResult
    compressor: CompressorResult
    packer: PackerResult

    @property
    def cycles(self) -> int:
        """Preprocessor cycles for the tile (stages are pipelined)."""
        return max(self.matcher.cycles, self.compressor.cycles, self.packer.cycles)

    @property
    def packs(self) -> list[Pack]:
        """The Level 2 packs ready for the L2 processor."""
        return self.packer.packs


@dataclass(frozen=True)
class PreprocessorCounts:
    """Counter-level result of preprocessing one tile.

    :meth:`Preprocessor.process_tile_counts` carries only the aggregates
    the cycle and energy models consume.
    """

    cycles: int
    comparisons: int
    total_nonzeros: int
    filtered_rows: int
    packs: PackCounts


class Preprocessor:
    """The full Phi Preprocessor pipeline for one activation tile."""

    def __init__(self, config: ArchConfig) -> None:
        self.config = config
        self.matcher = PatternMatcher(config)
        self.compressor = Compressor(config)
        self.packer = Packer(config)

    def process_tile(
        self,
        tile: np.ndarray,
        patterns: PatternSet,
        *,
        needs_psum: bool = True,
        decomposition: TileDecomposition | None = None,
    ) -> PreprocessorResult:
        """Run matcher, compressor and packer on one binary tile.

        ``decomposition`` optionally supplies the tile's already-computed
        Phi decomposition so the matcher does not redo it.
        """
        matched = self.matcher.match_tile(tile, patterns, decomposition=decomposition)
        compressed = self.compressor.compress(matched.level2, needs_psum=needs_psum)
        packed = self.packer.pack_rows(compressed.rows)
        return PreprocessorResult(
            matcher=matched, compressor=compressed, packer=packed
        )

    def process_tile_counts(
        self,
        tile: np.ndarray,
        patterns: PatternSet,
        *,
        needs_psum: bool = True,
        decomposition: TileDecomposition | None = None,
    ) -> PreprocessorCounts:
        """Counter-level :meth:`process_tile`, built on ``Packer.pack_counts``.

        Produces exactly the aggregates :meth:`process_tile` would report
        — pipelined cycles, matcher comparisons, Level 2 nonzeros and the
        :class:`PackCounts` of the packed tile — without materialising
        compressed rows, pack units or pack objects.
        """
        matched = self.matcher.match_tile(tile, patterns, decomposition=decomposition)
        compressed = self.compressor.compress_counts(
            matched.level2, needs_psum=needs_psum
        )
        packed = self.packer.pack_counts(compressed)
        return PreprocessorCounts(
            cycles=max(matched.cycles, compressed.cycles, packed.cycles),
            comparisons=matched.comparisons,
            total_nonzeros=compressed.total_nonzeros,
            filtered_rows=compressed.filtered_rows,
            packs=packed,
        )
