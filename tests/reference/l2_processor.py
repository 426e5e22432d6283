"""Object-level reference model of the L2 processor (Section 4.3).

:meth:`L2Processor.process_packs` costs a tile from its materialised
:class:`~reference.preprocessor.Pack` objects, and
:meth:`L2Processor.process_pack_counts` from its pack counts; the
production :meth:`repro.hw.l2_processor.L2Processor.pack_cycles_for` is
tested against both.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw import l2_processor as hw
from repro.hw.config import ArchConfig
from repro.hw.preprocessor import PackCounts

from .preprocessor import Pack


@dataclass(frozen=True)
class ReconfigurableAdderTree:
    """Cycle/behaviour model of the reconfigurable adder tree (Fig. 6).

    The tree has ``num_inputs`` channels of ``simd_width``-wide vector
    adders and can be segmented so several output rows are reduced in the
    same cycle without cross-row interference.
    """

    num_inputs: int
    simd_width: int

    def segments_for(self, units_per_row: list[int]) -> int:
        """Number of tree passes needed for the given per-row unit counts."""
        if any(count < 1 for count in units_per_row):
            raise ValueError("every row must contribute at least one unit")
        total_units = sum(units_per_row)
        if total_units <= self.num_inputs:
            return 1
        # Rows never straddle packs, so multi-pass only happens when the
        # caller aggregates several packs; each pass fills the inputs.
        return int(-(-total_units // self.num_inputs))

    def additions_for(self, units_per_row: list[int]) -> int:
        """Scalar additions performed (SIMD lanes x unit reductions)."""
        return sum(max(count - 1, 0) + 1 for count in units_per_row) * self.simd_width


@dataclass(frozen=True)
class L2Result:
    """Cycle and operation accounting of the L2 processor for one tile."""

    cycles: int
    packs_processed: int
    weight_accumulations: int
    psum_accumulations: int
    adder_tree_additions: int
    weight_bytes_read: float
    psum_bytes_accessed: float

    @property
    def total_accumulations(self) -> int:
        """Weight plus partial-sum accumulations."""
        return self.weight_accumulations + self.psum_accumulations


class L2Processor(hw.L2Processor):
    """The production L2 processor plus full per-tile accounting."""

    def __init__(self, config: ArchConfig) -> None:
        super().__init__(config)
        self.adder_tree = ReconfigurableAdderTree(
            num_inputs=config.pack_size, simd_width=config.simd_width
        )

    def process_packs(
        self, packs: list[Pack], *, output_width: int | None = None
    ) -> L2Result:
        """Process all packs of one output tile."""
        # ``is None`` (not ``or``): an explicit 0-wide tile must not fall
        # back to the config default.
        n = self.config.tile_n if output_width is None else output_width
        weight_acc = 0
        psum_acc = 0
        total_units = 0
        for pack in packs:
            weight_acc += pack.num_weight_units
            psum_acc += pack.num_psum_units
            total_units += pack.num_units
        # Per pack, ``additions_for`` over the per-row unit counts reduces
        # to the pack's unit total times the SIMD width (every row count c
        # contributes max(c - 1, 0) + 1 == c lanes-worth of additions), so
        # the per-unit scan collapses to the counters Pack maintains.
        additions = total_units * self.adder_tree.simd_width

        cycles = len(packs)
        if packs:
            cycles += self.PIPELINE_DEPTH  # drain the pipeline once per tile
        weight_bytes = weight_acc * n * self.config.weight_bytes
        psum_bytes = (psum_acc + len(packs)) * n * self.config.psum_bytes
        return L2Result(
            cycles=cycles,
            packs_processed=len(packs),
            weight_accumulations=weight_acc,
            psum_accumulations=psum_acc,
            adder_tree_additions=additions,
            weight_bytes_read=float(weight_bytes),
            psum_bytes_accessed=float(psum_bytes),
        )

    def process_pack_counts(
        self, counts: PackCounts, *, output_width: int | None = None
    ) -> L2Result:
        """Counter-level :meth:`process_packs` over a tile's pack counts.

        The cycle model only depends on pack and unit totals, so feeding
        it the :class:`~repro.hw.preprocessor.PackCounts` of a tile yields
        the exact :class:`L2Result` that processing the materialised packs
        would.
        """
        n = self.config.tile_n if output_width is None else output_width
        cycles = counts.num_packs
        if counts.num_packs:
            cycles += self.PIPELINE_DEPTH
        weight_bytes = counts.weight_units * n * self.config.weight_bytes
        psum_bytes = (counts.psum_units + counts.num_packs) * n * self.config.psum_bytes
        return L2Result(
            cycles=cycles,
            packs_processed=counts.num_packs,
            weight_accumulations=counts.weight_units,
            psum_accumulations=counts.psum_units,
            adder_tree_additions=counts.total_units * self.adder_tree.simd_width,
            weight_bytes_read=float(weight_bytes),
            psum_bytes_accessed=float(psum_bytes),
        )
