"""Batched execution: one simulator path, stacked across points and layers.

Property tests pin the bit-exactness contract of the batched paths: the
stacked cross-point :func:`repro.runner.engine.simulate_many`, the
lockstep :func:`repro.hw.simulator.simulate_phi_many` and the vectorized
L2 pack accounting must give the same results however the work is
grouped into batches.  A functional test runs a ``--jobs 4`` sweep whose
followers read the representative's artifacts from the store and checks
its records against a serial run.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.l2_processor import L2Processor
from repro.core import PhiCalibrator, PhiConfig
from repro.experiments.common import TINY
from repro.hw import PhiSimulator
from repro.hw import simulator as simulator_module
from repro.hw.config import ArchConfig
from repro.hw.pipeline import RunResult
from repro.hw.preprocessor import PackCounts
from repro.runner import (
    ArtifactStore,
    ResultCache,
    SweepEngine,
    SweepPoint,
    WorkloadSpec,
)
from repro.runner import engine as engine_module
from repro.workloads.workload import LayerWorkload, ModelWorkload


# --------------------------------------------------------------------- #
# Vectorized L2 pack accounting == scalar reference
# --------------------------------------------------------------------- #

pack_counts_lists = st.lists(
    st.builds(
        PackCounts,
        num_packs=st.integers(0, 400),
        weight_units=st.integers(0, 4000),
        psum_units=st.integers(0, 400),
        cycles=st.integers(0, 500),
        evictions=st.integers(0, 50),
    ),
    min_size=0,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(counts_list=pack_counts_lists)
def test_pack_cycles_for_matches_scalar_path(counts_list):
    """``pack_cycles_for`` element i == ``process_pack_counts(i).cycles``."""
    processor = L2Processor(ArchConfig())
    batched = processor.pack_cycles_for(counts_list)
    expected = [processor.process_pack_counts(c).cycles for c in counts_list]
    assert batched.dtype == np.int64
    assert batched.shape == (len(counts_list),)
    assert batched.tolist() == expected


# --------------------------------------------------------------------- #
# Stacked cross-point simulate_many == per-point simulate_point
# --------------------------------------------------------------------- #


def _record_bytes(record: dict) -> bytes:
    """The canonical byte serialisation the result cache writes."""
    return json.dumps(record, sort_keys=True).encode()


phi_grids = st.lists(
    st.tuples(
        st.sampled_from([2, 4, 8]),  # num_patterns (q)
        st.sampled_from([0, 1]),  # workload seed
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=6, deadline=None)
@given(grid=phi_grids)
def test_stacked_simulate_many_is_byte_identical_to_per_point(grid):
    """Cross-point stacking never changes a single record byte.

    Points are drawn over a randomized (num_patterns, workload-seed)
    grid — duplicates are allowed and valuable, because same-unit points
    exercise the decomposition-sharing path while distinct units
    exercise the per-spec stacking groups.
    """
    points = [
        SweepPoint(
            workload=WorkloadSpec.random(0.3, m=64, k=32, n=8, seed=seed),
            arch=TINY.arch_config(num_patterns=q),
            phi=TINY.phi_config(num_patterns=q),
        )
        for q, seed in grid
    ]
    stacked = engine_module.simulate_many(points)
    reference = [engine_module.simulate_point(point) for point in points]
    assert [_record_bytes(r) for r in stacked] == [
        _record_bytes(r) for r in reference
    ]


# --------------------------------------------------------------------- #
# One simulate_phi_many batch == batches of one == simulate_layer
# --------------------------------------------------------------------- #


@st.composite
def fuzz_workloads(draw):
    """A workload of one or two layers over adversarial shapes.

    M and K straddle the tile sizes (a single row, a ragged last tile, a
    K narrower than one partition) and densities run from all-zero to
    all-one.
    """
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    workload = ModelWorkload(model_name=f"fuzz{seed}", dataset_name="random")
    for i in range(draw(st.integers(1, 2))):
        m = draw(st.sampled_from([1, 3, 17, 130]))
        k = draw(st.sampled_from([1, 5, 16, 33]))
        density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.4, 0.7, 1.0]))
        workload.add(
            LayerWorkload(
                name=f"layer{i}",
                activations=(rng.random((m, k)) < density).astype(np.uint8),
                weights=rng.standard_normal((k, draw(st.sampled_from([1, 8, 40])))),
            )
        )
    return workload


#: Knobs that shape the tiles, decomposition and packer jobs of a layer.
TILING_KNOBS = {
    "tile_m": st.sampled_from([4, 64, 256]),
    "tile_k": st.sampled_from([4, 8, 16]),
    "tile_n": st.sampled_from([8, 32]),
    "num_patterns": st.integers(1, 16),
}

#: Knobs of the packer machine that runs those jobs.
PACKER_KNOBS = {
    "pack_size": st.sampled_from([4, 8]),
    "packer_windows": st.sampled_from([1, 2]),
}


def _simulator(knobs: dict) -> PhiSimulator:
    arch = ArchConfig(**knobs)
    config = PhiConfig(
        partition_size=arch.tile_k,
        num_patterns=arch.num_patterns,
        calibration_samples=256,
    )
    return PhiSimulator(arch, config)


@st.composite
def phi_batches(draw):
    """Mixed-configuration tasks, sweep-like: shared workloads, nearby configs.

    Like a sweep, every task runs one of one or two workloads under a base
    tiling with at most one tiling knob changed, and each task draws its
    own packer.  That is what makes identical packer jobs meet under
    different machines in one batch.  Half the tasks pass an explicit
    calibration, the other half make the simulator calibrate each layer
    itself.
    """
    workloads = draw(st.lists(fuzz_workloads(), min_size=1, max_size=2))
    base = draw(st.fixed_dictionaries(TILING_KNOBS))
    tasks = []
    for _ in range(draw(st.integers(1, 4))):
        knobs = {**base, **draw(st.fixed_dictionaries(PACKER_KNOBS))}
        varied = draw(st.sampled_from([None, *TILING_KNOBS]))
        if varied is not None:
            knobs[varied] = draw(TILING_KNOBS[varied])
        simulator = _simulator(knobs)
        workload = draw(st.sampled_from(workloads))
        calibration = None
        if draw(st.booleans()):
            calibration = PhiCalibrator(simulator.phi_config).calibrate_model(
                workload.activation_matrices()
            )
        tasks.append((simulator, workload, calibration))
    return tasks


def _all_ones_task():
    """A layer whose every activation bit is 1, under the default tiling."""
    workload = ModelWorkload(model_name="ones", dataset_name="random")
    workload.add(
        LayerWorkload(
            name="ones",
            activations=np.ones((40, 48), dtype=np.uint8),
            weights=np.ones((48, 8)),
        )
    )
    knobs = {"tile_m": 256, "tile_k": 16, "tile_n": 32, "num_patterns": 4}
    return _simulator(knobs), workload, None


def _layer_fields(layer) -> str:
    """Every field of a layer result (stage records and energy included)."""
    return repr(dataclasses.asdict(layer))


@settings(max_examples=100, deadline=None)
@given(tasks=phi_batches())
def test_simulate_phi_many_is_independent_of_batching(tasks):
    """A mixed-configuration batch gives the per-task and per-layer results.

    This is the reference for the lockstep batch: the same tasks run as
    one ``simulate_phi_many`` call, as batches of one, and layer by layer
    through ``simulate_layer`` must agree on every layer field and on the
    run energy.
    """
    tasks = [*tasks, _all_ones_task()]
    batch = simulator_module.simulate_phi_many(
        [(sim, workload, calibration, None) for sim, workload, calibration in tasks]
    )
    assert len(batch) == len(tasks)
    for (sim, workload, calibration), stacked in zip(tasks, batch):
        alone = simulator_module.simulate_phi_many([(sim, workload, calibration, None)])[0]
        per_layer = [
            sim.simulate_layer(
                layer,
                layer_calibration=(
                    calibration[layer.name] if calibration is not None else None
                ),
            )
            for layer in workload
        ]
        expected = [_layer_fields(layer) for layer in stacked.layers]
        assert [_layer_fields(layer) for layer in alone.layers] == expected
        assert [_layer_fields(layer) for layer in per_layer] == expected
        assert repr(alone.energy) == repr(stacked.energy)
        assert repr(RunResult(layers=per_layer).energy) == repr(stacked.energy)


# --------------------------------------------------------------------- #
# Parallel followers read the store (--jobs 4)
# --------------------------------------------------------------------- #


def shared_unit_points(num: int = 3) -> list[SweepPoint]:
    """Points of ONE (workload, PhiConfig) unit: same artifacts, varied arch."""
    spec = WorkloadSpec.random(0.3, m=64, k=32, n=8)
    phi = TINY.phi_config()
    return [
        SweepPoint(
            workload=spec,
            arch=TINY.arch_config(frequency_mhz=500.0 + 100.0 * i),
            phi=phi,
        )
        for i in range(num)
    ]


class TestSharedMemoryHandoff:
    def test_jobs4_matches_serial_and_leaks_no_segments(self, tmp_path):
        """Followers load the unit's artifacts from the store yet match serial."""
        points = shared_unit_points(3)
        with SweepEngine(
            cache=ResultCache(tmp_path / "serial"),
            store=ArtifactStore(tmp_path / "serial-store"),
            jobs=1,
        ) as engine:
            serial = engine.run(points)

        with SweepEngine(
            cache=ResultCache(tmp_path / "parallel"),
            store=ArtifactStore(tmp_path / "parallel-store"),
            jobs=4,
        ) as engine:
            parallel = engine.run(points)
        assert parallel == serial
