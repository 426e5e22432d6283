"""Shared fixtures for the test suite.

Expensive artefacts (recorded workloads, calibrations) are module-scoped
or session-scoped so the several hundred tests stay fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PhiCalibrator, PhiConfig
from repro.workloads import generate_workload


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """Deterministic random generator shared by tests."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_phi_config() -> PhiConfig:
    """A small Phi configuration used across unit tests."""
    return PhiConfig(partition_size=8, num_patterns=16, calibration_samples=2000)


@pytest.fixture(scope="session")
def binary_matrix(rng) -> np.ndarray:
    """A structured binary matrix (clustered rows plus noise)."""
    prototypes = (rng.random((6, 32)) < 0.25).astype(np.uint8)
    rows = []
    for _ in range(300):
        proto = prototypes[rng.integers(0, len(prototypes))]
        noise = (rng.random(32) < 0.05).astype(np.uint8)
        rows.append(np.bitwise_xor(proto, noise))
    return np.array(rows, dtype=np.uint8)


@pytest.fixture(scope="session")
def vgg_workload():
    """A tiny VGG16 workload recorded once per test session."""
    return generate_workload("vgg16", "cifar10", batch_size=2, num_steps=2)


@pytest.fixture(scope="session")
def spikformer_workload():
    """A tiny Spikformer workload recorded once per test session."""
    return generate_workload("spikformer", "cifar100", batch_size=2, num_steps=2)


@pytest.fixture(scope="session")
def vgg_calibration(vgg_workload, small_phi_config):
    """Calibrated patterns for the tiny VGG workload."""
    calibrator = PhiCalibrator(small_phi_config)
    return calibrator.calibrate_model(vgg_workload.activation_matrices())


@pytest.fixture()
def stub_simulate(monkeypatch):
    """Route every engine simulation through ``fn(point)``, one point at a time.

    Call it as ``stub_simulate(fn)``.  It patches
    :func:`repro.runner.engine.simulate_many`, the one seam every
    dispatch site of the engine calls.  Only ``jobs=1`` engines see the
    stub; a process pool would run the real function.
    """
    from repro.runner import engine

    def install(fn):
        monkeypatch.setattr(
            engine, "simulate_many", lambda points: [fn(p) for p in points]
        )

    return install
