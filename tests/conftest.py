"""Shared fixtures: small, fast system configurations."""

from __future__ import annotations

import pytest

from repro.config.gpm import GPMConfig, TLBConfig
from repro.config.hdpat import HDPATConfig
from repro.config.iommu import IOMMUConfig
from repro.config.system import SystemConfig
from repro.sim.engine import Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def tiny_gpm_config() -> GPMConfig:
    """A deliberately small GPM so capacity effects appear in tests."""
    return GPMConfig(
        name="tiny",
        num_cus=4,
        l1_vector_tlb=TLBConfig(1, 8, 4, 4),
        l1_scalar_tlb=TLBConfig(1, 8, 4, 4),
        l1_inst_tlb=TLBConfig(1, 8, 4, 4),
        l2_tlb=TLBConfig(8, 8, 8, 32),
        gmmu_cache=TLBConfig(8, 4, 4, 8),
        gmmu_walkers=2,
        walk_latency=100,
        cuckoo_capacity=4096,
        outstanding_per_cu=4,
        issue_width=2,
    )


@pytest.fixture
def small_system_config(tiny_gpm_config) -> SystemConfig:
    """A 3x3 wafer (8 GPMs) with small structures — fast to simulate."""
    return SystemConfig(
        mesh_width=3,
        mesh_height=3,
        gpm=tiny_gpm_config,
        iommu=IOMMUConfig(
            num_walkers=4,
            walk_latency=100,
            pw_queue_capacity=8,
            redirection_entries=64,
        ),
    )


@pytest.fixture
def small_hdpat_config(small_system_config) -> SystemConfig:
    from dataclasses import replace

    # A 3x3 mesh has a single complete ring, so C=1.
    return small_system_config.with_hdpat(
        replace(HDPATConfig.full(), num_layers=1)
    )


@pytest.fixture
def wafer_5x5_config(tiny_gpm_config) -> SystemConfig:
    """A 5x5 wafer (24 GPMs, two complete rings) for HDPAT-layer tests."""
    return SystemConfig(
        mesh_width=5,
        mesh_height=5,
        gpm=tiny_gpm_config,
        iommu=IOMMUConfig(
            num_walkers=4,
            walk_latency=100,
            pw_queue_capacity=8,
            redirection_entries=64,
        ),
    )
