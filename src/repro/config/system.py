"""Top-level system configuration."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.config.gpm import GPMConfig
from repro.config.hdpat import HDPATConfig
from repro.config.iommu import IOMMUConfig
from repro.config.migration import MigrationConfig
from repro.config.noc import NoCConfig
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.mem.address import PAGE_SIZE_4K


@dataclass(frozen=True)
class SystemConfig:
    """A complete wafer-scale GPU: mesh geometry plus all subsystem configs."""

    mesh_width: int = 7
    mesh_height: int = 7
    gpm: GPMConfig = field(default_factory=GPMConfig)
    iommu: IOMMUConfig = field(default_factory=IOMMUConfig)
    noc: NoCConfig = field(default_factory=NoCConfig)
    hdpat: HDPATConfig = field(default_factory=HDPATConfig)
    migration: MigrationConfig = field(default_factory=MigrationConfig)
    page_size: int = PAGE_SIZE_4K
    #: Deterministic seed threaded through workload generation.
    seed: int = 42
    #: Optional fault-injection plan (see :mod:`repro.faults`).  None (or
    #: an empty plan) leaves every run byte-identical to the pre-fault
    #: simulator.
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.mesh_width < 1 or self.mesh_height < 1:
            raise ConfigurationError("mesh dimensions must be positive")
        if self.mesh_width * self.mesh_height < 2:
            raise ConfigurationError(
                f"mesh needs at least 2 tiles, got "
                f"{self.mesh_width}x{self.mesh_height}"
            )

    @property
    def num_gpms(self) -> int:
        return self.mesh_width * self.mesh_height - 1  # one tile is the CPU

    # ------------------------------------------------------------------
    # Convenient derivations used by experiments
    # ------------------------------------------------------------------
    def with_hdpat(self, hdpat: HDPATConfig) -> "SystemConfig":
        return replace(self, hdpat=hdpat)

    def with_iommu(self, iommu: IOMMUConfig) -> "SystemConfig":
        return replace(self, iommu=iommu)

    def with_page_size(self, page_size: int) -> "SystemConfig":
        return replace(self, page_size=page_size)

    def with_mesh(self, width: int, height: int) -> "SystemConfig":
        return replace(self, mesh_width=width, mesh_height=height)

    def with_migration(self, migration: MigrationConfig) -> "SystemConfig":
        return replace(self, migration=migration)

    def with_faults(self, faults: Optional[FaultPlan]) -> "SystemConfig":
        return replace(self, faults=faults)

    def describe(self) -> str:
        """A short human-readable identity line for logs and reports."""
        # An absent or empty fault plan must not change the line: the
        # description is part of every result digest, and the no-fault
        # path carries a zero-drift guarantee.
        faults = ""
        if self.faults is not None and not self.faults.is_empty:
            faults = f", faults[{self.faults.describe()}]"
        return (
            f"{self.mesh_width}x{self.mesh_height} wafer, "
            f"{self.num_gpms} GPMs ({self.gpm.name}), "
            f"page={self.page_size // 1024}K, "
            f"hdpat={self.hdpat.peer_caching.value}"
            f"{'+redir' if self.hdpat.use_redirection else ''}"
            f"{'+pf' + str(self.hdpat.prefetch_degree) if self.hdpat.prefetch_degree > 1 else ''}"
            f"{faults}"
        )
