"""Per-GPM configuration (Table I, GPM side)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.units import GB, KB, MB


@dataclass(frozen=True)
class TLBConfig:
    """One TLB level: geometry, MSHRs, and access latency."""

    num_sets: int
    num_ways: int
    num_mshrs: int
    latency: int

    def __post_init__(self) -> None:
        if self.num_sets <= 0 or self.num_ways <= 0:
            raise ConfigurationError(
                f"TLB geometry must be positive, got {self.num_sets}x{self.num_ways}"
            )

    @property
    def capacity(self) -> int:
        return self.num_sets * self.num_ways


@dataclass(frozen=True)
class CacheConfig:
    """A data cache level (line-granularity, set-associative)."""

    size_bytes: int
    num_ways: int
    num_mshrs: int
    latency: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes % (self.num_ways * self.line_bytes):
            raise ConfigurationError(
                f"cache size {self.size_bytes} not divisible into "
                f"{self.num_ways}-way sets of {self.line_bytes}B lines"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.num_ways * self.line_bytes)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes


@dataclass(frozen=True)
class GPMConfig:
    """One GPU Processing Module.

    Defaults reproduce Table I: 32 CUs, the three L1 TLBs, a 64x32 L2 TLB,
    a 64x16 GMMU cache (the last-level TLB), 8 GMMU walkers at 500 cycles
    per walk, a 4 MB L2 data cache, and one 8 GB / 1.23 TB/s HBM stack.
    """

    name: str = "mi100"
    num_cus: int = 32
    l1_vector_tlb: TLBConfig = field(
        default_factory=lambda: TLBConfig(1, 32, 4, 4)
    )
    # The L1 scalar and instruction TLBs are reported in Table I (tab01)
    # but not simulated: the workload traces carry vector-memory accesses.
    l1_scalar_tlb: TLBConfig = field(
        default_factory=lambda: TLBConfig(1, 32, 4, 4)
    )
    l1_inst_tlb: TLBConfig = field(
        default_factory=lambda: TLBConfig(1, 32, 4, 4)
    )
    l2_tlb: TLBConfig = field(
        default_factory=lambda: TLBConfig(64, 32, 32, 32)
    )
    gmmu_cache: TLBConfig = field(
        default_factory=lambda: TLBConfig(64, 16, 16, 8)
    )
    gmmu_walkers: int = 8
    walk_latency: int = 500
    l2_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig(4 * MB, 16, 64, 20)
    )
    l2_cache_hit_latency: int = 20
    hbm_capacity: int = 8 * GB
    hbm_bandwidth: float = 1.23e12
    hbm_latency: int = 120
    cuckoo_capacity: int = 16 * KB
    cuckoo_fingerprint_bits: int = 12
    cuckoo_latency: int = 2
    #: Execution model: outstanding memory requests per CU lane.
    outstanding_per_cu: int = 4
    #: New accesses a GPM can issue per cycle across all CUs.
    issue_width: int = 4

    @property
    def max_outstanding(self) -> int:
        return self.num_cus * self.outstanding_per_cu
