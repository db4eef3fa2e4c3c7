"""Workload base class and generation context."""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import List

from repro.errors import WorkloadError
from repro.filters.fingerprint import mix64
from repro.mem.allocator import Allocation, PageAllocator
from repro.units import MB
from repro.workloads.trace import WorkloadTrace


@dataclass
class BuildContext:
    """Everything a generator needs to lay out buffers and emit accesses."""

    allocator: PageAllocator
    rng: random.Random
    num_gpms: int
    accesses_per_gpm: int
    footprint_bytes: int
    page_size: int

    def alloc_fraction(self, fraction: float) -> Allocation:
        """Allocate ``fraction`` of the workload footprint (>= 1 page/GPM)."""
        nbytes = max(
            int(self.footprint_bytes * fraction),
            self.num_gpms * self.page_size,
        )
        return self.allocator.allocate_bytes(nbytes)

    def alloc_bytes(self, nbytes: int) -> Allocation:
        return self.allocator.allocate_bytes(max(nbytes, self.page_size))

    def addr(self, allocation: Allocation, offset: int) -> int:
        """Virtual byte address at ``offset`` into a buffer (wrapping)."""
        size = allocation.num_pages * self.page_size
        return allocation.base_vpn * self.page_size + (offset % size)

    def buffer_bytes(self, allocation: Allocation) -> int:
        return allocation.num_pages * self.page_size

    def partition_bounds(self, allocation: Allocation, gpm: int) -> tuple:
        """(start_byte, length_bytes) of this GPM's own pages in a buffer.

        Mirrors :class:`PageAllocator`'s contiguous-run split (remainder
        pages go to the first GPMs) so partition-aligned access patterns
        really land on locally owned pages.
        """
        run, remainder = divmod(allocation.num_pages, self.num_gpms)
        start_page = gpm * run + min(gpm, remainder)
        length_pages = run + (1 if gpm < remainder else 0)
        if length_pages == 0:  # more GPMs than pages: share the buffer
            return 0, allocation.num_pages * self.page_size
        return start_page * self.page_size, length_pages * self.page_size


class Workload(abc.ABC):
    """One benchmark: Table II identity plus a trace generator.

    Subclasses set the class attributes from Table II and implement
    :meth:`build`, returning one access stream per GPM.  ``generate``
    handles scaling, seeding, and packaging.
    """

    #: Short name (Table II abbreviation, lower case).
    name: str = ""
    description: str = ""
    #: Table II parameters at scale 1.0.
    workgroups: int = 0
    footprint_bytes: int = 0
    #: Access-pattern class tag (random / partitioned / adjacent / scatter).
    pattern: str = ""
    #: Mean accesses per GPM at scale 1.0 (calibrated for simulation cost).
    base_accesses_per_gpm: int = 2000
    #: Issue shape: up to ``burst`` accesses every ``interval`` cycles.
    burst: int = 4
    interval: int = 1

    def generate(
        self,
        num_gpms: int,
        allocator: PageAllocator,
        scale: float = 1.0,
        seed: int = 0,
    ) -> WorkloadTrace:
        """Build this benchmark's trace for ``num_gpms`` GPMs.

        ``scale`` shrinks both the access count and the footprint linearly,
        preserving the accesses-per-page ratio (the paper's Figure 13 shows
        translation behaviour is size-invariant, which justifies scaled
        runs standing in for full-size ones).
        """
        if not 0 < scale <= 1.0:
            raise WorkloadError(f"scale must be in (0, 1], got {scale}")
        if num_gpms < 1:
            raise WorkloadError(f"num_gpms must be >= 1, got {num_gpms}")
        rng = random.Random(mix64(seed * 1_000_003 + _stable_hash(self.name)))
        page_size = allocator.address_space.page_size
        footprint = max(
            int(self.footprint_bytes * scale),
            2 * num_gpms * page_size,
            1 * MB,
        )
        context = BuildContext(
            allocator=allocator,
            rng=rng,
            num_gpms=num_gpms,
            accesses_per_gpm=max(100, int(self.base_accesses_per_gpm * scale)),
            footprint_bytes=footprint,
            page_size=page_size,
        )
        per_gpm = self.build(context)
        if len(per_gpm) != num_gpms:
            raise WorkloadError(
                f"{self.name}: build() returned {len(per_gpm)} slices "
                f"for {num_gpms} GPMs"
            )
        return WorkloadTrace(
            name=self.name,
            per_gpm=per_gpm,
            burst=self.burst,
            interval=self.interval,
            metadata={
                "workgroups": self.workgroups,
                "footprint_bytes": footprint,
                "pattern": self.pattern,
                "scale": scale,
            },
        )

    @abc.abstractmethod
    def build(self, ctx: BuildContext) -> List[List[int]]:
        """Emit one access stream (list of virtual addresses) per GPM."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Workload {self.name}>"


def _stable_hash(text: str) -> int:
    value = 0
    for char in text:
        value = (value * 131 + ord(char)) & 0xFFFFFFFF
    return value
