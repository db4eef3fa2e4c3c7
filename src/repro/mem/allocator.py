"""Driver-level page placement.

The paper's runtime partitions every memory buffer evenly across GPMs in
contiguous runs: a 480-page allocation on a 48-GPM wafer puts pages 1-10 on
GPM 1, 11-20 on GPM 2, and so on (§II-A).  :class:`PageAllocator` implements
exactly that policy and assigns physical frame numbers from per-GPM pools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import AddressError
from repro.mem.address import AddressSpace
from repro.mem.page import PageTableEntry


@dataclass
class Allocation:
    """One virtual buffer: a contiguous VPN range plus its page homes."""

    base_vpn: int
    num_pages: int
    #: VPN -> owning GPM, in VPN order.
    owner_of: Dict[int, int]

    @property
    def end_vpn(self) -> int:
        return self.base_vpn + self.num_pages

    def vpns(self) -> range:
        return range(self.base_vpn, self.end_vpn)


class PageAllocator:
    """Even, contiguous-run partitioning of buffers across GPMs."""

    def __init__(self, address_space: AddressSpace, num_gpms: int) -> None:
        if num_gpms <= 0:
            raise AddressError(f"num_gpms must be positive, got {num_gpms}")
        self.address_space = address_space
        self.num_gpms = num_gpms
        self._next_vpn = 1  # VPN 0 is reserved (null page)
        self._next_pfn: List[int] = [0] * num_gpms
        self.allocations: List[Allocation] = []

    # ------------------------------------------------------------------
    def allocate_bytes(self, num_bytes: int) -> Allocation:
        return self.allocate_pages(self.address_space.pages_for_bytes(num_bytes))

    def allocate_pages(self, num_pages: int) -> Allocation:
        """Allocate ``num_pages`` contiguous virtual pages, partitioned into
        equal contiguous runs across GPMs (remainder pages go to the first
        GPMs, matching an even driver split)."""
        if num_pages <= 0:
            raise AddressError(f"allocation must be positive, got {num_pages}")
        base_vpn = self._next_vpn
        self._next_vpn += num_pages
        owner_of: Dict[int, int] = {}
        run = num_pages // self.num_gpms
        remainder = num_pages % self.num_gpms
        vpn = base_vpn
        for gpm in range(self.num_gpms):
            length = run + (1 if gpm < remainder else 0)
            for _ in range(length):
                owner_of[vpn] = gpm
                vpn += 1
        allocation = Allocation(base_vpn, num_pages, owner_of)
        self.allocations.append(allocation)
        return allocation

    # ------------------------------------------------------------------
    def materialize(self, allocation: Allocation) -> List[PageTableEntry]:
        """Create PTEs for an allocation, assigning frames per owning GPM."""
        next_pfn = self._next_pfn
        entries = []
        for vpn, owner in allocation.owner_of.items():
            pfn = next_pfn[owner]
            next_pfn[owner] = pfn + 1
            entries.append(PageTableEntry(vpn, pfn, owner))
        return entries

    def owner_of(self, vpn: int) -> int:
        """The GPM holding ``vpn``, searching all allocations."""
        for allocation in self.allocations:
            if allocation.base_vpn <= vpn < allocation.end_vpn:
                return allocation.owner_of[vpn]
        raise AddressError(f"VPN {vpn:#x} is not allocated")

    @property
    def total_pages(self) -> int:
        return sum(a.num_pages for a in self.allocations)
