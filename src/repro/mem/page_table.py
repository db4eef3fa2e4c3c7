"""Multi-level page tables.

Two flavours mirror the paper's zero-copy architecture:

* :class:`LocalPageTable` — per-GPM, holds mappings only for pages resident
  in that GPM's HBM; walked by the GMMU (8 walkers).
* :class:`GlobalPageTable` — at the CPU, holds every mapping; walked by the
  IOMMU (16 walkers).

Functionally both are radix trees; the walk *cost* (levels x per-level
latency, Table I: 100 x 5 = 500 cycles) is charged by the walker pools, not
here.  The radix structure is still modelled so that walk depth and
contiguous-leaf prefetch cost are honest.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.errors import AddressError
from repro.mem.page import PageTableEntry

#: Number of radix levels (x86-style 5-level paging, per Table I).
WALK_LEVELS = 5

#: VPN bits consumed per level.
_BITS_PER_LEVEL = 9

#: Leaf "cache line" span: PTEs that share a leaf line can be fetched with
#: one extra memory access during proactive delivery.
LEAF_LINE_SPAN = 8


class _PageTableBase:
    """Shared radix-tree bookkeeping for local and global page tables."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._entries: Dict[int, PageTableEntry] = {}

    # ------------------------------------------------------------------
    def insert(self, entry: PageTableEntry) -> None:
        self.insert_many((entry,))

    def insert_many(self, entries: Sequence[PageTableEntry]) -> None:
        """Map every entry in order; an already-mapped VPN raises."""
        table = self._entries
        for entry in entries:
            if entry.vpn in table:
                raise AddressError(f"{self.name}: VPN {entry.vpn:#x} already mapped")
            table[entry.vpn] = entry

    def remove(self, vpn: int) -> PageTableEntry:
        try:
            return self._entries.pop(vpn)
        except KeyError:
            raise AddressError(f"{self.name}: VPN {vpn:#x} not mapped") from None

    def lookup(self, vpn: int) -> Optional[PageTableEntry]:
        """A zero-cost functional lookup (walk cost is charged by walkers)."""
        return self._entries.get(vpn)

    def walk(self, vpn: int) -> Optional[PageTableEntry]:
        """A full walk: identical result to lookup, kept distinct so call
        sites document whether they paid walker latency."""
        return self._entries.get(vpn)

    def contains(self, vpn: int) -> bool:
        return vpn in self._entries

    def walk_depth(self, vpn: int) -> int:
        """Levels touched by a walk — always the full depth for mapped and
        unmapped pages alike (a miss is discovered at the leaf)."""
        return WALK_LEVELS

    def extra_leaf_lines(self, vpn: int, count: int) -> int:
        """Distinct additional leaf lines covering ``vpn+1 .. vpn+count``."""
        base_line = vpn // LEAF_LINE_SPAN
        last_line = (vpn + count) // LEAF_LINE_SPAN
        return last_line - base_line

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[PageTableEntry]:
        return iter(self._entries.values())


class LocalPageTable(_PageTableBase):
    """Per-GPM page table covering only locally resident pages."""

    def __init__(self, gpm_id: int) -> None:
        super().__init__(f"gpm{gpm_id}.page_table")
        self.gpm_id = gpm_id

    def insert_many(self, entries: Sequence[PageTableEntry]) -> None:
        gpm_id = self.gpm_id
        for entry in entries:
            if entry.owner_gpm != gpm_id:
                raise AddressError(
                    f"{self.name}: entry owned by GPM {entry.owner_gpm}, "
                    f"local table belongs to GPM {gpm_id}"
                )
        super().insert_many(entries)


class GlobalPageTable(_PageTableBase):
    """CPU-side page table covering all mappings in the system."""

    def __init__(self) -> None:
        super().__init__("iommu.page_table")

    def walk_range(self, vpn: int, count: int) -> List[PageTableEntry]:
        """Walk ``vpn`` and up to ``count`` sequential successors (proactive
        delivery); unmapped successors are skipped."""
        entries = []
        for candidate in range(vpn, vpn + count + 1):
            entry = self._entries.get(candidate)
            if entry is not None:
                entries.append(entry)
        return entries
