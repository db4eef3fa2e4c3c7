"""The HDPAT redirection table (§IV-F).

A lightweight LRU map from recently translated or prefetched VPNs to the
auxiliary GPM now holding the PTE.  Compared with an IOMMU-side TLB it
stores no physical address (twice the entries per unit area) and needs no
MSHRs — a miss simply falls through to the PW-queue, so concurrency is
never throttled by miss-tracking state.
"""

from __future__ import annotations

from typing import Dict, Optional


class RedirectionTable:
    """LRU table: VPN -> auxiliary GPM id."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, vpn: int) -> Optional[int]:
        """Return the GPM id holding ``vpn``'s PTE, refreshing LRU."""
        gpm = self._entries.pop(vpn, None)
        if gpm is None:
            self.misses += 1
            return None
        self._entries[vpn] = gpm
        self.hits += 1
        return gpm

    def update(self, vpn: int, gpm_id: int) -> None:
        """Record that ``vpn``'s PTE was just delivered to ``gpm_id``."""
        self._entries.pop(vpn, None)
        if len(self._entries) >= self.capacity:
            self._entries.pop(next(iter(self._entries)))
            self.evictions += 1
        self._entries[vpn] = gpm_id

    def invalidate(self, vpn: int) -> bool:
        return self._entries.pop(vpn, None) is not None

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._entries
