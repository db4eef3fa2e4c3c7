"""Virtual-address arithmetic.

The simulator works in virtual page numbers (VPNs).  An
:class:`AddressSpace` fixes the page size and provides the conversions; the
page-size sensitivity study (Fig. 20) swaps the page size here and nothing
else changes.
"""

from __future__ import annotations

from repro.errors import AddressError

PAGE_SIZE_4K = 4 * 1024
PAGE_SIZE_16K = 16 * 1024
PAGE_SIZE_64K = 64 * 1024
PAGE_SIZE_2M = 2 * 1024 * 1024

_SUPPORTED_PAGE_SIZES = (PAGE_SIZE_4K, PAGE_SIZE_16K, PAGE_SIZE_64K, PAGE_SIZE_2M)


class AddressSpace:
    """Page-size-aware address arithmetic for one simulated process."""

    def __init__(self, page_size: int = PAGE_SIZE_4K) -> None:
        if page_size not in _SUPPORTED_PAGE_SIZES:
            raise AddressError(
                f"unsupported page size {page_size}; "
                f"supported: {_SUPPORTED_PAGE_SIZES}"
            )
        self.page_size = page_size
        self.page_shift = page_size.bit_length() - 1
        self.offset_mask = page_size - 1

    def vpn_of(self, vaddr: int) -> int:
        if vaddr < 0:
            raise AddressError(f"negative virtual address {vaddr:#x}")
        return vaddr >> self.page_shift

    def offset_of(self, vaddr: int) -> int:
        return vaddr & self.offset_mask

    def base_of(self, vpn: int) -> int:
        return vpn << self.page_shift

    def pages_for_bytes(self, num_bytes: int) -> int:
        """Pages needed to hold ``num_bytes`` (ceiling)."""
        if num_bytes < 0:
            raise AddressError(f"negative allocation size {num_bytes}")
        return -(-num_bytes // self.page_size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AddressSpace(page_size={self.page_size})"
