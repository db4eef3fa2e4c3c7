"""Tests for the set-associative TLB and the IOMMU TLB variant's MSHRs."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.gpm import TLBConfig
from repro.core.request import TranslationRequest
from repro.errors import ConfigurationError
from repro.mem.allocator import PageAllocator
from repro.system.wafer import WaferScaleGPU
from repro.tlb.tlb import SetAssociativeTLB


class TestTLBBasics:
    def test_miss_then_hit(self):
        tlb = SetAssociativeTLB("t", 4, 2)
        assert tlb.lookup(5) is None
        tlb.insert(5, "entry")
        assert tlb.lookup(5) == "entry"
        assert tlb.hits == 1 and tlb.misses == 1

    def test_lru_eviction_within_set(self):
        tlb = SetAssociativeTLB("t", 1, 2)
        tlb.insert(1, "a")
        tlb.insert(2, "b")
        tlb.lookup(1)  # refresh 1; 2 becomes LRU
        evicted = tlb.insert(3, "c")
        assert evicted == (2, "b")
        assert tlb.lookup(1) == "a"
        assert tlb.lookup(2) is None

    def test_insert_existing_updates_without_eviction(self):
        tlb = SetAssociativeTLB("t", 1, 2)
        tlb.insert(1, "a")
        tlb.insert(2, "b")
        assert tlb.insert(1, "a2") is None
        assert tlb.peek(1) == "a2"

    def test_set_indexing_isolates_sets(self):
        tlb = SetAssociativeTLB("t", 4, 1)
        tlb.insert(0, "s0")
        tlb.insert(1, "s1")
        assert tlb.peek(0) == "s0" and tlb.peek(1) == "s1"

    def test_peek_does_not_touch_lru_or_stats(self):
        tlb = SetAssociativeTLB("t", 1, 2)
        tlb.insert(1, "a")
        tlb.insert(2, "b")
        tlb.peek(1)  # must NOT refresh 1
        evicted = tlb.insert(3, "c")
        assert evicted == (1, "a")
        assert tlb.hits == 0 and tlb.misses == 0

    def test_invalidate(self):
        tlb = SetAssociativeTLB("t", 2, 2)
        tlb.insert(4, "x")
        assert tlb.invalidate(4)
        assert not tlb.invalidate(4)
        assert tlb.lookup(4) is None

    def test_flush(self):
        tlb = SetAssociativeTLB("t", 2, 2)
        for vpn in range(4):
            tlb.insert(vpn, vpn)
        assert tlb.flush() == 4
        assert tlb.occupancy == 0

    def test_capacity_and_occupancy(self):
        tlb = SetAssociativeTLB("t", 4, 4)
        assert tlb.capacity == 16
        for vpn in range(10):
            tlb.insert(vpn, vpn)
        assert tlb.occupancy == 10

    def test_hit_rate(self):
        tlb = SetAssociativeTLB("t", 2, 2)
        tlb.insert(1, "a")
        tlb.lookup(1)
        tlb.lookup(9)
        assert tlb.hit_rate() == pytest.approx(0.5)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeTLB("t", 0, 4)


class TestTLBProperties:
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, vpns):
        tlb = SetAssociativeTLB("t", 4, 4)
        for vpn in vpns:
            tlb.insert(vpn, vpn)
        assert tlb.occupancy <= tlb.capacity
        for set_ in tlb._sets:
            assert len(set_) <= tlb.num_ways

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_inserted_payload_is_returned_until_evicted(self, vpns):
        tlb = SetAssociativeTLB("t", 8, 4)
        for vpn in vpns:
            tlb.insert(vpn, ("payload", vpn))
        # Whatever survives must map to its own payload.
        for set_ in tlb._sets:
            for vpn, payload in set_.items():
                assert payload == ("payload", vpn)


def _tlb_iommu(config, num_mshrs):
    """A wafer whose IOMMU runs the Figure 19 TLB variant with
    ``num_mshrs`` MSHRs, 64 installed pages, and a log of answered VPNs."""
    iommu = replace(
        config.iommu, iommu_tlb=TLBConfig(8, 8, num_mshrs, latency=2)
    )
    wafer = WaferScaleGPU(config.with_iommu(iommu))
    allocator = PageAllocator(wafer.address_space, wafer.num_gpms)
    allocation = allocator.allocate_pages(64)
    wafer.install_entries(allocator.materialize(allocation))
    answered = []
    respond = wafer.iommu.respond

    def logged_respond(request, entry, served_by, extras=None):
        answered.append(request.vpn)
        respond(request, entry, served_by, extras)

    wafer.iommu.respond = logged_respond
    return wafer, allocation.base_vpn, answered


def _send(wafer, *vpns):
    gpm = wafer.gpms[0]
    for vpn in vpns:
        wafer.iommu.receive_request(
            TranslationRequest(vpn, gpm.gpm_id, gpm.coordinate)
        )


class TestMSHR:
    """The IOMMU TLB variant's MSHRs: one per in-flight VPN."""

    def test_allocate_until_full(self, small_system_config):
        wafer, base, _ = _tlb_iommu(small_system_config, 2)
        _send(wafer, base, base + 1, base + 2)
        assert wafer.iommu.stat("tlb_mshr_blocked") == 1
        assert sorted(wafer.iommu._tlb_waiters) == [base, base + 1]

    def test_merge_same_vpn_even_when_full(self, small_system_config):
        wafer, base, _ = _tlb_iommu(small_system_config, 1)
        _send(wafer, base, base)
        # The second request merges: it takes no MSHR and is not blocked.
        assert wafer.iommu.stat("tlb_mshr_blocked") == 0
        assert list(wafer.iommu._tlb_waiters) == [base]
        assert len(wafer.iommu._tlb_waiters[base]) == 1

    def test_release_returns_merged_count(self, small_system_config):
        wafer, base, answered = _tlb_iommu(small_system_config, 2)
        _send(wafer, base, base)
        wafer.sim.run()
        assert wafer.iommu.stat("walks") == 1
        assert answered == [base, base]
        assert not wafer.iommu._tlb_waiters

    def test_release_frees_register(self, small_system_config):
        wafer, base, answered = _tlb_iommu(small_system_config, 1)
        _send(wafer, base, base + 1)
        assert wafer.iommu.stat("tlb_mshr_blocked") == 1
        wafer.sim.run()
        assert wafer.iommu.stat("walks") == 2
        assert sorted(answered) == [base, base + 1]
        assert not wafer.iommu._tlb_blocked

    def test_outstanding_listing(self, small_system_config):
        wafer, base, _ = _tlb_iommu(small_system_config, 4)
        _send(wafer, base + 1, base + 9, base + 1)
        assert sorted(wafer.iommu._tlb_waiters) == [base + 1, base + 9]

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            TLBConfig(8, 8, 0, latency=2)
