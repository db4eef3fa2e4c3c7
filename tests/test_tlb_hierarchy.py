"""Tests for the per-GPM translation hierarchy."""

import pytest

from repro.mem.page import PageTableEntry
from repro.tlb.hierarchy import ProbeOutcome, TranslationHierarchy


@pytest.fixture
def hierarchy(tiny_gpm_config):
    return TranslationHierarchy(gpm_id=0, config=tiny_gpm_config)


def _local_entry(vpn, gpm=0):
    return PageTableEntry(vpn=vpn, pfn=vpn + 100, owner_gpm=gpm)


class TestLocalProbe:
    def test_unknown_vpn_is_filter_negative(self, hierarchy, tiny_gpm_config):
        result = hierarchy.probe_local(999)
        assert result.outcome is ProbeOutcome.FILTER_NEGATIVE
        expected_latency = (
            tiny_gpm_config.l1_vector_tlb.latency
            + tiny_gpm_config.l2_tlb.latency
            + tiny_gpm_config.cuckoo_latency
        )
        assert result.latency == expected_latency

    def test_local_page_needs_walk_first_time(self, hierarchy):
        hierarchy.install_local_pages([_local_entry(7)])
        result = hierarchy.probe_local(7)
        assert result.outcome is ProbeOutcome.NEEDS_WALK
        assert result.entry is None

    def test_walk_completion_fills_caches(self, hierarchy):
        hierarchy.install_local_pages([_local_entry(7)])
        assert hierarchy.complete_local_walk(7) is not None
        assert hierarchy.probe_local(7).outcome is ProbeOutcome.L1_HIT

    def test_l2_hit_after_l1_eviction(self, hierarchy, tiny_gpm_config):
        hierarchy.install_local_pages([_local_entry(7)])
        hierarchy.complete_local_walk(7)
        # Evict vpn 7 from the (1-set) L1 by filling it with other entries.
        for vpn in range(100, 100 + tiny_gpm_config.l1_vector_tlb.num_ways):
            hierarchy.l1_vector.insert(vpn, "filler")
        result = hierarchy.probe_local(7)
        assert result.outcome is ProbeOutcome.L2_HIT

    def test_false_positive_walk_returns_none(self, hierarchy):
        # Force a filter positive for a non-local page.
        hierarchy.cuckoo.insert(555)
        result = hierarchy.probe_local(555)
        assert result.outcome is ProbeOutcome.NEEDS_WALK
        assert hierarchy.complete_local_walk(555) is None
        assert hierarchy.false_positives == 1

    def test_latency_accumulates_through_levels(self, hierarchy, tiny_gpm_config):
        hierarchy.install_local_pages([_local_entry(7)])
        result = hierarchy.probe_local(7)  # reaches the LLT stage
        expected = (
            tiny_gpm_config.l1_vector_tlb.latency
            + tiny_gpm_config.l2_tlb.latency
            + tiny_gpm_config.cuckoo_latency
            + tiny_gpm_config.gmmu_cache.latency
        )
        assert result.latency == expected


class TestRemoteProbe:
    def test_miss_is_filter_negative(self, hierarchy):
        result = hierarchy.probe_remote(123)
        assert result.outcome is ProbeOutcome.FILTER_NEGATIVE
        assert result.entry is None

    def test_cached_remote_entry_hits(self, hierarchy):
        remote = PageTableEntry(vpn=50, pfn=1, owner_gpm=3)
        assert hierarchy.install_cached_remote(remote)
        result = hierarchy.probe_remote(50)
        assert result.outcome is ProbeOutcome.LLT_HIT
        assert result.entry.owner_gpm == 3

    def test_local_page_positive_but_needs_walk(self, hierarchy):
        hierarchy.install_local_pages([_local_entry(7)])
        result = hierarchy.probe_remote(7)
        assert result.outcome is ProbeOutcome.NEEDS_WALK


class TestCachedRemoteConsistency:
    def test_eviction_removes_filter_entry(self, hierarchy, tiny_gpm_config):
        capacity = tiny_gpm_config.gmmu_cache.capacity
        # Fill far past LLT capacity with remote entries mapping to all sets.
        for vpn in range(capacity * 3):
            hierarchy.install_cached_remote(
                PageTableEntry(vpn=vpn + 1000, pfn=vpn, owner_gpm=5)
            )
        # The filter must track exactly the LLT-resident remote set: every
        # resident VPN still positive...
        resident = [
            vpn for set_ in hierarchy.llt._sets for vpn in set_
        ]
        for vpn in resident:
            assert hierarchy.cuckoo.contains(vpn)
        # ...and the filter is not bloated with all 3x capacity inserts.
        assert hierarchy.cuckoo.size <= capacity * 2

    def test_local_pages_stay_in_filter_after_llt_eviction(
        self, hierarchy, tiny_gpm_config
    ):
        hierarchy.install_local_pages([_local_entry(7)])
        hierarchy.complete_local_walk(7)  # now resident in LLT
        for vpn in range(tiny_gpm_config.gmmu_cache.capacity * 2):
            hierarchy.install_cached_remote(
                PageTableEntry(vpn=vpn + 1000, pfn=vpn, owner_gpm=5)
            )
        # Even if evicted from the LLT, the local page is walkable again.
        assert hierarchy.cuckoo.contains(7)

    def test_reinstall_same_vpn_keeps_one_filter_copy(self, hierarchy):
        remote = PageTableEntry(vpn=50, pfn=1, owner_gpm=3)
        hierarchy.install_cached_remote(remote)
        size_before = hierarchy.cuckoo.size
        hierarchy.install_cached_remote(remote.copy_for_push())
        assert hierarchy.cuckoo.size == size_before

    def test_fill_from_translation_populates_l1_and_l2(self, hierarchy):
        entry = PageTableEntry(vpn=9, pfn=1, owner_gpm=2)
        hierarchy.fill_from_translation(9, entry)
        assert hierarchy.l1_vector.peek(9) is entry
        assert hierarchy.l2.peek(9) is entry
