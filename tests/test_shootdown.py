"""TLB shootdown tests: correctness of wafer-wide invalidation."""

import pytest

from repro.mem.allocator import PageAllocator
from repro.mem.page import PageTableEntry
from repro.system.shootdown import shootdown
from repro.system.wafer import WaferScaleGPU


@pytest.fixture
def loaded_wafer(small_system_config):
    wafer = WaferScaleGPU(small_system_config)
    allocator = PageAllocator(wafer.address_space, wafer.num_gpms)
    allocation = allocator.allocate_pages(16)
    wafer.install_entries(allocator.materialize(allocation))
    return wafer, allocation


class TestShootdownCorrectness:
    def test_global_page_table_unmapped(self, loaded_wafer):
        wafer, allocation = loaded_wafer
        vpns = list(allocation.vpns())
        shootdown(wafer, vpns)
        wafer.sim.run()
        for vpn in vpns:
            assert wafer.iommu.page_table.lookup(vpn) is None

    def test_owner_local_tables_unmapped(self, loaded_wafer):
        wafer, allocation = loaded_wafer
        shootdown(wafer, allocation.vpns())
        wafer.sim.run()
        for gpm in wafer.gpms:
            assert len(gpm.hierarchy.page_table) == 0

    def test_cached_copies_scrubbed_everywhere(self, loaded_wafer):
        wafer, allocation = loaded_wafer
        vpn = allocation.base_vpn
        entry = wafer.iommu.page_table.lookup(vpn)
        # Spread stale copies around the wafer.
        for gpm in wafer.gpms[:4]:
            gpm.hierarchy.install_cached_remote(entry.copy_for_push())
            gpm.hierarchy.fill_from_translation(vpn, entry)
        stats = shootdown(wafer, [vpn])
        wafer.sim.run()
        assert stats.stale_entries_scrubbed > 0
        for gpm in wafer.gpms:
            assert gpm.hierarchy.l2.peek(vpn) is None
            assert gpm.hierarchy.llt.peek(vpn) is None
            assert not gpm.hierarchy.cuckoo.contains(vpn)

    def test_redirection_entries_invalidated(self, loaded_wafer):
        wafer, allocation = loaded_wafer
        vpn = allocation.base_vpn
        # Forge redirection state if the table exists (baseline has none).
        if wafer.iommu.redirection is not None:
            wafer.iommu.redirection.update(vpn, 1)
        shootdown(wafer, [vpn])
        wafer.sim.run()
        if wafer.iommu.redirection is not None:
            assert vpn not in wafer.iommu.redirection

    def test_unmapped_vpn_is_a_noop(self, loaded_wafer):
        wafer, _ = loaded_wafer
        stats = shootdown(wafer, [999_999])
        wafer.sim.run()
        assert stats.vpns_invalidated == 1

    def test_latency_covers_farthest_round_trip(self, loaded_wafer):
        wafer, allocation = loaded_wafer
        done_at = []
        shootdown(wafer, [allocation.base_vpn], on_complete=done_at.append)
        wafer.sim.run()
        farthest = max(
            wafer.topology.manhattan(wafer.topology.cpu_coordinate, g.coordinate)
            for g in wafer.gpms
        )
        assert done_at and done_at[0] >= 2 * farthest * wafer.config.noc.link_latency

    def test_stats_accumulate_across_shootdowns(self, loaded_wafer):
        wafer, allocation = loaded_wafer
        vpns = list(allocation.vpns())
        shootdown(wafer, vpns[:4])
        wafer.sim.run()
        shootdown(wafer, vpns[4:8])
        wafer.sim.run()
        assert wafer.shootdown_stats.shootdowns == 2
        assert wafer.shootdown_stats.vpns_invalidated == 8
        assert wafer.shootdown_stats.mean_latency() > 0


class TestPostShootdownBehaviour:
    def test_freed_page_truly_gone_then_remappable(self, loaded_wafer):
        wafer, allocation = loaded_wafer
        vpn = allocation.base_vpn
        owner = allocation.owner_of[vpn]
        shootdown(wafer, [vpn])
        wafer.sim.run()
        # Remap the VPN to a different frame/owner — no duplicate errors.
        new_owner = (owner + 1) % wafer.num_gpms
        entry = PageTableEntry(vpn=vpn, pfn=123, owner_gpm=new_owner)
        wafer.iommu.page_table.insert(entry)
        wafer.gpms[new_owner].hierarchy.install_local_pages([entry])
        assert wafer.iommu.page_table.lookup(vpn).owner_gpm == new_owner
