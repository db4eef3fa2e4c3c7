"""Page-migration extension tests."""

from dataclasses import replace

import pytest

from repro.config.migration import MigrationConfig
from repro.errors import ConfigurationError
from repro.mem.allocator import PageAllocator
from repro.system.wafer import WaferScaleGPU


def _build(small_system_config, **migration_overrides):
    settings = dict(enabled=True, threshold=2, cooldown_cycles=1000)
    settings.update(migration_overrides)
    migration = MigrationConfig(**settings)
    wafer = WaferScaleGPU(small_system_config.with_migration(migration))
    allocator = PageAllocator(wafer.address_space, wafer.num_gpms)
    allocation = allocator.allocate_pages(32)
    wafer.install_entries(allocator.materialize(allocation))
    return wafer, allocation


def _remote_vpn(wafer, allocation, requester=0, owner=5):
    return next(v for v, o in allocation.owner_of.items() if o == owner)


class TestConfig:
    def test_disabled_by_default(self, small_system_config):
        wafer = WaferScaleGPU(small_system_config)
        assert wafer.migration is None

    def test_invalid_values(self):
        with pytest.raises(ConfigurationError):
            MigrationConfig(threshold=0)
        with pytest.raises(ConfigurationError):
            MigrationConfig(table_entries=0)


class TestMigrationTrigger:
    def _run_repeats(self, wafer, allocation, vpn, repeats, gpm_id=0):
        gpm = wafer.gpms[gpm_id]
        # Spaced repeats so each access misses locally, reaches the IOMMU,
        # and completes before the next issues... except once migrated,
        # later accesses resolve locally.
        page = wafer.address_space.page_size
        gpm.load_trace([vpn * page] * repeats, burst=1, interval=30_000)
        gpm.start()
        wafer.sim.run()
        return gpm

    def test_hot_page_migrates_to_requester(self, small_system_config):
        wafer, allocation = _build(small_system_config)
        vpn = _remote_vpn(wafer, allocation)
        # Defeat the requester's own TLB reuse so every access walks:
        # invalidate L1/L2 after each access via spaced single accesses
        # isn't enough (fills persist), so drive the IOMMU directly.
        from repro.core.request import TranslationRequest

        requester = wafer.gpms[0]
        for _ in range(2):
            wafer.iommu.receive_request(
                TranslationRequest(vpn, 0, requester.coordinate)
            )
            wafer.sim.run()
        assert wafer.migration.migration_stats.migrations == 1
        entry = wafer.iommu.page_table.lookup(vpn)
        assert entry.owner_gpm == 0
        assert requester.hierarchy.page_table.contains(vpn)

    def test_old_home_loses_the_page(self, small_system_config):
        wafer, allocation = _build(small_system_config)
        vpn = _remote_vpn(wafer, allocation, owner=5)
        from repro.core.request import TranslationRequest

        for _ in range(2):
            wafer.iommu.receive_request(
                TranslationRequest(vpn, 0, wafer.gpms[0].coordinate)
            )
            wafer.sim.run()
        assert not wafer.gpms[5].hierarchy.page_table.contains(vpn)
        assert not wafer.gpms[5].hierarchy.cuckoo.contains(vpn)

    def test_owner_walks_do_not_count(self, small_system_config):
        wafer, allocation = _build(small_system_config)
        vpn = _remote_vpn(wafer, allocation, owner=5)
        from repro.core.request import TranslationRequest

        for _ in range(4):
            wafer.iommu.receive_request(
                TranslationRequest(vpn, 5, wafer.gpms[5].coordinate)
            )
            wafer.sim.run()
        assert wafer.migration.migration_stats.migrations == 0

    def test_cooldown_blocks_pingpong(self, small_system_config):
        wafer, allocation = _build(small_system_config,
                                   cooldown_cycles=10**9)
        vpn = _remote_vpn(wafer, allocation, owner=5)
        from repro.core.request import TranslationRequest

        # GPM 0 earns the page...
        for _ in range(2):
            wafer.iommu.receive_request(
                TranslationRequest(vpn, 0, wafer.gpms[0].coordinate)
            )
            wafer.sim.run()
        # ...then GPM 1 hammers it; cooldown must prevent a second move.
        for _ in range(4):
            wafer.iommu.receive_request(
                TranslationRequest(vpn, 1, wafer.gpms[1].coordinate)
            )
            wafer.sim.run()
        assert wafer.migration.migration_stats.migrations == 1
        assert wafer.migration.migration_stats.rejected_cooldown >= 1

    def test_tracking_table_bounded(self, small_system_config):
        wafer, allocation = _build(small_system_config, table_entries=4)
        from repro.core.request import TranslationRequest

        for vpn in list(allocation.vpns())[:10]:
            if allocation.owner_of[vpn] == 0:
                continue
            wafer.iommu.receive_request(
                TranslationRequest(vpn, 0, wafer.gpms[0].coordinate)
            )
        wafer.sim.run()
        assert wafer.migration.tracked_pages() <= 4

    def test_migration_traffic_accounted(self, small_system_config):
        wafer, allocation = _build(small_system_config)
        vpn = _remote_vpn(wafer, allocation)
        from repro.core.request import TranslationRequest
        from repro.noc.messages import MessageKind

        for _ in range(2):
            wafer.iommu.receive_request(
                TranslationRequest(vpn, 0, wafer.gpms[0].coordinate)
            )
            wafer.sim.run()
        report = wafer.network.traffic_report()
        assert report["page_migration"]["messages"] == 1
        assert wafer.migration.migration_stats.bytes_moved == 4096

    def test_post_migration_access_is_local(self, small_system_config):
        wafer, allocation = _build(small_system_config)
        vpn = _remote_vpn(wafer, allocation)
        from repro.core.request import TranslationRequest

        for _ in range(2):
            wafer.iommu.receive_request(
                TranslationRequest(vpn, 0, wafer.gpms[0].coordinate)
            )
            wafer.sim.run()
        gpm = wafer.gpms[0]
        gpm.load_trace([vpn * wafer.address_space.page_size])
        gpm.start()
        wafer.sim.run()
        from repro.core.request import ServedBy

        assert gpm.served_by_counts.get(ServedBy.LOCAL_WALK) == 1
        assert wafer.iommu.stat("requests") == 2  # no third remote trip
