"""The bulk page install: same state as a per-entry install, loud refusals."""

import dataclasses

import pytest

from repro.config.hdpat import HDPATConfig
from repro.config.migration import MigrationConfig
from repro.config.presets import wafer_7x7_config
from repro.config.scaling import capacity_scaled
from repro.errors import AddressError, CapacityError
from repro.faults.plan import degradation_plan
from repro.mem.allocator import PageAllocator
from repro.mem.page import PageTableEntry
from repro.system.wafer import WaferScaleGPU
from repro.workloads import get_workload


def _install_per_entry(wafer, entries):
    """The install as one page at a time, the reference for the bulk path."""
    faults = wafer.faults
    for entry in entries:
        if faults is not None and not faults.gpm_alive(entry.owner_gpm):
            entry.owner_gpm = faults.remap_owner(entry.owner_gpm)
            faults.bump("remapped_pages")
        wafer.iommu.page_table.insert(entry)
        hierarchy = wafer.gpms[entry.owner_gpm].hierarchy
        hierarchy.page_table.insert(entry)
        assert hierarchy.cuckoo.insert(entry.vpn)


def _installed_state(wafer):
    filters = []
    for gpm in wafer.gpms:
        cuckoo = gpm.hierarchy.cuckoo
        filters.append((
            list(gpm.hierarchy.page_table._entries.items()),
            list(cuckoo._buckets.items()),
            cuckoo.size,
            cuckoo.insert_failures,
            # The memo is shared by every filter of this geometry; each
            # of this GPM's pages must have its entry there.
            [cuckoo._memo[vpn] for vpn in gpm.hierarchy.page_table._entries],
            cuckoo._rng.getstate(),
        ))
    return (
        list(wafer.iommu.page_table._entries.items()),
        filters,
        wafer.faults.counters.get("remapped_pages"),
    )


def test_bulk_install_equals_per_entry_install_on_a_degraded_wafer():
    scale, seed = 0.3, 42
    config = wafer_7x7_config().with_hdpat(HDPATConfig.full())
    config = dataclasses.replace(config, faults=degradation_plan(7, 7, seed, 0.1))
    config = capacity_scaled(config, scale)
    states = []
    for install in (WaferScaleGPU.install_entries, _install_per_entry):
        wafer = WaferScaleGPU(config)
        allocator = PageAllocator(wafer.address_space, wafer.num_gpms)
        get_workload("fft").generate(
            num_gpms=wafer.num_gpms, allocator=allocator, scale=scale, seed=seed,
        )
        for allocation in allocator.allocations:
            install(wafer, allocator.materialize(allocation))
        states.append(_installed_state(wafer))
    bulk, reference = states
    assert bulk[2] > 0  # the plan kills GPMs, so the remap path ran
    assert bulk == reference


def _tiny_filter_wafer(small_system_config, migration=False):
    gpm = dataclasses.replace(small_system_config.gpm, cuckoo_capacity=4)
    config = dataclasses.replace(small_system_config, gpm=gpm)
    if migration:
        config = config.with_migration(MigrationConfig(enabled=True))
    wafer = WaferScaleGPU(config)
    return wafer, PageAllocator(wafer.address_space, wafer.num_gpms)


def test_install_raises_when_a_filter_refuses_a_local_page(small_system_config):
    # A 4-fingerprint filter per GPM; 8 pages per GPM cannot all fit.
    wafer, allocator = _tiny_filter_wafer(small_system_config)
    entries = allocator.materialize(allocator.allocate_pages(8 * wafer.num_gpms))
    with pytest.raises(CapacityError, match=r"^gpm0: cuckoo filter refused 4 of 8"):
        wafer.install_entries(entries)


def test_migration_rehome_raises_when_the_filter_is_full(small_system_config):
    wafer, allocator = _tiny_filter_wafer(small_system_config, migration=True)
    allocation = allocator.allocate_pages(4 * wafer.num_gpms)  # fills every filter
    wafer.install_entries(allocator.materialize(allocation))
    vpn = next(v for v, owner in allocation.owner_of.items() if owner == 5)
    with pytest.raises(CapacityError, match=r"^gpm0: "):
        wafer.migration.migrate_pages([vpn], 0)


def test_duplicate_and_foreign_pages_are_rejected(small_system_config):
    wafer = WaferScaleGPU(small_system_config)
    hierarchy = wafer.gpms[0].hierarchy
    hierarchy.install_local_pages([PageTableEntry(1, 1, 0)])
    with pytest.raises(AddressError, match="already mapped"):
        hierarchy.install_local_pages([PageTableEntry(2, 2, 0), PageTableEntry(1, 3, 0)])
    with pytest.raises(AddressError, match="owned by GPM 1"):
        hierarchy.install_local_pages([PageTableEntry(4, 4, 1)])
    entry = PageTableEntry(5, 5, 0)
    wafer.install_entries([entry])
    with pytest.raises(AddressError, match="already mapped"):
        wafer.install_entries([entry])
