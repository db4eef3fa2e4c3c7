"""Translation-policy behaviour on small wafers."""

from dataclasses import replace

import pytest

from repro.config.hdpat import HDPATConfig, PeerCachingScheme
from repro.core.baselines.registry import sota_system_config
from repro.core.policy import (
    BaselinePolicy,
    ClusterRotationPolicy,
    ConcentricPolicy,
    DistributedPolicy,
    RouteCachePolicy,
    ValkyriePolicy,
    build_policy,
)
from repro.core.request import ServedBy
from repro.mem.allocator import PageAllocator
from repro.system.wafer import WaferScaleGPU


def _build(config, hdpat):
    wafer = WaferScaleGPU(config.with_hdpat(hdpat))
    allocator = PageAllocator(wafer.address_space, wafer.num_gpms)
    allocation = allocator.allocate_pages(wafer.num_gpms * 4)
    wafer.install_entries(allocator.materialize(allocation))
    return wafer, allocation


def _run_remote_access(wafer, allocation, gpm_id=0, owner=None):
    gpm = wafer.gpms[gpm_id]
    owner = owner if owner is not None else (gpm_id + 3) % wafer.num_gpms
    vpn = next(v for v, o in allocation.owner_of.items() if o == owner)
    gpm.load_trace([vpn * wafer.address_space.page_size])
    gpm.start()
    wafer.sim.run()
    return gpm, vpn


class TestBuildPolicy:
    def test_scheme_mapping(self):
        cases = {
            PeerCachingScheme.NONE: BaselinePolicy,
            PeerCachingScheme.ROUTE: RouteCachePolicy,
            PeerCachingScheme.CONCENTRIC: ConcentricPolicy,
            PeerCachingScheme.DISTRIBUTED: DistributedPolicy,
            PeerCachingScheme.CLUSTER_ROTATION: ClusterRotationPolicy,
            PeerCachingScheme.VALKYRIE: ValkyriePolicy,
        }
        for scheme, cls in cases.items():
            assert isinstance(
                build_policy(HDPATConfig(peer_caching=scheme)), cls
            )


class TestBaselinePolicy:
    def test_remote_goes_straight_to_iommu(self, wafer_5x5_config):
        wafer, allocation = _build(wafer_5x5_config, HDPATConfig())
        gpm, _ = _run_remote_access(wafer, allocation)
        assert wafer.iommu.stat("requests") == 1
        assert gpm.served_by_counts.get(ServedBy.IOMMU) == 1

    def test_no_push_targets(self, wafer_5x5_config):
        wafer, _ = _build(wafer_5x5_config, HDPATConfig())
        assert wafer.policy.push_targets(123) == []


class TestRoutePolicy:
    def test_intermediates_are_on_xy_path(self, wafer_5x5_config):
        wafer, _ = _build(
            wafer_5x5_config,
            HDPATConfig(peer_caching=PeerCachingScheme.ROUTE),
        )
        corner = wafer.gpms[wafer.gpm_id_at((0, 0))]
        chain = wafer.policy.chain_for(corner, 0)
        coords = [wafer.gpms[g].coordinate for g in chain]
        assert coords == [(1, 0), (2, 0), (2, 1)]

    def test_request_probes_then_reaches_iommu(self, wafer_5x5_config):
        wafer, allocation = _build(
            wafer_5x5_config,
            HDPATConfig(peer_caching=PeerCachingScheme.ROUTE),
        )
        gpm_id = wafer.gpm_id_at((0, 0))
        gpm, _ = _run_remote_access(wafer, allocation, gpm_id=gpm_id,
                                    owner=wafer.gpm_id_at((4, 4)))
        probes = sum(g.stat("peer_probes_served") for g in wafer.gpms)
        assert probes >= 1
        assert gpm.stat("accesses_completed") == 1

    def test_adjacent_to_cpu_has_empty_chain(self, wafer_5x5_config):
        wafer, _ = _build(
            wafer_5x5_config,
            HDPATConfig(peer_caching=PeerCachingScheme.ROUTE),
        )
        neighbor = wafer.gpms[wafer.gpm_id_at((1, 2))]
        assert wafer.policy.chain_for(neighbor, 0) == []


class TestConcentricPolicy:
    def test_chain_moves_inward(self, wafer_5x5_config):
        wafer, _ = _build(
            wafer_5x5_config,
            HDPATConfig(peer_caching=PeerCachingScheme.CONCENTRIC),
        )
        corner = wafer.gpms[wafer.gpm_id_at((0, 0))]
        chain = wafer.policy.chain_for(corner, 0)
        rings = [
            wafer.layout.ring_of(wafer.gpms[g].coordinate) for g in chain
        ]
        assert rings == [2, 1]

    def test_inner_gpm_probes_own_ring_only(self, wafer_5x5_config):
        wafer, _ = _build(
            wafer_5x5_config,
            HDPATConfig(peer_caching=PeerCachingScheme.CONCENTRIC),
        )
        inner = wafer.gpms[wafer.gpm_id_at((1, 1))]
        chain = wafer.policy.chain_for(inner, 0)
        assert len(chain) == 1
        assert wafer.layout.ring_of(wafer.gpms[chain[0]].coordinate) == 1


class TestDistributedPolicy:
    def test_group_sizes_match_concentric_setup(self, wafer_5x5_config):
        wafer, _ = _build(
            wafer_5x5_config,
            HDPATConfig(peer_caching=PeerCachingScheme.DISTRIBUTED),
        )
        groups = wafer.policy._groups
        total = wafer.layout.caching_gpm_count()
        assert len(groups[0]) == len(groups[1]) == total // 2

    def test_single_probe_in_own_group(self, wafer_5x5_config):
        wafer, _ = _build(
            wafer_5x5_config,
            HDPATConfig(peer_caching=PeerCachingScheme.DISTRIBUTED),
        )
        left = wafer.gpms[wafer.gpm_id_at((0, 2))]
        chain = wafer.policy.chain_for(left, 0)
        assert len(chain) == 1
        peer_coord = wafer.gpms[chain[0]].coordinate
        assert peer_coord[0] < wafer.topology.cpu_coordinate[0] or (
            peer_coord[0] == wafer.topology.cpu_coordinate[0]
        )


class TestClusterRotationPolicy:
    def test_holders_one_per_layer(self, wafer_5x5_config):
        wafer, _ = _build(
            wafer_5x5_config,
            HDPATConfig(peer_caching=PeerCachingScheme.CLUSTER_ROTATION),
        )
        corner_coord = (0, 0)
        holders = wafer.policy.holders_for(corner_coord, vpn=77)
        assert [ring for ring, _gpm in holders] == [1, 2]

    def test_push_targets_match_holders(self, wafer_5x5_config):
        wafer, _ = _build(
            wafer_5x5_config,
            HDPATConfig(peer_caching=PeerCachingScheme.CLUSTER_ROTATION),
        )
        targets = wafer.policy.push_targets(77)
        holders = [g for _ring, g in wafer.policy.holders_for((0, 0), 77)]
        assert targets == holders

    def test_peer_hit_after_pushes(self, wafer_5x5_config):
        hdpat = HDPATConfig(
            peer_caching=PeerCachingScheme.CLUSTER_ROTATION, push_threshold=1
        )
        wafer, allocation = _build(wafer_5x5_config, hdpat)
        owner = wafer.gpm_id_at((4, 4))
        vpn = next(v for v, o in allocation.owner_of.items() if o == owner)
        # First requester triggers walk + push; a later requester whose
        # holder now caches the PTE is served by a peer.
        first = wafer.gpms[wafer.gpm_id_at((0, 0))]
        first.load_trace([vpn * wafer.address_space.page_size])
        first.start()
        wafer.sim.run()
        second = wafer.gpms[wafer.gpm_id_at((0, 4))]
        second.load_trace([vpn * wafer.address_space.page_size])
        second.start()
        wafer.sim.run()
        assert second.served_by_counts.get(ServedBy.PEER, 0) == 1
        assert wafer.iommu.stat("walks") == 1

    def test_holder_requester_forwards_directly(self, wafer_5x5_config):
        hdpat = HDPATConfig(peer_caching=PeerCachingScheme.CLUSTER_ROTATION)
        wafer, allocation = _build(wafer_5x5_config, hdpat)
        # Find a VPN whose ring-1 holder is a GPM, use that GPM as the
        # requester — it must not probe itself.
        inner_map = wafer.policy.cluster_maps[1]
        vpn = next(
            v for v in allocation.owner_of
            if allocation.owner_of[v]
            != wafer.gpm_id_at(inner_map.holder_of(v).coordinate)
        )
        holder_id = wafer.gpm_id_at(inner_map.holder_of(vpn).coordinate)
        gpm = wafer.gpms[holder_id]
        gpm.load_trace([vpn * wafer.address_space.page_size])
        gpm.start()
        wafer.sim.run()
        assert gpm.stat("peer_probes_served") == 0
        assert gpm.stat("accesses_completed") == 1


VALKYRIE = HDPATConfig(peer_caching=PeerCachingScheme.VALKYRIE)


class TestSOTAPolicies:
    def test_transfw_overrides_walk_latency(self, wafer_5x5_config):
        wafer = WaferScaleGPU(sota_system_config("transfw", wafer_5x5_config))
        assert wafer.iommu.config.walk_latency == 450
        assert isinstance(wafer.policy, BaselinePolicy)

    def test_valkyrie_probes_neighbor_l2(self, wafer_5x5_config):
        config = sota_system_config("valkyrie", wafer_5x5_config)
        assert config.hdpat == VALKYRIE
        wafer, allocation = _build(wafer_5x5_config, VALKYRIE)
        assert isinstance(wafer.policy, ValkyriePolicy)
        gpm, vpn = _run_remote_access(wafer, allocation)
        neighbor_id = wafer.policy._neighbor_of[gpm.gpm_id]
        neighbor = wafer.gpms[neighbor_id]
        assert neighbor.hierarchy.l2.accesses >= 1
        assert gpm.stat("accesses_completed") == 1

    def test_valkyrie_neighbor_hit_short_circuits(self, wafer_5x5_config):
        wafer, allocation = _build(wafer_5x5_config, VALKYRIE)
        gpm = wafer.gpms[0]
        neighbor = wafer.gpms[wafer.policy._neighbor_of[0]]
        vpn = next(
            v for v, o in allocation.owner_of.items()
            if o not in (0, neighbor.gpm_id)
        )
        entry = wafer.iommu.page_table.walk(vpn)
        neighbor.hierarchy.l2.insert(vpn, entry)
        gpm.load_trace([vpn * wafer.address_space.page_size])
        gpm.start()
        wafer.sim.run()
        assert wafer.iommu.stat("requests") == 0
        assert gpm.served_by_counts.get(ServedBy.PEER) == 1

    def test_barre_is_baseline_plus_revisit(self, wafer_5x5_config):
        config = sota_system_config("barre", wafer_5x5_config).hdpat
        assert config.pw_queue_revisit
        assert not config.peer_caching_enabled
        assert not config.use_redirection
        assert config.prefetch_degree == 1
