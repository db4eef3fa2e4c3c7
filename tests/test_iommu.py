"""IOMMU behaviour: queueing stages, revisit, redirection, prefetch, TLB
variant.  Driven through a real small wafer with hand-crafted requests."""

from dataclasses import replace

import pytest

from repro.config.gpm import TLBConfig
from repro.config.hdpat import HDPATConfig, PeerCachingScheme
from repro.core.request import ServedBy, TranslationRequest
from repro.iommu.redirection import RedirectionTable
from repro.mem.allocator import PageAllocator
from repro.system.wafer import WaferScaleGPU


def _build(config, hdpat=None):
    if hdpat is not None:
        config = config.with_hdpat(hdpat)
    wafer = WaferScaleGPU(config)
    allocator = PageAllocator(wafer.address_space, wafer.num_gpms)
    allocation = allocator.allocate_pages(64)
    wafer.install_entries(allocator.materialize(allocation))
    return wafer, allocation


def _request(wafer, vpn, gpm_id=0):
    gpm = wafer.gpms[gpm_id]
    return TranslationRequest(
        vpn=vpn,
        requester_gpm=gpm_id,
        requester_coord=gpm.coordinate,
    )


class TestQueueStages:
    def test_single_walk_latency(self, small_system_config):
        wafer, allocation = _build(small_system_config)
        vpn = allocation.base_vpn
        wafer.iommu.receive_request(_request(wafer, vpn))
        wafer.sim.run()
        assert wafer.iommu.stat("walks") == 1
        assert wafer.iommu.breakdown.mean("ptw") == small_system_config.iommu.walk_latency

    def test_pre_queue_fills_when_pw_queue_full(self, small_system_config):
        wafer, allocation = _build(small_system_config)
        iommu = wafer.iommu
        total = (
            small_system_config.iommu.pw_queue_capacity
            + small_system_config.iommu.num_walkers
            + 10
        )
        for index in range(total):
            iommu.receive_request(_request(wafer, allocation.base_vpn + index % 64))
        assert len(iommu.front) > 0
        assert iommu.buffer_pressure() > small_system_config.iommu.pw_queue_capacity
        wafer.sim.run()
        assert iommu.stat("walks") == total

    def test_pre_queue_overflow_keeps_arrival_order(self, small_system_config):
        # More arrivals at cycle 0 than the PW-queue, the walkers and a
        # 256-deep pre-queue hold together: the backlog past that depth
        # must still be walked (or coalesced) once each, in arrival order.
        hdpat = HDPATConfig(pw_queue_revisit=True)
        wafer, allocation = _build(small_system_config, hdpat)
        iommu = wafer.iommu
        config = small_system_config.iommu
        total = config.pw_queue_capacity + config.num_walkers + 256 + 40
        requests = [
            _request(wafer, allocation.base_vpn + index % 64)
            for index in range(total)
        ]
        arrival = {request.request_id: index for index, request in enumerate(requests)}
        walked, answered = [], []
        walk_done, respond = iommu._walk_done, iommu.respond

        def record_walk(request, *rest):
            walked.append(request.request_id)
            return walk_done(request, *rest)

        def record_response(request, *rest, **kwargs):
            answered.append(request.request_id)
            return respond(request, *rest, **kwargs)

        iommu._walk_done, iommu.respond = record_walk, record_response
        for request in requests:
            iommu.receive_request(request)
        assert iommu.buffer_pressure() == total - config.num_walkers
        wafer.sim.run()
        assert sorted(answered) == sorted(arrival)
        assert len(set(walked)) == len(walked) == iommu.stat("walks")
        assert iommu.stat("walks") + iommu.stat("coalesced") == total
        order = [arrival[request_id] for request_id in walked]
        assert order == sorted(order)
        assert iommu.buffer_pressure() == 0

    def test_latency_breakdown_separates_stages(self, small_system_config):
        wafer, allocation = _build(small_system_config)
        for index in range(30):
            wafer.iommu.receive_request(
                _request(wafer, allocation.base_vpn + index % 64)
            )
        wafer.sim.run()
        breakdown = wafer.iommu.breakdown
        assert breakdown.mean("ptw_queue") > 0
        assert breakdown.mean("ptw") == small_system_config.iommu.walk_latency

    def test_every_request_answered(self, small_system_config):
        wafer, allocation = _build(small_system_config)
        answered = []
        original = wafer.gpms[0].remote_translation_complete
        wafer.gpms[0].remote_translation_complete = (
            lambda vpn, entry, served: answered.append(vpn) or original(vpn, entry, served)
        )
        for index in range(20):
            wafer.iommu.receive_request(_request(wafer, allocation.base_vpn + index))
        wafer.sim.run()
        assert len(answered) == 20


class TestRevisit:
    def test_identical_pending_requests_coalesce(self, small_system_config):
        hdpat = HDPATConfig(pw_queue_revisit=True)
        wafer, allocation = _build(small_system_config, hdpat)
        vpn = allocation.base_vpn
        # More identical requests than walkers: later ones wait in the
        # PW-queue and are answered by the revisit.
        for _ in range(10):
            wafer.iommu.receive_request(_request(wafer, vpn))
        wafer.sim.run()
        assert wafer.iommu.stat("coalesced") > 0
        assert wafer.iommu.stat("walks") + wafer.iommu.stat("coalesced") == 10

    def test_no_revisit_means_redundant_walks(self, small_system_config):
        wafer, allocation = _build(small_system_config)
        vpn = allocation.base_vpn
        for _ in range(10):
            wafer.iommu.receive_request(_request(wafer, vpn))
        wafer.sim.run()
        assert wafer.iommu.stat("walks") == 10
        assert wafer.iommu.stat("coalesced") == 0


class TestRedirectionTable:
    def test_lru_capacity(self):
        table = RedirectionTable(capacity=2)
        table.update(1, 10)
        table.update(2, 20)
        table.update(3, 30)
        assert table.lookup(1) is None
        assert table.lookup(3) == 30
        assert table.evictions == 1

    def test_lookup_refreshes_lru(self):
        table = RedirectionTable(capacity=2)
        table.update(1, 10)
        table.update(2, 20)
        table.lookup(1)
        table.update(3, 30)
        assert 1 in table and 2 not in table

    def test_update_existing_moves_to_mru(self):
        table = RedirectionTable(capacity=2)
        table.update(1, 10)
        table.update(2, 20)
        table.update(1, 99)
        table.update(3, 30)
        assert table.lookup(1) == 99
        assert table.lookup(2) is None

    def test_hit_rate(self):
        table = RedirectionTable(capacity=4)
        table.update(1, 10)
        table.lookup(1)
        table.lookup(2)
        assert table.hit_rate() == pytest.approx(0.5)

    def test_invalidate(self):
        table = RedirectionTable(capacity=4)
        table.update(1, 10)
        assert table.invalidate(1)
        assert not table.invalidate(1)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RedirectionTable(0)


class TestRedirectionFlow:
    def _hdpat(self):
        return replace(HDPATConfig.full(), num_layers=1)

    def test_redirect_after_push(self, small_system_config):
        wafer, allocation = _build(small_system_config, self._hdpat())
        vpn = allocation.base_vpn
        requester = wafer.gpms[0]
        responses = []
        original = requester.remote_translation_complete
        requester.remote_translation_complete = (
            lambda v, e, served: responses.append(served) or original(v, e, served)
        )
        # Two walks push the PTE to holders and register a redirection.
        for _ in range(2):
            wafer.iommu.receive_request(_request(wafer, vpn))
            wafer.sim.run()
        assert len(wafer.iommu.redirection) > 0
        wafer.iommu.receive_request(_request(wafer, vpn))
        wafer.sim.run()
        assert wafer.iommu.stat("redirects") >= 1
        assert ServedBy.REDIRECT in responses

    def test_stale_redirect_bounces_back(self, small_system_config):
        wafer, allocation = _build(small_system_config, self._hdpat())
        vpn = allocation.base_vpn
        # Forge a redirection entry pointing at a GPM with no cached PTE.
        wafer.iommu.redirection.update(vpn, 1)
        wafer.iommu.receive_request(_request(wafer, vpn))
        wafer.sim.run()
        # Bounced back with no_redirect and walked at the IOMMU.
        assert wafer.iommu.stat("redirects") == 1
        assert wafer.iommu.stat("walks") == 1
        assert wafer.gpms[1].stat("redirect_bounces") == 1


class TestPrefetch:
    def _hdpat(self, degree=4):
        return replace(HDPATConfig.full(degree), num_layers=1)

    def test_walk_pushes_prefetched_neighbors(self, small_system_config):
        wafer, allocation = _build(small_system_config, self._hdpat())
        wafer.iommu.receive_request(_request(wafer, allocation.base_vpn))
        wafer.sim.run()
        assert wafer.iommu.prefetch_pushed == 3

    def test_prefetch_disabled_at_degree_one(self, small_system_config):
        wafer, allocation = _build(small_system_config, self._hdpat(degree=1))
        wafer.iommu.receive_request(_request(wafer, allocation.base_vpn))
        wafer.sim.run()
        assert wafer.iommu.prefetch_pushed == 0

    def test_prefetch_skips_unmapped_pages(self, small_system_config):
        wafer, allocation = _build(small_system_config, self._hdpat())
        last_vpn = allocation.end_vpn - 1
        wafer.iommu.receive_request(_request(wafer, last_vpn))
        wafer.sim.run()
        assert wafer.iommu.prefetch_pushed == 0

    def test_response_carries_prefetched_extras(self, small_system_config):
        wafer, allocation = _build(small_system_config, self._hdpat())
        requester = wafer.gpms[0]
        wafer.iommu.receive_request(_request(wafer, allocation.base_vpn))
        wafer.sim.run()
        # The requester installed the piggybacked N+1..N+3 entries.
        assert requester.stat("pte_pushes_received") >= 3

    def test_pw_queue_catch_of_prefetched_vpn(self, small_system_config):
        hdpat = self._hdpat()
        wafer, allocation = _build(small_system_config, hdpat)
        vpn = allocation.base_vpn
        # Saturate walkers with unrelated VPNs and keep vpn+1 queued behind
        # more fillers: when vpn's walk completes, vpn+1 is still waiting in
        # the PW-queue and is answered from the prefetched PTE.
        walkers = small_system_config.iommu.num_walkers
        for index in range(walkers):
            wafer.iommu.receive_request(_request(wafer, allocation.base_vpn + 20 + index))
        wafer.iommu.receive_request(_request(wafer, vpn))
        for index in range(walkers + 2):
            wafer.iommu.receive_request(_request(wafer, allocation.base_vpn + 40 + index))
        wafer.iommu.receive_request(_request(wafer, vpn + 1))
        wafer.sim.run()
        assert wafer.iommu.stat("prefetch_caught") >= 1


class TestIOMMUTLBVariant:
    def _config(self, small_system_config):
        iommu = replace(
            small_system_config.iommu,
            iommu_tlb=TLBConfig(num_sets=8, num_ways=8, num_mshrs=4, latency=2),
        )
        return small_system_config.with_iommu(iommu)

    def test_tlb_hit_skips_walk(self, small_system_config):
        wafer, allocation = _build(self._config(small_system_config))
        vpn = allocation.base_vpn
        wafer.iommu.receive_request(_request(wafer, vpn))
        wafer.sim.run()
        wafer.iommu.receive_request(_request(wafer, vpn))
        wafer.sim.run()
        assert wafer.iommu.stat("walks") == 1
        assert wafer.iommu.stat("tlb_hits") == 1

    def test_mshr_exhaustion_blocks_requests(self, small_system_config):
        wafer, allocation = _build(self._config(small_system_config))
        for index in range(12):  # 4 MSHRs -> 8 blocked
            wafer.iommu.receive_request(
                _request(wafer, allocation.base_vpn + index)
            )
        assert wafer.iommu.stat("tlb_mshr_blocked") == 8
        wafer.sim.run()
        # Blocked requests drain as MSHRs free; all get answered.
        assert wafer.iommu.stat("walks") == 12

    def test_merged_requests_on_same_vpn(self, small_system_config):
        wafer, allocation = _build(self._config(small_system_config))
        vpn = allocation.base_vpn
        for _ in range(3):
            wafer.iommu.receive_request(_request(wafer, vpn))
        wafer.sim.run()
        assert wafer.iommu.stat("walks") == 1
