"""GPM behaviour tests on a small fully-wired wafer.

These drive single GPMs through a real WaferScaleGPU (3x3, baseline
policy) so message plumbing, merging, and data access paths are exercised
without a workload generator.  The MSHR probe law is checked on a full
7x7 HDPAT spmv run, where the MSHRs fill.
"""

from dataclasses import replace

import pytest

from repro.config.hdpat import HDPATConfig
from repro.config.presets import wafer_7x7_config
from repro.config.scaling import capacity_scaled
from repro.core.request import ServedBy
from repro.faults import FaultPlan, FaultTimeline, KillGpm, RecoverGpm
from repro.mem.allocator import PageAllocator
from repro.mem.page import PageTableEntry
from repro.errors import RoutingError
from repro.noc.messages import MessageKind
from repro.obs import Observability
from repro.system.runner import run_benchmark
from repro.system.wafer import WaferScaleGPU


@pytest.fixture
def wafer(small_system_config):
    return WaferScaleGPU(small_system_config)


def _install_pages(wafer, num_pages=32):
    allocator = PageAllocator(wafer.address_space, wafer.num_gpms)
    allocation = allocator.allocate_pages(num_pages)
    wafer.install_entries(allocator.materialize(allocation))
    return allocation


def _addr(wafer, vpn, offset=0):
    return vpn * wafer.address_space.page_size + offset


class TestLocalTranslation:
    def test_local_access_completes_without_iommu(self, wafer):
        allocation = _install_pages(wafer)
        gpm = wafer.gpms[0]
        local_vpn = next(
            v for v, owner in allocation.owner_of.items() if owner == 0
        )
        gpm.load_trace([_addr(wafer, local_vpn)])
        gpm.start()
        wafer.sim.run()
        assert gpm.finish_time is not None
        assert wafer.iommu.stat("requests") == 0
        assert gpm.served_by_counts.get(ServedBy.LOCAL_WALK) == 1

    def test_repeat_access_hits_tlb(self, wafer):
        allocation = _install_pages(wafer)
        gpm = wafer.gpms[0]
        local_vpn = next(
            v for v, owner in allocation.owner_of.items() if owner == 0
        )
        # Far-apart repeats so the second access probes after the first
        # translation completed.
        gpm.load_trace([_addr(wafer, local_vpn)] * 3, interval=2000, burst=1)
        gpm.start()
        wafer.sim.run()
        assert gpm.served_by_counts.get(ServedBy.LOCAL_L1, 0) >= 1


class TestRemoteTranslation:
    def test_remote_access_goes_to_iommu(self, wafer):
        allocation = _install_pages(wafer)
        gpm = wafer.gpms[0]
        remote_vpn = next(
            v for v, owner in allocation.owner_of.items() if owner == 5
        )
        gpm.load_trace([_addr(wafer, remote_vpn)])
        gpm.start()
        wafer.sim.run()
        assert wafer.iommu.stat("requests") == 1
        assert wafer.iommu.stat("walks") == 1
        assert gpm.served_by_counts.get(ServedBy.IOMMU) == 1
        assert gpm.finish_time is not None

    def test_concurrent_same_page_misses_merge(self, wafer):
        allocation = _install_pages(wafer)
        gpm = wafer.gpms[0]
        remote_vpn = next(
            v for v, owner in allocation.owner_of.items() if owner == 5
        )
        gpm.load_trace([_addr(wafer, remote_vpn, off) for off in (0, 64, 128)])
        gpm.start()
        wafer.sim.run()
        # One translation serves all three accesses.
        assert wafer.iommu.stat("requests") == 1
        assert gpm.stat("merged_misses") == 2
        assert gpm.stat("accesses_completed") == 3

    def test_mshr_capacity_stalls_excess_misses(self, wafer, tiny_gpm_config):
        allocation = _install_pages(wafer, num_pages=256)
        gpm = wafer.gpms[0]
        remote_vpns = [
            v for v, owner in allocation.owner_of.items() if owner != 0
        ]
        mshrs = tiny_gpm_config.l2_tlb.num_mshrs
        trace = [_addr(wafer, v) for v in remote_vpns[: mshrs + 8]]
        gpm.load_trace(trace, burst=64)
        gpm.start()
        wafer.sim.run()
        assert gpm.stat("mshr_stalls") > 0
        assert gpm.stat("accesses_completed") == len(trace)

    def test_rtt_recorded_for_remote(self, wafer):
        allocation = _install_pages(wafer)
        gpm = wafer.gpms[0]
        remote_vpn = next(
            v for v, owner in allocation.owner_of.items() if owner == 5
        )
        gpm.load_trace([_addr(wafer, remote_vpn)])
        gpm.start()
        wafer.sim.run()
        assert gpm.rtt_count == 1
        # At least two mesh traversals plus a walk.
        assert gpm.mean_rtt() >= wafer.config.iommu.walk_latency


class TestPtePush:
    def test_push_satisfies_waiting_request(self, wafer):
        _install_pages(wafer)
        gpm = wafer.gpms[0]
        entry = wafer.iommu.page_table.walk(
            next(iter(wafer.iommu.page_table)).vpn
        )
        # Create a pending remote translation, then deliver a push for it
        # before the IOMMU responds.
        remote_entry = PageTableEntry(vpn=9999, pfn=1, owner_gpm=5)
        wafer.iommu.page_table.insert(remote_entry)
        gpm.load_trace([_addr(wafer, 9999)])
        gpm.start()
        wafer.sim.schedule(
            40, lambda: gpm.accept_pte_pushes([remote_entry.copy_for_push(True)])
        )
        wafer.sim.run()
        assert gpm.served_by_counts.get(ServedBy.PROACTIVE) == 1
        assert entry is not None  # page table sanity

    def test_unsolicited_push_installs_quietly(self, wafer):
        gpm = wafer.gpms[0]
        entry = PageTableEntry(vpn=777, pfn=2, owner_gpm=3)
        gpm.accept_pte_pushes([entry])
        assert gpm.stat("pte_pushes_received") == 1
        assert gpm.hierarchy.probe_remote(777).entry is not None


class TestPeerProbe:
    def test_probe_miss_returns_none(self, wafer):
        gpm = wafer.gpms[0]
        results = []
        gpm.serve_peer_probe(4242, results.append)
        wafer.sim.run()
        assert results == [None]

    def test_probe_hit_on_cached_entry(self, wafer):
        gpm = wafer.gpms[0]
        entry = PageTableEntry(vpn=11, pfn=1, owner_gpm=5)
        gpm.hierarchy.install_cached_remote(entry)
        results = []
        gpm.serve_peer_probe(11, results.append)
        wafer.sim.run()
        assert results and results[0].vpn == 11

    def test_owner_probe_walks_local_table(self, wafer):
        allocation = _install_pages(wafer)
        gpm = wafer.gpms[3]
        own_vpn = next(
            v for v, owner in allocation.owner_of.items() if owner == 3
        )
        results = []
        gpm.serve_peer_probe(own_vpn, results.append)
        wafer.sim.run()
        assert results and results[0].vpn == own_vpn
        assert gpm.gmmu.stat("submitted") == 1
        assert gpm.gmmu.busy_walkers == 0

    def test_probe_port_contention_counted(self, wafer):
        gpm = wafer.gpms[0]
        for _ in range(5):
            gpm.serve_peer_probe(4242, lambda e: None)
        wafer.sim.run()
        assert gpm.stat("probe_port_wait_cycles") > 0


class TestMessageDispatch:
    """Every kind a GPM receives reaches its registered handler."""

    def _deliver(self, wafer, kind, payload):
        """A zero-hop send to GPM 0, run to its delivery."""
        gpm = wafer.gpms[0]
        wafer.network.send(kind, gpm.coordinate, gpm.coordinate, payload)
        wafer.sim.run()
        return gpm

    def test_data_request_is_served_and_answered(self, wafer):
        gpm = wafer.gpms[0]
        self._deliver(wafer, MessageKind.DATA_REQ,
                      (1 << 16, gpm.coordinate, gpm._fail_epoch))
        wafer.sim.run()
        # Served from HBM; the DATA_RESP it sends back completes an access.
        assert gpm.hbm.accesses == 1
        assert gpm.stat("accesses_completed") == 1

    def test_data_response_completes_an_access(self, wafer):
        gpm = wafer.gpms[0]
        gpm.driver.outstanding = 1
        self._deliver(wafer, MessageKind.DATA_RESP, gpm._fail_epoch)
        assert gpm.stat("accesses_completed") == 1
        assert gpm.driver.outstanding == 0

    def test_pte_push_is_installed(self, wafer):
        allocation = _install_pages(wafer)
        entry = wafer.iommu.page_table.lookup(allocation.base_vpn + 1)
        gpm = self._deliver(wafer, MessageKind.PTE_PUSH, [entry])
        assert gpm.stat("pte_pushes_received") == 1

    @pytest.mark.parametrize("kind, method", [
        (MessageKind.PEER_PROBE, "on_peer_probe"),
        (MessageKind.REDIRECT, "on_redirect"),
    ])
    def test_policy_kinds_reach_the_policy(
        self, small_system_config, monkeypatch, kind, method
    ):
        calls = []
        policy_class = type(WaferScaleGPU(small_system_config).policy)
        monkeypatch.setattr(policy_class, method,
                            lambda policy, gpm, payload: calls.append((gpm, payload)))
        # Handlers are bound when the wafer is wired.
        wafer = WaferScaleGPU(small_system_config)
        gpm = self._deliver(wafer, kind, "payload")
        assert calls == [(gpm, "payload")]

    def test_unexpected_kind_raises(self, wafer):
        with pytest.raises(RoutingError, match="translation_req"):
            self._deliver(wafer, MessageKind.TRANSLATION_REQ, None)
        assert wafer.sim.pending_events == 0

    def test_instance_override_sees_translation_responses(self, wafer):
        allocation = _install_pages(wafer)
        vpn = allocation.base_vpn
        entry = wafer.iommu.page_table.lookup(vpn)
        gpm = wafer.gpms[0]
        seen = []
        gpm.remote_translation_complete = (
            lambda v, e, served: seen.append((v, e, served))
        )
        self._deliver(wafer, MessageKind.TRANSLATION_RESP,
                      (vpn, entry, ServedBy.IOMMU, ()))
        assert seen == [(vpn, entry, ServedBy.IOMMU)]

    def test_stale_data_response_is_dropped(self, wafer):
        gpm = wafer.gpms[0]
        gpm.halt()  # bumps the fail epoch past the reply's
        self._deliver(wafer, MessageKind.DATA_RESP, gpm._fail_epoch - 1)
        assert gpm.stat("stale_completions") == 1
        assert gpm.stat("accesses_completed") == 0


class TestDataPath:
    def test_remote_data_access_round_trip(self, wafer):
        allocation = _install_pages(wafer)
        gpm = wafer.gpms[0]
        remote_vpn = next(
            v for v, owner in allocation.owner_of.items() if owner == 7
        )
        gpm.load_trace([_addr(wafer, remote_vpn)])
        gpm.start()
        wafer.sim.run()
        assert gpm.stat("remote_data_accesses") == 1
        assert gpm.stat("accesses_completed") == 1

    def test_second_access_hits_local_l2_cache(self, wafer):
        allocation = _install_pages(wafer)
        gpm = wafer.gpms[0]
        remote_vpn = next(
            v for v, owner in allocation.owner_of.items() if owner == 7
        )
        gpm.load_trace([_addr(wafer, remote_vpn)] * 2, interval=5000, burst=1)
        gpm.start()
        wafer.sim.run()
        assert gpm.stat("remote_data_accesses") == 1  # second is an L2 hit
        assert gpm.l2_data.hits == 1

    def test_l2_hit_latency_is_the_l2_cache_latency(
        self, small_system_config
    ):
        gpm_config = small_system_config.gpm
        config = replace(small_system_config, gpm=replace(
            gpm_config, l2_cache=replace(gpm_config.l2_cache, latency=37),
        ))
        wafer = WaferScaleGPU(config)
        allocation = _install_pages(wafer)
        gpm = wafer.gpms[0]
        remote_vpn = next(
            v for v, owner in allocation.owner_of.items() if owner == 7
        )
        starts, completions = [], []
        data_phase = gpm._data_phase
        complete = gpm._complete_if_current

        def record_start(*args):
            starts.append(wafer.sim.now)
            data_phase(*args)

        def record_completion(epoch):
            completions.append(wafer.sim.now)
            complete(epoch)

        gpm._data_phase = record_start
        gpm._complete_if_current = record_completion
        gpm.load_trace([_addr(wafer, remote_vpn)] * 2, interval=5000, burst=1)
        gpm.start()
        wafer.sim.run()
        assert gpm.l2_data.hits == 1
        # The first access completes through the DATA_RESP handler bound
        # at build time; the wrapper sees only the L2 hit's completion.
        assert completions == [starts[1] + 37]


def _with_mshrs(config, num_mshrs):
    l2_tlb = replace(config.gpm.l2_tlb, num_mshrs=num_mshrs)
    return replace(config, gpm=replace(config.gpm, l2_tlb=l2_tlb))


def _remote_trace(wafer, gpm_id, count):
    allocation = _install_pages(wafer, num_pages=256)
    remote = [v for v, owner in allocation.owner_of.items() if owner != gpm_id]
    return [_addr(wafer, v) for v in remote[:count]]


class TestMshrWakeup:
    def test_each_stalled_access_is_probed_once_more(self):
        config = capacity_scaled(
            wafer_7x7_config().with_hdpat(HDPATConfig.full()), 0.02
        )
        obs = Observability(metrics=True)
        result = run_benchmark(config, "spmv", scale=0.02, seed=42, obs=obs)
        totals = {}
        for name, value in obs.registry.flat().items():
            if name.startswith("gpm") and isinstance(value, int):
                key = name.split(".", 1)[1]
                totals[key] = totals.get(key, 0) + value
        accesses = result.total_accesses
        stalls = totals["mshr_stalls"]
        probes = totals["tlb.l1v.hits"] + totals["tlb.l1v.misses"]
        assert stalls > 0
        # Every local probe looks up the L1 vector TLB once: one probe
        # at issue, plus exactly one re-probe per stall.
        assert probes == accesses + stalls
        # A woken access holds a reserved slot, so it never stalls twice.
        assert stalls <= accesses
        assert totals["mshr_wakeups"] == stalls
        assert totals["mshr_stall_cycles"] > 0

    def test_stalled_accesses_get_mshrs_in_stall_order(
        self, small_system_config
    ):
        wafer = WaferScaleGPU(_with_mshrs(small_system_config, 2))
        gpm = wafer.gpms[0]
        trace = _remote_trace(wafer, 0, 10)
        started = []
        go_remote = gpm._go_remote

        def record(pending):
            started.append(pending.vpn)
            go_remote(pending)

        gpm._go_remote = record
        gpm.load_trace(trace, burst=64)
        gpm.start()
        wafer.sim.run()
        page_size = wafer.address_space.page_size
        assert started == [vaddr // page_size for vaddr in trace]
        assert gpm.stat("mshr_stalls") == len(trace) - 2
        assert gpm.stat("mshr_wakeups") == len(trace) - 2
        assert gpm.stat("accesses_completed") == len(trace)
        assert gpm._reserved == 0 and not gpm._stalled

    def test_kill_while_stalled_and_reserved_then_recover(
        self, small_system_config
    ):
        coordinate = WaferScaleGPU(small_system_config).gpms[0].coordinate
        # Cycle 300 of this trace finds four accesses stalled, four
        # woken ones holding reservations, and four MSHRs busy.
        timeline = FaultTimeline(events=(
            KillGpm(300, coordinate), RecoverGpm(800, coordinate),
        ))
        wafer = WaferScaleGPU(
            small_system_config.with_faults(
                FaultPlan(seed=1, timeline=timeline)
            )
        )
        gpm = wafer.gpms[0]
        trace = _remote_trace(wafer, 0, 40)
        at_kill = []
        halt = gpm.halt

        def record_then_halt():
            at_kill.append((len(gpm._stalled), gpm._reserved))
            halt()

        gpm.halt = record_then_halt
        gpm.load_trace(trace, burst=64)
        gpm.start()
        wafer.sim.run()
        (stalled, reserved), = at_kill
        assert stalled > 0 and reserved > 0
        assert gpm.stat("halt_abandoned_accesses") > 0
        assert gpm.stat("accesses_completed") == len(trace)
        assert gpm.driver.drained and gpm.finish_time is not None
        assert gpm._reserved == 0 and not gpm._stalled and not gpm._pending
