"""Tests for the fault-injection subsystem (repro.faults) end to end."""

import json

import pytest

from repro.analysis.sanitizers import result_digest
from repro.config.presets import wafer_7x7_config
from repro.errors import (
    ConfigurationError,
    DeadDestinationError,
    FaultError,
    TranslationTimeoutError,
)
from repro.faults import FaultPlan, FaultState, RetryPolicy, degradation_plan
from repro.noc.messages import MessageKind
from repro.noc.network import MeshNetwork
from repro.noc.topology import MeshTopology
from repro.system.runner import run_benchmark


class TestRetryPolicy:
    def test_exponential_delays(self):
        policy = RetryPolicy(max_retries=3, base_delay=100.0, multiplier=2.0)
        assert [policy.delay_for(a) for a in range(3)] == [100.0, 200.0, 400.0]

    def test_max_delay_caps(self):
        policy = RetryPolicy(base_delay=100.0, multiplier=10.0, max_delay=500.0)
        assert policy.delay_for(5) == 500.0

    def test_exhausted(self):
        policy = RetryPolicy(max_retries=2)
        assert not policy.exhausted(1)
        assert policy.exhausted(2)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)


class TestFaultPlan:
    def test_generate_is_deterministic(self):
        a = FaultPlan.generate(7, 7, seed=9, link_fraction=0.2, gpm_fraction=0.1)
        b = FaultPlan.generate(7, 7, seed=9, link_fraction=0.2, gpm_fraction=0.1)
        assert a == b

    def test_generate_nests_with_fixed_seed(self):
        small = FaultPlan.generate(7, 7, seed=9, link_fraction=0.1,
                                   gpm_fraction=0.05)
        large = FaultPlan.generate(7, 7, seed=9, link_fraction=0.2,
                                   gpm_fraction=0.10)
        assert set(small.dead_links) <= set(large.dead_links)
        assert set(small.dead_gpms) <= set(large.dead_gpms)

    def test_cpu_tile_never_dies(self):
        plan = FaultPlan.generate(7, 7, seed=3, gpm_fraction=1.0)
        assert (3, 3) not in plan.dead_gpms

    def test_generated_links_keep_mesh_connected(self):
        from repro.faults.plan import _stays_connected

        for seed in range(5):
            plan = FaultPlan.generate(7, 7, seed=seed, link_fraction=0.3)
            assert _stays_connected(7, 7, list(plan.dead_links))

    def test_json_round_trip(self):
        plan = degradation_plan(7, 7, 5, 0.2)
        revived = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert revived == plan

    def test_empty_plan(self):
        assert FaultPlan().is_empty
        assert degradation_plan(7, 7, 0, 0.0).is_empty
        assert not degradation_plan(7, 7, 0, 0.1).is_empty

    def test_probability_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(drop_prob=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(drop_prob=0.6, delay_prob=0.6)

    def test_links_canonicalized(self):
        plan = FaultPlan(dead_links=(((1, 0), (0, 0)),))
        assert plan.dead_links == (((0, 0), (1, 0)),)


class TestFaultState:
    def _state(self, **kwargs):
        return FaultState(FaultPlan(**kwargs), MeshTopology(5, 5))

    def test_dead_links_directed_both_ways(self):
        state = self._state(dead_links=(((0, 0), (1, 0)),))
        assert ((0, 0), (1, 0)) in state.dead_links
        assert ((1, 0), (0, 0)) in state.dead_links

    def test_non_adjacent_dead_link_rejected(self):
        with pytest.raises(ConfigurationError):
            self._state(dead_links=(((0, 0), (2, 0)),))

    def test_cannot_kill_cpu_tile(self):
        with pytest.raises(ConfigurationError):
            self._state(dead_gpms=((2, 2),))

    def test_remap_owner_is_deterministic_and_alive(self):
        state = self._state(dead_gpms=((0, 0),))
        dead_id = next(iter(state.dead_gpm_ids))
        remapped = state.remap_owner(dead_id)
        assert remapped == state.remap_owner(dead_id)
        assert state.gpm_alive(remapped)

    def test_route_detours_and_reports_extra_hops(self):
        state = self._state(dead_links=(((0, 0), (1, 0)),))
        links, extra = state.route((0, 0), (2, 0))
        assert extra == 2
        assert not any(link in state.dead_links for link in links)
        # Unaffected pairs keep the plain XY route.
        links, extra = state.route((0, 1), (2, 1))
        assert extra == 0 and len(links) == 2

    def test_transient_stream_is_seeded(self):
        kwargs = dict(seed=7, drop_prob=0.3, delay_prob=0.3)
        a = [self._state(**kwargs).transient_verdict() for _ in range(1)]
        first = self._state(**kwargs)
        second = self._state(**kwargs)
        assert [first.transient_verdict() for _ in range(50)] == [
            second.transient_verdict() for _ in range(50)
        ]
        assert a  # stream exists

    def test_killing_every_gpm_rejected(self):
        coords = tuple(
            tile.coordinate for tile in MeshTopology(5, 5).gpm_tiles
        )
        with pytest.raises(ConfigurationError):
            self._state(dead_gpms=coords)


class TestNetworkFaults:
    def _network(self, sim, plan):
        topology = MeshTopology(5, 5)
        return MeshNetwork(
            sim, topology, faults=FaultState(plan, topology)
        )

    def test_send_to_dead_tile_raises_typed_error(self, sim):
        network = self._network(sim, FaultPlan(dead_gpms=((4, 4),)))
        with pytest.raises(DeadDestinationError):
            network.send(MessageKind.TRANSLATION_REQ, (0, 0), (4, 4))

    def test_dead_destination_error_is_fault_error(self, sim):
        network = self._network(sim, FaultPlan(dead_gpms=((4, 4),)))
        with pytest.raises(FaultError):
            network.send(MessageKind.TRANSLATION_REQ, (0, 0), (4, 4))

    def test_translation_messages_drop(self, sim):
        network = self._network(sim, FaultPlan(drop_prob=1.0))
        delivered = []
        network.attach((1, 0), {MessageKind.TRANSLATION_REQ: delivered.append})
        network.send(MessageKind.TRANSLATION_REQ, (0, 0), (1, 0))
        sim.run()
        assert delivered == []
        assert network._faults.counters["injected.drops"] == 1

    def test_data_plane_immune_to_transients(self, sim):
        network = self._network(sim, FaultPlan(drop_prob=1.0))
        delivered = []
        network.attach((1, 0), {MessageKind.DATA_RESP: delivered.append})
        network.send(MessageKind.DATA_RESP, (0, 0), (1, 0))
        sim.run()
        assert len(delivered) == 1

    def test_duplicates_deliver_twice(self, sim):
        network = self._network(sim, FaultPlan(duplicate_prob=1.0))
        delivered = []
        network.attach((1, 0), {MessageKind.TRANSLATION_RESP: delivered.append})
        network.send(MessageKind.TRANSLATION_RESP, (0, 0), (1, 0))
        sim.run()
        assert len(delivered) == 2

    def test_reroute_around_dead_link(self, sim):
        network = self._network(sim, FaultPlan(dead_links=(((0, 0), (1, 0)),)))
        delivered = []
        network.attach((2, 0), {MessageKind.TRANSLATION_REQ: delivered.append})
        network.send(MessageKind.TRANSLATION_REQ, (0, 0), (2, 0))
        sim.run()
        assert len(delivered) == 1
        assert network._faults.counters["rerouted_messages"] == 1
        assert network._faults.counters["rerouted_hops"] == 2

    def test_link_report_marks_failed_links(self, sim):
        network = self._network(sim, FaultPlan(dead_links=(((0, 0), (1, 0)),)))
        network.attach((2, 0), {MessageKind.TRANSLATION_REQ: lambda payload: None})
        network.send(MessageKind.TRANSLATION_REQ, (0, 0), (2, 0))
        sim.run()
        rows = network.link_report()
        failed = [row for row in rows if row["failed"]]
        assert len(failed) == 2  # both directions of the dead link
        assert all(row["bytes"] == 0 for row in failed)
        assert any(not row["failed"] and row["bytes"] for row in rows)


SCALE = 0.02


class TestEndToEnd:
    def test_empty_plan_is_byte_identical(self):
        base = wafer_7x7_config()
        with_empty = base.with_faults(FaultPlan())
        a = result_digest(run_benchmark(base, "fir", scale=SCALE, seed=3))
        b = result_digest(run_benchmark(with_empty, "fir", scale=SCALE, seed=3))
        assert a == b

    def test_faulted_run_is_deterministic(self):
        config = wafer_7x7_config().with_faults(degradation_plan(7, 7, 11, 0.1))
        a = result_digest(run_benchmark(config, "fir", scale=SCALE, seed=3))
        b = result_digest(run_benchmark(config, "fir", scale=SCALE, seed=3))
        assert a == b

    def test_dead_gpms_complete_via_remap_and_fallback(self):
        # The never-hangs regression: pages owned by dead GPMs are remapped,
        # probes skip dead holders, and the run completes.
        plan = FaultPlan.generate(7, 7, seed=5, gpm_fraction=0.1)
        assert plan.dead_gpms
        from repro.config.hdpat import HDPATConfig

        config = wafer_7x7_config().with_hdpat(
            HDPATConfig.full()
        ).with_faults(plan)
        result = run_benchmark(config, "spmv", scale=SCALE, seed=3)
        assert result.extras["all_finished"]
        report = result.extras["faults"]
        assert report["dead_gpms"] == len(plan.dead_gpms)
        assert report["counters"].get("remapped_pages", 0) > 0

    def test_total_drop_raises_typed_timeout(self):
        # With every translation message dropped, the request can never
        # complete; the run must fail with a typed error, not hang.
        plan = FaultPlan(
            drop_prob=1.0, timeout_cycles=500,
            retry_backoff_cycles=16, max_retries=2,
        )
        config = wafer_7x7_config().with_faults(plan)
        with pytest.raises(TranslationTimeoutError):
            run_benchmark(config, "spmv", scale=SCALE, seed=3)

    def test_sanitize_stays_green_under_drops(self):
        # This checks byte conservation, not the retry budget: at the
        # default max_retries=4 a drop rate of 0.1 exhausts some
        # translation's retries on about a third of the plan seeds, so
        # the budget is raised (all of seeds 1-16 complete at 8).
        config = wafer_7x7_config().with_faults(
            FaultPlan(seed=1, drop_prob=0.1, max_retries=8)
        )
        result = run_benchmark(
            config, "spmv", scale=SCALE, seed=3, sanitize=True
        )
        sanitizers = result.extras["sanitizers"]
        assert sanitizers["violations"] == 0
        assert sanitizers["messages_dropped"] > 0
        assert sanitizers["messages_dropped"] == (
            result.extras["faults"]["counters"]["injected.drops"]
        )

    def test_retries_recover_from_partial_drops(self):
        # Same budget as above: at drop_prob 0.05 and max_retries=4 one
        # of plan seeds 1-16 (seed 9) still exhausts a translation.
        config = wafer_7x7_config().with_faults(
            FaultPlan(seed=1, drop_prob=0.05, max_retries=8)
        )
        result = run_benchmark(config, "spmv", scale=SCALE, seed=3)
        assert result.extras["all_finished"]
        counters = result.extras["faults"]["counters"]
        assert counters["injected.drops"] > 0
        assert counters["retries"] > 0

    def test_faults_absent_without_plan(self):
        result = run_benchmark(wafer_7x7_config(), "fir", scale=SCALE, seed=3)
        assert "faults" not in result.extras


class TestExecutorRetries:
    def test_pool_retries_are_counted_and_backed_off(self):
        from repro.exec.executor import SweepExecutor
        from repro.exec.jobs import make_job

        from repro.exec.jobs import MAX_ATTEMPTS

        executor = SweepExecutor(jobs=2)
        bad = [
            make_job(wafer_7x7_config(), "no-such-workload", SCALE, seed=s)
            for s in (1, 2)
        ]
        results = executor.map(bad)
        assert results == {}
        retries = executor.registry.counter("sweep.jobs.retries").value
        assert retries == 2 * (MAX_ATTEMPTS - 1)
        assert all(f.attempts == MAX_ATTEMPTS for f in executor.failures)

    def test_retry_policy_shared_shape(self):
        from repro.exec.executor import SweepExecutor

        from repro.exec.jobs import MAX_ATTEMPTS

        executor = SweepExecutor(jobs=1)
        assert executor.retry_policy.delay_for(1) == 0.5
        assert executor.retry_policy.max_retries == MAX_ATTEMPTS - 1


class TestFaultsCLI:
    def test_cli_faulted_run(self, capsys):
        from repro.system.cli import main

        assert main(["spmv", "--scale", "0.02", "--faults", "0.1",
                     "--fault-seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "faults:" in out

    def test_cli_rejects_negative_fraction(self, capsys):
        from repro.system.cli import main

        assert main(["spmv", "--faults", "-0.5"]) == 2
