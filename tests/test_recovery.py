"""Tests for fault timelines, mid-run recovery, and the ext_recovery
experiment (repro.faults.timeline / repro.faults.recovery)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizers import result_digest
from repro.config.hdpat import HDPATConfig
from repro.config.presets import wafer_7x7_config
from repro.errors import ConfigurationError
from repro.experiments import ext_recovery
from repro.faults import (
    DegradeLink,
    DrainWarning,
    FaultPlan,
    FaultState,
    FaultTimeline,
    KillGpm,
    RecoverGpm,
    RestoreLink,
    RetryPolicy,
    degradation_plan,
    recovery_scenario,
)
from repro.noc.messages import MessageKind
from repro.noc.network import MeshNetwork
from repro.noc.routing import route_links
from repro.noc.topology import MeshTopology
from repro.system.runner import run_benchmark

SCALE = 0.02


def _scenario(recover=True, num_victims=2):
    """The canonical degrade -> drain -> kill -> restore -> recover
    schedule used by the end-to-end tests; ``recover=False`` is the
    fail-stop control (same seed, same victims, same slow links)."""
    return recovery_scenario(
        7, 7, seed=9, kill_cycle=4000,
        recover_cycle=9000 if recover else None,
        drain_cycle=2000 if recover else None,
        degrade_cycle=1000,
        restore_cycle=8000 if recover else None,
        num_victims=num_victims,
    )


class TestTimelineEvents:
    def test_event_validation(self):
        with pytest.raises(ConfigurationError):
            DegradeLink(5, ((0, 0), (1, 0)), bandwidth_factor=0.0)
        with pytest.raises(ConfigurationError):
            DegradeLink(5, ((0, 0), (1, 0)), bandwidth_factor=1.5)
        with pytest.raises(ConfigurationError):
            DrainWarning(10, (1, 1), deadline=10)  # deadline must follow
        with pytest.raises(ConfigurationError):
            KillGpm(-1, (1, 1))
        with pytest.raises(ConfigurationError):
            KillGpm(2.5, (1, 1))

    def test_links_canonicalized(self):
        assert RestoreLink(1, ((1, 0), (0, 0))).link == ((0, 0), (1, 0))

    def test_same_cycle_events_apply_in_severity_order(self):
        timeline = FaultTimeline(events=(
            RecoverGpm(10, (0, 0)),
            KillGpm(10, (1, 0)),
            RestoreLink(10, ((0, 0), (1, 0))),
            DegradeLink(10, ((2, 0), (3, 0)), 0.5),
            DrainWarning(10, (2, 0), deadline=20),
        ))
        kinds = [type(e) for e in timeline.events]
        assert kinds == [DegradeLink, RestoreLink, DrainWarning,
                         KillGpm, RecoverGpm]

    def test_operand_breaks_ties_within_a_kind(self):
        timeline = FaultTimeline(events=(
            KillGpm(5, (2, 0)), KillGpm(5, (0, 0)), KillGpm(3, (4, 4)),
        ))
        assert [(e.cycle, e.gpm) for e in timeline.events] == [
            (3, (4, 4)), (5, (0, 0)), (5, (2, 0)),
        ]

    def test_json_round_trip_is_canonical(self):
        timeline = _scenario()
        clone = FaultTimeline.from_dict(
            json.loads(json.dumps(timeline.to_dict()))
        )
        assert clone == timeline
        assert clone.describe() == timeline.describe()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultTimeline.from_dict({"events": [{"kind": "melt", "cycle": 1}]})

    def test_empty_timeline_is_no_timeline(self):
        # Satellite: an empty timeline must be indistinguishable from no
        # timeline — same plan value, same describe, same cache key.
        with_empty = FaultPlan(seed=3, timeline=FaultTimeline())
        assert with_empty == FaultPlan(seed=3)
        assert with_empty.timeline is None
        assert "tl-" not in with_empty.describe()

    def test_plan_round_trips_timeline(self):
        plan = FaultPlan(seed=7, timeline=_scenario())
        clone = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert clone == plan
        assert clone.timeline == plan.timeline


class TestRecoveryScenario:
    def test_deterministic(self):
        assert _scenario() == _scenario()

    def test_failstop_control_shares_victims_and_links(self):
        recovered, failstop = _scenario(True), _scenario(False)
        assert (
            {e.gpm for e in recovered.events if isinstance(e, KillGpm)}
            == {e.gpm for e in failstop.events if isinstance(e, KillGpm)}
        )
        assert (
            {e.link for e in recovered.events if isinstance(e, DegradeLink)}
            == {e.link for e in failstop.events if isinstance(e, DegradeLink)}
        )
        assert not any(
            isinstance(e, (RecoverGpm, DrainWarning, RestoreLink))
            for e in failstop.events
        )

    def test_victims_never_cpu(self):
        timeline = recovery_scenario(7, 7, seed=1, kill_cycle=10,
                                     num_victims=40)
        assert (3, 3) not in {
            e.gpm for e in timeline.events if isinstance(e, KillGpm)
        }

    def test_cpu_artery_links_degrade_first(self):
        timeline = recovery_scenario(7, 7, seed=1, kill_cycle=10,
                                     degrade_cycle=5, num_slow_links=4)
        slow = {e.link for e in timeline.events if isinstance(e, DegradeLink)}
        assert all((3, 3) in link for link in slow)

    def test_num_victims_validation(self):
        with pytest.raises(ConfigurationError):
            recovery_scenario(3, 3, seed=1, kill_cycle=10, num_victims=0)
        with pytest.raises(ConfigurationError):
            recovery_scenario(3, 3, seed=1, kill_cycle=10, num_victims=8)

    def test_recover_must_follow_kill(self):
        with pytest.raises(ConfigurationError):
            recovery_scenario(7, 7, seed=1, kill_cycle=10, recover_cycle=10)


class TestRetryPolicyCycles:
    def test_delay_cycles_are_integers(self):
        # Satellite: cycle-domain callers must never receive floats.
        policy = RetryPolicy(base_delay=100.0, multiplier=2.0)
        delays = [policy.delay_cycles_for(a) for a in range(4)]
        assert delays == [100, 200, 400, 800]
        assert all(isinstance(d, int) for d in delays)

    def test_integer_multiplier_is_exact_at_depth(self):
        policy = RetryPolicy(base_delay=3.0, multiplier=2.0)
        assert policy.delay_cycles_for(40) == 3 * 2 ** 40

    def test_non_integer_multiplier_truncates_once(self):
        policy = RetryPolicy(base_delay=100.0, multiplier=1.5)
        assert policy.delay_cycles_for(2) == int(100 * 1.5 ** 2)

    def test_max_delay_caps_in_cycles(self):
        policy = RetryPolicy(base_delay=100.0, multiplier=10.0,
                             max_delay=500.0)
        assert policy.delay_cycles_for(5) == 500


class TestLinkBandwidth:
    """Fail-slow serialisation, driven through a one-hop route."""

    def _network(self, sim):
        network = MeshNetwork(sim, MeshTopology(2, 1), link_latency=4)
        network.attach((1, 0), {MessageKind.DATA_RESP: lambda payload: None})
        return network

    def _send(self, network, size):
        return network.send(
            MessageKind.DATA_RESP, (0, 0), (1, 0), size_bytes=size
        )

    def test_degraded_link_serialises_slower(self, sim):
        network = self._network(sim)
        self._send(network, 768 * 8)
        link = network._links[((0, 0), (1, 0))]
        healthy = link.busy_until
        network.set_link_bandwidth_factor((0, 0), (1, 0), 0.25)
        self._send(network, 768 * 8)
        assert link.busy_until - healthy == 4 * healthy
        # The folded busy cycles charge each send at its own factor.
        network.link_report()
        assert link.busy_cycles == 5 * healthy

    def test_busy_until_stays_integer(self, sim):
        network = self._network(sim)
        network.set_link_bandwidth_factor((0, 0), (1, 0), 1.0 / 3.0)
        delivery = self._send(network, 1000)
        assert isinstance(network._links[((0, 0), (1, 0))].busy_until, int)
        assert isinstance(delivery, int)


class TestFaultStateTimeline:
    def _state(self, **kwargs):
        return FaultState(FaultPlan(**kwargs), MeshTopology(5, 5))

    def test_dynamic_only_with_timeline(self):
        assert not self._state().dynamic
        assert self._state(
            timeline=FaultTimeline(events=(KillGpm(5, (0, 0)),))
        ).dynamic

    def test_timeline_validation_rejects_cpu_and_off_mesh(self):
        with pytest.raises(ConfigurationError):
            self._state(timeline=FaultTimeline(events=(KillGpm(5, (2, 2)),)))
        with pytest.raises(ConfigurationError):
            self._state(timeline=FaultTimeline(events=(KillGpm(5, (9, 0)),)))
        with pytest.raises(ConfigurationError):
            self._state(timeline=FaultTimeline(
                events=(RestoreLink(5, ((0, 0), (2, 0))),)
            ))

    def test_kill_and_recover_update_liveness(self):
        state = self._state(
            timeline=FaultTimeline(events=(KillGpm(5, (0, 0)),))
        )
        gpm_id = state.coord_to_id[(0, 0)]
        epoch = state.topology_epoch
        state.kill_gpm(gpm_id)
        assert not state.gpm_alive(gpm_id)
        assert not state.tile_alive((0, 0))
        assert gpm_id not in state.live_gpm_ids
        assert state.remap_owner(gpm_id) in state.live_gpm_ids
        state.recover_gpm(gpm_id)
        assert state.gpm_alive(gpm_id)
        assert state.topology_epoch == epoch + 2

    def test_restored_link_returns_to_xy_route(self):
        # Satellite regression: the route cache must not serve a stale
        # detour after RestoreLink resurrects the link.
        state = self._state(dead_links=(((0, 0), (1, 0)),))
        links, extra = state.route((0, 0), (2, 0))
        assert extra == 2
        state.restore_link(((0, 0), (1, 0)))
        links, extra = state.route((0, 0), (2, 0))
        assert extra == 0
        assert links == route_links((0, 0), (2, 0), 5, 5)

    def test_degrade_and_restore_track_factors(self):
        state = self._state()
        state.degrade_link(((1, 0), (0, 0)), 0.125)
        assert state.degraded[((0, 0), (1, 0))] == 0.125
        state.restore_link(((0, 0), (1, 0)))
        assert not state.degraded


class TestNetworkRestore:
    def test_traffic_returns_to_xy_after_restore(self, sim):
        topology = MeshTopology(5, 5)
        faults = FaultState(
            FaultPlan(dead_links=(((0, 0), (1, 0)),)), topology
        )
        network = MeshNetwork(sim, topology, faults=faults)
        received = []
        network.attach((2, 0), {MessageKind.TRANSLATION_REQ: received.append})
        network.send(MessageKind.TRANSLATION_REQ, (0, 0), (2, 0))
        sim.run()
        assert faults.counters["rerouted_hops"] == 2
        faults.restore_link(((0, 0), (1, 0)))
        network.send(MessageKind.TRANSLATION_REQ, (0, 0), (2, 0))
        sim.run()
        # The second send took the plain XY route: no new detour hops.
        assert faults.counters["rerouted_hops"] == 2
        assert len(received) == 2


class TestDegradationPlanProperties:
    @staticmethod
    def _slow_links(plan):
        if plan.timeline is None:
            return set()
        return {
            event.link
            for event in plan.timeline.events
            if isinstance(event, DegradeLink) and event.cycle == 0
        }

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 999),
        f1=st.floats(0.0, 1.0),
        f2=st.floats(0.0, 1.0),
    )
    def test_severity_sweep_degrades_nested_scenarios(self, seed, f1, f2):
        # Satellite property: with a fixed seed, raising the severity
        # knob only ever *adds* faults — dead sets nest, and a fail-slow
        # link stays slow or dies, it never silently heals.
        lo, hi = sorted((f1, f2))
        small = degradation_plan(5, 5, seed, lo)
        large = degradation_plan(5, 5, seed, hi)
        assert set(small.dead_links) <= set(large.dead_links)
        assert set(small.dead_gpms) <= set(large.dead_gpms)
        dead_or_slow = self._slow_links(large) | set(large.dead_links)
        assert self._slow_links(small) <= dead_or_slow


class TestEndToEndRecovery:
    def test_recovered_run_completes_every_access(self):
        # Leak regression: an access in its data phase at kill time must
        # be re-issued after recovery, not lost to a stale completion —
        # the run ends with the full trace complete.
        config = wafer_7x7_config().with_faults(
            FaultPlan(seed=9, timeline=_scenario(recover=True))
        )
        result = run_benchmark(config, "spmv", scale=SCALE, seed=3)
        assert result.extras["all_finished"]
        assert result.extras["completed_accesses"] == result.total_accesses
        counters = result.extras["faults"]["counters"]
        assert counters["timeline.kills"] == 2
        assert counters["timeline.recoveries"] == 2
        assert counters["timeline.drained_pages"] > 0
        assert counters["timeline.rehomed_pages"] > 0

    def test_failstop_loses_the_victims_work(self):
        config = wafer_7x7_config().with_faults(
            FaultPlan(seed=9, timeline=_scenario(recover=False))
        )
        result = run_benchmark(config, "spmv", scale=SCALE, seed=3)
        assert result.extras["completed_accesses"] < result.total_accesses
        counters = result.extras["faults"]["counters"]
        assert counters["timeline.kills"] == 2
        assert counters.get("timeline.recoveries", 0) == 0
        assert counters.get("timeline.drained_pages", 0) == 0

    def test_sanitize_green_under_mid_run_bandwidth_changes(self):
        # Satellite: the conservation sanitizer's shadow ledger must
        # track per-message serialisation even while links change factor.
        config = wafer_7x7_config().with_hdpat(
            HDPATConfig.full()
        ).with_faults(FaultPlan(seed=9, timeline=_scenario(recover=True)))
        result = run_benchmark(
            config, "spmv", scale=SCALE, seed=3, sanitize=True
        )
        assert result.extras["sanitizers"]["violations"] == 0
        assert result.extras["all_finished"]

    def test_timeline_run_is_deterministic(self):
        config = wafer_7x7_config().with_faults(
            FaultPlan(seed=9, timeline=_scenario(recover=True))
        )
        a = result_digest(run_benchmark(config, "spmv", scale=SCALE, seed=3))
        b = result_digest(run_benchmark(config, "spmv", scale=SCALE, seed=3))
        assert a == b


#: Relative tolerance on recovered <= fail-stop for the IOMMU-walk-bound
#: baseline scheme.  Its makespan tracks IOMMU walks x walk latency /
#: walkers within 2% in all three variants, so both faulted variants
#: cost about +4.5% walks per completed access (re-walks of the redone
#: work vs. walks spent on abandoned work): a structural tie that sits
#: within 0.03% either way (EXPERIMENTS.md, ext_recovery).  HDPAT, whose
#: makespan is not walk-bound, stays strictly ordered.
WALK_BOUND_TIE_TOLERANCE = 0.005


class TestRecoveryExperiment:
    def test_three_way_ordering_is_monotone(self):
        result = ext_recovery.run(scale=0.03, seed=3)
        assert result.series["recovery"]
        for key, curve in result.series["recovery"].items():
            variants = [variant for variant, _slowdown in curve]
            assert variants == ["healthy", "recovered", "failstop"]
            healthy, recovered, failstop = (
                slowdown for _variant, slowdown in curve
            )
            assert healthy == pytest.approx(1.0)
            assert healthy < recovered, key
            if key.endswith(".baseline"):
                failstop *= 1.0 + WALK_BOUND_TIE_TOLERANCE
            assert recovered <= failstop, key


class TestRecoveryCLI:
    def test_cli_accepts_plan_json(self, tmp_path, capsys):
        from repro.system.cli import main

        plan_path = tmp_path / "plan.json"
        plan = FaultPlan(seed=9, timeline=_scenario(recover=True))
        plan_path.write_text(json.dumps(plan.to_dict()))
        assert main(["spmv", "--scale", "0.02", "--seed", "3",
                     "--faults", str(plan_path)]) == 0
        out = capsys.readouterr().out
        assert "timeline:" in out
        assert "2 kills, 2 recoveries" in out

    def test_cli_rejects_unreadable_plan(self, capsys):
        from repro.system.cli import main

        assert main(["spmv", "--faults", "/no/such/plan.json"]) == 2
        assert "cannot load fault plan" in capsys.readouterr().err
