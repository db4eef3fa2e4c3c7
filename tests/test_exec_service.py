"""Tests for the multi-host sweep service: the fcntl-locked JobLedger,
host failover with work-stealing, WorkerFaultPlan host chaos, tenant
fairness with back-pressure, and the serve/submit/status CLI verbs.

The load-bearing invariant carries over from the single-machine chaos
layer: host faults perturb *liveness* only, so a chaos-faulted,
host-killed, work-stolen campaign's result table is byte-identical to
``--jobs 1`` serial execution of the same grid.

Host crashes are real process deaths (``os._exit`` / SIGKILL), so every
end-to-end failover test runs its hosts in ``multiprocessing.Process``
children — a crash must never take pytest down with it.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.errors import (
    BackPressureError,
    CampaignError,
    ConfigurationError,
    ExecConfigError,
    ServiceError,
)
from repro.exec import WorkerFaultPlan, make_job
from repro.exec.diskcache import DiskResultCache
from repro.exec.jobs import MAX_ATTEMPTS, execute_job
from repro.exec.ledger import JobLedger
from repro.exec.progress import SweepHeartbeat, merge_heartbeat_streams
from repro.exec.resilience import CRASH, HANG, OK, SLOW
from repro.exec.service import Coordinator, WorkerHost
from repro.experiments.cli import main
from repro.experiments.sweep import cell_job, grid_cells


def _entries(count, tenant_tag=""):
    """Synthetic ledger entries: (cache_key, cell, job_key) tuples."""
    return [
        (
            f"key-{tenant_tag}{i}",
            ["baseline", "aes", 0.02, i],
            f"jk-{tenant_tag}{i}",
        )
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# Host chaos: the WorkerFaultPlan a WorkerHost draws per (key, ledger hold)
# ---------------------------------------------------------------------------
class TestHostFaultPlan:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkerFaultPlan(crash_prob=1.5)
        with pytest.raises(ConfigurationError):
            WorkerFaultPlan(crash_prob=0.6, hang_prob=0.6)
        with pytest.raises(ConfigurationError):
            WorkerFaultPlan(crash_mode="mid-sleep")
        with pytest.raises(ConfigurationError):
            WorkerFaultPlan(hang_seconds=-1.0)
        with pytest.raises(ConfigurationError):
            WorkerFaultPlan(slow_factor=0.5)

    def test_json_round_trip(self):
        plan = WorkerFaultPlan(
            seed=9,
            crash_prob=0.2,
            hang_prob=0.1,
            slow_prob=0.05,
            crash_mode="kill",
            hang_seconds=2.5,
            slow_factor=3.0,
            poison_keys=("b", "a"),
        )
        revived = WorkerFaultPlan.from_dict(
            json.loads(json.dumps(plan.to_dict()))
        )
        assert revived == plan
        assert revived.poison_keys == ("a", "b")  # sorted + deduped

    def test_verdicts_deterministic_and_hold_dependent(self):
        plan = WorkerFaultPlan(
            seed=3, crash_prob=0.3, hang_prob=0.3, slow_prob=0.3
        )
        keys = [f"job-{i}" for i in range(64)]
        first = [plan.verdict_for(k, 0) for k in keys]
        assert first == [plan.verdict_for(k, 0) for k in keys]
        # All verdict kinds appear across a reasonable key population...
        assert {CRASH, HANG, SLOW, OK} <= set(first)
        # ...and verdicts are drawn per (key, hold), not per key.
        assert first != [plan.verdict_for(k, 1) for k in keys]

    def test_empty_plan(self):
        assert WorkerFaultPlan().is_empty
        assert WorkerFaultPlan().verdict_for("anything", 0) == OK


# ---------------------------------------------------------------------------
# JobLedger: leases, fairness, back-pressure
# ---------------------------------------------------------------------------
class TestJobLedger:
    def test_missing_ledger_raises(self, tmp_path):
        with pytest.raises(ServiceError):
            JobLedger(tmp_path / "nowhere")

    def test_config_validation(self, tmp_path):
        with pytest.raises(ExecConfigError):
            JobLedger(tmp_path, create=True, lease_ttl=0.0)

    def test_submit_claim_commit_lifecycle(self, tmp_path):
        ledger = JobLedger(tmp_path, create=True)
        summary = ledger.submit("c1", "alice", _entries(3))
        assert summary["total"] == 3 and summary["new"] == 3
        claim = ledger.claim("h1")
        assert claim["key"] == "key-0" and claim["hold"] == 0
        assert ledger.commit(claim["key"], "h1") is True
        # First-writer-wins: a second commit is a counted dedup.
        assert ledger.commit(claim["key"], "h2") is False
        progress = ledger.progress("c1")
        assert progress["done"] == 1 and progress["pending"] == 2
        assert ledger.snapshot()["counters"]["dedup_commits"] == 1

    def test_duplicate_campaign_rejected(self, tmp_path):
        ledger = JobLedger(tmp_path, create=True)
        ledger.submit("c1", "alice", _entries(2))
        with pytest.raises(CampaignError):
            ledger.submit("c1", "bob", _entries(2))

    def test_cross_campaign_dedup(self, tmp_path):
        ledger = JobLedger(tmp_path, create=True)
        ledger.submit("c1", "alice", _entries(3))
        summary = ledger.submit("c2", "alice", _entries(5))
        assert summary["deduplicated"] == 3 and summary["new"] == 2
        assert ledger.progress("c2")["total"] == 5

    def test_precommitted_keys_enter_done(self, tmp_path):
        ledger = JobLedger(tmp_path, create=True)
        entries = _entries(3)
        summary = ledger.submit(
            "c1", "alice", entries, precommitted={entries[0][0]}
        )
        assert summary["precommitted"] == 1
        progress = ledger.progress("c1")
        assert progress["done"] == 1 and progress["pending"] == 2

    def test_lease_expiry_is_stealable(self, tmp_path):
        ledger = JobLedger(tmp_path, create=True, lease_ttl=10.0)
        ledger.submit("c1", "alice", _entries(1))
        t0 = 1000.0
        first = ledger.claim("h1", now=t0)
        assert first["hold"] == 0
        # Within the TTL nothing is claimable.
        assert ledger.claim("h2", now=t0 + 5.0) is None
        # Past the TTL the lease expires and the claim *is* the steal.
        stolen = ledger.claim("h2", now=t0 + 10.5)
        assert stolen["key"] == first["key"] and stolen["hold"] == 1
        assert ledger.progress("c1")["steals"] == 1

    def test_expired_leases_spend_the_attempt_budget(self, tmp_path):
        """A job whose every claimant dies must not cycle forever: each
        expired lease charges one attempt, and the last one fails it."""
        ledger = JobLedger(tmp_path, create=True, lease_ttl=1.0)
        ledger.submit("c1", "alice", _entries(1))
        now = 1000.0
        for hold in range(MAX_ATTEMPTS):
            claim = ledger.claim(f"h{hold}", now=now)
            assert claim["hold"] == hold and claim["attempts"] == hold
            now += 1.5  # the holder dies; its lease expires
        assert ledger.claim("h-last", now=now) is None
        (job,) = ledger.snapshot()["jobs"].values()
        assert job["state"] == "failed" and job["attempts"] == MAX_ATTEMPTS
        assert "lease expired" in job["error"]
        progress = ledger.progress("c1")
        assert progress["failed"] == 1 and ledger.outstanding() == 0

    def test_renew_extends_leases(self, tmp_path):
        ledger = JobLedger(tmp_path, create=True, lease_ttl=10.0)
        ledger.submit("c1", "alice", _entries(1))
        t0 = 1000.0
        ledger.claim("h1", now=t0)
        assert ledger.renew("h1", now=t0 + 9.0) == 1
        # Would have expired at t0+10 without the renewal.
        assert ledger.claim("h2", now=t0 + 12.0) is None

    def test_release_requeues_immediately(self, tmp_path):
        ledger = JobLedger(tmp_path, create=True, lease_ttl=1000.0)
        ledger.submit("c1", "alice", _entries(1))
        ledger.claim("h1", now=1000.0)
        assert ledger.release("h1") == 1
        assert ledger.claim("h2", now=1000.1) is not None

    def test_fail_requeues_then_terminal(self, tmp_path):
        ledger = JobLedger(tmp_path, create=True)
        ledger.submit("c1", "alice", _entries(1))
        for attempt in range(MAX_ATTEMPTS - 1):
            claim = ledger.claim("h1")
            assert claim["attempts"] == attempt
            assert ledger.fail(claim["key"], "h1", "boom") is False
        claim = ledger.claim("h1")
        assert ledger.fail(claim["key"], "h1", "boom again") is True
        progress = ledger.progress("c1")
        assert progress["failed"] == 1 and progress["pending"] == 0
        assert ledger.outstanding() == 0

    def test_weighted_fair_dispatch(self, tmp_path):
        ledger = JobLedger(tmp_path, create=True)
        ledger.submit("heavy", "alice", _entries(30, "a"), weight=3.0)
        ledger.submit("light", "bob", _entries(30, "b"), weight=1.0)
        dispatched = {"alice": 0, "bob": 0}
        for _ in range(20):
            claim = ledger.claim("h1")
            dispatched[claim["tenant"]] += 1
            ledger.commit(claim["key"], "h1")
        # 3:1 weights → 15:5 over any window with both queues non-empty.
        assert dispatched == {"alice": 15, "bob": 5}

    def test_back_pressure_rejects_whole_and_spares_others(self, tmp_path):
        ledger = JobLedger(tmp_path, create=True)
        ledger.submit("a1", "alice", _entries(4, "a"), weight=2.0)
        with pytest.raises(BackPressureError) as excinfo:
            ledger.submit(
                "b1", "bob", _entries(5, "b"), weight=1.0, queue_cap=3
            )
        err = excinfo.value
        assert err.tenant == "bob" and err.cap == 3 and err.submitted == 5
        # Atomic reject: no bob campaign, no bob jobs, alice untouched.
        snapshot = ledger.snapshot()
        assert "b1" not in snapshot["campaigns"]
        assert ledger.progress()["total"] == 4
        # A capped-but-fitting submission is admitted, and both tenants
        # then drain at their fair-share weights.
        ledger.submit("b2", "bob", _entries(2, "b"), weight=1.0, queue_cap=3)
        order = []
        while True:
            claim = ledger.claim("h1")
            if claim is None:
                break
            order.append(claim["tenant"])
            ledger.commit(claim["key"], "h1")
        assert order.count("alice") == 4 and order.count("bob") == 2
        # weight 2 vs 1: alice is never behind bob by dispatch share.
        assert order[0] == "alice"

    def test_unknown_campaign(self, tmp_path):
        ledger = JobLedger(tmp_path, create=True)
        with pytest.raises(CampaignError):
            ledger.progress("ghost")


# ---------------------------------------------------------------------------
# Satellite: DiskResultCache concurrent same-key writers
# ---------------------------------------------------------------------------
def _cache_writer(cache_dir, config, stores):
    # SystemConfig (like RunJob) is picklable, so it crosses the process
    # boundary directly.
    job = make_job(config, "aes", 0.02, seed=1)
    result = execute_job(job)
    cache = DiskResultCache(cache_dir)
    for _ in range(stores):
        cache.store(job, result)


class TestDiskCacheConcurrentWriters:
    def test_readers_never_see_torn_files(self, tmp_path, small_system_config):
        cache_dir = str(tmp_path / "cache")
        job = make_job(small_system_config, "aes", 0.02, seed=1)
        expected = execute_job(job)
        cache = DiskResultCache(cache_dir)
        cache.store(job, expected)
        writers = [
            multiprocessing.Process(
                target=_cache_writer,
                args=(cache_dir, small_system_config, 25),
            )
            for _ in range(3)
        ]
        for proc in writers:
            proc.start()
        torn = 0
        while any(proc.is_alive() for proc in writers):
            # Atomic-rename contract: the key exists from the first
            # store on, and a load mid-race is never torn/corrupt.
            loaded = cache.load(job)
            if loaded is None:
                torn += 1
            time.sleep(0.002)
        for proc in writers:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        assert torn == 0
        # Last writer wins; content-addressed writers all wrote the
        # same deterministic bytes, so the survivor matches serial.
        final = cache.load(job)
        assert final is not None
        assert final.exec_cycles == expected.exec_cycles


# ---------------------------------------------------------------------------
# Satellite: heartbeat host/seq fields, guards, merged streams
# ---------------------------------------------------------------------------
class TestHeartbeatHostFields:
    def test_seq_and_host_fields(self, tmp_path):
        path = str(tmp_path / "hb.jsonl")
        hb = SweepHeartbeat(path, every=0.0, host_id="hostA")
        hb.beat({"total": 2, "done": 1}, force=True)
        hb.beat({"total": 2, "done": 2}, force=True)
        records = merge_heartbeat_streams([path])
        assert [r["seq"] for r in records] == [0, 1]
        assert all(r["host"] == "hostA" for r in records)
        assert all("t" in r for r in records)

    def test_no_host_id_omits_field(self, tmp_path):
        path = str(tmp_path / "hb.jsonl")
        hb = SweepHeartbeat(path, every=0.0)
        hb.beat({"total": 1, "done": 1}, force=True)
        (record,) = merge_heartbeat_streams([path])
        assert "host" not in record and record["seq"] == 0

    def test_zero_elapsed_and_zero_rate_guards(self, tmp_path, monkeypatch):
        import repro.exec.progress as progress_module

        frozen = 5000.0
        monkeypatch.setattr(progress_module.time, "time", lambda: frozen)
        hb = SweepHeartbeat(str(tmp_path / "hb.jsonl"), every=0.0)
        # Zero elapsed with completions: no ZeroDivisionError, no rate.
        hb.beat({"total": 4, "done": 2, "events": 100}, force=True)
        # Zero rate with remaining work: ETA must stay null.
        hb.beat({"total": 4, "done": 0}, force=True)
        first, second = merge_heartbeat_streams([hb.path])
        assert first["jobs_per_sec"] is None
        assert first["events_per_sec"] is None
        assert first["eta_seconds"] is None
        assert second["eta_seconds"] is None

    def test_merge_orders_by_time_host_seq(self, tmp_path):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        with open(a, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"t": 2.0, "host": "a", "seq": 0}) + "\n")
            handle.write(json.dumps({"t": 3.0, "host": "a", "seq": 1}) + "\n")
        with open(b, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"t": 2.0, "host": "b", "seq": 0}) + "\n")
            handle.write(json.dumps({"t": 1.0, "host": "b", "seq": 1}) + "\n")
            handle.write('{"torn')  # tolerated final line
        merged = merge_heartbeat_streams([b, a, str(tmp_path / "gone.jsonl")])
        assert [(r["t"], r["host"]) for r in merged] == [
            (1.0, "b"), (2.0, "a"), (2.0, "b"), (3.0, "a"),
        ]


# ---------------------------------------------------------------------------
# End-to-end: campaigns, failover, exactly-once commits
# ---------------------------------------------------------------------------
GRID = dict(schemes=["baseline"], benchmarks="aes,fir", scales=[0.02], seeds=[1, 2])


def _serial_table():
    from repro.experiments import sweep as sweep_module
    from repro.experiments.common import RunCache

    return sweep_module.run(
        benchmarks=GRID["benchmarks"],
        cache=RunCache(),
        schemes=GRID["schemes"],
        scales=GRID["scales"],
        seeds=GRID["seeds"],
    ).format_table()


def _run_host(root, host_id, faults=None, poll=0.05):
    plan = WorkerFaultPlan.from_dict(faults) if faults else None
    WorkerHost(root, host_id=host_id, faults=plan, poll=poll).run()


def _one_crash_seed(keys):
    """A plan seed under which exactly one key's first hold crashes its
    host and every later hold (a steal) survives — found by scanning,
    the way the pool chaos tests pick theirs, so the test stays valid if
    the job keys ever change shape."""
    for seed in range(500):
        plan = WorkerFaultPlan(seed=seed, crash_prob=0.3)
        first = [plan.verdict_for(key, 0) for key in keys]
        later = [plan.verdict_for(key, hold) for key in keys for hold in (1, 2)]
        if first.count(CRASH) == 1 and set(later) == {OK}:
            return seed
    raise AssertionError("no suitable host crash seed in range")


@pytest.fixture(scope="module")
def serial_table():
    return _serial_table()


class TestServiceEndToEnd:
    def test_single_host_drain_and_byte_identical_table(
        self, tmp_path, serial_table
    ):
        coordinator = Coordinator(tmp_path, lease_ttl=30.0)
        summary = coordinator.submit("c1", "alice", **GRID)
        assert summary["total"] == 4 and summary["new"] == 4
        host_summary = WorkerHost(tmp_path, host_id="h1", poll=0.05).run()
        assert host_summary["done"] == 4 and host_summary["exit"] == "drained"
        progress = coordinator.ledger.progress("c1")
        assert progress["done"] == 4 and progress["failed"] == 0
        assert coordinator.result_table("c1").format_table() == serial_table
        # The host's first beat lands as its first claim starts running;
        # the terminal beat reports it idle.
        beats = coordinator.host_heartbeats()
        assert beats[0]["running"] == 1 and beats[-1]["running"] == 0

    def test_resubmission_precommits_from_shared_cache(self, tmp_path):
        import shutil

        root_a = tmp_path / "a"
        coordinator = Coordinator(root_a, lease_ttl=30.0)
        coordinator.submit("c1", "alice", **GRID)
        WorkerHost(root_a, host_id="h1", poll=0.05).run()
        # Same ledger, same grid: the ledger's own dedup absorbs it.
        summary = coordinator.submit("c2", "bob", **GRID)
        assert summary["deduplicated"] == 4 and summary["new"] == 0
        assert coordinator.ledger.outstanding() == 0
        # A *fresh* service root inheriting the shared result cache:
        # every key is already on disk, so the jobs enter pre-committed
        # and no host ever has to run.
        root_b = tmp_path / "b"
        root_b.mkdir()
        shutil.copytree(root_a / "cache", root_b / "cache")
        fresh = Coordinator(root_b, lease_ttl=30.0)
        summary = fresh.submit("c1", "alice", **GRID)
        assert summary["precommitted"] == 4 and summary["new"] == 0
        assert fresh.ledger.outstanding() == 0
        assert fresh.ledger.progress("c1")["done"] == 4

    def test_incomplete_campaign_has_no_table(self, tmp_path):
        coordinator = Coordinator(tmp_path, lease_ttl=30.0)
        coordinator.submit("c1", "alice", **GRID)
        with pytest.raises(CampaignError):
            coordinator.result_table("c1")

    def test_chaos_doomed_host_failover_byte_identical(
        self, tmp_path, serial_table
    ):
        """Seeded host-crash failover: one job's first claimant
        hard-crashes mid-lease; the surviving host steals and finishes."""
        coordinator = Coordinator(tmp_path, lease_ttl=1.0)
        coordinator.submit("c1", "alice", **GRID)
        keys = [
            cell_job(*cell).job_key()
            for cell in grid_cells(
                GRID["schemes"], GRID["benchmarks"], GRID["scales"],
                GRID["seeds"],
            )
        ]
        faults = WorkerFaultPlan(
            seed=_one_crash_seed(keys), crash_prob=0.3
        ).to_dict()
        hosts = [
            multiprocessing.Process(
                target=_run_host, args=(str(tmp_path), f"h{n}", faults)
            )
            for n in range(2)
        ]
        for proc in hosts:
            proc.start()
        for proc in hosts:
            proc.join(timeout=180)
        # Exactly one host died at the chaos crash point; the other
        # drained the ledger, stealing the expired lease.
        assert sorted(proc.exitcode for proc in hosts) == [0, 137]
        progress = coordinator.ledger.progress("c1")
        assert progress["done"] == 4 and progress["failed"] == 0
        assert progress["steals"] >= 1
        assert coordinator.result_table("c1").format_table() == serial_table

    def test_sigkill_host_failover_byte_identical(
        self, tmp_path, serial_table
    ):
        """SIGKILL one of two hosts mid-campaign (while it provably holds
        a lease — it stalls before committing); the survivor steals."""
        coordinator = Coordinator(tmp_path, lease_ttl=1.0)
        coordinator.submit("c1", "alice", **GRID)
        # Host A stalls forever before every commit, so from its first
        # claim until the SIGKILL it is guaranteed to hold a live lease.
        stall_all = WorkerFaultPlan(
            seed=0, hang_prob=1.0, hang_seconds=600.0
        ).to_dict()
        victim = multiprocessing.Process(
            target=_run_host, args=(str(tmp_path), "victim", stall_all)
        )
        victim.start()
        deadline = time.time() + 120
        while time.time() < deadline:
            if coordinator.ledger.progress("c1")["leased"] >= 1:
                break
            time.sleep(0.01)
        else:
            pytest.fail("victim host never claimed a job")
        victim.kill()  # SIGKILL: no teardown, lease left dangling
        victim.join(timeout=60)
        survivor = WorkerHost(tmp_path, host_id="survivor", poll=0.05).run()
        assert survivor["exit"] == "drained"
        progress = coordinator.ledger.progress("c1")
        assert progress["done"] == 4 and progress["failed"] == 0
        assert progress["steals"] >= 1
        assert coordinator.result_table("c1").format_table() == serial_table

    def test_stalled_host_late_commit_is_dedup(self, tmp_path):
        """Exactly-once past commit: a stalled host's stolen job is
        finished elsewhere; its own late commit lands as a dedup, never
        a second result."""
        coordinator = Coordinator(tmp_path, lease_ttl=1.0)
        coordinator.submit(
            "c1", "alice",
            schemes=["baseline"], benchmarks="aes", scales=[0.02], seeds=[1],
        )
        stall_first = WorkerFaultPlan(
            seed=0, hang_prob=1.0, hang_seconds=4.0
        ).to_dict()
        staller = multiprocessing.Process(
            target=_run_host, args=(str(tmp_path), "staller", stall_first)
        )
        staller.start()
        deadline = time.time() + 120
        while time.time() < deadline:
            if coordinator.ledger.progress("c1")["leased"] >= 1:
                break
            time.sleep(0.01)
        else:
            pytest.fail("staller never claimed the job")
        # Survivor steals once the stalled lease expires (~1s), then
        # serves the result from the shared cache the staller already
        # durably stored before its stall.
        survivor = WorkerHost(tmp_path, host_id="survivor", poll=0.05).run()
        assert survivor["done"] == 1
        staller.join(timeout=120)
        assert staller.exitcode == 0  # stall is silence, not death
        snapshot = coordinator.ledger.snapshot()
        assert snapshot["counters"]["dedup_commits"] == 1
        (job,) = snapshot["jobs"].values()
        assert job["state"] == "done" and job["holds"] == 2


# ---------------------------------------------------------------------------
# CLI verbs
# ---------------------------------------------------------------------------
class TestCliService:
    def test_submit_serve_status_round_trip(
        self, tmp_path, capsys, serial_table
    ):
        root = str(tmp_path / "svc")
        out = str(tmp_path / "table.txt")
        assert main([
            "submit", "--service-dir", root, "--campaign", "c1",
            "--tenant", "alice", "--schemes", "baseline",
            "--benchmarks", "aes,fir", "--scales", "0.02", "--seeds", "1,2",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["total"] == 4
        assert main([
            "serve", "--service-dir", root, "--host-id", "h1",
            "--poll", "0.05",
        ]) == 0
        capsys.readouterr()
        assert main([
            "status", "--service-dir", root, "--campaign", "c1",
            "--output", out,
        ]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["progress"]["done"] == 4
        assert "h1" in status["hosts"]
        with open(out, "r", encoding="utf-8") as handle:
            assert handle.read() == serial_table + "\n\n"

    def test_submit_back_pressure_exit_code(self, tmp_path, capsys):
        root = str(tmp_path / "svc")
        assert main([
            "submit", "--service-dir", root, "--campaign", "big",
            "--tenant", "bob", "--schemes", "baseline",
            "--benchmarks", "aes,fir", "--scales", "0.02",
            "--seeds", "1,2", "--queue-cap", "3",
        ]) == 4
        assert "back-pressure" in capsys.readouterr().err
        # Atomic reject: the campaign is absent, so the name is free.
        assert main([
            "submit", "--service-dir", root, "--campaign", "big",
            "--tenant", "bob", "--schemes", "baseline",
            "--benchmarks", "aes", "--scales", "0.02", "--seeds", "1",
            "--queue-cap", "3",
        ]) == 0

    def test_status_incomplete_campaign_exit_code(self, tmp_path, capsys):
        root = str(tmp_path / "svc")
        assert main([
            "submit", "--service-dir", root, "--campaign", "c1",
            "--tenant", "alice", "--schemes", "baseline",
            "--benchmarks", "aes", "--scales", "0.02", "--seeds", "1",
        ]) == 0
        capsys.readouterr()
        assert main([
            "status", "--service-dir", root, "--campaign", "c1",
            "--output", str(tmp_path / "t.txt"),
        ]) == 5

    def test_status_without_ledger_is_config_error(self, tmp_path, capsys):
        assert main(
            ["status", "--service-dir", str(tmp_path / "empty")]
        ) == 2
        assert "no job ledger" in capsys.readouterr().err

    def test_serve_applies_worker_faults_to_the_host(self, tmp_path, capsys):
        root = str(tmp_path / "svc")
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            WorkerFaultPlan(slow_prob=1.0, slow_factor=1.0).to_dict()
        ))
        assert main([
            "submit", "--service-dir", root, "--campaign", "c1",
            "--schemes", "baseline", "--benchmarks", "aes",
            "--scales", "0.02", "--seeds", "1",
        ]) == 0
        capsys.readouterr()
        assert main([
            "serve", "--service-dir", root, "--poll", "0.05",
            "--worker-faults", str(plan),
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["done"] == 1 and summary["chaos"] == 1

    def test_serve_requires_service_dir(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve"])

    def test_duplicate_campaign_exit_code(self, tmp_path, capsys):
        root = str(tmp_path / "svc")
        args = [
            "submit", "--service-dir", root, "--campaign", "c1",
            "--tenant", "alice", "--schemes", "baseline",
            "--benchmarks", "aes", "--scales", "0.02", "--seeds", "1",
        ]
        assert main(args) == 0
        assert main(args) == 2
