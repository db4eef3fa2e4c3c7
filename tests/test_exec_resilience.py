"""Tests for repro.exec.resilience: chaos plans, resume from the disk
cache, the circuit breaker, and graceful abort.

The overarching invariant: chaos only ever perturbs worker *timing and
liveness*, so a faulted / interrupted / rerun sweep must produce result
digests byte-identical to plain serial execution.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.analysis.sanitizers import result_digest
from repro.errors import ConfigurationError, ReproError, SweepAbortedError
from repro.exec import (
    SweepExecutor,
    WorkerFaultPlan,
    make_job,
    read_heartbeats,
    read_jsonl_prefix,
)
from repro.exec import executor as executor_module
from repro.exec.jobs import MAX_ATTEMPTS
from repro.exec.resilience import CRASH, OK
from repro.experiments.cli import main
from repro.faults.retry import RetryPolicy


@pytest.fixture(scope="module")
def small_system_config(tiny_gpm_config):
    # Module-scoped twin of the conftest fixture so expensive runs are
    # shared across this file's tests.
    from repro.config.iommu import IOMMUConfig
    from repro.config.system import SystemConfig

    return SystemConfig(
        mesh_width=3,
        mesh_height=3,
        gpm=tiny_gpm_config,
        iommu=IOMMUConfig(
            num_walkers=4,
            walk_latency=100,
            pw_queue_capacity=8,
            redirection_entries=64,
        ),
    )


@pytest.fixture(scope="module")
def tiny_gpm_config():
    from repro.config.gpm import GPMConfig, TLBConfig

    return GPMConfig(
        name="tiny",
        num_cus=4,
        l1_vector_tlb=TLBConfig(1, 8, 4, 4),
        l1_scalar_tlb=TLBConfig(1, 8, 4, 4),
        l1_inst_tlb=TLBConfig(1, 8, 4, 4),
        l2_tlb=TLBConfig(8, 8, 8, 32),
        gmmu_cache=TLBConfig(8, 4, 4, 8),
        gmmu_walkers=2,
        walk_latency=100,
        cuckoo_capacity=4096,
        outstanding_per_cu=4,
        issue_width=2,
    )


def _jobs(config, count, workload="aes"):
    return [
        make_job(config, workload, 0.02, seed=seed)
        for seed in range(1, count + 1)
    ]


def _serial_digests(jobs):
    results = SweepExecutor(jobs=1).map(jobs)
    return {index: result_digest(results[index]) for index in results}


def _crashy_seed(keys):
    """A plan seed where every key survives within the attempt budget
    and at least one crashes on its first attempt — found by scanning,
    so the test stays valid if the config repr (and thus the job keys)
    ever changes shape."""
    for seed in range(200):
        plan = WorkerFaultPlan(
            seed=seed, crash_prob=0.3, slow_prob=0.2, slow_factor=2.0
        )
        streams = [
            [plan.verdict_for(key, attempt) for attempt in range(MAX_ATTEMPTS)]
            for key in keys
        ]
        if (
            all(any(v != CRASH for v in stream) for stream in streams)
            and any(stream[0] == CRASH for stream in streams)
        ):
            return seed
    raise AssertionError("no suitable chaos seed in range")


class TestWorkerFaultPlan:
    def test_json_round_trip(self):
        plan = WorkerFaultPlan(
            seed=7, crash_prob=0.25, hang_prob=0.1, slow_prob=0.05,
            slow_factor=3.0, hang_seconds=2.5,
            poison_keys=("b", "a"), crash_mode="kill",
        )
        revived = WorkerFaultPlan.from_dict(
            json.loads(json.dumps(plan.to_dict()))
        )
        assert revived == plan
        # Poison keys are canonically sorted/deduped.
        assert plan.poison_keys == ("a", "b")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkerFaultPlan(crash_prob=1.5)
        with pytest.raises(ConfigurationError):
            WorkerFaultPlan(crash_prob=0.6, hang_prob=0.5)
        with pytest.raises(ConfigurationError):
            WorkerFaultPlan(slow_factor=0.5)
        with pytest.raises(ConfigurationError):
            WorkerFaultPlan(hang_seconds=-1.0)
        with pytest.raises(ConfigurationError):
            WorkerFaultPlan(crash_mode="segfault")

    def test_is_empty(self):
        assert WorkerFaultPlan().is_empty
        assert not WorkerFaultPlan(crash_prob=0.1).is_empty
        assert not WorkerFaultPlan(poison_keys=("k",)).is_empty

    def test_verdicts_deterministic_and_salted(self):
        plan = WorkerFaultPlan(seed=3, crash_prob=0.5, hang_prob=0.25)
        verdicts = [plan.verdict_for("job-a", 0) for _ in range(5)]
        assert len(set(verdicts)) == 1
        # Different attempts / keys / seeds draw independent streams.
        draws = {
            plan.verdict_for(f"job-{n}", attempt)
            for n in range(20) for attempt in range(3)
        }
        assert len(draws) > 1

    def test_poison_keys_always_crash(self):
        plan = WorkerFaultPlan(seed=1, poison_keys=("doomed",))
        assert all(
            plan.verdict_for("doomed", attempt) == CRASH
            for attempt in range(10)
        )
        assert plan.verdict_for("healthy", 0) == OK

    def test_job_key_is_stable_and_config_scoped(self, small_system_config):
        a = make_job(small_system_config, "aes", 0.02, seed=1)
        b = make_job(small_system_config, "aes", 0.02, seed=1)
        c = make_job(small_system_config, "aes", 0.02, seed=2)
        assert a.job_key() == b.job_key()
        assert a.job_key() != c.job_key()
        assert "aes@0.02/s1" in a.job_key()


class TestTornLines:
    def test_read_heartbeats_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        path.write_text('{"done": 1}\n{"done": 2}\n{"done": 3, "fai')
        assert read_heartbeats(str(path)) == [{"done": 1}, {"done": 2}]

    def test_torn_middle_line_still_raises(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        path.write_text('{"done": 1}\n{"done": 2, "fai\n{"done": 3}\n')
        with pytest.raises(ValueError):
            read_jsonl_prefix(str(path))


class TestChaosDigestParity:
    def test_chaos_sweep_matches_serial(self, small_system_config):
        jobs = _jobs(small_system_config, 4)
        keys = [job.job_key() for job in jobs]
        plan = WorkerFaultPlan(
            seed=_crashy_seed(keys),
            crash_prob=0.3, slow_prob=0.2, slow_factor=2.0,
        )
        chaotic = SweepExecutor(jobs=2, worker_faults=plan)
        results = chaotic.map(jobs)
        assert set(results) == set(range(len(jobs)))
        assert not chaotic.failures
        snap = chaotic.snapshot()["sweep"]["jobs"]
        assert snap["retries"] >= 1  # at least one injected crash retried
        serial = _serial_digests(jobs)
        for index, result in results.items():
            assert result_digest(result) == serial[index]

    def test_sigkilled_worker_fails_cleanly_without_wedging(
        self, small_system_config
    ):
        jobs = _jobs(small_system_config, 3)
        doomed = jobs[1].job_key()
        plan = WorkerFaultPlan(
            seed=0, poison_keys=(doomed,), crash_mode="kill"
        )
        executor = SweepExecutor(jobs=2, worker_faults=plan)
        results = executor.map(jobs)
        # The pool survived: every non-poisoned job completed.
        assert set(results) == {0, 2}
        assert len(executor.failures) == 1
        failure = executor.failures[0]
        assert failure.kind == "crash"
        assert failure.attempts == MAX_ATTEMPTS
        snap = executor.snapshot()["sweep"]["jobs"]
        assert snap["retries"] == MAX_ATTEMPTS - 1
        serial = _serial_digests([jobs[0], jobs[2]])
        assert result_digest(results[0]) == serial[0]
        assert result_digest(results[2]) == serial[1]


class TestCheckpointResume:
    def test_abort_after_then_resume_matches_serial(
        self, tmp_path, small_system_config
    ):
        """The disk cache is the checkpoint: an interrupted sweep resumes
        by being rerun against the same cache directory."""
        jobs = _jobs(small_system_config, 6)
        cache_dir = tmp_path / "cache"
        heartbeat = tmp_path / "hb.jsonl"
        interrupted = SweepExecutor(
            jobs=2, cache_dir=cache_dir, abort_after=2,
            heartbeat=str(heartbeat),
        )
        with pytest.raises(SweepAbortedError) as excinfo:
            interrupted.map(jobs)
        assert "abort_after" in str(excinfo.value.reason)
        partial = excinfo.value.results
        assert 2 <= len(partial) < len(jobs)
        assert interrupted.aborted_reason is not None
        # Terminal heartbeat record carries the aborted phase (written
        # even though map() raised).
        interrupted.finish_heartbeat()
        records = read_heartbeats(str(heartbeat))
        assert records[-1]["phase"] == "aborted"

        rerun = SweepExecutor(jobs=2, cache_dir=cache_dir)
        results = {}
        remaining = []
        for index, job in enumerate(jobs):
            cached = rerun.lookup(job)
            if cached is not None:
                results[index] = cached
            else:
                remaining.append(index)
        mapped = rerun.map([jobs[i] for i in remaining])
        for position, result in mapped.items():
            results[remaining[position]] = result
        snap = rerun.snapshot()["sweep"]["jobs"]
        assert snap["cache_hit_disk"] == len(partial)
        assert snap["executed"] == len(jobs) - len(partial)
        serial = _serial_digests(jobs)
        assert set(results) == set(serial)
        for index in serial:
            assert result_digest(results[index]) == serial[index]

    def test_heartbeat_reports_worker_liveness(
        self, tmp_path, small_system_config
    ):
        heartbeat = tmp_path / "hb.jsonl"
        executor = SweepExecutor(jobs=2, heartbeat=str(heartbeat))
        executor.map(_jobs(small_system_config, 2))
        executor.finish_heartbeat()
        final = read_heartbeats(str(heartbeat))[-1]
        assert final["phase"] == "finished"
        assert final["workers"]  # pid -> seconds-since-last-seen
        for age in final["workers"].values():
            assert age >= 0.0


class TestCircuitBreaker:
    def test_consecutive_failures_abort_with_partial_state(
        self, small_system_config
    ):
        jobs = _jobs(small_system_config, 4)
        plan = WorkerFaultPlan(
            seed=0, poison_keys=tuple(job.job_key() for job in jobs)
        )
        executor = SweepExecutor(
            jobs=2, worker_faults=plan, max_consecutive_failures=2,
        )
        with pytest.raises(SweepAbortedError) as excinfo:
            executor.map(jobs)
        assert "circuit breaker" in str(excinfo.value.reason)
        assert len(excinfo.value.failures) >= 2
        assert all(f.kind == "crash" for f in excinfo.value.failures)
        assert executor.snapshot()["sweep"]["aborted_reason"]


class TestSignalAbort:
    def test_pending_signal_aborts_and_restores_handlers(
        self, small_system_config
    ):
        executor = SweepExecutor(jobs=2)
        executor._on_signal(signal.SIGTERM, None)
        assert executor._abort_requested == "SIGTERM"
        before = signal.getsignal(signal.SIGINT)
        with pytest.raises(SweepAbortedError) as excinfo:
            executor.map(_jobs(small_system_config, 3))
        assert "SIGTERM" in str(excinfo.value.reason)
        assert signal.getsignal(signal.SIGINT) is before

    def test_serial_map_honours_abort_request(self, small_system_config):
        executor = SweepExecutor(jobs=1)
        executor._on_signal(signal.SIGINT, None)
        with pytest.raises(SweepAbortedError):
            executor.map(_jobs(small_system_config, 2))

    def test_in_process_batch_leaves_signal_handlers_alone(
        self, small_system_config, monkeypatch
    ):
        # A one-job batch runs in-process even with jobs=2; a handler
        # that only sets a flag would be read after the job ends, so
        # Ctrl-C must reach the job itself, as under run_inline.
        seen = []
        real = executor_module.execute_job

        def spy(job):
            seen.append(signal.getsignal(signal.SIGINT))
            return real(job)

        monkeypatch.setattr(executor_module, "execute_job", spy)
        before = signal.getsignal(signal.SIGINT)
        results = SweepExecutor(jobs=2).map(_jobs(small_system_config, 1))
        assert set(results) == {0}
        assert seen == [before]


def _worker_signal_dispositions():
    """(SIGTERM is the default action, SIGINT is ignored) in this process."""
    return (
        signal.getsignal(signal.SIGTERM) == signal.SIG_DFL,
        signal.getsignal(signal.SIGINT) == signal.SIG_IGN,
    )


class TestWorkerSignals:
    @pytest.mark.parametrize("chaos", [False, True])
    def test_workers_do_not_inherit_the_sweep_handlers(self, chaos):
        # Workers fork at the first submit, after map() installed its
        # flag-setting handlers; a worker keeping them would shrug off
        # SIGTERM and outlive a parent killed with SIGKILL.
        plan = WorkerFaultPlan(seed=1) if chaos else None
        executor = SweepExecutor(jobs=2)
        previous = executor._install_signal_handlers()
        try:
            pool = executor._new_pool(plan, 1)
            try:
                future = pool.submit(_worker_signal_dispositions)
                assert future.result(timeout=60) == (True, True)
            finally:
                executor._shutdown_pool(pool)
        finally:
            executor._restore_signal_handlers(previous)


class TestRetryBackoffAudit:
    def test_no_backoff_computed_after_final_failure(
        self, small_system_config, monkeypatch
    ):
        calls = []

        def counting(self, attempt):
            calls.append(attempt)
            return 0.0

        monkeypatch.setattr(RetryPolicy, "delay_for", counting)
        executor = SweepExecutor(jobs=2)
        jobs = [
            make_job(small_system_config, "aes", 0.02, seed=1),
            make_job(small_system_config, "no-such-benchmark", 0.02, seed=1),
        ]
        results = executor.map(jobs)
        assert set(results) == {0}
        assert executor.failures[0].attempts == MAX_ATTEMPTS == 3
        # Backoff is computed for the two retries and never for the
        # final, unretried failure.
        assert calls == [0, 1]


class TestCliResilience:
    GRID = [
        "sweep", "--schemes", "baseline", "--benchmarks", "aes,fir",
        "--scales", "0.02", "--seeds", "1,2",
    ]

    def test_unreadable_fault_plan_is_an_error(self, tmp_path, capsys):
        assert main(self.GRID + [
            "--worker-faults", str(tmp_path / "missing.json"),
        ]) == 2
        assert "worker fault plan" in capsys.readouterr().err

    def test_finish_heartbeat_written_when_experiment_raises(
        self, tmp_path, capsys
    ):
        # An unknown scheme passes the CLI's up-front checks and raises
        # inside the sweep, after the executor has started.
        heartbeat = tmp_path / "hb.jsonl"
        with pytest.raises(ReproError):
            main(["sweep", "--schemes", "no-such-scheme",
                  "--progress", str(heartbeat)])
        records = read_heartbeats(str(heartbeat))
        assert records and records[-1]["phase"] == "finished"

    def test_chaos_interrupt_resume_byte_identical(self, tmp_path, capsys):
        serial_out = tmp_path / "serial.txt"
        resumed_out = tmp_path / "resumed.txt"
        cache_dir = tmp_path / "cache"
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(
            WorkerFaultPlan(seed=5, crash_prob=0.2).to_dict()
        ))
        assert main(self.GRID + [
            "--jobs", "1", "--output", str(serial_out),
        ]) == 0
        # Chaos run, interrupted after one completed job: exit code 3.
        assert main(self.GRID + [
            "--jobs", "2", "--cache-dir", str(cache_dir),
            "--abort-after", "1", "--worker-faults", str(plan_path),
        ]) == 3
        assert "sweep aborted" in capsys.readouterr().err
        # Rerun against the same cache: finished jobs are disk hits.
        metrics = tmp_path / "metrics.json"
        assert main(self.GRID + [
            "--jobs", "2", "--cache-dir", str(cache_dir),
            "--worker-faults", str(plan_path),
            "--output", str(resumed_out), "--metrics-out", str(metrics),
        ]) == 0
        assert resumed_out.read_bytes() == serial_out.read_bytes()
        jobs = json.loads(metrics.read_text())["sweep"]["jobs"]
        assert jobs["cache_hit_disk"] >= 1 and jobs["failed"] == 0

    def test_second_sigterm_ends_a_hung_drain(self, tmp_path):
        # Every pool job hangs, so the first SIGTERM's drain would wait
        # out DRAIN_TIMEOUT_SECONDS; the second must end it at once.
        plan_path = tmp_path / "hang.json"
        plan_path.write_text(json.dumps(
            WorkerFaultPlan(hang_prob=1.0, hang_seconds=30.0).to_dict()
        ))
        heartbeat = tmp_path / "hb.jsonl"
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "experiments", *self.GRID,
             "--jobs", "2", "--worker-faults", str(plan_path),
             "--progress", str(heartbeat)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=env, cwd=str(tmp_path), start_new_session=True,
        )
        try:
            # A beat with jobs running means the pool loop, and so its
            # signal handlers, are live.
            deadline = time.monotonic() + 60.0
            while not (heartbeat.exists() and any(
                record.get("running")
                for record in read_heartbeats(str(heartbeat))
            )):
                assert proc.poll() is None, proc.stderr.read()
                assert time.monotonic() < deadline, "pool never started"
                time.sleep(0.1)
            proc.send_signal(signal.SIGTERM)
            time.sleep(0.5)
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=10)
            stderr = proc.stderr.read()
        finally:
            # The session holds the pool workers too; none may outlive
            # the test, whatever the outcome.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        assert code == 3, stderr
        assert "sweep aborted: received SIGTERM" in stderr
