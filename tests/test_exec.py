"""Tests for repro.exec: job identity, disk cache, executor, CLI wiring."""

import json
import multiprocessing
import time

import pytest

from repro.core.request import ServedBy
from repro.errors import ConfigurationError
from repro.exec import (
    CACHE_SCHEMA,
    DiskResultCache,
    SweepExecutor,
    default_jobs,
    execute_job,
    make_job,
)
from repro.exec.jobs import MAX_ATTEMPTS
from repro.experiments import sweep
from repro.experiments.cli import main
from repro.experiments.common import RunCache
from repro.system.result import RunResult
from repro.system.runner import run_benchmark

FAST = dict(scale=0.02, seed=1)


@pytest.fixture(scope="module")
def aes_result(small_system_config):
    return run_benchmark(small_system_config, "aes", scale=0.02, seed=1)


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


class TestRunJob:
    def test_cache_key_stable(self, small_system_config):
        a = make_job(small_system_config, "aes", 0.02, seed=1)
        b = make_job(small_system_config, "aes", 0.02, seed=1)
        assert a.cache_key() == b.cache_key()
        assert a == b and hash(a) == hash(b)

    def test_cache_key_covers_every_coordinate(self, small_system_config):
        base = make_job(small_system_config, "aes", 0.02, seed=1)
        variants = [
            make_job(small_system_config, "fir", 0.02, seed=1),
            make_job(small_system_config, "aes", 0.03, seed=1),
            make_job(small_system_config, "aes", 0.02, seed=2),
            make_job(small_system_config, "aes", 0.02, seed=1,
                     max_cycles=1000),
        ]
        keys = {base.cache_key()} | {v.cache_key() for v in variants}
        assert len(keys) == len(variants) + 1
        # Every scheme, the SOTA baselines included, is its config alone.
        schemes = [
            sweep.cell_job(scheme, "aes", 0.02, 1)
            for scheme in sweep.SCHEME_NAMES
        ]
        assert len(schemes) == 5
        assert len({job.cache_key() for job in schemes}) == 5
        assert len(set(schemes)) == 5

    def test_schema_bump_changes_the_key(
        self, small_system_config, monkeypatch
    ):
        import repro.exec.jobs as jobs

        # Results from before the FIFO MSHR wakeup (schema 3) must never
        # be served: the schema is part of every key's material.
        assert CACHE_SCHEMA >= 4
        job = make_job(small_system_config, "aes", 0.02, seed=1)
        current = job.cache_key()
        monkeypatch.setattr(jobs, "CACHE_SCHEMA", 3)
        assert job.cache_key() != current

    def test_make_job_rejects_non_scalar_kwargs(self, small_system_config):
        with pytest.raises(ConfigurationError):
            make_job(small_system_config, "aes", 0.02, seed=1, obs=object())
        with pytest.raises(ConfigurationError):
            make_job(small_system_config, "aes", 0.02, seed=1,
                     sample_buffer_every=[100])
        job = make_job(small_system_config, "aes", 0.02, seed=1,
                       sample_buffer_every=100, sanitize=True)
        assert dict(job.run_kwargs) == {
            "sample_buffer_every": 100, "sanitize": True,
        }


class TestRunResultRoundTrip:
    def test_to_from_to_dict_identity(self, aes_result):
        first = aes_result.to_dict()
        revived = RunResult.from_dict(json.loads(json.dumps(first)))
        assert revived.to_dict() == first

    def test_served_by_keys_revived_as_enums(self, aes_result):
        revived = RunResult.from_dict(aes_result.to_dict())
        assert revived.served_by
        assert all(isinstance(k, ServedBy) for k in revived.served_by)
        assert revived.served_by == aes_result.served_by

    def test_extras_carry_truncated_and_raw_accuracy(self, aes_result):
        revived = RunResult.from_dict(aes_result.to_dict())
        assert revived.extras["truncated"] == aes_result.extras["truncated"]
        assert revived.extras["prefetch_accuracy_raw"] == pytest.approx(
            aes_result.extras["prefetch_accuracy_raw"]
        )

    def test_per_gpm_finish_preserved(self, aes_result):
        revived = RunResult.from_dict(aes_result.to_dict())
        assert revived.per_gpm_finish == aes_result.per_gpm_finish


class TestDiskResultCache:
    def test_round_trip(self, tmp_path, small_system_config, aes_result):
        cache = DiskResultCache(tmp_path)
        job = make_job(small_system_config, "aes", 0.02, seed=1)
        assert cache.load(job) is None
        cache.store(job, aes_result)
        assert len(cache) == 1
        revived = cache.load(job)
        assert revived is not None
        assert revived.to_dict() == aes_result.to_dict()

    def test_schema_mismatch_is_a_miss(
        self, tmp_path, small_system_config, aes_result
    ):
        cache = DiskResultCache(tmp_path)
        job = make_job(small_system_config, "aes", 0.02, seed=1)
        cache.store(job, aes_result)
        path = cache.path_for(job)
        payload = json.loads(path.read_text())
        payload["schema"] = CACHE_SCHEMA + 1
        path.write_text(json.dumps(payload))
        assert cache.load(job) is None

    def test_corrupt_file_is_a_miss(
        self, tmp_path, small_system_config, aes_result
    ):
        cache = DiskResultCache(tmp_path)
        job = make_job(small_system_config, "aes", 0.02, seed=1)
        cache.store(job, aes_result)
        cache.path_for(job).write_text("{not json")
        assert cache.load(job) is None


def _cache_writer(cache_dir, config, stores):
    # SystemConfig (like RunJob) is picklable, so it crosses the process
    # boundary directly.
    job = make_job(config, "aes", 0.02, seed=1)
    result = execute_job(job)
    cache = DiskResultCache(cache_dir)
    for _ in range(stores):
        cache.store(job, result)


class TestDiskCacheConcurrentWriters:
    """Concurrent sweeps may share one ``--cache-dir``."""

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


class TestSweepExecutor:
    def test_default_jobs_leaves_a_core(self):
        assert default_jobs() >= 1

    def test_parallel_matches_serial(self, small_system_config):
        jobs = [
            make_job(small_system_config, name, 0.02, seed=1)
            for name in ("aes", "fir")
        ]
        serial = SweepExecutor(jobs=1).map(jobs)
        parallel = SweepExecutor(jobs=2).map(jobs)
        assert set(serial) == set(parallel) == {0, 1}
        for index in serial:
            assert serial[index].to_dict() == parallel[index].to_dict()

    def test_failure_recorded_not_raised(self, small_system_config):
        executor = SweepExecutor(jobs=2)
        jobs = [
            make_job(small_system_config, "aes", 0.02, seed=1),
            make_job(small_system_config, "no-such-benchmark", 0.02, seed=1),
        ]
        results = executor.map(jobs)
        assert set(results) == {0}
        assert len(executor.failures) == 1
        failure = executor.failures[0]
        assert failure.kind == "error"
        assert failure.attempts == MAX_ATTEMPTS
        assert failure.job["workload"] == "no-such-benchmark"
        snapshot = executor.snapshot()
        assert snapshot["sweep"]["jobs"]["failed"] == 1
        assert snapshot["sweep"]["failures"][0]["kind"] == "error"

    def test_executed_results_serve_later_from_disk(
        self, tmp_path, small_system_config
    ):
        jobs = [
            make_job(small_system_config, name, 0.02, seed=1)
            for name in ("aes", "fir")
        ]
        cold = SweepExecutor(jobs=2, cache_dir=tmp_path)
        results = cold.map(jobs)
        warm = SweepExecutor(jobs=2, cache_dir=tmp_path)
        for index, job in enumerate(jobs):
            cached = warm.lookup(job)
            assert cached is not None
            assert cached.to_dict() == results[index].to_dict()
        snap = warm.snapshot()["sweep"]["jobs"]
        assert snap["cache_hit_disk"] == 2
        assert snap["executed"] == 0

    def test_revived_result_equals_live(
        self, tmp_path, small_system_config, aes_result
    ):
        executor = SweepExecutor(jobs=2, cache_dir=tmp_path)
        job = make_job(small_system_config, "aes", 0.02, seed=1)
        executor.store(job, aes_result)
        assert executor.lookup(job) == aes_result


class TestRunCacheIntegration:
    def test_warm_makes_serial_loop_pure_l1(self, small_system_config):
        executor = SweepExecutor(jobs=2)
        cache = RunCache(executor=executor)
        jobs = [
            make_job(small_system_config, name, 0.02, seed=1)
            for name in ("aes", "fir")
        ]
        cache.warm(jobs)
        for job in jobs:
            cache.get(job)
        assert cache.misses == 0
        assert cache.hits == 2
        snap = executor.snapshot()["sweep"]["jobs"]
        assert snap["executed"] == 2
        assert snap["cache_hit_memory"] == 2

    def test_cold_parallel_warm_stores_each_result_once(
        self, tmp_path, small_system_config
    ):
        executor = SweepExecutor(jobs=2, cache_dir=tmp_path)
        jobs = [
            make_job(small_system_config, "aes", 0.02, seed=seed)
            for seed in (1, 2, 3)
        ]
        RunCache(executor=executor).warm(jobs)
        assert executor.disk.stores == len(jobs)

    def test_warm_is_noop_without_parallelism(self, small_system_config):
        serial = RunCache(executor=SweepExecutor(jobs=1))
        serial.warm([make_job(small_system_config, "aes", 0.02, seed=1)])
        assert serial.misses == 0 and not serial._runs

    def test_serial_and_parallel_cache_agree(self, small_system_config):
        serial = RunCache()
        parallel = RunCache(executor=SweepExecutor(jobs=2))
        job = make_job(small_system_config, "aes", 0.02, seed=1)
        parallel.warm([job])
        assert serial.get(job) == parallel.get(job)

    def test_disk_cache_spans_runcache_instances(
        self, tmp_path, small_system_config
    ):
        job = make_job(small_system_config, "aes", 0.02, seed=1)
        first = RunCache(executor=SweepExecutor(jobs=1, cache_dir=tmp_path))
        live = first.get(job)
        second = RunCache(executor=SweepExecutor(jobs=1, cache_dir=tmp_path))
        result = second.get(job)
        assert second.disk_hits == 1
        assert second.misses == 0
        assert result == live


class TestEveryResultRoundTripsTheDiskCache:
    def test_faulted_sampled_migrating_run_revives_equal(self, tmp_path):
        from repro.config.hdpat import HDPATConfig
        from repro.config.migration import MigrationConfig
        from repro.config.presets import wafer_7x7_config
        from repro.faults import degradation_plan

        config = (
            wafer_7x7_config()
            .with_hdpat(HDPATConfig.full())
            .with_migration(MigrationConfig(enabled=True, threshold=1))
            .with_faults(degradation_plan(7, 7, 11, 0.1))
        )
        job = make_job(config, "spmv", 0.02, seed=3, sample_buffer_every=500)
        live = execute_job(job)
        assert live.extras["faults"]["counters"]
        assert live.extras["migration"]["migrations"] > 0
        assert live.extras["buffer_series"]
        cache = DiskResultCache(tmp_path)
        cache.store(job, live)
        revived = cache.load(job)
        assert revived.extras == live.extras
        assert revived.extras["buffer_series"] == live.extras["buffer_series"]
        assert revived == live

    def test_observed_run_stores_the_same_file(self, tmp_path, small_system_config):
        # Worker metrics ship home as counters; the obs-only extras never
        # reach the cache, so the file matches an unobserved run's.
        job = make_job(small_system_config, "aes", 0.02, seed=1)
        plain = SweepExecutor(jobs=1, cache_dir=tmp_path / "plain")
        observed = SweepExecutor(
            jobs=1, cache_dir=tmp_path / "observed", worker_metrics=True
        )
        assert plain.run_inline(job) == observed.run_inline(job)
        assert (
            plain.disk.path_for(job).read_bytes()
            == observed.disk.path_for(job).read_bytes()
        )

    @pytest.mark.parametrize("experiment_id, workload", [
        ("fig04", "spmv"),
        ("fig06", "bt"),
        ("fig07", "bt"),
        ("fig08", "fir"),
        ("fig13", "fir"),
        ("ext_faults", "spmv"),
        ("ext_recovery", "spmv"),
        ("ext_migration", "fir"),
    ])
    def test_harness_reruns_warm_from_disk(
        self, tmp_path, experiment_id, workload
    ):
        from repro.experiments.registry import get_experiment

        experiment = get_experiment(experiment_id)
        args = dict(scale=0.02, benchmarks=[workload], seed=42)
        cold = SweepExecutor(jobs=1, cache_dir=tmp_path)
        cold_table = experiment(cache=RunCache(cold), **args)
        warm = SweepExecutor(jobs=1, cache_dir=tmp_path)
        warm_table = experiment(cache=RunCache(warm), **args)
        unique_jobs = cold.snapshot()["sweep"]["jobs"]["executed"]
        jobs = warm.snapshot()["sweep"]["jobs"]
        assert jobs["executed"] == 0
        assert jobs["cache_hit_disk"] == unique_jobs > 0
        serial_table = experiment(cache=RunCache(), **args)
        assert cold_table == warm_table == serial_table


class TestCLI:
    def test_jobs_and_cache_flags(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        assert main([
            "fig03", "--scale", "0.02", "--benchmarks", "aes",
            "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
            "--metrics-out", str(metrics),
        ]) == 0
        assert "fig03" in capsys.readouterr().out
        snapshot = json.loads(metrics.read_text())
        assert snapshot["sweep"]["jobs"]["executed"] >= 1
        assert snapshot["sweep"]["failures"] == []

    def test_warm_rerun_executes_nothing(self, tmp_path, capsys):
        args = [
            "fig03", "--scale", "0.02", "--benchmarks", "aes",
            "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        metrics = tmp_path / "metrics.json"
        assert main(args + ["--metrics-out", str(metrics)]) == 0
        second = capsys.readouterr().out

        def table(text):  # drop the wall-clock trailer line
            return [l for l in text.splitlines() if not l.startswith("[")]

        assert table(first) == table(second)
        snapshot = json.loads(metrics.read_text())
        assert snapshot["sweep"]["jobs"]["executed"] == 0
        assert snapshot["sweep"]["jobs"]["cache_hit_disk"] >= 1

    def test_sweep_verb(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        assert main([
            "sweep", "--benchmarks", "aes", "--scales", "0.02",
            "--seeds", "1,2", "--schemes", "baseline,hdpat",
            "--jobs", "2", "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "4 cells (0 failed)" in out
        snapshot = json.loads(metrics.read_text())
        assert snapshot["sweep"]["jobs"]["executed"] == 4

    @pytest.mark.parametrize("argv", [
        ["nosuch"],
        ["fig02", "--benchmarks", "nosuch"],
        ["fig02", "--scale", "2"],
        ["serve"],
        ["submit"],
        ["status"],
    ], ids=["experiment", "benchmarks", "scale", "serve", "submit", "status"])
    def test_bad_input_exits_2_with_one_error_line(
        self, argv, tmp_path, capsys
    ):
        progress = tmp_path / "hb.jsonl"
        assert main(argv + ["--progress", str(progress)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        # Rejected before the executor starts: no heartbeat file exists.
        assert not progress.exists()


# ----------------------------------------------------------------------
# Worker metrics merge and the progress heartbeat
# ----------------------------------------------------------------------
class TestWorkerMetrics:
    def test_execute_job_observed_matches_plain_execution(
        self, small_system_config
    ):
        from repro.analysis.sanitizers import result_digest
        from repro.exec import execute_job_observed

        job = make_job(small_system_config, "aes", **FAST)
        plain = execute_job(job)
        observed, wall, counters = execute_job_observed(job)
        assert result_digest(observed) == result_digest(plain)
        assert wall > 0
        assert counters["sim.events_processed"] > 0
        assert all(isinstance(v, int) for v in counters.values())

    def test_merge_counters_sums_and_prefixes(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.merge_counters({"sim.events_processed": 10}, prefix="workers.")
        registry.merge_counters({"sim.events_processed": 5}, prefix="workers.")
        assert registry.counter(
            "workers.sim.events_processed"
        ).to_value() == 15

    def test_merge_counters_noop_when_disabled(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry(enabled=False)
        registry.merge_counters({"a": 1})
        assert len(registry) == 0

    def test_executor_absorbs_worker_counters_inline(
        self, small_system_config
    ):
        executor = SweepExecutor(jobs=1, worker_metrics=True)
        jobs = [
            make_job(small_system_config, "aes", scale=0.02, seed=seed)
            for seed in (1, 2)
        ]
        results = executor.map(jobs)
        assert len(results) == 2
        merged = executor.registry.counter("workers.sim.events_processed")
        assert merged.to_value() > 0
        assert executor.registry.counter(
            "sweep.events_processed"
        ).to_value() == merged.to_value()

    def test_executor_absorbs_worker_counters_from_pool(
        self, small_system_config
    ):
        executor = SweepExecutor(jobs=2, worker_metrics=True)
        jobs = [
            make_job(small_system_config, "aes", scale=0.02, seed=seed)
            for seed in (1, 2)
        ]
        results = executor.map(jobs)
        assert len(results) == 2
        assert executor.registry.counter(
            "workers.sim.events_processed"
        ).to_value() > 0


class TestHeartbeat:
    def test_heartbeat_records_progress(self, small_system_config, tmp_path):
        from repro.exec import read_heartbeats

        path = str(tmp_path / "hb.jsonl")
        executor = SweepExecutor(jobs=1, heartbeat=path, heartbeat_every=0.0)
        jobs = [
            make_job(small_system_config, "aes", scale=0.02, seed=seed)
            for seed in (1, 2)
        ]
        executor.map(jobs)
        executor.finish_heartbeat()
        records = read_heartbeats(path)
        assert records[0]["total"] == 2
        final = records[-1]
        assert final["phase"] == "finished"
        assert final["done"] == 2 and final["failed"] == 0
        assert final["jobs_per_sec"] > 0
        assert final["eta_seconds"] is None

    def test_heartbeat_throttles(self, tmp_path):
        from repro.exec.progress import SweepHeartbeat

        hb = SweepHeartbeat(str(tmp_path / "hb.jsonl"), every=3600.0)
        assert hb.beat({"total": 1, "done": 0}) is True
        assert hb.beat({"total": 1, "done": 1}) is False
        assert hb.beat({"total": 1, "done": 1}, force=True) is True

    def test_seq_and_t_fields(self, tmp_path):
        from repro.exec import read_heartbeats
        from repro.exec.progress import SweepHeartbeat

        path = str(tmp_path / "hb.jsonl")
        hb = SweepHeartbeat(path, every=0.0)
        hb.beat({"total": 2, "done": 1}, force=True)
        hb.beat({"total": 2, "done": 2}, force=True)
        records = read_heartbeats(path)
        assert [r["seq"] for r in records] == [0, 1]
        assert all("t" in r for r in records)

    def test_zero_elapsed_and_zero_rate_guards(self, tmp_path, monkeypatch):
        import repro.exec.progress as progress_module
        from repro.exec import read_heartbeats

        frozen = 5000.0
        monkeypatch.setattr(progress_module.time, "time", lambda: frozen)
        hb = progress_module.SweepHeartbeat(
            str(tmp_path / "hb.jsonl"), every=0.0
        )
        # Zero elapsed with completions: no ZeroDivisionError, no rate.
        hb.beat({"total": 4, "done": 2, "events": 100}, force=True)
        # Zero rate with remaining work: ETA must stay null.
        hb.beat({"total": 4, "done": 0}, force=True)
        first, second = read_heartbeats(hb.path)
        assert first["jobs_per_sec"] is None
        assert first["events_per_sec"] is None
        assert first["eta_seconds"] is None
        assert second["eta_seconds"] is None

    def test_heartbeat_counts_events_with_worker_metrics(
        self, small_system_config, tmp_path
    ):
        from repro.exec import read_heartbeats

        path = str(tmp_path / "hb.jsonl")
        executor = SweepExecutor(
            jobs=1, worker_metrics=True,
            heartbeat=path, heartbeat_every=0.0,
        )
        executor.map([make_job(small_system_config, "aes", **FAST)])
        executor.finish_heartbeat()
        assert read_heartbeats(path)[-1]["events_per_sec"] > 0

    def test_progress_flag_writes_heartbeat(self, tmp_path, capsys):
        from repro.exec import read_heartbeats

        path = tmp_path / "hb.jsonl"
        assert main([
            "fig03", "--scale", "0.02", "--benchmarks", "aes",
            "--jobs", "1", "--progress", str(path), "--worker-metrics",
        ]) == 0
        records = read_heartbeats(str(path))
        assert records and records[-1]["phase"] == "finished"
        assert records[-1]["done"] >= 1
