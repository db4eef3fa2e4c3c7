"""Tests for the observability stack: metrics, tracing, export, profiling."""

from __future__ import annotations

import json

import pytest

from repro.errors import AccountingWarning, ObservabilityError, TruncationWarning
from repro.obs import NULL_METRIC, Observability, Tracer, summarize
from repro.obs.export import (
    chrome_trace_events,
    chrome_trace_json,
    jsonl_lines,
    read_jsonl,
    write_jsonl,
    write_trace,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.system.runner import _prefetch_accuracy_raw, run_benchmark


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("a.hits").inc()
        registry.counter("a.hits").inc(4)
        assert registry.counter("a.hits").to_value() == 5

    def test_gauge_last_value_and_series(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(3)
        gauge.sample(100, 7)
        gauge.sample(200, 2)
        assert gauge.value == 2
        assert gauge.points() == [(100, 7), (200, 2)]

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        hist = registry.histogram("rtt")
        for value in (30, 10, 20, 40):
            hist.observe(value)
        summary = hist.to_value()
        assert summary["count"] == 4
        assert summary["mean"] == 25
        assert summary["min"] == 10
        assert summary["max"] == 40
        assert summary["p50"] in (20, 30)

    def test_histogram_percentile_after_unsorted_observes(self):
        hist = Histogram("h")
        for value in (5, 1, 3):
            hist.observe(value)
        assert hist.percentile(0) == 1
        assert hist.percentile(100) == 5

    def test_same_name_is_same_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ObservabilityError):
            registry.gauge("x")

    def test_disabled_registry_hands_out_null_metric(self):
        registry = MetricsRegistry(enabled=False)
        metric = registry.counter("anything")
        assert metric is NULL_METRIC
        metric.inc()
        metric.set(1)
        metric.observe(2)
        metric.sample(0, 3)
        assert len(registry) == 0

    def test_merge_stats_folds_plain_dicts(self):
        registry = MetricsRegistry()
        registry.merge_stats("gpm0", {"hits": 3, "misses": 1})
        registry.merge_stats("gpm0", {"hits": 2})
        assert registry.counter("gpm0.hits").to_value() == 5
        assert registry.counter("gpm0.misses").to_value() == 1

    def test_snapshot_nests_dotted_names(self):
        registry = MetricsRegistry()
        registry.counter("a.b.c").inc(1)
        registry.counter("a.b.d").inc(2)
        registry.counter("top").inc(9)
        snapshot = registry.snapshot()
        assert snapshot["a"]["b"] == {"c": 1, "d": 2}
        assert snapshot["top"] == 9

    def test_snapshot_leaf_and_interior_collision(self):
        registry = MetricsRegistry()
        registry.counter("a.b").inc(1)
        registry.counter("a.b.c").inc(2)
        snapshot = registry.snapshot()
        assert snapshot["a"]["b"][""] == 1
        assert snapshot["a"]["b"]["c"] == 2

    def test_gauges_matching_suffix(self):
        registry = MetricsRegistry()
        registry.gauge("gpm0.pending_depth")
        registry.gauge("gpm1.pending_depth")
        registry.counter("gpm0.pending_depth_total")
        matches = registry.gauges_matching(".pending_depth")
        assert [gauge.name for gauge in matches] == [
            "gpm0.pending_depth", "gpm1.pending_depth",
        ]


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.instant(1, "x")
        tracer.complete(1, 5, "y")
        tracer.async_begin(1, "z", "cat", "t", span_id=7)
        assert len(tracer) == 0

    def test_span_ids_are_aliased_densely(self):
        tracer = Tracer(enabled=True)
        tracer.async_begin(0, "s", "c", "t", span_id=900)
        tracer.async_begin(0, "s", "c", "t", span_id=17)
        tracer.async_end(5, "s", "c", "t", span_id=900)
        ids = [event.span_id for event in tracer.events]
        assert ids == [0, 1, 0]

    def test_sync_span_nesting(self):
        tracer = Tracer(enabled=True)
        tracer.begin_span(0, "outer")
        tracer.begin_span(1, "inner")
        assert tracer.open_spans() == ["outer", "inner"]
        tracer.end_span(2, "inner")
        tracer.end_span(3)
        assert tracer.open_spans() == []
        assert [event.ph for event in tracer.events] == ["B", "B", "E", "E"]

    def test_end_span_without_open_raises(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ObservabilityError):
            tracer.end_span(0)

    def test_end_span_name_mismatch_raises(self):
        tracer = Tracer(enabled=True)
        tracer.begin_span(0, "outer")
        with pytest.raises(ObservabilityError):
            tracer.end_span(1, "wrong")

    def test_async_spans_pair_begin_and_end(self):
        tracer = Tracer(enabled=True)
        tracer.async_begin(10, "remote_translation", "c", "gpm0", span_id=1,
                           args={"vpn": 42})
        tracer.async_instant(15, "iommu.arrival", "c", "iommu", span_id=1)
        tracer.async_end(30, "remote_translation", "c", "gpm0", span_id=1,
                         args={"served_by": "iommu"})
        spans = tracer.async_spans(name="remote_translation")
        assert len(spans) == 1
        span = spans[0]
        assert span.duration == 20
        assert span.begin_args == {"vpn": 42}
        assert span.end_args == {"served_by": "iommu"}
        assert span.step_names() == ["iommu.arrival"]

    def test_unfinished_async_span_not_returned(self):
        tracer = Tracer(enabled=True)
        tracer.async_begin(0, "s", "c", "t", span_id=1)
        assert tracer.async_spans() == []

    def test_clear_resets_aliasing(self):
        tracer = Tracer(enabled=True)
        tracer.async_begin(0, "s", "c", "t", span_id=55)
        tracer.clear()
        tracer.async_begin(0, "s", "c", "t", span_id=77)
        assert tracer.events[0].span_id == 0


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _sample_tracer() -> Tracer:
    tracer = Tracer(enabled=True)
    tracer.instant(5, "tlb_miss", cat="translation", track="gpm0",
                   args={"vpn": 1})
    tracer.complete(10, 90, "iommu.walk", cat="iommu", track="iommu",
                    span_id=3, args={"vpn": 1})
    tracer.async_begin(5, "remote_translation", "translation", "gpm0",
                       span_id=3)
    tracer.async_end(110, "remote_translation", "translation", "gpm0",
                     span_id=3, args={"served_by": "iommu"})
    tracer.counter(50, "gpm0.pending_depth", track="depth", value=4)
    return tracer


class TestExport:
    def test_jsonl_round_trip_is_lossless(self, tmp_path):
        tracer = _sample_tracer()
        path = tmp_path / "trace.jsonl"
        count = write_jsonl(tracer, str(path))
        assert count == len(tracer)
        assert read_jsonl(str(path)) == tracer.events

    def test_jsonl_rewrite_is_byte_identical(self, tmp_path):
        tracer = _sample_tracer()
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(tracer, str(first))
        write_jsonl(read_jsonl(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_chrome_export_structure(self):
        tracer = _sample_tracer()
        payload = json.loads(chrome_trace_json(tracer))
        events = payload["traceEvents"]
        names = {
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] in ("process_name", "thread_name")
        }
        assert names == {"hdpat-sim", "gpm0", "iommu", "depth"}
        kinds = {e["name"] for e in events if e["ph"] == "M"}
        assert "thread_sort_index" in kinds and "process_sort_index" in kinds
        complete = [e for e in events if e["ph"] == "X"]
        assert complete and complete[0]["dur"] == 90
        begun = [e for e in events if e["ph"] == "b"]
        ended = [e for e in events if e["ph"] == "e"]
        assert begun[0]["id"] == ended[0]["id"]
        counter = [e for e in events if e["ph"] == "C"]
        assert counter[0]["args"] == {"value": 4}

    def test_write_trace_dispatches_on_extension(self, tmp_path):
        tracer = _sample_tracer()
        chrome_path = tmp_path / "t.json"
        jsonl_path = tmp_path / "t.jsonl"
        write_trace(tracer, str(chrome_path))
        write_trace(tracer, str(jsonl_path))
        assert "traceEvents" in json.loads(chrome_path.read_text())
        assert len(jsonl_path.read_text().splitlines()) == len(tracer)

    def test_jsonl_lines_sorted_keys(self):
        lines = list(jsonl_lines(_sample_tracer()))
        record = json.loads(lines[0])
        assert list(record) == sorted(record)


# ----------------------------------------------------------------------
# End-to-end: traced runs, determinism, truncation, accounting
# ----------------------------------------------------------------------
def _traced_run(config, **kwargs):
    obs = Observability(metrics=True, trace=True)
    result = run_benchmark(
        config, "fir", scale=0.02, seed=7, obs=obs, **kwargs
    )
    return result, obs


class TestTracedRuns:
    def test_traced_run_has_complete_remote_spans(self, small_system_config):
        result, obs = _traced_run(small_system_config)
        spans = obs.tracer.async_spans(name="remote_translation")
        assert spans, "no remote translation traced"
        for span in spans:
            assert span.duration > 0
            assert "served_by" in span.end_args
        assert result.extras["trace_events"] == len(obs.tracer)

    def test_metrics_snapshot_in_extras(self, small_system_config):
        result, _ = _traced_run(small_system_config)
        metrics = result.extras["metrics"]
        assert metrics["sim"]["events_processed"] > 0
        assert metrics["iommu"]["requests"] == result.iommu_requests
        assert "noc" in metrics

    def test_per_level_tlb_metrics(self, small_system_config):
        result, _ = _traced_run(small_system_config)
        tlb = result.extras["metrics"]["gpm0"]["tlb"]
        assert set(tlb) == {"l1v", "l2tlb", "llt"}
        assert tlb["l1v"]["hits"] + tlb["l1v"]["misses"] > 0

    def test_link_report_in_extras(self, small_system_config):
        result, _ = _traced_run(small_system_config)
        links = result.extras["noc_links"]
        assert links
        for row in links:
            assert 0.0 <= row["busy_fraction"] <= 1.0

    def test_two_seeded_runs_trace_byte_identically(self, small_system_config):
        _, obs_a = _traced_run(small_system_config)
        _, obs_b = _traced_run(small_system_config)
        assert chrome_trace_json(obs_a.tracer) == chrome_trace_json(obs_b.tracer)
        assert list(jsonl_lines(obs_a.tracer)) == list(jsonl_lines(obs_b.tracer))

    def test_untraced_run_is_unperturbed(self, small_system_config):
        result_plain = run_benchmark(small_system_config, "fir",
                                     scale=0.02, seed=7)
        result_traced, _ = _traced_run(small_system_config)
        assert result_plain.exec_cycles == result_traced.exec_cycles
        assert result_plain.served_by == result_traced.served_by

    def test_summarize_renders_all_sections(self, small_system_config):
        result, obs = _traced_run(small_system_config)
        report = summarize(result, obs=obs)
        assert "top latency contributors" in report
        assert "NoC links" in report
        assert "queue depth" in report

    def test_profiled_run_lands_in_extras(self, small_system_config):
        obs = Observability(profile=True)
        result = run_benchmark(small_system_config, "fir", scale=0.02,
                               seed=7, obs=obs)
        rows = result.extras["host_profile"]
        assert rows and all(row["seconds"] >= 0 for row in rows)


class TestTruncation:
    def test_truncated_run_warns_and_counts_drops(self, small_system_config):
        with pytest.warns(TruncationWarning):
            result = run_benchmark(small_system_config, "fir",
                                   scale=0.02, seed=7, max_cycles=500)
        assert result.truncated
        assert result.extras["dropped_events"] > 0
        assert not result.extras["all_finished"]

    def test_truncation_counter_bumped(self, small_system_config):
        obs = Observability(metrics=True)
        with pytest.warns(TruncationWarning):
            run_benchmark(small_system_config, "fir", scale=0.02,
                          seed=7, max_cycles=500, obs=obs)
        counter = obs.registry.get("warnings.truncated_events")
        assert counter is not None and counter.to_value() > 0

    def test_full_run_not_truncated(self, small_system_config):
        result = run_benchmark(small_system_config, "fir", scale=0.02, seed=7)
        assert not result.truncated
        assert result.extras["dropped_events"] == 0


class TestPrefetchAccounting:
    def test_raw_ratio_unclamped(self):
        assert _prefetch_accuracy_raw(15, 10) == 1.5
        assert _prefetch_accuracy_raw(5, 10) == 0.5

    def test_raw_ratio_zero_when_nothing_pushed(self):
        assert _prefetch_accuracy_raw(5, 0) == 0.0

    def test_warning_taxonomy(self):
        from repro.errors import ReproWarning

        assert issubclass(AccountingWarning, ReproWarning)
        assert issubclass(TruncationWarning, ReproWarning)
        assert issubclass(ReproWarning, UserWarning)

    def test_raw_accuracy_in_extras(self, small_system_config):
        result = run_benchmark(small_system_config, "fir", scale=0.02, seed=7)
        raw = result.extras["prefetch_accuracy_raw"]
        assert raw == result.prefetch_accuracy_raw()
        assert result.prefetch_accuracy() == min(1.0, raw)


# ----------------------------------------------------------------------
# Wall-time attribution (per layer, from the profiler)
# ----------------------------------------------------------------------
class TestPhaseAttribution:
    def test_phase_profile_in_extras(self, small_system_config):
        obs = Observability(profile=True)
        result = run_benchmark(small_system_config, "fir", scale=0.02,
                               seed=7, obs=obs)
        profile = result.extras["phase_profile"]
        assert profile["gpm"] > 0
        assert "engine" in profile
        assert "sanitize" not in profile  # no sanitizer, no row

    def test_rows_partition_the_run_wall(self, small_system_config,
                                         monkeypatch):
        from time import perf_counter

        from repro.sim.engine import Simulator

        walls = []
        original_run = Simulator.run

        def timed_run(self):
            start = perf_counter()
            try:
                return original_run(self)
            finally:
                walls.append(perf_counter() - start)

        monkeypatch.setattr(Simulator, "run", timed_run)
        obs = Observability(profile=True)
        result = run_benchmark(small_system_config, "fir", scale=0.02,
                               seed=7, obs=obs)
        wall = sum(walls)
        rows = result.extras["phase_report"]
        assert [row["phase"] for row in rows][-1] == "engine"
        assert len({row["phase"] for row in rows}) == len(rows)
        assert all(row["seconds"] >= 0 for row in rows)
        # Disjoint: the non-engine rows fit inside the wall, so the
        # engine residual is never clamped; complete: all rows add up to
        # the wall measured from outside the engine.
        assert sum(row["seconds"] for row in rows[:-1]) < wall
        assert sum(row["seconds"] for row in rows) == pytest.approx(
            wall, rel=0.01
        )
        assert sum(row["share"] for row in rows) == pytest.approx(1.0)

    def test_instrumented_digest_matches_bare_run(self, small_system_config):
        from repro.analysis.sanitizers import result_digest

        bare = run_benchmark(small_system_config, "fir", scale=0.02, seed=7)
        for sanitize in (False, "races"):
            instrumented = run_benchmark(
                small_system_config, "fir", scale=0.02, seed=7,
                obs=Observability(profile=True, metrics=True),
                sanitize=sanitize,
            )
            assert result_digest(bare) == result_digest(instrumented)

    def test_summarize_includes_phase_section(self, small_system_config):
        obs = Observability(profile=True)
        result = run_benchmark(small_system_config, "fir", scale=0.02,
                               seed=7, obs=obs)
        report = summarize(result, obs=obs)
        assert "wall-time attribution" in report
        assert "engine" in report

    def test_sanitizer_overhead_surfaces_as_rows(self, small_system_config):
        obs = Observability(profile=True)
        result = run_benchmark(small_system_config, "fir", scale=0.02,
                               seed=7, obs=obs, sanitize=True)
        assert result.extras["phase_profile"]["sanitize"] > 0
        assert obs.profiler.sanitize_calls > 0

    def test_layer_report_shape(self):
        from repro.obs import HostProfiler

        def gpm_callback():
            pass

        gpm_callback.__module__ = "repro.gpm.gpm"
        profiler = HostProfiler()
        profiler.record(gpm_callback, 0.25)
        profiler.record(gpm_callback, 0.25)
        profiler.record(lambda: None, 0.125)
        profiler.add_run(1.0)
        rows = profiler.layer_report()
        by_name = {row["phase"]: row for row in rows}
        assert [row["phase"] for row in rows] == ["gpm", "other", "engine"]
        assert by_name["gpm"]["calls"] == 2
        assert by_name["gpm"]["share"] == 0.5
        assert by_name["engine"]["seconds"] == pytest.approx(0.375)
        callbacks = profiler.report()
        assert callbacks[0]["layer"] == "gpm"
        assert callbacks[0]["module"] == "repro.gpm.gpm"


# ----------------------------------------------------------------------
# Truncated-trace flushing
# ----------------------------------------------------------------------
class TestFlushOpenSpans:
    def test_truncated_trace_has_no_open_spans(self, small_system_config):
        obs = Observability(trace=True, metrics=True)
        with pytest.warns(TruncationWarning):
            run_benchmark(small_system_config, "fir", scale=0.02,
                          seed=7, max_cycles=500, obs=obs)
        assert obs.tracer.open_async_spans() == []
        begins = sum(1 for e in obs.tracer.events if e.ph in ("B", "b"))
        ends = sum(1 for e in obs.tracer.events if e.ph in ("E", "e"))
        assert begins == ends
        flushed = obs.registry.get("warnings.flushed_spans")
        assert flushed is not None and flushed.to_value() > 0

    def test_flushed_chrome_trace_is_loadable_json(self, small_system_config):
        obs = Observability(trace=True)
        with pytest.warns(TruncationWarning):
            run_benchmark(small_system_config, "fir", scale=0.02,
                          seed=7, max_cycles=500, obs=obs)
        payload = json.loads(chrome_trace_json(obs.tracer))
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "M"}
        assert "process_name" in names and "thread_name" in names

    def test_flush_marks_events(self):
        tracer = Tracer(enabled=True)
        tracer.begin_span(0, "outer", track="t")
        tracer.async_begin(5, "rpc", "span", "t", span_id=123)
        assert tracer.flush_open(10) == 2
        assert tracer.flush_open(10) == 0
        closing = [e for e in tracer.events if e.ph in ("E", "e")]
        assert all(e.args == {"flushed": True} for e in closing)
