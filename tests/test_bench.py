"""Tests for the BENCH harness: record schema, numbering, comparator, CLI."""

from __future__ import annotations

import json

import pytest

from repro.errors import BenchError
from repro.obs import bench as bench_module
from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    FIRST_BENCH_ID,
    BenchHarness,
    compare_bench,
    format_comparison,
    load_bench,
    machine_fingerprint,
    main,
    next_bench_path,
    write_bench,
)


def _record(benchmarks):
    """A minimal, valid BENCH record around the given benchmarks dict."""
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "machine": machine_fingerprint(),
        "git_sha": "test",
        "suite_scale": 0.02,
        "seed": 1,
        "benchmarks": benchmarks,
        "total_wall_seconds": sum(
            b.get("wall_seconds", 0.0) for b in benchmarks.values()
        ),
    }


def _bench(wall, digest="d0", events=1000):
    return {
        "kind": "micro",
        "wall_seconds": wall,
        "events": events,
        "events_per_sec": (events / wall) if wall else 0.0,
        "peak_rss_kb": 1,
        "cache_hit_rates": {},
        "phase_seconds": {},
        "digest": digest,
        "digest_verified": None,
    }


@pytest.fixture
def fast_micros(monkeypatch):
    """Shrink the micro-benchmarks so harness tests stay fast."""
    monkeypatch.setattr(bench_module, "TLB_MICRO_ITERATIONS", 2_000)
    monkeypatch.setattr(bench_module, "HEAP_MICRO_EVENTS", 2_000)


# ----------------------------------------------------------------------
# Record schema and I/O
# ----------------------------------------------------------------------
class TestRecordIO:
    def test_round_trip(self, tmp_path):
        record = _record({"m": _bench(0.5)})
        path = str(tmp_path / "BENCH_6.json")
        write_bench(record, path)
        assert load_bench(path) == record

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(BenchError, match="not found"):
            load_bench(str(tmp_path / "BENCH_99.json"))

    def test_unparseable_file_raises(self, tmp_path):
        path = tmp_path / "BENCH_1.json"
        path.write_text("{not json")
        with pytest.raises(BenchError, match="unreadable"):
            load_bench(str(path))

    def test_non_record_json_raises(self, tmp_path):
        path = tmp_path / "BENCH_1.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(BenchError, match="no schema"):
            load_bench(str(path))

    def test_newer_schema_rejected(self, tmp_path):
        record = _record({"m": _bench(0.5)})
        record["schema"] = BENCH_SCHEMA_VERSION + 1
        path = str(tmp_path / "BENCH_6.json")
        write_bench(record, path)
        with pytest.raises(BenchError, match="newer than the supported"):
            load_bench(path)

    def test_invalid_schema_rejected(self, tmp_path):
        record = _record({"m": _bench(0.5)})
        record["schema"] = "one"
        path = str(tmp_path / "BENCH_6.json")
        write_bench(record, path)
        with pytest.raises(BenchError, match="invalid schema"):
            load_bench(path)

    def test_schema_one_records_still_load_and_compare(self):
        import os

        root = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "benchmarks")
        for name in ("BENCH_6.json", "BENCH_ci_baseline.json"):
            old = load_bench(os.path.join(root, name))
            assert old["schema"] == 1 < BENCH_SCHEMA_VERSION
            current = _record({
                bench: _bench(entry["wall_seconds"], digest=entry["digest"])
                for bench, entry in old["benchmarks"].items()
            })
            comparison = compare_bench(current, old, threshold=4.0)
            assert comparison["digest_mismatches"] == []
            assert comparison["regressions"] == []

    def test_missing_benchmarks_rejected(self, tmp_path):
        path = tmp_path / "BENCH_6.json"
        path.write_text(json.dumps({"schema": BENCH_SCHEMA_VERSION}))
        with pytest.raises(BenchError, match="no benchmarks"):
            load_bench(str(path))

    def test_numbering_starts_at_first_id(self, tmp_path):
        path, bench_id = next_bench_path(str(tmp_path))
        assert bench_id == FIRST_BENCH_ID
        assert path.endswith(f"BENCH_{FIRST_BENCH_ID}.json")

    def test_numbering_continues_from_largest(self, tmp_path):
        (tmp_path / "BENCH_6.json").write_text("{}")
        (tmp_path / "BENCH_11.json").write_text("{}")
        (tmp_path / "BENCH_x.json").write_text("{}")  # ignored
        _path, bench_id = next_bench_path(str(tmp_path))
        assert bench_id == 12

    def test_numbering_in_missing_dir(self, tmp_path):
        _path, bench_id = next_bench_path(str(tmp_path / "nope"))
        assert bench_id == FIRST_BENCH_ID


# ----------------------------------------------------------------------
# Comparator
# ----------------------------------------------------------------------
class TestComparator:
    def test_identical_records_clean(self):
        record = _record({"a": _bench(1.0), "b": _bench(0.2, digest="d2")})
        comparison = compare_bench(record, record)
        assert comparison["regressions"] == []
        assert comparison["digest_mismatches"] == []
        assert comparison["added"] == [] and comparison["removed"] == []
        assert all(row["status"] == "ok" for row in comparison["rows"])

    def test_slowdown_past_threshold_is_regression(self):
        base = _record({"a": _bench(1.0)})
        cur = _record({"a": _bench(1.6)})
        comparison = compare_bench(cur, base, threshold=0.5)
        assert comparison["regressions"] == ["a"]
        assert comparison["rows"][0]["status"] == "regression"

    def test_slowdown_below_threshold_is_ok(self):
        base = _record({"a": _bench(1.0)})
        cur = _record({"a": _bench(1.4)})
        assert compare_bench(cur, base, threshold=0.5)["regressions"] == []

    def test_min_seconds_floor_suppresses_noise(self):
        # 10x slower but still under the absolute floor: not a regression.
        base = _record({"a": _bench(0.001)})
        cur = _record({"a": _bench(0.01)})
        comparison = compare_bench(cur, base, threshold=0.5, min_seconds=0.05)
        assert comparison["regressions"] == []

    def test_zero_time_baseline_never_divides(self):
        base = _record({"a": _bench(0.0)})
        cur = _record({"a": _bench(1.0)})
        comparison = compare_bench(cur, base)
        row = comparison["rows"][0]
        assert row["delta_pct"] is None
        assert comparison["regressions"] == []

    def test_zero_time_both_sides(self):
        record = _record({"a": _bench(0.0)})
        comparison = compare_bench(record, record)
        assert comparison["regressions"] == []
        assert comparison["digest_mismatches"] == []

    def test_added_and_removed_benchmarks(self):
        base = _record({"a": _bench(1.0), "gone": _bench(0.3)})
        cur = _record({"a": _bench(1.0), "new": _bench(0.4)})
        comparison = compare_bench(cur, base)
        assert comparison["added"] == ["new"]
        assert comparison["removed"] == ["gone"]
        statuses = {row["benchmark"]: row["status"]
                    for row in comparison["rows"]}
        assert statuses == {"a": "ok", "new": "added", "gone": "removed"}

    def test_digest_mismatch_detected(self):
        base = _record({"a": _bench(1.0, digest="old")})
        cur = _record({"a": _bench(1.0, digest="new")})
        comparison = compare_bench(cur, base)
        assert comparison["digest_mismatches"] == ["a"]

    def test_missing_digest_is_not_a_mismatch(self):
        base = _record({"a": _bench(1.0, digest=None)})
        cur = _record({"a": _bench(1.0, digest="d")})
        comparison = compare_bench(cur, base)
        assert comparison["digest_mismatches"] == []
        assert comparison["rows"][0]["digest_match"] is None

    def test_format_renders_all_row_kinds(self):
        base = _record({
            "slow": _bench(1.0),
            "bad": _bench(1.0, digest="x"),
            "gone": _bench(0.2),
        })
        cur = _record({
            "slow": _bench(2.0),
            "bad": _bench(1.0, digest="y"),
            "new": _bench(0.1),
        })
        text = format_comparison(compare_bench(cur, base))
        assert "REGRESSION" in text
        assert "MISMATCH" in text
        assert "added" in text and "removed" in text

    def test_format_notes_machine_difference(self):
        base = _record({"a": _bench(1.0)})
        cur = _record({"a": _bench(1.0)})
        cur["machine"] = {"platform": "elsewhere"}
        text = format_comparison(compare_bench(cur, base))
        assert "different machine" in text


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
class TestHarness:
    def test_suite_covers_required_benchmarks(self):
        names = set(BenchHarness().suite())
        assert len(names) >= 6
        assert any(name.startswith("fig14") for name in names)
        assert any(name.startswith("fig6") for name in names)
        assert any(name.startswith("ext_faults") for name in names)
        assert "micro_tlb_lookup" in names
        assert "micro_engine_heap" in names

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(BenchError, match="unknown benchmark"):
            BenchHarness().run(["nope"])

    def test_invalid_scale_rejected(self):
        with pytest.raises(BenchError, match="scale"):
            BenchHarness(scale=0.0)

    def test_micro_record_shape_and_digest_stability(self, fast_micros):
        harness = BenchHarness()
        record = harness.run(["micro_tlb_lookup", "micro_engine_heap"])
        assert record["schema"] == BENCH_SCHEMA_VERSION
        assert record["machine"]["platform"]
        for name in ("micro_tlb_lookup", "micro_engine_heap"):
            entry = record["benchmarks"][name]
            assert entry["events"] > 0
            assert entry["wall_seconds"] >= 0
            assert entry["digest"]
        again = harness.run(["micro_tlb_lookup", "micro_engine_heap"])
        for name, entry in record["benchmarks"].items():
            assert again["benchmarks"][name]["digest"] == entry["digest"]

    def test_sim_benchmark_verifies_digest(self):
        harness = BenchHarness(scale=0.02, seed=1)
        record = harness.run(["fig6_counts_bt"])
        entry = record["benchmarks"]["fig6_counts_bt"]
        assert entry["digest_verified"] is True
        assert entry["events"] > 0
        assert entry["wall_seconds"] > 0
        assert entry["profiled_wall_seconds"] > 0
        # Per-layer rows from the profiled run, ending in the residual.
        assert list(entry["phase_seconds"])[-1] == "engine"
        assert entry["phase_seconds"]["gpm"] > 0
        assert "l1v" in entry["cache_hit_rates"]


# ----------------------------------------------------------------------
# CLI exit codes
# ----------------------------------------------------------------------
class TestCLI:
    def _write(self, tmp_path, name, record):
        path = str(tmp_path / name)
        write_bench(record, path)
        return path

    def test_list_exits_zero(self, capsys):
        assert main(["--list"]) == 0
        assert "micro_tlb_lookup" in capsys.readouterr().out

    def test_clean_replay_exits_zero(self, tmp_path, capsys):
        record = _record({"a": _bench(1.0)})
        path = self._write(tmp_path, "BENCH_6.json", record)
        assert main(["--replay", path, "--against", path]) == 0

    def test_injected_slowdown_exits_one(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _record({"a": _bench(1.0)}))
        slow = self._write(tmp_path, "slow.json", _record({"a": _bench(3.0)}))
        assert main(["--replay", slow, "--against", base]) == 1

    def test_digest_mismatch_exits_two(self, tmp_path, capsys):
        base = self._write(
            tmp_path, "base.json", _record({"a": _bench(1.0, digest="x")})
        )
        bad = self._write(
            tmp_path, "bad.json", _record({"a": _bench(1.0, digest="y")})
        )
        assert main(["--replay", bad, "--against", base]) == 2

    def test_fail_on_none_always_exits_zero(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _record({"a": _bench(1.0)}))
        slow = self._write(tmp_path, "slow.json", _record({"a": _bench(9.0)}))
        assert main(
            ["--replay", slow, "--against", base, "--fail-on", "none"]
        ) == 0

    def test_fail_on_digest_ignores_perf(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _record({"a": _bench(1.0)}))
        slow = self._write(tmp_path, "slow.json", _record({"a": _bench(9.0)}))
        assert main(
            ["--replay", slow, "--against", base, "--fail-on", "digest"]
        ) == 0

    def test_missing_baseline_exits_two(self, tmp_path, capsys):
        record = self._write(tmp_path, "BENCH_6.json", _record({}))
        missing = str(tmp_path / "BENCH_404.json")
        assert main(["--replay", record, "--against", missing]) == 2

    def test_run_writes_numbered_record(self, tmp_path, capsys, fast_micros):
        out = str(tmp_path)
        assert main([
            "--only", "micro_engine_heap", "--out-dir", out,
        ]) == 0
        written = load_bench(str(tmp_path / f"BENCH_{FIRST_BENCH_ID}.json"))
        assert "micro_engine_heap" in written["benchmarks"]
        assert main([
            "--only", "micro_engine_heap", "--out-dir", out,
        ]) == 0
        load_bench(str(tmp_path / f"BENCH_{FIRST_BENCH_ID + 1}.json"))
