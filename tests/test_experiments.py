"""Experiment-harness tests: registry, CLI, result tables, and cheap runs."""

import pytest

from repro.errors import ReproError
from repro.experiments.cli import main
from repro.experiments.common import (
    ExperimentResult,
    RunCache,
    make_job,
    resolve_benchmarks,
)
from repro.experiments.registry import EXPERIMENT_IDS, get_experiment
from repro.experiments import (
    fig03_latency_breakdown,
    fig05_position_imbalance,
    fig06_translation_counts,
    fig08_spatial_locality,
    tab01_config,
    tab02_workloads,
    tab_overhead,
)

FAST = dict(scale=0.03, seed=3)


@pytest.fixture(scope="module")
def cache():
    return RunCache()


class TestRegistry:
    def test_all_experiments_registered(self):
        assert len(EXPERIMENT_IDS) == 27
        for fig in (2, 3, 4, 5, 6, 7, 8, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22):
            assert f"fig{fig:02d}" in EXPERIMENT_IDS
        for ext in ("rotation", "layers", "threshold", "shootdown", "recovery"):
            assert f"ext_{ext}" in EXPERIMENT_IDS

    def test_lookup(self):
        assert callable(get_experiment("fig14"))
        assert callable(get_experiment("FIG14"))
        with pytest.raises(ReproError):
            get_experiment("fig99")


class TestExperimentResult:
    def test_format_table_contains_everything(self):
        result = ExperimentResult(
            "x", "demo", ["A", "B"], [["r1", 1.5], ["r2", 2.0]], notes="note"
        )
        text = result.format_table()
        assert "demo" in text and "r1" in text and "1.500" in text and "note" in text

    def test_column_and_row_access(self):
        result = ExperimentResult("x", "t", ["K", "V"], [["a", 1], ["b", 2]])
        assert result.column("V") == [1, 2]
        assert result.row_for("b") == ["b", 2]
        with pytest.raises(KeyError):
            result.row_for("zzz")


class TestResolveBenchmarks:
    def test_none_gives_all(self):
        assert len(resolve_benchmarks(None)) == 14

    def test_comma_string(self):
        assert resolve_benchmarks("aes, spmv") == ["aes", "spmv"]

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            resolve_benchmarks(["bogus"])


class TestRunCache:
    def test_identical_calls_hit_cache(self, small_system_config):
        cache = RunCache()
        first = cache.get(make_job(small_system_config, "aes", 0.02, seed=1))
        second = cache.get(make_job(small_system_config, "aes", 0.02, seed=1))
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_different_config_misses(self, small_system_config, small_hdpat_config):
        cache = RunCache()
        cache.get(make_job(small_system_config, "aes", 0.02, seed=1))
        cache.get(make_job(small_hdpat_config, "aes", 0.02, seed=1))
        assert cache.misses == 2


class TestStaticExperiments:
    def test_tab01_lists_table_i_modules(self):
        result = tab01_config.run()
        modules = result.column("Module")
        for expected in ("CU", "L2 TLB", "IOMMU", "Redirection Table", "HBM"):
            assert expected in modules

    def test_tab02_has_fourteen_rows(self):
        result = tab02_workloads.run()
        assert len(result.rows) == 14

    def test_overhead_close_to_paper(self):
        result = tab_overhead.run()
        area = result.row_for("Area (mm^2)")[1]
        assert area == pytest.approx(0.034, rel=0.2)


class TestCheapDynamicExperiments:
    def test_fig03_breakdown_dominated_by_pre_queue(self, cache):
        result = fig03_latency_breakdown.run(cache=cache, **FAST)
        percents = {row[0]: row[2] for row in result.rows}
        assert percents["pre_queue"] > percents["ptw"]
        assert sum(percents.values()) == pytest.approx(100.0)

    def test_fig05_inner_rings_faster(self, cache):
        result = fig05_position_imbalance.run(
            benchmarks=("spmv",), cache=cache, **FAST
        )
        spmv_rows = [row for row in result.rows if row[0] == "SPMV"]
        assert len(spmv_rows) == 3  # rings 1..3 on the 7x7 wafer
        inner, outer = spmv_rows[0][3], spmv_rows[-1][3]
        assert inner <= outer

    def test_fig06_reports_all_benchmarks(self, cache):
        result = fig06_translation_counts.run(
            benchmarks=["aes", "bt"], cache=cache, **FAST
        )
        assert [row[0] for row in result.rows] == ["AES", "BT"]
        for row in result.rows:
            fractions = row[2:5]
            assert sum(fractions) == pytest.approx(1.0, abs=1e-6)

    def test_fig08_fractions_monotone(self, cache):
        result = fig08_spatial_locality.run(
            benchmarks=["fir"], cache=cache, **FAST
        )
        row = result.row_for("FIR")
        assert row[1] <= row[2] <= row[3] <= row[4] <= 1.0


class TestCLI:
    def test_cli_runs_static_experiment(self, capsys):
        assert main(["tab02"]) == 0
        out = capsys.readouterr().out
        assert "SPMV" in out

    def test_cli_scale_and_benchmarks_flags(self, capsys):
        assert main(["fig03", "--scale", "0.02", "--benchmarks", "aes"]) == 0
        out = capsys.readouterr().out
        assert "AES" in out
