"""Tests for the single-run CLI (``python -m repro run``)."""

import json

import pytest

from repro.__main__ import main as front_door
from repro.obs.export import read_jsonl
from repro.system.cli import build_parser


def main(argv):
    """Run the CLI the way a user does: through ``python -m repro run``."""
    return front_door(["run", *argv])


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["spmv"])
        assert args.benchmark == "spmv"
        assert args.mesh == "7x7"
        assert args.gpu == "mi100"
        assert not args.hdpat

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_hdpat_and_ablation_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["spmv", "--hdpat", "--ablation", "route"])

    def test_missing_benchmark_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--mesh", "3x3"])
        assert excinfo.value.code == 2
        assert "benchmark" in capsys.readouterr().err


class TestMain:
    def test_baseline_text_output(self, capsys):
        assert main(["aes", "--mesh", "3x3", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "AES on" in out
        assert "IOMMU:" in out

    def test_hdpat_json_output(self, capsys):
        assert main([
            "pr", "--mesh", "3x3", "--scale", "0.02", "--hdpat", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "pr"
        assert "remote_breakdown" in payload
        assert payload["exec_cycles"] > 0

    def test_ablation_flag(self, capsys):
        assert main([
            "pr", "--mesh", "3x3", "--scale", "0.02",
            "--ablation", "redirection",
        ]) == 0
        assert "redir" in capsys.readouterr().out

    def test_bad_mesh_spec(self, capsys):
        assert main(["aes", "--mesh", "banana"]) == 2
        assert "must look like" in capsys.readouterr().err

    def test_page_size_flag(self, capsys):
        assert main([
            "aes", "--mesh", "3x3", "--scale", "0.02",
            "--page-size", "16384", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "page=16K" in payload["config"]

    def test_no_capacity_scaling_flag(self, capsys):
        assert main([
            "aes", "--mesh", "3x3", "--scale", "0.02",
            "--no-capacity-scaling",
        ]) == 0


class TestSanitize:
    @pytest.mark.parametrize("mode", [[], ["races:report"]])
    def test_sanitize_prints_clean_summary(self, mode, capsys):
        assert main([
            "fir", "--mesh", "3x3", "--scale", "0.02", "--sanitize", *mode,
        ]) == 0
        out = capsys.readouterr().out
        assert "sanitizers: clean" in out
        assert ("races:" in out) == bool(mode)

    def test_sanitized_json_matches_bare_json(self, capsys):
        # The determinism check: two runs, one with every sanitizer armed,
        # print byte-identical results.
        argv = ["spmv", "--mesh", "3x3", "--scale", "0.02", "--hdpat",
                "--json"]
        assert main(argv) == 0
        bare = capsys.readouterr().out
        assert main(argv + ["--sanitize"]) == 0
        captured = capsys.readouterr()
        assert captured.out == bare
        assert "sanitizers: clean" in captured.err


class TestObservabilityFlags:
    def test_trace_writes_chrome_file(self, tmp_path, capsys):
        trace_path = tmp_path / "out.json"
        assert main([
            "aes", "--mesh", "3x3", "--scale", "0.02",
            "--trace", str(trace_path),
        ]) == 0
        payload = json.loads(trace_path.read_text())
        events = payload["traceEvents"]
        assert any(event["ph"] == "M" for event in events)
        begun = {e["id"] for e in events
                 if e["ph"] == "b" and e["name"] == "remote_translation"}
        ended = {e["id"] for e in events
                 if e["ph"] == "e" and e["name"] == "remote_translation"}
        assert begun & ended, "no complete remote_translation span traced"

    def test_trace_jsonl_extension(self, tmp_path):
        trace_path = tmp_path / "out.jsonl"
        assert main([
            "aes", "--mesh", "3x3", "--scale", "0.02",
            "--trace", str(trace_path),
        ]) == 0
        events = read_jsonl(str(trace_path))
        assert events
        assert all(isinstance(event.ts, int) for event in events)

    def test_metrics_out_snapshot(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        assert main([
            "aes", "--mesh", "3x3", "--scale", "0.02",
            "--metrics-out", str(metrics_path),
        ]) == 0
        snapshot = json.loads(metrics_path.read_text())
        assert "iommu" in snapshot
        assert "sim" in snapshot

    def test_profile_prints_report(self, capsys):
        assert main([
            "aes", "--mesh", "3x3", "--scale", "0.02", "--profile",
        ]) == 0
        out = capsys.readouterr().out
        assert "== profile:" in out
        assert "host Python loop" in out

    def test_json_stdout_stays_pure_with_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "out.json"
        assert main([
            "aes", "--mesh", "3x3", "--scale", "0.02", "--json",
            "--trace", str(trace_path),
        ]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["workload"] == "aes"
        assert "trace:" in captured.err
