"""The benchmark's own tests, at tiny scale.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import sample  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

#: Inputs small enough that a whole run takes seconds.
TINY = {
    "spmv_hdpat": ["--scale", "0.02"],
    "fft_hdpat_faults": ["--scale", "0.05"],
    "fig14_sweep": ["--scale", "0.01", "--benchmarks", "spmv,fft"],
}


def run_benchmark_cli(capsys, workload, trace):
    code = run.main([
        "--workload", workload, "--seed", "42", "--seconds", "0.1",
        "--trace", str(trace), *TINY[workload],
    ])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def tiny_single(workload, seed, tracer=None):
    spec = sample.WORKLOADS[workload]
    scale = float(TINY[workload][1])
    return sample.run_single(spec, seed, scale, tracer)


def test_benchmark_json_lists_every_workload():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(sample.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == run.PER_LAYER
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(run.END_TO_END)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(capsys, workload, trace):
    code, result = run_benchmark_cli(capsys, workload, trace)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert NAME.match(name)
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_layer_self_times_sum_to_the_traced_wall():
    tracer = spans.SpanTracer()
    traced = tiny_single("fft_hdpat_faults", 42, tracer)
    self_times = tracer.self_times()
    assert set(self_times) == set(spans.LAYERS)
    assert all(seconds >= 0.0 for seconds in self_times.values())
    # Self times partition the root span around run_benchmark; the only
    # untraced time is the benchmark's own timer calls around that span.
    total = sum(self_times.values())
    assert total == pytest.approx(traced["wall_s"], rel=0.01)
    assert traced["layers"]["sim.self_s"] > 0
    assert traced["layers"]["faults.retries"] > 0


def test_tracer_leaves_the_digest_unchanged():
    plain = tiny_single("spmv_hdpat", 42)
    traced = tiny_single("spmv_hdpat", 42, spans.SpanTracer())
    assert traced["digest"] == plain["digest"]
    assert traced["violations"] == plain["violations"] == []


def test_second_seed_keeps_the_access_count_and_changes_the_digest():
    first = tiny_single("spmv_hdpat", 42)
    second = tiny_single("spmv_hdpat", 7)
    assert second["total_accesses"] == first["total_accesses"]
    assert second["completed_accesses"] == first["completed_accesses"]
    assert second["digest"] != first["digest"]


def test_gate_fails_a_sample_whose_digest_moved():
    good = {"digest": "a", "completed_accesses": 5, "violations": [], "traced": False}
    moved = dict(good, digest="b", violations=[], traced=True)
    problems = run.gate([good, moved])
    assert problems and moved["violations"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spmv_hdpat",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
