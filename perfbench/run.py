"""The repository benchmark: host time of single runs and a figure sweep.

Run from the repository root::

    python3 perfbench/run.py --workload spmv_hdpat --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload fig14_sweep --seed 42 --seconds 30 --trace 1

Each workload is a closed loop with one client: samples run one after
another, each in a fresh process (``sample.py``), until ``--seconds`` is
used up (at least ``MIN_SAMPLES`` of them).  ``--trace 0`` reports the
end-to-end metrics as the median over samples; ``--trace 1`` alternates
untraced and traced samples and reports the per-layer metrics.  Every
sample passes a correctness gate; a violation counts as a failed
operation and makes the run exit non-zero.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space (sweep disk caches) and the traced runs' span files.
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from reference import time_reference  # noqa: E402
from sample import WORKLOADS  # noqa: E402

#: The reference kernel's time on the host the benchmark was calibrated
#: on; host times are scaled by REFERENCE_S / (measured kernel time).
REFERENCE_S = 0.2
#: Fewest samples a run takes, whatever ``--seconds`` says.
MIN_SAMPLES = 3
#: No new sample starts once a run has taken this long, and a sample
#: still running when the run reaches HARD_LIMIT_S is killed and counted
#: as failed: a run must end within three minutes.
RUN_LIMIT_S = 120.0
HARD_LIMIT_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "accesses_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

LAYER_UNITS = {
    "_s": "s",
    "_frac": "1",
    "_rate": "1",
    "_mb": "MiB",
    "_per_access": "1",
    "_per_send": "hops",
    "_cycles": "cycles",
    "_bytes": "bytes",
    "hdpat_geomean": "x",
    "best_sota": "x",
}

#: Every per-layer metric.  A layer a workload does not run reports 0:
#: exec.* and the model's figure ratios on single runs, the
#: simulation-layer self times on the sweep (its parent process runs no
#: simulation; its workers' counters are merged instead).
PER_LAYER = [
    "gpm.self_s", "gpm.probes_per_access", "gpm.mshr_stalls",
    "gpm.merged_misses", "gpm.remote_translations",
    "tlb.self_s", "tlb.calls", "tlb.l1v_hit_rate", "tlb.l2_hit_rate",
    "filters.self_s", "filters.false_positive_walks",
    "noc.self_s", "noc.sends", "noc.hops_per_send", "noc.link_wait_cycles",
    "noc.translation_bytes",
    "faults.self_s", "faults.timeouts", "faults.retries",
    "faults.rerouted_messages", "faults.drops",
    "iommu.self_s", "iommu.requests", "iommu.walks", "iommu.coalesced",
    "iommu.redirects",
    "core.self_s",
    "served_by.local_l1", "served_by.local_l2", "served_by.local_llt",
    "served_by.local_walk", "served_by.peer", "served_by.proactive",
    "served_by.redirect", "served_by.iommu",
    "sim.self_s", "sim.events",
    "mem.self_s", "workloads.self_s", "workloads.generate_s",
    "system.self_s", "system.build_s", "system.collect_s",
    "experiments.self_s", "exec.self_s", "other.self_s",
    "exec.jobs", "exec.failed", "exec.retries", "exec.job_wall_p50_s",
    "exec.worker_busy_frac", "exec.overhead_s", "exec.warm_rerun_s",
    "exec.warm_disk_hits", "exec.worker_peak_rss_mb",
    "model.exec_cycles", "model.completed_accesses", "model.hdpat_geomean",
    "model.hdpat_over_best_sota",
    "trace.overhead_frac",
]


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


class Sampler:
    """Runs samples of one workload in fresh processes, one at a time."""

    def __init__(self, workload: str, seed: int, workdir: Path, extra) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.extra = list(extra)
        self.count = 0

    def run(self, traced: bool, timeout: float) -> dict:
        self.count += 1
        sample_dir = self.workdir / f"sample{self.count}"
        cmd = [
            sys.executable, str(HERE / "sample.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--workdir", str(sample_dir), *self.extra,
        ]
        if traced:
            cmd += ["--traced", "--spans-out", str(WORK / f"spans-{self.workload}.npz")]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        reference_before = time_reference()
        started = time.perf_counter()
        # A session of its own, so a timed-out sample is killed together
        # with any sweep workers it started.
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            err += f"\nkilled after {timeout:.0f} s"
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        finally:
            shutil.rmtree(sample_dir, ignore_errors=True)
        duration = time.perf_counter() - started
        try:
            sample = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            sample = None
        if proc.returncode != 0 or not isinstance(sample, dict):
            tail = err.strip().splitlines()[-3:]
            sample = {"violations": [f"sample exited {proc.returncode}: {tail}"]}
        sample["traced"] = traced
        sample["duration_s"] = duration
        sample["reference_s"] = (reference_before + time_reference()) / 2
        return sample


def run_loop(sampler: Sampler, seconds: float, trace: bool) -> list:
    """Closed loop: the next sample starts when the previous one ends."""
    started = time.perf_counter()
    samples: list = []
    rounds = 0
    def remaining() -> float:
        return max(1.0, HARD_LIMIT_S - (time.perf_counter() - started))

    while True:
        samples.append(sampler.run(traced=False, timeout=remaining()))
        if trace:
            samples.append(sampler.run(traced=True, timeout=remaining()))
        rounds += 1
        elapsed = time.perf_counter() - started
        per_round = elapsed / rounds
        if elapsed + per_round > min(seconds, RUN_LIMIT_S) and (
            trace or rounds >= MIN_SAMPLES
        ):
            return samples
        if elapsed + per_round > RUN_LIMIT_S:
            return samples


def gate(samples: list) -> list:
    """Mark failed samples; returns the list of violations found."""
    reference = next((s for s in samples if not s["violations"]), None)
    problems = []
    for sample in samples:
        if reference is not None and not sample["violations"]:
            for key in ("digest", "completed_accesses"):
                if sample[key] != reference[key]:
                    sample["violations"].append(
                        f"{key} {sample[key]} differs from {reference[key]}"
                        f" ({'traced' if sample['traced'] else 'untraced'} sample)"
                    )
        problems.extend(sample["violations"])
    if reference is None:
        problems.append("no sample passed the correctness gate")
    return problems


def summarize(values: list) -> str:
    return (
        f"median {statistics.median(values):.4f}  min {min(values):.4f}  "
        f"max {max(values):.4f}  n={len(values)}"
    )


def normalized(sample: dict, name: str) -> float:
    """A host time scaled to the calibration host's speed."""
    return sample[name] * REFERENCE_S / sample["reference_s"]


def end_to_end_metrics(good: list) -> dict:
    raw = {
        "wall_s": [s["wall_s"] for s in good],
        "setup_s": [s["setup_s"] for s in good],
    }
    for name, values in raw.items():
        print(f"  raw {name:<12} {summarize(values)}  ({END_TO_END[name]})")
    print(f"  reference_s      {summarize([s['reference_s'] for s in good])}  (s)")
    wall = [normalized(s, "wall_s") for s in good]
    per_sample = {
        "wall_s": wall,
        "accesses_per_s": [s["completed_accesses"] / w for s, w in zip(good, wall)],
        "setup_s": [normalized(s, "setup_s") for s in good],
        "peak_rss_mb": [s["peak_rss_mb"] for s in good],
    }
    for name, values in per_sample.items():
        print(f"  {name:<16} {summarize(values)}  ({END_TO_END[name]})")
    return {
        name: {"value": statistics.median(values), "unit": END_TO_END[name]}
        for name, values in per_sample.items()
    }


def per_layer_metrics(good: list) -> dict:
    plain = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    if not plain or not traced:
        return {}
    values = {}
    for name in PER_LAYER:
        samples = [s["layers"].get(name, 0) for s in traced]
        # Times vary run to run: take the median.  Counts repeat exactly.
        values[name] = statistics.median(samples) if name.endswith("_s") else samples[0]
    traced_wall = statistics.median(normalized(s, "wall_s") for s in traced)
    plain_wall = statistics.median(normalized(s, "wall_s") for s in plain)
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    for name, value in values.items():
        print(f"  {name:<30} {value:.6g}")
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Smaller inputs for the benchmark's own tests.
    parser.add_argument("--scale", type=float, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--benchmarks", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    # Byte-compile up front so no sample pays for it inside setup_s.
    compileall.compile_dir(str(SRC / "repro"), quiet=1)

    extra = []
    if args.scale is not None:
        extra += ["--scale", str(args.scale)]
    if args.benchmarks:
        extra += ["--benchmarks", args.benchmarks]
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    try:
        samples = run_loop(
            Sampler(args.workload, args.seed, workdir, extra),
            args.seconds, bool(args.trace),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = gate(samples)
    good = [s for s in samples if not s["violations"]]
    mode = "traced" if args.trace else "untraced"
    print(
        f"perfbench {args.workload} seed={args.seed} mode={mode} "
        f"samples={len(samples)} failed={len(samples) - len(good)}"
    )
    for problem in problems:
        print(f"  FAILED: {problem}")
    if good:
        first = good[0]
        print(
            f"  model: digest={first['digest']} exec_cycles={first['exec_cycles']} "
            f"completed_accesses={first['completed_accesses']}/{first['total_accesses']}"
        )
    metrics = (per_layer_metrics(good) if args.trace else end_to_end_metrics(good)) if good else {}
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": len(samples) - len(good),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
