"""Command-line interface: regenerate any paper table or figure.

Usage (the same ``main`` is installed as ``hdpat-experiments``)::

    python -m repro experiments fig14               # parallel sweep
    python -m repro experiments fig14 --jobs 1      # serial, in-process
    python -m repro experiments fig15 --scale 0.25  # tighter, slower
    python -m repro experiments fig03 --benchmarks spmv
    python -m repro experiments all --output tables.txt
    python -m repro experiments sweep --schemes baseline,hdpat,transfw \\
        --benchmarks aes,spmv --scales 0.05,0.1 --seeds 1,2 --jobs 8

Experiment runs shard their config×workload grids across ``--jobs`` worker
processes and memoise results in ``--cache-dir`` (content-addressed JSON;
see docs/EXECUTION.md), so re-running a figure is free and a cold ``all``
saturates the machine.  ``--metrics-out`` captures the ``sweep.jobs.*``
progress counters and per-job wall-clock histogram.  The cache is also
the checkpoint: an interrupted run resumes by being rerun with the same
``--cache-dir``.

Exit codes: 0 success; 2 configuration error (an unknown experiment or
benchmark, a scale outside (0, 1], an unreadable worker fault plan);
3 sweep aborted.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, List, Optional, Tuple

from repro.errors import ReproError, SweepAbortedError
from repro.exec import SweepExecutor, WorkerFaultPlan, default_jobs
from repro.experiments import sweep as sweep_module
from repro.experiments.common import DEFAULT_SCALE, RunCache, resolve_benchmarks
from repro.experiments.registry import EXPERIMENT_IDS, get_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro experiments",
        description="Regenerate HDPAT paper tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help=f"experiment id, one of {EXPERIMENT_IDS}, 'all', or 'sweep'",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=DEFAULT_SCALE,
        help="workload scale factor in (0, 1] (default %(default)s)",
    )
    parser.add_argument(
        "--benchmarks",
        default=None,
        help="comma-separated benchmark subset (default: experiment's own)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--output",
        default=None,
        help="also append the regenerated tables to this file",
    )
    execution = parser.add_argument_group("execution")
    execution.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sweep sharding; 1 = serial in-process "
             "(default: cpu_count - 1)",
    )
    execution.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="content-addressed on-disk result cache shared across runs",
    )
    execution.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock limit; a timed-out job becomes a failure "
             "record instead of hanging the sweep (default: no limit)",
    )
    execution.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the sweep metrics snapshot (queued/done/failed/"
             "cache-hit counters, wall-clock histogram) as JSON",
    )
    execution.add_argument(
        "--progress",
        default=None,
        metavar="PATH",
        help="write a live JSONL heartbeat (jobs done/failed/retried, "
             "events/sec, ETA) to PATH; tail -f it while the sweep runs",
    )
    execution.add_argument(
        "--worker-metrics",
        action="store_true",
        help="run pool jobs metrics-enabled and merge each worker's "
             "counters back into the sweep registry (workers.* namespace; "
             "also feeds the heartbeat's events/sec)",
    )
    resilience = parser.add_argument_group("resilience")
    resilience.add_argument(
        "--max-consecutive-failures",
        type=int,
        default=None,
        metavar="N",
        help="circuit breaker: abort the sweep (exit code 3) after N "
             "job failures in a row",
    )
    resilience.add_argument(
        "--abort-after",
        type=int,
        default=None,
        metavar="N",
        help="gracefully abort after N completed jobs — a deterministic "
             "simulated interrupt; rerun with the same --cache-dir to "
             "resume",
    )
    resilience.add_argument(
        "--worker-faults",
        default=None,
        metavar="PLAN.json",
        help="chaos-test pool workers under a WorkerFaultPlan JSON file "
             "(seeded crash/hang/slow faults; results stay byte-identical "
             "to a fault-free run)",
    )
    grid = parser.add_argument_group("sweep grid (sweep verb only)")
    grid.add_argument(
        "--schemes",
        default=None,
        help=f"comma-separated schemes from {list(sweep_module.SCHEME_NAMES)} "
             "(default: baseline,hdpat)",
    )
    grid.add_argument(
        "--scales",
        default=None,
        help="comma-separated scale factors (default: --scale)",
    )
    grid.add_argument(
        "--seeds",
        default=None,
        help="comma-separated seeds (default: --seed)",
    )
    return parser


def _split(text: Optional[str]) -> Optional[List[str]]:
    if text is None:
        return None
    return [part.strip() for part in text.split(",") if part.strip()]


def _load_worker_faults(path: Optional[str]) -> Optional[WorkerFaultPlan]:
    if not path:
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return WorkerFaultPlan.from_dict(json.load(handle))


def _runs(args, benchmarks: Optional[List[str]]) -> List[Tuple[str, Callable]]:
    """The ``(experiment id, runner)`` pairs the command asks for, after
    checking the experiment id, the benchmarks and the scale, so bad
    input fails before any executor starts."""
    if not 0.0 < args.scale <= 1.0:
        raise ValueError(f"--scale must be in (0, 1], got {args.scale}")
    if benchmarks is not None:
        resolve_benchmarks(benchmarks)
    experiment = args.experiment.lower()
    if experiment == "sweep":
        return [("sweep", lambda **kw: sweep_module.run(
            schemes=_split(args.schemes),
            scales=_split(args.scales),
            seeds=_split(args.seeds),
            **kw,
        ))]
    if experiment == "all":
        return [(eid, get_experiment(eid)) for eid in EXPERIMENT_IDS]
    return [(args.experiment, get_experiment(args.experiment))]


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    benchmarks = _split(args.benchmarks)
    try:
        runs = _runs(args, benchmarks)
    except (ValueError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        worker_faults = _load_worker_faults(args.worker_faults)
    except (OSError, ValueError, KeyError, ReproError) as exc:
        print(
            f"error: cannot load worker fault plan "
            f"{args.worker_faults}: {exc}",
            file=sys.stderr,
        )
        return 2

    executor = SweepExecutor(
        jobs=args.jobs if args.jobs is not None else default_jobs(),
        cache_dir=args.cache_dir,
        job_timeout=args.job_timeout,
        worker_metrics=args.worker_metrics,
        heartbeat=args.progress,
        worker_faults=worker_faults,
        max_consecutive_failures=args.max_consecutive_failures,
        abort_after=args.abort_after,
    )
    cache = RunCache(executor=executor)
    sink = open(args.output, "a") if args.output else None
    aborted: Optional[SweepAbortedError] = None
    try:
        for experiment_id, runner in runs:
            started = time.time()
            result = runner(
                scale=args.scale, benchmarks=benchmarks, seed=args.seed,
                cache=cache,
            )
            result.show()
            print(f"[{experiment_id} completed in {time.time() - started:.1f}s]\n")
            if sink is not None:
                sink.write(result.format_table() + "\n\n")
    except SweepAbortedError as exc:
        aborted = exc
    finally:
        # Nested so a failing sink close can never swallow the terminal
        # heartbeat record, and a failing heartbeat write can never
        # swallow the metrics snapshot.
        try:
            if sink is not None:
                sink.close()
        finally:
            try:
                executor.finish_heartbeat()
            finally:
                if args.metrics_out:
                    with open(args.metrics_out, "w", encoding="utf-8") as handle:
                        json.dump(
                            executor.snapshot(), handle,
                            indent=2, sort_keys=True,
                        )
                        handle.write("\n")
    for failure in executor.failures:
        print(f"warning: job failed: {failure.to_dict()}", file=sys.stderr)
    if aborted is not None:
        print(
            f"sweep aborted: {aborted.reason} "
            f"({len(aborted.results)} jobs completed, "
            f"{len(aborted.failures)} failed); rerun with the same "
            "--cache-dir to resume",
            file=sys.stderr,
        )
        return 3
    return 0
