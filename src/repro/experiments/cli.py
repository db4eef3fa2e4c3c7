"""Command-line interface: regenerate any paper table or figure.

Usage::

    hdpat-experiments fig14                  # full suite, parallel sweep
    hdpat-experiments fig14 --jobs 1         # the historical serial path
    hdpat-experiments fig15 --scale 0.25     # tighter numbers, slower
    hdpat-experiments fig03 --benchmarks spmv
    hdpat-experiments all --cache-dir ~/.hdpat-cache
    hdpat-experiments sweep --schemes baseline,hdpat,transfw \\
        --benchmarks aes,spmv --scales 0.05,0.1 --seeds 1,2 --jobs 8

Experiment runs shard their config×workload grids across ``--jobs`` worker
processes and memoise results in ``--cache-dir`` (content-addressed JSON;
see docs/EXECUTION.md), so re-running a figure is free and a cold ``all``
saturates the machine.  ``--metrics-out`` captures the ``sweep.jobs.*``
progress counters and per-job wall-clock histogram.  The cache is also
the checkpoint: an interrupted run resumes by being rerun with the same
``--cache-dir``.

Multi-host sweep service verbs (see docs/EXECUTION.md, "Sweep service")::

    hdpat-experiments submit --service-dir /shared/svc --campaign c1 \\
        --tenant alice --schemes baseline,hdpat --benchmarks aes,fir
    hdpat-experiments serve --service-dir /shared/svc        # per host
    hdpat-experiments status --service-dir /shared/svc --campaign c1 \\
        --output results.txt

Exit codes: 0 success; 2 configuration error; 3 sweep aborted; 4 a
submission was rejected with back-pressure (tenant queue cap); 5 a
result table was requested for a campaign that is not fully committed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.errors import (
    BackPressureError,
    CampaignError,
    ReproError,
    ServiceError,
    SweepAbortedError,
)
from repro.exec import SweepExecutor, WorkerFaultPlan, default_jobs
from repro.exec.service import Coordinator, WorkerHost
from repro.experiments import sweep as sweep_module
from repro.experiments.common import DEFAULT_SCALE, RunCache
from repro.experiments.registry import EXPERIMENT_IDS, get_experiment

#: CLI verbs handled by the sweep service, not the experiment runner.
SERVICE_VERBS = ("serve", "submit", "status")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdpat-experiments",
        description="Regenerate HDPAT paper tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help=f"experiment id, one of {EXPERIMENT_IDS}, 'all', 'sweep', or "
             f"a service verb: {'/'.join(SERVICE_VERBS)}",
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
        help="chaos-test pool workers (or, with serve, this worker host) "
             "under a WorkerFaultPlan JSON file (seeded crash/hang/slow "
             "faults; results stay byte-identical to a fault-free run)",
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
    service = parser.add_argument_group(
        "sweep service (serve/submit/status verbs only)"
    )
    service.add_argument(
        "--service-dir",
        default=None,
        metavar="PATH",
        help="shared service root (ledger, result cache, and per-host "
             "heartbeats all live here); required by every service verb",
    )
    service.add_argument(
        "--campaign",
        default=None,
        metavar="NAME",
        help="campaign name: required by submit, optional scope for "
             "status (and required when status writes --output)",
    )
    service.add_argument(
        "--tenant",
        default="default",
        metavar="NAME",
        help="submitting tenant (default %(default)s)",
    )
    service.add_argument(
        "--weight",
        type=float,
        default=1.0,
        metavar="W",
        help="tenant fair-share weight: hosts dispatch tenants by "
             "smallest dispatched/weight (default %(default)s)",
    )
    service.add_argument(
        "--queue-cap",
        type=int,
        default=None,
        metavar="N",
        help="tenant queue-depth cap: a submission that would push the "
             "tenant's pending+leased depth past N is rejected whole "
             "with BackPressureError (exit code 4)",
    )
    service.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="job lease TTL; a host silent for longer than this has its "
             "leases stolen by surviving hosts (submit only)",
    )
    service.add_argument(
        "--host-id",
        default=None,
        metavar="ID",
        help="this worker host's id (default: hostname-pid)",
    )
    service.add_argument(
        "--poll",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="serve: idle wait between claims while other hosts hold "
             "live leases (default %(default)s)",
    )
    service.add_argument(
        "--max-runtime",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serve: exit (releasing held leases) after this long even "
             "if the ledger has not drained",
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


def _floats(parts: Optional[List[str]]) -> Optional[List[float]]:
    return [float(p) for p in parts] if parts else None


def _ints(parts: Optional[List[str]]) -> Optional[List[int]]:
    return [int(p) for p in parts] if parts else None


def _service_main(parser: argparse.ArgumentParser, args) -> int:
    """The serve/submit/status verbs (multi-host sweep service)."""
    verb = args.experiment.lower()
    if not args.service_dir:
        parser.error(f"the {verb!r} verb requires --service-dir")
    try:
        if verb == "submit":
            if not args.campaign:
                parser.error("submit requires --campaign")
            coordinator = Coordinator(args.service_dir, lease_ttl=args.lease_ttl)
            summary = coordinator.submit(
                args.campaign,
                args.tenant,
                schemes=_split(args.schemes),
                benchmarks=_split(args.benchmarks),
                scales=_floats(_split(args.scales)),
                seeds=_ints(_split(args.seeds)),
                weight=args.weight,
                queue_cap=args.queue_cap,
            )
            print(json.dumps(summary, sort_keys=True))
            return 0
        if verb == "serve":
            host = WorkerHost(
                args.service_dir,
                host_id=args.host_id,
                faults=_load_worker_faults(args.worker_faults),
                poll=args.poll,
                max_runtime=args.max_runtime,
            )
            summary = host.run()
            print(json.dumps(summary, sort_keys=True))
            return 0
        # status
        coordinator = Coordinator(args.service_dir, create=False)
        status = coordinator.status(args.campaign)
        print(json.dumps(status, sort_keys=True, indent=2))
        if args.output:
            if not args.campaign:
                parser.error("status --output requires --campaign")
            try:
                table = coordinator.result_table(args.campaign)
            except CampaignError as exc:
                # The campaign exists (status above succeeded) but is
                # not fully committed — distinct exit code so waiters
                # can poll on it.
                print(f"incomplete: {exc}", file=sys.stderr)
                return 5
            with open(args.output, "a", encoding="utf-8") as sink:
                sink.write(table.format_table() + "\n\n")
        return 0
    except BackPressureError as exc:
        print(f"back-pressure: {exc}", file=sys.stderr)
        return 4
    except (OSError, ValueError, KeyError, ServiceError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.experiment.lower() in SERVICE_VERBS:
        return _service_main(parser, args)

    try:
        worker_faults = _load_worker_faults(args.worker_faults)
    except (OSError, ValueError, KeyError, ReproError) as exc:
        print(
            f"error: cannot load worker fault plan "
            f"{args.worker_faults}: {exc}",
            file=sys.stderr,
        )
        return 2

    benchmarks = _split(args.benchmarks)
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
        if args.experiment.lower() == "sweep":
            runs = [("sweep", lambda **kw: sweep_module.run(
                schemes=_split(args.schemes),
                scales=_split(args.scales),
                seeds=_split(args.seeds),
                **kw,
            ))]
        elif args.experiment.lower() == "all":
            runs = [(eid, get_experiment(eid)) for eid in EXPERIMENT_IDS]
        else:
            runs = [(args.experiment, get_experiment(args.experiment))]
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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
