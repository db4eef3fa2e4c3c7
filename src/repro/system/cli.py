"""Single-run command line: ``python -m repro run <benchmark> [...]``.

Runs one benchmark on one configuration and prints (or JSON-dumps) the
result — the quickest way to poke at the system without writing a script:

    python -m repro run spmv --hdpat --scale 0.1
    python -m repro run pr --mesh 7x12 --ablation redirection --json
    python -m repro run mt --page-size 65536 --gpu h100
    python -m repro run fir --trace out.json

The same ``main`` is installed as the ``hdpat-run`` console script.
``--trace`` writes a Chrome trace-event file (or JSONL when the path ends
in ``.jsonl``), ``--metrics-out`` dumps the metrics-registry snapshot,
and ``--profile`` prints the profiling report.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.config.hdpat import HDPATConfig
from repro.config.presets import gpm_preset, gpm_preset_names
from repro.config.scaling import capacity_scaled
from repro.config.system import SystemConfig
from repro.obs import Observability, summarize
from repro.obs.export import write_trace
from repro.system.runner import run_benchmark
from repro.workloads.registry import BENCHMARK_NAMES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro run",
        description="Run one benchmark on one wafer configuration.",
    )
    parser.add_argument("benchmark", choices=BENCHMARK_NAMES)
    parser.add_argument(
        "--mesh", default="7x7", help="mesh as WxH (default %(default)s)"
    )
    parser.add_argument(
        "--gpu", default="mi100", choices=gpm_preset_names(),
        help="GPM preset (default %(default)s)",
    )
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--page-size", type=int, default=4096)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--hdpat", action="store_true", help="full HDPAT configuration"
    )
    mode.add_argument(
        "--ablation", default=None,
        help="named ablation point (route / concentric / distributed / "
             "cluster_rotation / redirection / prefetch / hdpat)",
    )
    parser.add_argument(
        "--no-capacity-scaling", action="store_true",
        help="keep Table I capacities despite the reduced workload scale",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON")
    faults_group = parser.add_argument_group("fault injection")
    faults_group.add_argument(
        "--faults", default="0", metavar="FRACTION|PLAN.json",
        help="inject a deterministic fault plan: either a severity "
             "fraction (0 disables; see repro.faults.degradation_plan) "
             "or the path of a FaultPlan JSON file, which may carry a "
             "timeline of mid-run degrade/drain/kill/recover events "
             "(see docs/ROBUSTNESS.md)",
    )
    faults_group.add_argument(
        "--fault-seed", type=int, default=None,
        help="seed for the fault plan (default: --seed)",
    )
    parser.add_argument(
        "--sanitize", nargs="?", const=True, default=False,
        metavar="MODE",
        help="arm the runtime sanitizers (event order, NoC byte "
             "conservation, buffer leaks); violations raise typed errors. "
             "'--sanitize races' additionally arms the same-cycle race "
             "detector (OrderRaceError on the first conflict); "
             "'--sanitize races:report' collects race findings instead",
    )
    obs_group = parser.add_argument_group("observability")
    obs_group.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a translation-lifecycle trace; Chrome trace-event "
             "JSON, or JSONL when PATH ends in .jsonl",
    )
    obs_group.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the metrics-registry snapshot as JSON",
    )
    obs_group.add_argument(
        "--profile", action="store_true",
        help="time host-side event callbacks and print a profiling report",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        width, height = (int(part) for part in args.mesh.lower().split("x"))
    except ValueError:
        print(f"error: --mesh must look like 7x7, got {args.mesh!r}",
              file=sys.stderr)
        return 2
    if args.sanitize not in (False, True, "races", "races:report"):
        # Also catches a stray positional swallowed by the optional value.
        print(f"error: --sanitize takes no value, 'races' or "
              f"'races:report', got {args.sanitize!r}", file=sys.stderr)
        return 2
    if args.hdpat:
        hdpat = HDPATConfig.full()
    elif args.ablation:
        hdpat = HDPATConfig.ablation(args.ablation)
    else:
        hdpat = HDPATConfig.baseline()
    config = SystemConfig(
        mesh_width=width,
        mesh_height=height,
        gpm=gpm_preset(args.gpu),
        hdpat=hdpat,
        page_size=args.page_size,
        seed=args.seed,
    )
    if not args.no_capacity_scaling:
        config = capacity_scaled(config, args.scale)
    fault_plan = None
    try:
        fault_fraction = float(args.faults)
    except ValueError:
        fault_fraction = None
    if fault_fraction is None:
        # Not a number: the argument names a FaultPlan JSON file.
        from repro.errors import ReproError
        from repro.faults import FaultPlan

        try:
            with open(args.faults, "r", encoding="utf-8") as handle:
                fault_plan = FaultPlan.from_dict(json.load(handle))
        except (OSError, ValueError, ReproError) as exc:
            print(f"error: cannot load fault plan {args.faults!r}: {exc}",
                  file=sys.stderr)
            return 2
    elif fault_fraction < 0:
        print(f"error: --faults must be >= 0, got {args.faults}",
              file=sys.stderr)
        return 2
    elif fault_fraction > 0:
        from repro.faults import degradation_plan

        fault_seed = args.fault_seed if args.fault_seed is not None else args.seed
        fault_plan = degradation_plan(width, height, fault_seed, fault_fraction)
    if fault_plan is not None:
        config = config.with_faults(fault_plan)
    # Fail on unwritable output paths before burning simulation time.
    for out_path in (args.trace, args.metrics_out):
        if out_path:
            try:
                with open(out_path, "a", encoding="utf-8"):
                    pass
            except OSError as exc:
                print(f"error: cannot write {out_path!r}: {exc}",
                      file=sys.stderr)
                return 2
    obs = None
    if args.trace or args.metrics_out or args.profile:
        obs = Observability(
            metrics=args.metrics_out is not None,
            trace=args.trace is not None,
            profile=args.profile,
        )
    result = run_benchmark(
        config, args.benchmark, scale=args.scale, seed=args.seed, obs=obs,
        sanitize=args.sanitize,
    )
    notice = sys.stderr if args.json else sys.stdout
    if fault_plan is not None:
        fault_report = result.extras.get("faults", {})
        counters = fault_report.get("counters", {})
        print(f"faults: {fault_report.get('dead_links', 0)} dead links, "
              f"{fault_report.get('dead_gpms', 0)} dead GPMs; "
              f"{counters.get('injected.drops', 0)} drops, "
              f"{counters.get('injected.delays', 0)} delays, "
              f"{counters.get('injected.duplicates', 0)} duplicates, "
              f"{counters.get('retries', 0)} retries", file=notice)
        if fault_plan.timeline is not None:
            print(f"timeline: {counters.get('timeline.kills', 0)} kills, "
                  f"{counters.get('timeline.recoveries', 0)} recoveries, "
                  f"{counters.get('timeline.drained_pages', 0)} drained, "
                  f"{counters.get('timeline.rehomed_pages', 0)} re-homed, "
                  f"{counters.get('timeline.dead_letters', 0)} dead letters",
                  file=notice)
    if args.sanitize:
        sanitizers = result.extras.get("sanitizers", {})
        races = sanitizers.get("races") or {}
        status = "clean"
        if races.get("findings"):
            status = f"{len(races['findings'])} race finding(s)"
        print(f"sanitizers: {status} "
              f"({sanitizers.get('events_checked', 0):,} events, "
              f"{sanitizers.get('buffers_watched', 0)} buffers, "
              f"{sanitizers.get('messages_delivered', 0):,} deliveries "
              f"checked)", file=notice)
        if races:
            print(f"races: {races.get('cycles_checked', 0):,} cycles, "
                  f"{races.get('accesses_recorded', 0):,} accesses, "
                  f"{races.get('benign_suppressed', 0)} benign suppressed",
                  file=notice)
    if args.trace:
        count = write_trace(obs.tracer.events, args.trace)
        print(f"trace: {count} events -> {args.trace}", file=notice)
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(result.extras.get("metrics", {}), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"metrics: snapshot -> {args.metrics_out}", file=notice)
    if result.truncated:
        print(
            f"warning: run truncated; "
            f"{result.extras.get('dropped_events', 0)} events dropped",
            file=sys.stderr,
        )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(f"{result.workload.upper()} on {result.config_description}")
        print(f"  execution: {result.exec_cycles:,} cycles "
              f"({result.exec_ms:.3f} ms)")
        print(f"  accesses:  {result.total_accesses:,} "
              f"(local translations: {result.local_fraction():.1%})")
        print(f"  IOMMU:     {result.iommu_requests:,} requests, "
              f"{result.iommu_walks:,} walks, "
              f"{result.iommu_redirects:,} redirects")
        breakdown = result.remote_breakdown()
        print("  remote served by: "
              + ", ".join(f"{k} {v:.1%}" for k, v in breakdown.items()))
        print(f"  mean remote RTT: {result.mean_rtt:,.0f} cycles")
    if args.profile:
        print(summarize(result, obs=obs), file=notice)
    return 0
