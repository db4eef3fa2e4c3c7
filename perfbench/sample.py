"""One measured sample of a benchmark workload, in a fresh process.

``run.py`` starts this script once per sample, so every sample begins
with empty modelled TLBs and caches, cold imports, and its own
high-water RSS.  Usage::

    PYTHONPATH=src python3 perfbench/sample.py --workload spmv_hdpat \\
        --seed 42 --workdir .perfbench/tmp [--traced]

The last line of standard output is one JSON object: the sample's
timings, its correctness facts, and (with ``--traced``) its per-layer
metrics.
"""

from time import perf_counter

#: setup_s counts from here: the ``repro`` imports are part of set-up.
_STARTED = perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

#: The benchmark's workloads.  ``why`` is repeated in BENCHMARK.json.
WORKLOADS = {
    "spmv_hdpat": {
        "kind": "single",
        "benchmark": "spmv",
        "scale": 0.1,
        "fault_fraction": 0.0,
    },
    "fft_hdpat_faults": {
        "kind": "single",
        "benchmark": "fft",
        "scale": 0.3,
        "fault_fraction": 0.1,
    },
    "fig14_sweep": {
        "kind": "sweep",
        "experiment": "fig14",
        "scale": 0.05,
        "jobs": 2,
    },
}

#: Translation sources, in the order of ``repro.core.request.ServedBy``.
SERVED_BY = (
    "local_l1", "local_l2", "local_llt", "local_walk",
    "peer", "proactive", "redirect", "iommu",
)

_GPM_PREFIX = re.compile(r"^gpm\d+\.")


def peak_rss_mb(who: int) -> float:
    """High-water resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def fold_counters(flat, prefix: str = "") -> Counter:
    """Integer registry counters summed over GPMs (``gpm7.x`` -> ``gpm.x``)."""
    totals: Counter = Counter()
    for name, value in flat.items():
        if not isinstance(value, int) or not name.startswith(prefix):
            continue
        totals[_GPM_PREFIX.sub("gpm.", name[len(prefix):])] += value
    return totals


def _rate(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(counters: Counter, results, completed: int) -> dict:
    """Per-layer counts from the program's own counters and RunResults."""
    l1v = (counters["gpm.tlb.l1v.hits"], counters["gpm.tlb.l1v.misses"])
    l2 = (counters["gpm.tlb.l2tlb.hits"], counters["gpm.tlb.l2tlb.misses"])
    llt = (counters["gpm.tlb.llt.hits"], counters["gpm.tlb.llt.misses"])
    served = Counter()
    faults = Counter()
    for result in results:
        for source, count in result.served_by.items():
            served[source.value] += count
        faults.update(result.extras.get("faults", {}).get("counters", {}))
    routed = counters["noc.messages_routed"]
    metrics = {
        # Every local probe looks up the L1 vector TLB exactly once.
        "gpm.probes_per_access": sum(l1v) / completed if completed else 0.0,
        "gpm.mshr_stalls": counters["gpm.mshr_stalls"],
        "gpm.merged_misses": counters["gpm.merged_misses"],
        "gpm.remote_translations": counters["gpm.remote_translations"],
        "tlb.calls": sum(l1v) + sum(l2) + sum(llt),
        "tlb.l1v_hit_rate": _rate(*l1v),
        "tlb.l2_hit_rate": _rate(*l2),
        "filters.false_positive_walks": counters["gpm.filter.false_positives"],
        "noc.sends": counters["noc.messages_sent"],
        "noc.hops_per_send": counters["noc.total_hops"] / routed if routed else 0.0,
        "noc.link_wait_cycles": counters["noc.link_wait_cycles"],
        "noc.translation_bytes": sum(r.translation_link_bytes for r in results),
        "faults.timeouts": faults["timeouts"],
        "faults.retries": faults["retries"],
        "faults.rerouted_messages": faults["rerouted_messages"],
        "faults.drops": faults["injected.drops"],
        "iommu.requests": sum(r.iommu_requests for r in results),
        "iommu.walks": sum(r.iommu_walks for r in results),
        "iommu.coalesced": sum(r.iommu_coalesced for r in results),
        "iommu.redirects": sum(r.iommu_redirects for r in results),
        "sim.events": counters["sim.events_processed"],
        "model.exec_cycles": sum(r.exec_cycles for r in results),
        "model.completed_accesses": completed,
    }
    for source in SERVED_BY:
        metrics[f"served_by.{source}"] = served[source]
    return metrics


def span_metrics(tracer) -> dict:
    """Per-layer self times plus the set-up phases' span durations."""
    metrics = {f"{layer}.self_s": seconds for layer, seconds in tracer.self_times().items()}
    durations = tracer.name_durations()
    phases = {
        "workloads.generate_s": "repro.workloads.base.Workload.generate",
        "system.build_s": "repro.system.wafer.WaferScaleGPU.__init__",
        "system.collect_s": "repro.system.runner.collect_result",
    }
    for metric, name in phases.items():
        metrics[metric] = durations.get(name, 0.0)
    return metrics


# ----------------------------------------------------------------------
# Single runs: one run_benchmark call
# ----------------------------------------------------------------------
def single_config(spec: dict, seed: int, scale: float):
    from repro.config.hdpat import HDPATConfig
    from repro.config.presets import wafer_7x7_config
    from repro.config.scaling import capacity_scaled
    from repro.faults.plan import degradation_plan

    config = wafer_7x7_config().with_hdpat(HDPATConfig.full())
    if spec["fault_fraction"]:
        plan = degradation_plan(7, 7, seed, spec["fault_fraction"])
        config = dataclasses.replace(config, faults=plan)
    return capacity_scaled(config, scale)


def run_single(spec: dict, seed: int, scale: float, tracer) -> dict:
    from repro.analysis.sanitizers import result_digest
    from repro.obs import Observability
    from repro.system.runner import run_benchmark
    from repro.system.wafer import WaferScaleGPU

    entered = []
    original_run = WaferScaleGPU.run

    def run(self, *args, **kwargs):
        entered.append(perf_counter())
        return original_run(self, *args, **kwargs)

    WaferScaleGPU.run = run
    config = single_config(spec, seed, scale)
    obs = None
    if tracer is not None:
        import spans

        spans.install_simulation_tracer(tracer)
        obs = Observability(metrics=True)
    started = perf_counter()
    if tracer is not None:
        with tracer.span("perfbench.run_benchmark", "system"):
            result = run_benchmark(config, spec["benchmark"], scale=scale, seed=seed, obs=obs)
        tracer.uninstall()
    else:
        result = run_benchmark(config, spec["benchmark"], scale=scale, seed=seed)
    wall = perf_counter() - started
    WaferScaleGPU.run = original_run

    extras = result.extras
    completed = extras["completed_accesses"]
    violations = []
    if not extras["all_finished"]:
        violations.append("not every GPM finished")
    if extras["truncated"]:
        violations.append(f"run truncated ({extras['dropped_events']} events dropped)")
    if not spec["fault_fraction"] and completed != result.total_accesses:
        violations.append(
            f"healthy run completed {completed} of {result.total_accesses} accesses"
        )
    if not 0 < completed <= result.total_accesses:
        violations.append(f"completed accesses {completed} out of range")
    sample = {
        "wall_s": wall,
        "setup_s": entered[0] - _STARTED,
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
        "completed_accesses": completed,
        "total_accesses": result.total_accesses,
        "exec_cycles": result.exec_cycles,
        "digest": result_digest(result),
        "violations": violations,
    }
    if tracer is not None:
        counters = fold_counters(obs.registry.flat())
        sample["layers"] = {
            **layer_metrics(counters, [result], completed),
            **span_metrics(tracer),
        }
    return sample


# ----------------------------------------------------------------------
# The sweep: fig14 through repro.experiments, cold then warm
# ----------------------------------------------------------------------
def run_sweep(spec: dict, seed: int, scale: float, benchmarks, workdir: Path, tracer) -> dict:
    from repro.exec import SweepExecutor
    from repro.experiments.common import RunCache, resolve_benchmarks
    from repro.experiments.registry import get_experiment

    maps = []
    original_map = SweepExecutor.map

    def map_(self, jobs):
        entered = perf_counter()
        results = original_map(self, jobs)
        maps.append((entered, perf_counter(), results))
        return results

    SweepExecutor.map = map_
    experiment = get_experiment(spec["experiment"])
    schemes = sys.modules[experiment.__module__].SCHEMES
    expected_jobs = len(schemes) * len(resolve_benchmarks(benchmarks))
    cache_dir = workdir / "cache"
    if tracer is not None:
        import spans

        spans.install_sweep_tracer(tracer)

    def sweep(worker_metrics: bool):
        executor = SweepExecutor(
            jobs=spec["jobs"], cache_dir=cache_dir, worker_metrics=worker_metrics
        )
        cache = RunCache(executor=executor)
        started = perf_counter()
        table = experiment(scale=scale, benchmarks=benchmarks, seed=seed, cache=cache)
        text = table.format_table()
        return table, text, perf_counter() - started, executor, cache

    if tracer is not None:
        with tracer.span("perfbench.fig14", "experiments"):
            table, text, wall, executor, _cache = sweep(worker_metrics=True)
        tracer.uninstall()
    else:
        table, text, wall, executor, _cache = sweep(worker_metrics=False)
    cold_map = maps[0]
    _table, warm_text, warm_wall, _executor, warm_cache = sweep(worker_metrics=False)
    SweepExecutor.map = original_map

    results = list(cold_map[2].values())
    completed = sum(r.extras["completed_accesses"] for r in results)
    jobs = executor.snapshot()["sweep"]["jobs"]
    violations = []
    if jobs["done"] != expected_jobs or len(results) != expected_jobs:
        violations.append(f"{jobs['done']}/{expected_jobs} jobs done")
    if jobs["failed"] or executor.failures:
        violations.append(f"{jobs['failed']} jobs failed")
    if warm_text != text:
        violations.append("warm-rerun table differs from the cold table")
    if warm_cache.disk_hits != expected_jobs:
        violations.append(f"warm rerun served {warm_cache.disk_hits} jobs from disk")
    for result in results:
        if not result.extras["all_finished"] or result.extras["truncated"]:
            violations.append(f"{result.workload}: run did not drain")
        if result.extras["completed_accesses"] != result.total_accesses:
            violations.append(f"{result.workload}: not every access completed")

    geomean = table.row_for("GEOMEAN")
    sample = {
        "wall_s": wall,
        "setup_s": cold_map[0] - _STARTED,
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
        "completed_accesses": completed,
        "total_accesses": sum(r.total_accesses for r in results),
        "exec_cycles": sum(r.exec_cycles for r in results),
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "violations": violations,
    }
    if tracer is not None:
        snapshot = executor.snapshot()["sweep"]
        job_walls = snapshot["job_wall_seconds"]
        map_elapsed = cold_map[1] - cold_map[0]
        workers = spec["jobs"]
        counters = fold_counters(executor.registry.flat(), prefix="workers.")
        sample["layers"] = {
            **layer_metrics(counters, results, completed),
            **span_metrics(tracer),
            "exec.jobs": jobs["done"],
            "exec.failed": jobs["failed"],
            "exec.retries": jobs["retries"],
            "exec.job_wall_p50_s": job_walls["p50"],
            "exec.worker_busy_frac": job_walls["total"] / (workers * map_elapsed),
            "exec.overhead_s": wall - job_walls["total"] / workers,
            "exec.warm_rerun_s": warm_wall,
            "exec.warm_disk_hits": warm_cache.disk_hits,
            "exec.worker_peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
            "model.hdpat_geomean": geomean[-1],
            "model.hdpat_over_best_sota": geomean[-1] / max(geomean[2:-1]),
        }
    return sample


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--benchmarks", default=None)
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = WORKLOADS[args.workload]
    scale = args.scale if args.scale is not None else spec["scale"]
    tracer = None
    if args.traced:
        import spans

        tracer = spans.SpanTracer()
    args.workdir.mkdir(parents=True, exist_ok=True)
    if spec["kind"] == "single":
        sample = run_single(spec, args.seed, scale, tracer)
    else:
        benchmarks = args.benchmarks.split(",") if args.benchmarks else None
        sample = run_sweep(spec, args.seed, scale, benchmarks, args.workdir, tracer)
    if tracer is not None and args.spans_out is not None:
        tracer.write(args.spans_out)
    print(json.dumps(sample, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
