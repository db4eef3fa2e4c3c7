"""The tracked BENCH trajectory: canonical perf suite, records, comparator.

Every perf-relevant PR gets its before/after number from here.  The
workflow (docs/OBSERVABILITY.md):

1. ``python -m repro bench`` runs the canonical suite — fig14 shards,
   a fig6 translation-count shard, an ext_faults shard, plus pure-host
   micro-benchmarks for the TLB-hierarchy lookup path and the engine's
   event heap — and writes a schema-versioned ``BENCH_<n>.json``.
2. Optimise something.
3. ``python -m repro bench --against BENCH_<n>.json`` re-runs the suite,
   prints a per-benchmark delta table, and exits non-zero past the
   regression threshold (or on any determinism-digest mismatch).

Each simulation benchmark runs twice.  The bare (uninstrumented) run is
the headline: its wall-clock seconds and simulator events per host
second.  A second, profiled run supplies peak RSS, TLB cache-hit rates,
the per-layer wall-time attribution (:class:`repro.obs.HostProfiler`,
whose per-event timing would inflate the headline) with its own wall as
``profiled_wall_seconds``, and the run's determinism digest.  The two
runs' digests must match: observability must never perturb simulated
behaviour.

Records carry a machine fingerprint and the git SHA so a cross-machine
comparison is visibly apples-to-oranges; the comparator prints both
fingerprints when they differ but only ever *fails* on digests and
thresholds.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import BenchError

#: Bump whenever the record layout changes incompatibly.  Readers refuse
#: records *newer* than this (they cannot know what the fields mean) and
#: accept older ones best-effort.  Version 2: ``wall_seconds`` is the bare
#: run, ``phase_seconds`` holds per-layer rows.
BENCH_SCHEMA_VERSION = 2

#: First record of the trajectory; ``BENCH_<n>.json`` numbering starts
#: here and continues from the largest number already in the output dir.
FIRST_BENCH_ID = 6

#: Default workload scale for the simulation benchmarks.
DEFAULT_BENCH_SCALE = 0.05

#: Iteration counts for the host micro-benchmarks (scale-independent).
TLB_MICRO_ITERATIONS = 150_000
HEAP_MICRO_EVENTS = 120_000

_BENCH_FILE_RE = re.compile(r"^BENCH_(\d+)\.json$")


# ----------------------------------------------------------------------
# Environment fingerprinting
# ----------------------------------------------------------------------
def machine_fingerprint() -> Dict[str, object]:
    """Where this record was measured (comparisons across machines are
    apples-to-oranges; the comparator surfaces the difference)."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def git_sha() -> str:
    """The repo HEAD this record measures, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def _peak_rss_kb() -> Optional[int]:
    """Peak resident set of this process in KiB (monotonic over the
    process lifetime, so per-benchmark values are high-water marks)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak //= 1024
    return int(peak)


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------
class BenchHarness:
    """Runs the canonical suite and assembles one BENCH record."""

    def __init__(
        self,
        scale: float = DEFAULT_BENCH_SCALE,
        seed: int = 42,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        if not 0.0 < scale <= 1.0:
            raise BenchError(f"bench scale must be in (0, 1], got {scale}")
        self.scale = scale
        self.seed = seed
        self._progress = progress

    # -- suite definition ----------------------------------------------
    def suite(self) -> Dict[str, Callable[[], Dict[str, object]]]:
        """Name -> thunk for every canonical benchmark, in run order."""
        return {
            "fig14_baseline_spmv": lambda: self._sim_bench("spmv", "baseline"),
            "fig14_hdpat_spmv": lambda: self._sim_bench("spmv", "hdpat"),
            "fig14_hdpat_fft": lambda: self._sim_bench("fft", "hdpat"),
            "fig6_counts_bt": lambda: self._sim_bench("bt", "baseline"),
            "ext_faults_spmv": lambda: self._sim_bench(
                "spmv", "hdpat", fault_fraction=0.1
            ),
            "micro_tlb_lookup": self._micro_tlb_lookup,
            "micro_engine_heap": self._micro_engine_heap,
        }

    def run(self, names: Optional[List[str]] = None) -> Dict[str, object]:
        """Run the suite (or the ``names`` subset) and return the record."""
        suite = self.suite()
        if names:
            unknown = sorted(set(names) - set(suite))
            if unknown:
                raise BenchError(
                    f"unknown benchmark(s) {unknown}; "
                    f"suite is {sorted(suite)}"
                )
            suite = {name: suite[name] for name in suite if name in names}
        benchmarks: Dict[str, Dict[str, object]] = {}
        started = perf_counter()
        for name, thunk in suite.items():
            self._note(f"bench: {name} ...")
            benchmarks[name] = thunk()
            self._note(
                f"bench: {name} done in "
                f"{benchmarks[name]['wall_seconds']:.3f}s"
            )
        return {
            "schema": BENCH_SCHEMA_VERSION,
            "machine": machine_fingerprint(),
            "git_sha": git_sha(),
            "suite_scale": self.scale,
            "seed": self.seed,
            "benchmarks": benchmarks,
            "total_wall_seconds": perf_counter() - started,
        }

    def _note(self, message: str) -> None:
        if self._progress is not None:
            self._progress(message)

    # -- simulation benchmarks -----------------------------------------
    def _config(self, scheme: str, fault_fraction: float = 0.0):
        from repro.config.hdpat import HDPATConfig
        from repro.config.presets import wafer_7x7_config
        from repro.config.scaling import capacity_scaled

        config = wafer_7x7_config()
        if scheme == "hdpat":
            config = config.with_hdpat(HDPATConfig.full())
        elif scheme != "baseline":
            raise BenchError(f"unknown scheme {scheme!r}")
        if fault_fraction:
            from repro.faults import degradation_plan

            config = config.with_faults(degradation_plan(
                config.mesh_width, config.mesh_height,
                self.seed, fault_fraction,
            ))
        return capacity_scaled(config, self.scale)

    def _sim_bench(
        self, workload: str, scheme: str, fault_fraction: float = 0.0
    ) -> Dict[str, object]:
        """A bare run (the headline wall) and a profiled run (RSS, hit
        rates, layer rows, digest)."""
        import gc

        from repro.analysis.sanitizers import result_digest
        from repro.obs import Observability
        from repro.system.runner import run_benchmark

        config = self._config(scheme, fault_fraction)
        gc.collect()
        start = perf_counter()
        bare = run_benchmark(config, workload, scale=self.scale, seed=self.seed)
        wall = perf_counter() - start
        obs = Observability(metrics=True, profile=True)
        gc.collect()
        start = perf_counter()
        result = run_benchmark(
            config, workload, scale=self.scale, seed=self.seed, obs=obs
        )
        profiled_wall = perf_counter() - start
        digest = result_digest(result)
        events = int(result.extras.get("events_processed", 0))
        return {
            "kind": "simulation",
            "workload": workload,
            "scheme": scheme,
            "fault_fraction": fault_fraction,
            "wall_seconds": wall,
            "profiled_wall_seconds": profiled_wall,
            "events": events,
            "events_per_sec": (events / wall) if wall > 0 else 0.0,
            "peak_rss_kb": _peak_rss_kb(),
            "exec_cycles": result.exec_cycles,
            "cache_hit_rates": _tlb_hit_rates(obs.registry),
            "phase_seconds": result.extras.get("phase_profile", {}),
            "digest": digest,
            "digest_verified": result_digest(bare) == digest,
        }

    # -- micro-benchmarks ----------------------------------------------
    def _micro_tlb_lookup(self) -> Dict[str, object]:
        """The TLB-hierarchy lookup path, isolated from the event engine.

        Installs a page-table working set, then drives a deterministic
        probe stream whose stride mixes L1 hits, fill paths, filter
        negatives, and walk completions.  The digest covers the outcome
        histogram, so a behavioural change to the lookup path (not just a
        perf change) flips it.
        """
        import gc

        from repro.config.presets import wafer_7x7_config
        from repro.mem.page import PageTableEntry
        from repro.tlb.hierarchy import TranslationHierarchy

        config = wafer_7x7_config().gpm
        hierarchy = TranslationHierarchy(0, config)
        resident = 1024
        for vpn in range(resident):
            hierarchy.install_local_page(
                PageTableEntry(vpn=vpn, pfn=vpn + 1, owner_gpm=0)
            )
        iterations = TLB_MICRO_ITERATIONS
        span = resident * 4  # 3/4 of probes miss the local page table
        outcomes: Dict[str, int] = {}
        gc.collect()
        start = perf_counter()
        vpn = 0
        for index in range(iterations):
            # Weyl-style stride: full-period, deterministic, cheap.
            vpn = (vpn + 40503) % span
            probe = hierarchy.probe_local(vpn)
            name = probe.outcome.value
            outcomes[name] = outcomes.get(name, 0) + 1
            if name == "needs_walk":
                hierarchy.complete_local_walk(vpn)
        wall = perf_counter() - start
        return {
            "kind": "micro",
            "wall_seconds": wall,
            "events": iterations,
            "events_per_sec": (iterations / wall) if wall > 0 else 0.0,
            "peak_rss_kb": _peak_rss_kb(),
            "cache_hit_rates": {},
            "phase_seconds": {},
            "digest": _dict_digest({"outcomes": outcomes, "span": span}),
            "digest_verified": None,
        }

    def _micro_engine_heap(self) -> Dict[str, object]:
        """The event engine's heap push/pop loop, with live callbacks.

        A fixed set of actors each reschedule themselves with distinct
        deterministic strides until the event budget drains — the pure
        scheduling overhead every simulated component pays.  The digest
        covers the final cycle and event count.
        """
        import gc

        from repro.sim.engine import Simulator

        budget = HEAP_MICRO_EVENTS
        sim = Simulator()
        remaining = [budget]

        def _actor(stride: int) -> Callable[[], None]:
            def _tick() -> None:
                if remaining[0] <= 0:
                    return
                remaining[0] -= 1
                sim.schedule(stride, _tick)
            return _tick

        actors = 64
        for index in range(actors):
            sim.schedule(index + 1, _actor(1 + (index * 7919) % 97))
        gc.collect()
        start = perf_counter()
        final_cycle = sim.run()
        wall = perf_counter() - start
        events = sim.events_processed
        return {
            "kind": "micro",
            "wall_seconds": wall,
            "events": events,
            "events_per_sec": (events / wall) if wall > 0 else 0.0,
            "peak_rss_kb": _peak_rss_kb(),
            "cache_hit_rates": {},
            "phase_seconds": {},
            "digest": _dict_digest(
                {"final_cycle": final_cycle, "events": events,
                 "actors": actors, "budget": budget}
            ),
            "digest_verified": None,
        }


def _dict_digest(payload: Dict[str, object]) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _tlb_hit_rates(registry) -> Dict[str, float]:
    """Aggregate hit rate per TLB level from a run's merged metrics."""
    flat = registry.flat()
    totals: Dict[str, List[int]] = {}
    for name, value in flat.items():
        parts = name.split(".")
        # gpm<N>.tlb.<level>.{hits,misses}
        if len(parts) == 4 and parts[1] == "tlb" and parts[3] in (
            "hits", "misses"
        ):
            bucket = totals.setdefault(parts[2], [0, 0])
            bucket[0 if parts[3] == "hits" else 1] += int(value)
    return {
        level: (hits / (hits + misses)) if (hits + misses) else 0.0
        for level, (hits, misses) in sorted(totals.items())
    }


# ----------------------------------------------------------------------
# Record I/O
# ----------------------------------------------------------------------
def next_bench_path(out_dir: str) -> Tuple[str, int]:
    """``(path, n)`` for the next ``BENCH_<n>.json`` in ``out_dir``."""
    existing = []
    try:
        entries = os.listdir(out_dir)
    except FileNotFoundError:
        entries = []
    for entry in entries:
        match = _BENCH_FILE_RE.match(entry)
        if match:
            existing.append(int(match.group(1)))
    bench_id = max(existing) + 1 if existing else FIRST_BENCH_ID
    return os.path.join(out_dir, f"BENCH_{bench_id}.json"), bench_id


def write_bench(record: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, sort_keys=True, indent=2)
        handle.write("\n")


def load_bench(path: str) -> Dict[str, object]:
    """Read and validate one BENCH record.

    Raises :class:`BenchError` for a missing/unreadable file, a record
    without the required fields, or a schema version newer than this
    code (older versions are accepted best-effort).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
    except FileNotFoundError:
        raise BenchError(f"baseline BENCH file not found: {path}") from None
    except (OSError, json.JSONDecodeError) as error:
        raise BenchError(f"unreadable BENCH file {path}: {error}") from None
    if not isinstance(record, dict) or "schema" not in record:
        raise BenchError(f"{path} is not a BENCH record (no schema field)")
    schema = record["schema"]
    if not isinstance(schema, int) or schema < 1:
        raise BenchError(f"{path}: invalid schema version {schema!r}")
    if schema > BENCH_SCHEMA_VERSION:
        raise BenchError(
            f"{path}: schema version {schema} is newer than the supported "
            f"{BENCH_SCHEMA_VERSION} — upgrade the code reading it"
        )
    if "benchmarks" not in record or not isinstance(
        record["benchmarks"], dict
    ):
        raise BenchError(f"{path}: BENCH record has no benchmarks mapping")
    return record


# ----------------------------------------------------------------------
# Comparator
# ----------------------------------------------------------------------
#: Default regression gate: >50 % slower AND at least this many seconds
#: of absolute wall time (micro-noise on near-zero benchmarks must not
#: trip the gate).
DEFAULT_THRESHOLD = 0.5
DEFAULT_MIN_SECONDS = 0.05


def compare_bench(
    current: Dict[str, object],
    baseline: Dict[str, object],
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> Dict[str, object]:
    """Per-benchmark delta between two BENCH records.

    Returns ``rows`` (one per benchmark in either record), the names of
    ``regressions`` (slower than ``threshold`` as a fraction, and at
    least ``min_seconds`` of absolute time in the new record),
    ``digest_mismatches`` (same benchmark, different determinism
    digest), and ``added`` / ``removed`` benchmark names.
    """
    cur = current.get("benchmarks", {})
    base = baseline.get("benchmarks", {})
    rows: List[Dict[str, object]] = []
    regressions: List[str] = []
    mismatches: List[str] = []
    added = sorted(set(cur) - set(base))
    removed = sorted(set(base) - set(cur))
    for name in sorted(set(cur) | set(base)):
        new_b, old_b = cur.get(name), base.get(name)
        if old_b is None:
            rows.append({"benchmark": name, "status": "added",
                         "new_seconds": new_b.get("wall_seconds")})
            continue
        if new_b is None:
            rows.append({"benchmark": name, "status": "removed",
                         "base_seconds": old_b.get("wall_seconds")})
            continue
        base_s = float(old_b.get("wall_seconds") or 0.0)
        new_s = float(new_b.get("wall_seconds") or 0.0)
        # Zero-time baselines cannot yield a ratio; report delta only.
        pct = ((new_s - base_s) / base_s) if base_s > 0 else None
        digest_ok = None
        if old_b.get("digest") and new_b.get("digest"):
            digest_ok = old_b["digest"] == new_b["digest"]
            if not digest_ok:
                mismatches.append(name)
        regressed = (
            pct is not None and pct > threshold and new_s >= min_seconds
        )
        if regressed:
            regressions.append(name)
        rows.append({
            "benchmark": name,
            "status": "regression" if regressed else "ok",
            "base_seconds": base_s,
            "new_seconds": new_s,
            "delta_pct": pct,
            "base_events_per_sec": old_b.get("events_per_sec"),
            "new_events_per_sec": new_b.get("events_per_sec"),
            "digest_match": digest_ok,
        })
    return {
        "rows": rows,
        "regressions": regressions,
        "digest_mismatches": mismatches,
        "added": added,
        "removed": removed,
        "threshold": threshold,
        "min_seconds": min_seconds,
        "same_machine": current.get("machine") == baseline.get("machine"),
    }


def format_comparison(comparison: Dict[str, object]) -> str:
    """Human-readable delta table for one :func:`compare_bench` result."""
    lines = [
        f"{'benchmark':<22} {'base_s':>8} {'new_s':>8} {'delta':>8} "
        f"{'ev/s new':>12}  digest"
    ]
    for row in comparison["rows"]:
        name = row["benchmark"]
        if row["status"] == "added":
            lines.append(f"{name:<22} {'-':>8} "
                         f"{row['new_seconds']:8.3f} {'added':>8}")
            continue
        if row["status"] == "removed":
            lines.append(f"{name:<22} {row['base_seconds']:8.3f} "
                         f"{'-':>8} {'removed':>8}")
            continue
        pct = row["delta_pct"]
        delta = f"{pct:+7.1%}" if pct is not None else "    n/a"
        eps = row["new_events_per_sec"]
        eps_text = f"{eps:12,.0f}" if eps else " " * 12
        digest = {True: "ok", False: "MISMATCH", None: "-"}[
            row["digest_match"]
        ]
        flag = "  << REGRESSION" if row["status"] == "regression" else ""
        lines.append(
            f"{name:<22} {row['base_seconds']:8.3f} "
            f"{row['new_seconds']:8.3f} {delta:>8} {eps_text}  "
            f"{digest}{flag}"
        )
    if not comparison["same_machine"]:
        lines.append(
            "note: records come from different machine fingerprints — "
            "wall-clock deltas are not comparable"
        )
    if comparison["digest_mismatches"]:
        lines.append(
            "DIGEST MISMATCH: "
            + ", ".join(comparison["digest_mismatches"])
            + " — simulated behaviour changed, not just speed"
        )
    if comparison["regressions"]:
        lines.append(
            f"regressions past {comparison['threshold']:.0%} "
            f"(min {comparison['min_seconds']}s): "
            + ", ".join(comparison["regressions"])
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI (the ``bench`` verb of ``python -m repro``)
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="hdpat-bench",
        description=(
            "Run the canonical perf suite, write BENCH_<n>.json, and "
            "optionally gate against a baseline record."
        ),
    )
    parser.add_argument(
        "--scale", type=float, default=DEFAULT_BENCH_SCALE,
        help="workload scale for the simulation benchmarks "
             f"(default {DEFAULT_BENCH_SCALE})",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--out-dir", default=".",
        help="directory receiving BENCH_<n>.json (default: cwd)",
    )
    parser.add_argument(
        "--only", default=None,
        help="comma-separated benchmark subset of the canonical suite",
    )
    parser.add_argument(
        "--replay", metavar="BENCH.json", default=None,
        help="compare an existing record instead of running the suite",
    )
    parser.add_argument(
        "--against", metavar="BENCH.json", default=None,
        help="baseline record to diff and gate against",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="regression gate as a fraction of baseline wall time "
             f"(default {DEFAULT_THRESHOLD})",
    )
    parser.add_argument(
        "--min-seconds", type=float, default=DEFAULT_MIN_SECONDS,
        help="ignore regressions on benchmarks faster than this "
             f"(default {DEFAULT_MIN_SECONDS}s)",
    )
    parser.add_argument(
        "--fail-on", choices=("any", "regression", "digest", "none"),
        default="any",
        help="which comparison outcomes exit non-zero (default any)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list suite benchmark names"
    )
    args = parser.parse_args(argv)

    harness = BenchHarness(
        scale=args.scale,
        seed=args.seed,
        progress=lambda message: print(message, file=sys.stderr),
    )
    if args.list:
        for name in harness.suite():
            print(name)
        return 0

    try:
        if args.replay is not None:
            record = load_bench(args.replay)
            print(f"replaying {args.replay}", file=sys.stderr)
        else:
            names = args.only.split(",") if args.only else None
            record = harness.run(names)
            os.makedirs(args.out_dir, exist_ok=True)
            path, bench_id = next_bench_path(args.out_dir)
            write_bench(record, path)
            print(f"wrote {path} ({len(record['benchmarks'])} benchmarks, "
                  f"{record['total_wall_seconds']:.1f}s total)")
            unverified = [
                name for name, bench in record["benchmarks"].items()
                if bench.get("digest_verified") is False
            ]
            if unverified:
                print(
                    "DIGEST VERIFICATION FAILED (instrumented run diverged "
                    "from bare run): " + ", ".join(sorted(unverified)),
                    file=sys.stderr,
                )
                return 2

        if args.against is None:
            return 0
        baseline = load_bench(args.against)
        comparison = compare_bench(
            record, baseline,
            threshold=args.threshold, min_seconds=args.min_seconds,
        )
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    print(format_comparison(comparison))
    digest_bad = bool(comparison["digest_mismatches"])
    perf_bad = bool(comparison["regressions"])
    if args.fail_on in ("any", "digest") and digest_bad:
        return 2
    if args.fail_on in ("any", "regression") and perf_bad:
        return 1
    return 0
