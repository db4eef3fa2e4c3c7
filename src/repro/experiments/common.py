"""Shared experiment plumbing: result tables, run caching, and defaults."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.config.scaling import capacity_scaled
from repro.config.system import SystemConfig
from repro.core.policy import TranslationPolicy
from repro.exec.executor import SweepExecutor
from repro.exec.jobs import RunJob, make_job
from repro.system.result import RunResult
from repro.system.runner import run_benchmark
from repro.workloads.registry import BENCHMARK_NAMES

#: Default trace scale for interactive experiment runs.  The paper's
#: Figure 13 shows translation behaviour is size-invariant, so scaled runs
#: preserve the reported shapes; raise via the CLI for tighter numbers.
DEFAULT_SCALE = 0.1

#: Subset used by the wide sensitivity sweeps (Figs 20-22) when runtime
#: matters; spans every pattern class in Table II.
REPRESENTATIVE_BENCHMARKS = ["aes", "bt", "fir", "mm", "mt", "pr", "relu", "spmv"]


@dataclass
class ExperimentResult:
    """A regenerated table: headers + rows, ready for printing/asserting."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[object]]
    notes: str = ""
    series: Dict[str, object] = field(default_factory=dict)

    def format_table(self) -> str:
        widths = [len(str(h)) for h in self.headers]
        formatted_rows = []
        for row in self.rows:
            cells = [_format_cell(cell) for cell in row]
            widths = [max(w, len(c)) for w, c in zip(widths, cells)]
            formatted_rows.append(cells)
        lines = [
            f"== {self.experiment_id}: {self.title} ==",
            "  ".join(str(h).ljust(w) for h, w in zip(self.headers, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for cells in formatted_rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
        if self.notes:
            lines.append(f"-- {self.notes}")
        return "\n".join(lines)

    def show(self) -> None:
        print(self.format_table())

    def column(self, header: str) -> List[object]:
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def row_for(self, key: object) -> List[object]:
        for row in self.rows:
            if row[0] == key:
                return row
        raise KeyError(f"{self.experiment_id}: no row keyed {key!r}")


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


class RunCache:
    """Memoises benchmark runs: in-memory L1 over an optional disk L2.

    Experiments share baselines heavily (every speedup normalises to the
    same run); the cache keys on the full config repr plus workload, scale,
    and seed, so distinct configurations never collide.

    Attaching a :class:`~repro.exec.SweepExecutor` adds two layers: its
    content-addressed disk cache serves results across processes, and
    :meth:`warm` pre-executes whole job batches across a process pool so
    the harnesses' serial loops become pure L1 hits.  Without an executor
    the behaviour is the historical serial one, unchanged.
    """

    def __init__(self, executor: Optional[SweepExecutor] = None) -> None:
        self._runs: Dict[str, RunResult] = {}
        #: L1 keys whose value was revived from disk JSON.  Those entries
        #: lack live objects (analyzers, series) and must not satisfy a
        #: ``rich=True`` request — a rich miss re-executes and the live
        #: result replaces the revived one.
        self._from_disk: set = set()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.executor = executor

    def _l1_hit(self, key: str, rich: bool) -> bool:
        return key in self._runs and not (rich and key in self._from_disk)

    def get(
        self,
        config: SystemConfig,
        workload: str,
        scale: float,
        seed: Optional[int] = None,
        policy_factory: Optional[Callable[[], TranslationPolicy]] = None,
        policy_key: str = "",
        rich: bool = False,
        **run_kwargs,
    ) -> RunResult:
        """The result for one run, computed at most once.

        ``rich=True`` marks runs whose consumers need live objects on the
        result (analyzers, ``buffer_series``); they are never *served*
        from the JSON disk cache, which cannot round-trip those.
        """
        job = make_job(
            config, workload, scale, seed=seed, policy_key=policy_key,
            rich=rich, **run_kwargs,
        )
        key = job.memory_key
        if self._l1_hit(key, rich):
            self.hits += 1
            if self.executor is not None:
                self.executor.note_memory_hit()
            return self._runs[key]
        if self.executor is not None:
            cached = self.executor.lookup(job)
            if cached is not None:
                self.disk_hits += 1
                self._runs[key] = cached
                self._from_disk.add(key)
                return cached
        self.misses += 1
        if self.executor is not None:
            result = self.executor.run_inline(job, policy_factory)
        else:
            policy = policy_factory() if policy_factory else None
            # Scaled-capacity methodology: shrink capacity-sensitive
            # structures with the workload so capacity-to-footprint ratios
            # match full size (see repro.config.scaling).
            result = run_benchmark(
                capacity_scaled(config, scale), workload,
                scale=scale, seed=seed, policy=policy, **run_kwargs,
            )
        self._runs[key] = result
        self._from_disk.discard(key)
        return result

    def warm(self, specs: Iterable[Dict[str, object]]) -> None:
        """Pre-execute a batch of :meth:`get` calls, in parallel.

        Each spec is a dict of :meth:`get` keyword arguments (``config``,
        ``workload``, ``scale``, ``seed``, optionally ``policy_key`` /
        ``policy_factory`` / ``rich`` / extra run kwargs).  With no
        executor, or an executor running ``jobs=1``, this is a no-op —
        the harness's own serial loop computes everything, exactly as
        before.  Otherwise: L1/L2 hits are absorbed, the remaining
        pool-safe jobs run across the process pool, and every result
        lands in L1 (and on disk) so the subsequent serial loop never
        simulates.  Failures are recorded on the executor, not raised:
        the serial ``get`` retries the job and surfaces the error with
        its original traceback.
        """
        executor = self.executor
        if executor is None or executor.jobs <= 1:
            return
        to_run: Dict[str, RunJob] = {}
        for spec in specs:
            spec = dict(spec)
            policy_factory = spec.pop("policy_factory", None)
            job = make_job(**spec)
            key = job.memory_key
            if self._l1_hit(key, job.rich) or key in to_run:
                continue
            cached = executor.lookup(job)
            if cached is not None:
                self.disk_hits += 1
                self._runs[key] = cached
                self._from_disk.add(key)
                continue
            if job.pool_safe(policy_factory):
                to_run[key] = job
        jobs = list(to_run.values())
        results = executor.map(jobs)
        for index, result in results.items():
            job = jobs[index]
            self._runs[job.memory_key] = result
            self._from_disk.discard(job.memory_key)


def resolve_benchmarks(
    benchmarks: Union[None, str, Sequence[str]]
) -> List[str]:
    """Normalise a benchmark selection to a list of registry names."""
    if benchmarks is None:
        return list(BENCHMARK_NAMES)
    if isinstance(benchmarks, str):
        benchmarks = [b.strip() for b in benchmarks.split(",") if b.strip()]
    unknown = [b for b in benchmarks if b not in BENCHMARK_NAMES]
    if unknown:
        raise ValueError(f"unknown benchmarks: {unknown}")
    return list(benchmarks)
