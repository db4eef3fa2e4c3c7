"""The sweep executor: sharded, cached, fault-tolerant benchmark runs.

:class:`SweepExecutor` owns the three concerns the experiment layer
shouldn't: *where* a job runs (in-process for ``jobs=1``, a
``ProcessPoolExecutor`` shard otherwise), *whether* it needs to run at all
(the content-addressed :class:`~repro.exec.diskcache.DiskResultCache` L2),
and *what happens when it breaks*:

- per-job wall-clock timeout (a stuck worker becomes a failure record,
  and its pool is torn down so the slot is recovered);
- per-job bounded attempts (:data:`~repro.exec.jobs.MAX_ATTEMPTS`, the
  budget the service ledger charges too) with
  :class:`~repro.faults.retry.RetryPolicy` backoff — scheduled as an
  *eligibility time*, never a blocking sleep, so a permanently failing
  job costs zero idle wall-clock after its final attempt;
- a circuit breaker (``max_consecutive_failures``) and SIGINT/SIGTERM
  handling that drain in-flight jobs, write the terminal heartbeat, and
  raise a typed :class:`~repro.errors.SweepAbortedError` with the
  partial results;
- deterministic chaos testing of all of the above via an injected
  :class:`~repro.exec.resilience.WorkerFaultPlan`.

The disk cache is the checkpoint: every result is stored (fsynced) as it
completes, abort drain included, and the simulator is deterministic, so
"done" means "result present".  An interrupted sweep resumes by being
rerun against the same ``cache_dir`` — finished jobs are disk hits,
everything else runs.

Progress is published through a
:class:`~repro.obs.metrics.MetricsRegistry` under ``sweep.jobs.*`` so
``--metrics-out`` captures queued/done/failed/cache-hit counts and the
per-job wall-clock histogram; ``heartbeat=`` additionally streams a live
JSONL pulse (:mod:`repro.exec.progress`) including a per-worker
last-seen liveness map, and ``worker_metrics=True`` folds each worker
process's counter totals back into the parent registry under
``workers.*``.
"""

from __future__ import annotations

import os
import signal
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from time import perf_counter
from typing import Deque, Dict, List, Optional, Sequence, Set

from repro.errors import SweepAbortedError
from repro.exec.diskcache import DiskResultCache
from repro.exec.jobs import (
    MAX_ATTEMPTS,
    JobFailure,
    RunJob,
    execute_job,
    execute_job_observed,
)
from repro.exec.progress import SweepHeartbeat
from repro.exec.resilience import (
    CRASH,
    WorkerFaultPlan,
    execute_job_resilient,
    install_worker_fault_plan,
)
from repro.faults.retry import RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.system.result import RunResult

#: How long an abort drain waits for in-flight jobs before giving up and
#: killing the pool (bounded: a hung worker must not turn a Ctrl-C into
#: an indefinite stall).
DRAIN_TIMEOUT_SECONDS = 30.0


def default_jobs() -> int:
    """Default shard count: leave one core for the coordinating process."""
    return max(1, (os.cpu_count() or 2) - 1)


class SweepExecutor:
    """Executes :class:`RunJob` batches across processes with an L2 cache."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir=None,
        registry: Optional[MetricsRegistry] = None,
        job_timeout: Optional[float] = None,
        worker_metrics: bool = False,
        heartbeat: Optional[str] = None,
        heartbeat_every: float = 1.0,
        worker_faults: Optional[WorkerFaultPlan] = None,
        max_consecutive_failures: Optional[int] = None,
        abort_after: Optional[int] = None,
    ) -> None:
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        self.disk = DiskResultCache(cache_dir) if cache_dir else None
        self.registry = registry if registry is not None else MetricsRegistry()
        self.job_timeout = job_timeout
        #: Deterministic exponential backoff between attempts of one job —
        #: the same policy object the simulator's fault path uses, so
        #: retry semantics are specified in exactly one place.  Applied as
        #: a per-job *eligibility time*, never a blocking sleep: the pool
        #: keeps executing other jobs while a crashed one waits out its
        #: backoff, and a job's final failure schedules no backoff at all.
        self.retry_policy = RetryPolicy(
            max_retries=MAX_ATTEMPTS - 1,
            base_delay=0.25,
            multiplier=2.0,
            max_delay=10.0,
        )
        #: When True, jobs run metrics-enabled and each worker's counter
        #: totals are folded back into :attr:`registry` under
        #: ``workers.*`` (sweep-wide TLB/IOMMU/NoC totals for free).
        self.worker_metrics = bool(worker_metrics)
        #: Optional JSONL progress pulse — see :mod:`repro.exec.progress`.
        self.heartbeat: Optional[SweepHeartbeat] = (
            SweepHeartbeat(heartbeat, every=heartbeat_every)
            if heartbeat else None
        )
        #: Optional deterministic chaos plan installed into pool workers.
        #: Chaos only ever perturbs worker timing/liveness, never the
        #: simulation, so a chaos sweep's results stay byte-identical to
        #: serial execution.
        self.worker_faults: Optional[WorkerFaultPlan] = worker_faults
        #: Circuit breaker: abort the sweep after this many failures in a
        #: row (resets on any success); None disables.
        self.max_consecutive_failures = max_consecutive_failures
        #: Graceful abort after this many completed jobs — the
        #: deterministic "simulated interrupt" chaos tests and the CI
        #: interrupt-then-rerun smoke use; None disables.
        self.abort_after = abort_after
        self.failures: List[JobFailure] = []
        #: Why the sweep aborted, or None if it ran to completion.
        self.aborted_reason: Optional[str] = None
        self._abort_requested: Optional[str] = None
        #: Final failures since the last success (the breaker's input).
        self._consecutive = 0
        #: Per-worker last-seen wall-clock (pid -> time.time()), fed by
        #: every pool completion and published in the heartbeat.
        self._worker_seen: Dict[int, float] = {}
        reg = self.registry
        self._queued = reg.counter("sweep.jobs.queued")
        self._done = reg.counter("sweep.jobs.done")
        self._failed = reg.counter("sweep.jobs.failed")
        self._executed = reg.counter("sweep.jobs.executed")
        self._retried = reg.counter("sweep.jobs.retries")
        self._hit_memory = reg.counter("sweep.jobs.cache_hit_memory")
        self._hit_disk = reg.counter("sweep.jobs.cache_hit_disk")
        self._aborted = reg.counter("sweep.aborted")
        self._running = reg.gauge("sweep.jobs.running")
        self._wall = reg.histogram("sweep.job_wall_seconds")
        #: Simulated events completed across the sweep (worker-metrics
        #: jobs only — the heartbeat's events/sec numerator).
        self._events = reg.counter("sweep.events_processed")

    # ------------------------------------------------------------------
    # Progress heartbeat
    # ------------------------------------------------------------------
    def _progress_stats(self) -> Dict[str, object]:
        # getattr with a default: a disabled registry hands out NullMetric
        # handles, which carry no ``value``.
        stats: Dict[str, object] = {
            "total": getattr(self._queued, "value", 0),
            "done": getattr(self._done, "value", 0),
            "failed": getattr(self._failed, "value", 0),
            "retried": getattr(self._retried, "value", 0),
            "cache_hits": getattr(self._hit_memory, "value", 0)
            + getattr(self._hit_disk, "value", 0),
            "running": getattr(self._running, "value", 0),
            "events": getattr(self._events, "value", 0),
            "aborted": getattr(self._aborted, "value", 0),
        }
        if self._worker_seen:
            now = time.time()
            stats["workers"] = {
                str(pid): round(max(0.0, now - seen), 3)
                for pid, seen in sorted(self._worker_seen.items())
            }
        return stats

    def _beat(self, force: bool = False) -> None:
        if self.heartbeat is not None:
            self.heartbeat.beat(self._progress_stats(), force=force)

    def finish_heartbeat(self) -> None:
        """Write the terminal heartbeat record (idempotent).

        The phase is ``"aborted"`` when the sweep stopped early (circuit
        breaker, signal, ``abort_after``) and ``"finished"`` otherwise.
        """
        if self.heartbeat is not None:
            phase = "aborted" if self.aborted_reason else "finished"
            self.heartbeat.finish(self._progress_stats(), phase=phase)

    # ------------------------------------------------------------------
    # L2 cache
    # ------------------------------------------------------------------
    def note_memory_hit(self) -> None:
        self._hit_memory.inc()
        self._beat()

    def lookup(self, job: RunJob) -> Optional[RunResult]:
        """Disk (L2) lookup: the stored result, extras included."""
        if self.disk is None:
            return None
        result = self.disk.load(job)
        if result is not None:
            self._hit_disk.inc()
            self._beat()
        return result

    def store(self, job: RunJob, result: RunResult) -> None:
        """Persist a result.  Every executed job is stored exactly once,
        as it completes."""
        if self.disk is not None:
            self.disk.store(job, result)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_inline(self, job: RunJob) -> RunResult:
        """Queue and execute one job in-process (``RunCache``'s cache-miss
        path) — see :meth:`_execute_inline`."""
        self._queued.inc()
        return self._execute_inline(job)

    def _execute_inline(self, job: RunJob) -> RunResult:
        """Execute, account, and store one job in-process.

        The one in-process execution routine, shared by
        :meth:`run_inline` and the ``jobs=1`` path of :meth:`map`.  A
        failure is counted and recorded, then re-raised to the caller.
        """
        started = perf_counter()
        counters: Optional[Dict[str, int]] = None
        self._running.set(1)
        try:
            if self.worker_metrics:
                result, _wall, counters = execute_job_observed(job)
            else:
                result = execute_job(job)
        except Exception as exc:
            self._record_failure(job, repr(exc), 1, perf_counter() - started)
            raise
        finally:
            self._running.set(0)
        self._complete(job, result, perf_counter() - started, counters)
        return result

    def map(self, jobs: Sequence[RunJob]) -> Dict[int, RunResult]:
        """Execute a batch; returns ``{index: result}`` for successes.

        Failures never raise: each lands in :attr:`failures` (and the
        ``sweep.jobs.failed`` counter) so one broken cell cannot abort a
        hundred-job sweep.  In the pool, worker exceptions and pool
        crashes get up to :data:`MAX_ATTEMPTS` attempts with non-blocking
        backoff; timeouts do not (the stuck worker may still be burning
        its core, so its pool is torn down and rebuilt instead).  Each
        result is stored to the disk cache *as it completes*, so a rerun
        of an interrupted sweep resumes from exactly the work it
        finished.

        The only exception raised is :class:`SweepAbortedError` — the
        circuit breaker tripped, ``abort_after`` fired, or SIGINT/SIGTERM
        arrived — and it carries the partial results.
        """
        results: Dict[int, RunResult] = {}
        if not jobs:
            return results
        self._queued.inc(len(jobs))
        self._consecutive = 0
        self._beat(force=True)
        previous = self._install_signal_handlers()
        try:
            if self.jobs <= 1 or len(jobs) == 1:
                for index, job in enumerate(jobs):
                    reason = self._abort_reason(results)
                    if reason is not None:
                        self._finish_abort(results, reason)
                    try:
                        results[index] = self._execute_inline(job)
                    except Exception:
                        pass  # recorded in self.failures
            else:
                self._map_pool(jobs, results)
        finally:
            self._restore_signal_handlers(previous)
        return results

    def _complete(self, job, result, wall, counters=None) -> None:
        """Account one successful job and store its result."""
        if counters is not None:
            self.registry.merge_counters(counters, prefix="workers.")
            self._events.inc(counters.get("sim.events_processed", 0))
        self._executed.inc()
        self._done.inc()
        self._wall.observe(wall)
        self._consecutive = 0
        self.store(job, result)
        self._beat()

    def _record_failure(
        self, job, error, attempts, wall_seconds, kind="error"
    ) -> None:
        self._failed.inc()
        self._consecutive += 1
        self.failures.append(JobFailure(
            job=job.describe(),
            error=error,
            attempts=attempts,
            wall_seconds=wall_seconds,
            kind=kind,
        ))

    # ------------------------------------------------------------------
    # Pool scheduler
    # ------------------------------------------------------------------
    def _map_pool(
        self, jobs: Sequence[RunJob], results: Dict[int, RunResult]
    ) -> None:
        """Event-driven pool scheduler over the whole batch.

        At most one flight per unresolved job.  A flight's attempt
        number is its job's charged-failure count, so an installed
        :class:`WorkerFaultPlan` faults the same attempts regardless of
        scheduling; a flight lost to another job's crash reruns
        uncharged, under the same attempt number.
        """
        plan = self.worker_faults
        if plan is not None and plan.is_empty:
            plan = None
        keys = [job.job_key() for job in jobs]
        width = min(self.jobs, len(jobs))
        backlog: Deque[int] = deque(range(len(jobs)))
        attempts = [0] * len(jobs)       # charged failures so far
        eligible = [0.0] * len(jobs)     # earliest resubmit (monotonic)
        started = [0.0] * len(jobs)      # current flight's submit time
        resolved: Set[int] = set()
        active: Dict[object, int] = {}   # future -> job index
        pool = self._new_pool(plan, width)
        tainted = False  # a hung/abandoned worker means forced teardown

        def submit(index: int) -> None:
            future = pool.submit(
                execute_job_resilient,
                jobs[index],
                keys[index],
                attempts[index],
                self.worker_metrics,
            )
            started[index] = time.monotonic()
            active[future] = index

        def fail(index: int, error: str, kind: str) -> None:
            resolved.add(index)
            self._record_failure(
                jobs[index], error, attempts[index],
                time.monotonic() - started[index], kind=kind,
            )

        def charge(index: int, error: str, kind: str) -> None:
            """Count one failed attempt; the last one resolves the job."""
            attempts[index] += 1
            if attempts[index] >= MAX_ATTEMPTS:
                fail(index, error, kind)
            else:
                self._retried.inc()
                eligible[index] = (
                    time.monotonic()
                    + self.retry_policy.delay_for(attempts[index] - 1)
                )
                backlog.append(index)

        def recover(lost: List[int], crashed: bool) -> None:
            """Rebuild the pool and requeue every lost flight.  After a
            crash, flights whose chaos verdict was a crash (every flight,
            without a plan) are charged; innocent bystanders rerun
            uncharged."""
            nonlocal pool
            lost = lost + list(active.values())
            active.clear()
            self._shutdown_pool(pool, force=True)
            for index in lost:
                if crashed and (
                    plan is None
                    or plan.verdict_for(keys[index], attempts[index]) == CRASH
                ):
                    charge(index, "worker process died (broken pool)", "crash")
                else:
                    backlog.appendleft(index)
            pool = self._new_pool(plan, width)

        def harvest(future, index: int) -> None:
            result, wall, counters, pid = future.result()
            self._worker_seen[pid] = time.time()
            resolved.add(index)
            results[index] = result
            self._complete(jobs[index], result, wall, counters)

        try:
            while len(resolved) < len(jobs):
                reason = self._abort_reason(results)
                if reason is not None:
                    # Drain (bounded): in-flight results are harvested
                    # and stored, so a rerun never repeats them.
                    deadline = time.monotonic() + min(
                        DRAIN_TIMEOUT_SECONDS,
                        self.job_timeout or DRAIN_TIMEOUT_SECONDS,
                    )
                    while active and time.monotonic() < deadline:
                        done, _ = wait(
                            list(active), timeout=0.2,
                            return_when=FIRST_COMPLETED,
                        )
                        for future in done:
                            index = active.pop(future)
                            if future.exception() is None:
                                harvest(future, index)
                    self._finish_abort(results, reason)
                # Submit eligible backlog entries up to the pool width.
                now = time.monotonic()
                for _ in range(len(backlog)):
                    if len(active) >= width:
                        break
                    index = backlog.popleft()
                    if eligible[index] > now:
                        backlog.append(index)
                        continue
                    try:
                        submit(index)
                    except BrokenProcessPool:
                        # The pool died since the last wait.
                        backlog.appendleft(index)
                        recover([], crashed=True)
                        break
                self._running.set(len(active))
                self._beat()
                if not active:
                    # Everything left is backing off; wait for the first.
                    nearest = min(eligible[i] for i in backlog)
                    time.sleep(
                        min(0.25, max(0.0, nearest - time.monotonic()))
                    )
                    continue
                done, _not_done = wait(
                    list(active), timeout=0.1, return_when=FIRST_COMPLETED
                )
                broken: List[int] = []
                for future in done:
                    index = active.pop(future)
                    exc = future.exception()
                    if exc is None:
                        harvest(future, index)
                    elif isinstance(exc, BrokenProcessPool):
                        broken.append(index)
                    else:
                        charge(index, repr(exc), kind="error")
                if broken:
                    # Every other in-flight future died with the pool.
                    recover(broken, crashed=True)
                    continue
                # Per-flight wall-clock timeout: resolve as failure (no
                # retry — the worker may still be burning its core) and
                # rebuild the pool to reclaim the wedged slot.
                if self.job_timeout is not None:
                    now = time.monotonic()
                    expired = [
                        future for future, index in active.items()
                        if now - started[index] > self.job_timeout
                    ]
                    if expired:
                        tainted = True
                        for future in expired:
                            index = active.pop(future)
                            attempts[index] += 1
                            fail(
                                index,
                                f"timed out after {self.job_timeout}s",
                                kind="timeout",
                            )
                        recover([], crashed=False)
        finally:
            self._shutdown_pool(pool, force=tainted or bool(active))
            self._running.set(0)

    # ------------------------------------------------------------------
    # Abort machinery
    # ------------------------------------------------------------------
    def _abort_reason(self, results) -> Optional[str]:
        """Why the batch must stop before its next job, or None.  Only
        asked while unresolved jobs remain."""
        if self._abort_requested:
            return f"received {self._abort_requested}"
        if (
            self.max_consecutive_failures is not None
            and self._consecutive >= self.max_consecutive_failures
        ):
            return (
                "circuit breaker tripped: "
                f"{self._consecutive} consecutive failures"
            )
        if self.abort_after is not None and len(results) >= self.abort_after:
            return f"abort_after={self.abort_after} reached"
        return None

    def _finish_abort(self, results, reason: str) -> None:
        """Common abort tail: write the terminal heartbeat and raise the
        typed abort carrying partial state."""
        self.aborted_reason = reason
        self._aborted.inc()
        self.finish_heartbeat()
        raise SweepAbortedError(
            reason, results=dict(results), failures=list(self.failures)
        )

    def _on_signal(self, signum, frame) -> None:
        self._abort_requested = signal.Signals(signum).name

    def _install_signal_handlers(self):
        previous = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, self._on_signal)
            except ValueError:
                # Not the main thread — the host application owns signal
                # delivery; aborts still work via abort_after/breaker.
                pass
        return previous

    def _restore_signal_handlers(self, previous) -> None:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except ValueError:
                pass

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _new_pool(
        self, plan: Optional[WorkerFaultPlan], width: int
    ) -> ProcessPoolExecutor:
        if plan is not None:
            return ProcessPoolExecutor(
                max_workers=width,
                initializer=install_worker_fault_plan,
                initargs=(plan.to_dict(),),
            )
        return ProcessPoolExecutor(max_workers=width)

    def _shutdown_pool(self, pool, force: bool = False) -> None:
        """Tear a pool down; ``force`` kills worker processes outright so
        a hung worker can never wedge teardown or interpreter exit."""
        pool.shutdown(wait=not force, cancel_futures=True)
        if force:
            processes = getattr(pool, "_processes", None)
            for process in list((processes or {}).values()):
                try:
                    process.kill()
                except Exception:
                    pass

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Metrics tree plus structured failure records."""
        tree = self.registry.snapshot()
        tree.setdefault("sweep", {})["failures"] = [
            failure.to_dict() for failure in self.failures
        ]
        if self.aborted_reason is not None:
            tree.setdefault("sweep", {})["aborted_reason"] = (
                self.aborted_reason
            )
        return tree
