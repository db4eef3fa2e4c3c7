"""Multi-host sweep service: coordinator, worker hosts, and failover.

This module turns the single-machine sweep stack into a service any
number of worker *hosts* can join through nothing but a shared
filesystem directory (the service root)::

    <root>/ledger.json      the JobLedger lease table (fcntl-locked)
    <root>/ledger.lock      its advisory lock sidecar
    <root>/cache/           the shared content-addressed DiskResultCache
    <root>/hosts/<id>.jsonl per-host heartbeat streams

A :class:`Coordinator` admits config grids as named campaigns: it
expands a scheme x benchmark x scale x seed grid into the exact
:class:`~repro.exec.jobs.RunJob` cells the CLI ``sweep`` verb would run,
registers their sha256 cache keys in the :class:`~repro.exec.ledger.
JobLedger` (keys whose result already sits in the shared cache enter as
pre-committed), and reports merged progress from every host's heartbeat
stream.

A :class:`WorkerHost` is one claim-execute-commit loop: claim a job
under a TTL lease, serve it from the shared disk cache or execute it
through a local :class:`~repro.exec.SweepExecutor`, which durably
stores the result, then commit the ledger entry.  Failover is emergent
rather than orchestrated: a host that is SIGKILLed, crashes, or stalls
simply stops renewing its leases; they expire, and any surviving host's
next claim steals the work.  Execution is therefore at-least-once, and
the ledger's first-writer-wins commit (plus the simulator's determinism
and the cache's atomic writes) makes results effectively exactly-once —
a stolen job re-executes, produces byte-identical JSON, and the late
loser's commit is counted as a dedup, never double-applied.

Chaos for all of this is the same seeded, JSON-round-trippable
:class:`~repro.exec.resilience.WorkerFaultPlan` the local pool uses,
keyed on ``(job_key, hold)``: a crash kills the host right after its
claim, a hang silences its renewals after the result is stored, a slow
verdict stretches its wall-clock.  The provable invariant carries over
from the single-machine chaos work: a chaos-faulted, host-killed,
work-stolen campaign's result table is byte-identical to ``--jobs 1``
serial execution
(:meth:`Coordinator.result_table` renders it from the shared cache
through the very same ``sweep`` harness).
"""

from __future__ import annotations

import os
import socket
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CampaignError
from repro.exec.diskcache import DiskResultCache
from repro.exec.executor import SweepExecutor
from repro.exec.jobs import RunJob, make_job
from repro.exec.ledger import JobLedger
from repro.exec.progress import SweepHeartbeat, merge_heartbeat_streams
from repro.exec.resilience import CRASH, HANG, OK, SLOW, WorkerFaultPlan

#: Service-root layout (relative to the root directory).
CACHE_DIRNAME = "cache"
HOSTS_DIRNAME = "hosts"


def default_host_id() -> str:
    """A host id unique per process on a shared filesystem."""
    return f"{socket.gethostname()}-{os.getpid()}"


def cell_job(
    scheme: str, workload: str, scale: float, seed: int
) -> RunJob:
    """The :class:`RunJob` for one grid cell, *exactly* as the CLI
    ``sweep`` verb builds it — same config, same policy key — so the
    service's content addresses are interchangeable with serial runs
    (that identity is what makes result tables byte-comparable).
    """
    from repro.core.baselines.registry import SOTA_NAMES
    from repro.experiments.sweep import scheme_config

    return make_job(
        scheme_config(scheme),
        workload,
        float(scale),
        seed=int(seed),
        policy_key=scheme if scheme in SOTA_NAMES else "",
    )


def campaign_cells(
    schemes: Optional[Sequence[str]] = None,
    benchmarks=None,
    scales: Optional[Sequence[float]] = None,
    seeds: Optional[Sequence[int]] = None,
) -> List[Tuple[str, str, float, int]]:
    """Expand a grid into cells in the ``sweep`` verb's canonical order
    (scheme x benchmark x scale x seed), validating every axis."""
    from repro.errors import ReproError
    from repro.experiments.common import DEFAULT_SCALE, resolve_benchmarks
    from repro.experiments.sweep import SCHEME_NAMES

    schemes = list(schemes) if schemes else ["baseline", "hdpat"]
    for scheme in schemes:
        if scheme not in SCHEME_NAMES:
            raise ReproError(
                f"unknown scheme {scheme!r}; available: {list(SCHEME_NAMES)}"
            )
    names = resolve_benchmarks(benchmarks)
    scales = [float(s) for s in scales] if scales else [DEFAULT_SCALE]
    seeds = [int(s) for s in seeds] if seeds else [42]
    return [
        (scheme, name, cell_scale, cell_seed)
        for scheme in schemes
        for name in names
        for cell_scale in scales
        for cell_seed in seeds
    ]


class Coordinator:
    """Campaign admission and reporting over one service root."""

    def __init__(
        self,
        root,
        create: bool = True,
        lease_ttl: Optional[float] = None,
    ) -> None:
        self.root = Path(root)
        self.cache_dir = self.root / CACHE_DIRNAME
        self.hosts_dir = self.root / HOSTS_DIRNAME
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
            self.cache_dir.mkdir(exist_ok=True)
            self.hosts_dir.mkdir(exist_ok=True)
        self.ledger = JobLedger(self.root, create=create, lease_ttl=lease_ttl)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        campaign: str,
        tenant: str,
        schemes: Optional[Sequence[str]] = None,
        benchmarks=None,
        scales: Optional[Sequence[float]] = None,
        seeds: Optional[Sequence[int]] = None,
        weight: float = 1.0,
        queue_cap: Optional[int] = None,
    ) -> Dict[str, object]:
        """Admit one campaign; back-pressure and duplicate-name errors
        propagate from the ledger with the state untouched."""
        from repro.experiments.common import resolve_benchmarks

        cells = campaign_cells(schemes, benchmarks, scales, seeds)
        cache = DiskResultCache(self.cache_dir)
        entries: List[Tuple[str, List[object], str]] = []
        precommitted = set()
        for cell in cells:
            job = cell_job(*cell)
            key = job.cache_key()
            entries.append((key, list(cell), job.job_key()))
            if cache.has_key(key):
                # Already in the shared cache — enters the ledger as
                # done, consuming no queue depth and no host time.
                precommitted.add(key)
        grid = {
            "schemes": list(schemes) if schemes else ["baseline", "hdpat"],
            "benchmarks": resolve_benchmarks(benchmarks),
            "scales": [float(s) for s in (scales or [])] or None,
            "seeds": [int(s) for s in (seeds or [])] or None,
        }
        return self.ledger.submit(
            campaign,
            tenant,
            entries,
            grid=grid,
            weight=weight,
            queue_cap=queue_cap,
            precommitted=precommitted,
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def host_heartbeats(self) -> List[Dict[str, object]]:
        """Every host's heartbeat records, merged into one deterministic
        timeline (see :func:`merge_heartbeat_streams`)."""
        paths = sorted(str(p) for p in self.hosts_dir.glob("*.jsonl"))
        return merge_heartbeat_streams(paths)

    def status(self, campaign: Optional[str] = None) -> Dict[str, object]:
        """Ledger progress plus the latest beat seen from each host."""
        progress = self.ledger.progress(campaign)
        hosts: Dict[str, Dict[str, object]] = {}
        for record in self.host_heartbeats():
            host = record.get("host")
            if isinstance(host, str):
                hosts[host] = record  # merged order: the last wins
        return {
            "campaign": campaign,
            "progress": progress,
            "hosts": hosts,
        }

    def result_table(self, campaign: str):
        """The campaign's result table, rendered from the shared cache.

        Replays the campaign's grid through the ordinary ``sweep``
        harness with a serial executor over the service cache — every
        cell is a disk hit, so the table is byte-identical to what
        ``--jobs 1`` serial execution of the same grid prints.  Raises
        :class:`CampaignError` while any job is still pending, leased,
        or terminally failed (an incomplete table would silently
        re-execute cells instead of reporting the gap).
        """
        from repro.experiments import sweep as sweep_module
        from repro.experiments.common import RunCache

        record = self.ledger.campaign(campaign)
        progress = self.ledger.progress(campaign)
        unfinished = progress["pending"] + progress["leased"]
        if unfinished or progress["failed"]:
            raise CampaignError(
                f"campaign {campaign!r} has no complete result table: "
                f"{unfinished} unfinished and {progress['failed']} failed "
                f"of {progress['total']} jobs"
            )
        grid = record["grid"]
        executor = SweepExecutor(jobs=1, cache_dir=str(self.cache_dir))
        return sweep_module.run(
            benchmarks=grid["benchmarks"],
            cache=RunCache(executor),
            schemes=grid["schemes"],
            scales=grid["scales"],
            seeds=grid["seeds"],
        )


class WorkerHost:
    """One claim-execute-commit loop over a service root.

    Runs until the ledger drains (no pending or leased jobs anywhere) or
    ``max_runtime`` elapses; a bounded run releases its leases on the
    way out so other hosts pick the work up immediately instead of
    waiting out the TTL.  Counters are kept in the local executor's
    :class:`~repro.obs.metrics.MetricsRegistry` (``service.*``) and
    streamed through the host's heartbeat file.
    """

    def __init__(
        self,
        root,
        host_id: Optional[str] = None,
        faults: Optional[WorkerFaultPlan] = None,
        poll: float = 0.2,
        heartbeat_every: float = 0.2,
        max_runtime: Optional[float] = None,
    ) -> None:
        self.root = Path(root)
        self.ledger = JobLedger(self.root)  # must already exist
        self.host_id = host_id or default_host_id()
        self.faults = faults or WorkerFaultPlan()
        self.poll = max(0.01, float(poll))
        self.max_runtime = max_runtime
        hosts_dir = self.root / HOSTS_DIRNAME
        hosts_dir.mkdir(parents=True, exist_ok=True)
        self.heartbeat = SweepHeartbeat(
            str(hosts_dir / f"{self.host_id}.jsonl"),
            every=heartbeat_every,
            host_id=self.host_id,
        )
        self.executor = SweepExecutor(
            jobs=1, cache_dir=str(self.root / CACHE_DIRNAME)
        )
        reg = self.executor.registry
        self._claims = reg.counter("service.claims")
        self._commits = reg.counter("service.commits")
        self._dedups = reg.counter("service.dedup_commits")
        self._served = reg.counter("service.disk_served")
        self._failures = reg.counter("service.failures")
        self._chaos = reg.counter("service.chaos_verdicts")

    # ------------------------------------------------------------------
    def _stats(self, running: int = 0) -> Dict[str, object]:
        done = self._commits.value + self._dedups.value
        return {
            "total": self._claims.value,
            "done": done,
            "failed": self._failures.value,
            "cache_hits": self._served.value,
            "running": running,
            "chaos": self._chaos.value,
        }

    def _beat(self, running: int = 0) -> None:
        self.heartbeat.beat(self._stats(running))

    # ------------------------------------------------------------------
    def _execute_claim(self, claim: Dict[str, object]) -> None:
        key = str(claim["key"])
        verdict = self.faults.verdict_for(
            str(claim["job_key"]), int(claim["hold"])
        )
        if verdict != OK:
            self._chaos.inc()
        if verdict == CRASH:
            self.faults.die()
        job = cell_job(*claim["cell"])
        started = time.perf_counter()
        result = self.executor.lookup(job)
        if result is not None:
            self._served.inc()
        else:
            try:
                result = self.executor.run_inline(job)
            except Exception as exc:
                self._failures.inc()
                self.ledger.fail(key, self.host_id, repr(exc))
                return
            # run_inline stored the result durably *before* the ledger
            # commit: a committed key is always servable, even if this
            # host dies on the very next instruction.
        wall = time.perf_counter() - started
        if verdict == HANG:
            # Heartbeat silence: sleep without renewing.  Against a
            # short TTL the lease expires mid-hang and another host
            # steals the job; our late commit below lands as a dedup.
            time.sleep(self.faults.hang_seconds)
        elif verdict == SLOW:
            time.sleep((self.faults.slow_factor - 1.0) * wall)
        if self.ledger.commit(key, self.host_id):
            self._commits.inc()
        else:
            self._dedups.inc()

    def run(self) -> Dict[str, object]:
        """Drain the ledger; returns this host's final counters."""
        started = time.time()
        reason = "drained"
        try:
            while True:
                if (
                    self.max_runtime is not None
                    and time.time() - started > self.max_runtime
                ):
                    self.ledger.release(self.host_id)
                    reason = "max_runtime"
                    break
                claim = self.ledger.claim(self.host_id)
                if claim is None:
                    if self.ledger.outstanding() == 0:
                        break
                    # Someone else holds live leases; wait for them to
                    # finish — or for their leases to expire, at which
                    # point the next claim() *is* the steal.
                    self._beat()
                    time.sleep(self.poll)
                    continue
                self._claims.inc()
                self._beat(running=1)
                self._execute_claim(claim)
                self.ledger.renew(self.host_id)
                self._beat()
        finally:
            stats = self._stats()
            stats["exit"] = reason
            self.heartbeat.finish(stats)
        summary = self._stats()
        summary["host"] = self.host_id
        summary["exit"] = reason
        return summary


__all__ = [
    "CACHE_DIRNAME",
    "Coordinator",
    "HOSTS_DIRNAME",
    "WorkerHost",
    "campaign_cells",
    "cell_job",
    "default_host_id",
]
