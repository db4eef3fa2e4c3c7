"""Live sweep progress: a JSONL heartbeat file for long-running sweeps.

A sweep sharded across worker processes is opaque while it runs — the
terminal shows nothing until a whole figure completes.  The heartbeat
gives operators (and CI) a machine-readable pulse::

    python -m repro experiments all --progress /tmp/sweep.jsonl &
    tail -f /tmp/sweep.jsonl | python -m json.tool --json-lines

Each line is one self-contained JSON object; the last line is always the
final state (``"phase": "finished"``).  Fields:

``elapsed``          seconds since the heartbeat started
``t``                absolute wall-clock timestamp of the beat
``seq``              monotonic per-writer sequence number (0, 1, 2, …)
``total``            jobs queued so far (grows as experiments enqueue)
``done`` / ``failed`` / ``retried``  cumulative job outcomes
``cache_hits``       jobs served from the memory or disk cache
``running``          jobs currently executing
``jobs_per_sec``     completion rate over the whole sweep
``events_per_sec``   simulated events per host second, when worker
                     metrics are enabled (null otherwise)
``eta_seconds``      remaining / rate, null until the rate is known

Writes are throttled (default one per second) and re-open the file in
append mode each time, so a crashed sweep leaves a complete prefix.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Optional


class SweepHeartbeat:
    """Throttled JSONL progress writer (one line per beat)."""

    def __init__(self, path: str, every: float = 1.0) -> None:
        self.path = path
        self.every = max(0.0, float(every))
        self._started = time.time()
        self._last_write: Optional[float] = None
        self._finished = False
        self.beats = 0
        # Truncate: a heartbeat file always describes exactly one sweep.
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8"):
            pass

    def beat(self, stats: Dict[str, object], force: bool = False) -> bool:
        """Append one record unless inside the throttle window.

        ``stats`` carries the cumulative counters (total/done/failed/
        retried/cache_hits/running and optionally ``events``); rate and
        ETA fields are derived here.  Returns True when a line was
        written.
        """
        now = time.time()
        if (
            not force
            and self._last_write is not None
            and now - self._last_write < self.every
        ):
            return False
        self._last_write = now
        elapsed = now - self._started
        record = dict(stats)
        events = record.pop("events", None)
        record["phase"] = record.get("phase", "running")
        record["elapsed"] = round(elapsed, 3)
        record["t"] = round(now, 3)
        record["seq"] = self.beats
        done = int(record.get("done", 0))
        failed = int(record.get("failed", 0))
        total = int(record.get("total", 0))
        completed = done + failed
        # Rate and ETA are derived, and both divisions need guards: a
        # beat can land in a zero-elapsed window (clock granularity, or
        # a forced beat right after start), and a sweep that has
        # completed nothing yet has no rate to extrapolate from.
        rate: Optional[float] = None
        if elapsed > 0.0 and completed > 0:
            rate = completed / elapsed
        record["jobs_per_sec"] = round(rate, 3) if rate is not None else None
        record["events_per_sec"] = (
            round(events / elapsed) if events and elapsed > 0.0 else None
        )
        remaining = max(0, total - completed)
        record["eta_seconds"] = (
            round(remaining / rate, 1)
            if rate is not None and rate > 1e-9 and remaining
            else None
        )
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        self.beats += 1
        return True

    def finish(
        self, stats: Dict[str, object], phase: str = "finished"
    ) -> None:
        """Write the terminal record unconditionally (once).

        Idempotent: teardown paths overlap (an aborting executor writes
        its own terminal record, then the CLI's ``finally`` calls
        ``finish_heartbeat`` again), and the file contract is that the
        last line *is* the terminal state — a second terminal line would
        bury the ``"aborted"`` phase under a later ``"finished"`` one.
        """
        if self._finished:
            return
        self._finished = True
        final = dict(stats)
        final["phase"] = phase
        self.beat(final, force=True)


def read_jsonl_prefix(path: str):
    """Parse a JSONL file, tolerating a torn *final* line.

    Append-only JSONL files (heartbeat streams) may end
    mid-record when the writer dies between ``write`` and the kernel
    flushing a full line; the complete prefix is still meaningful and is
    returned.  A malformed line *followed by* further records is real
    corruption, not a torn append, and still raises.
    """
    lines = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                lines.append(line)
    records = []
    for position, line in enumerate(lines):
        try:
            records.append(json.loads(line))
        except ValueError:
            if position == len(lines) - 1:
                break
            raise
    return records


def read_heartbeats(path: str):
    """Parse a heartbeat file back into records (newest last).

    A sweep killed mid-append leaves a torn final line; the complete
    prefix is returned instead of raising, so post-mortem tooling can
    always read how far the sweep got.
    """
    return read_jsonl_prefix(path)
