"""Exception hierarchy for the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """Raised for invalid simulator operations (e.g. scheduling in the past)."""


class ConfigurationError(ReproError):
    """Raised when a system configuration is inconsistent or unsupported."""


class AddressError(ReproError):
    """Raised for malformed virtual/physical addresses or unmapped pages."""


class CapacityError(ReproError):
    """Raised when a finite structure (filter, buffer) cannot accept an item."""


class WorkloadError(ReproError):
    """Raised for unknown workloads or invalid trace parameters."""


class ObservabilityError(ReproError):
    """Raised for invalid tracing/metrics operations (e.g. span mismatch)."""


class RoutingError(ReproError):
    """Raised for undeliverable sends: an off-mesh coordinate, or a
    destination tile with no attached handler.  Raising at ``send`` time
    replaces the silent-hang failure mode where an undeliverable event
    would sit in the queue forever."""


class FaultError(ReproError):
    """Base class for failures caused by an injected fault plan
    (:mod:`repro.faults`).  Subclasses mean the *fault model* made a
    request unservable — the simulation itself behaved correctly."""


class UnreachableError(FaultError):
    """No route exists between two tiles once the plan's dead links are
    excluded (the fault set partitioned the mesh)."""


class DeadDestinationError(FaultError):
    """A message was addressed to a tile the fault plan disabled."""


class TranslationTimeoutError(FaultError):
    """A translation request exhausted its retry budget without ever
    receiving a response."""


class SanitizerError(ReproError):
    """Base class for runtime-sanitizer violations (``repro.analysis``).

    Sanitizers check invariants the figures silently depend on; a subclass
    of this error means the simulation itself is wrong, not the workload.
    """


class EventOrderError(SanitizerError):
    """The event heap lost causality: an event was scheduled in the past,
    or the heap popped a timestamp behind one already processed."""


class ConservationError(SanitizerError):
    """NoC byte conservation failed: bytes injected != bytes delivered +
    bytes in flight, or a link's traffic counters drifted from the shadow
    accounting kept by the sanitizer."""


class BufferLeakError(SanitizerError):
    """A finite buffer still held items after the simulation quiesced."""


class OrderRaceError(SanitizerError):
    """Two same-cycle events conflicted on the same ``(object, field)``
    with at least one write, and their relative order is fixed only by
    the scheduler's insertion ``seq`` tie-break.  The run is still
    deterministic today, but any alternative dispatch order (parallel
    in-cycle execution, a different queue implementation) could silently
    change the result.  The message carries both events' provenance."""


class DeterminismError(SanitizerError):
    """Two runs of the same config + seed produced different result
    digests — the invariant the disk result cache depends on."""


class SweepAbortedError(ReproError):
    """The sweep executor stopped before completing its batch — the
    circuit breaker tripped (``max_consecutive_failures``), a SIGINT/
    SIGTERM arrived, or a configured ``abort_after`` fired.  Carries the
    partial ``results`` (``{index: RunResult}`` for jobs that completed
    before the abort) and the structured ``failures`` recorded so far;
    everything in ``results`` is already stored when a cache directory is
    configured, so rerunning the sweep against it resumes the work."""

    def __init__(self, reason, results=None, failures=None):
        super().__init__(reason)
        self.reason = reason
        self.results = {} if results is None else results
        self.failures = [] if failures is None else failures


class ReproWarning(UserWarning):
    """Base class for warnings the simulator emits about suspect results."""


class TruncationWarning(ReproWarning):
    """A run hit ``max_cycles`` and dropped still-pending events: every
    end-of-run aggregate after the cutoff is an underestimate."""


class AccountingWarning(ReproWarning):
    """An internal accounting invariant failed (e.g. more proactive hits
    than prefetched PTEs pushed) — figures stay clamped, but the raw value
    points at a bookkeeping bug worth chasing."""
