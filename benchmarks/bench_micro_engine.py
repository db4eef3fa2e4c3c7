"""Engine scheduler micro-benchmark — calendar-queue regression canary.

Wraps ``BenchHarness._micro_engine_heap`` (the same thunk ``python -m
repro bench`` runs) under pytest-benchmark so the reduced CI suite
catches scheduler slowdowns and behavioural drift at PR time.  The
micro's digest covers the final cycle and event count, so a change to
event *ordering or termination* — not just speed — fails the assert.
"""

from repro.obs.bench import HEAP_MICRO_EVENTS, BenchHarness


def test_micro_engine_scheduler(benchmark):
    harness = BenchHarness()
    record = benchmark.pedantic(
        harness.suite()["micro_engine_heap"], rounds=1, iterations=1
    )
    # Every budgeted event plus the 64 seed events must have fired; a
    # truncated or double-counted run shows up here before the digest.
    assert record["events"] == HEAP_MICRO_EVENTS + 64
    # Behavioural fingerprint: byte-identical to the classic-heap design.
    rerun = BenchHarness().suite()["micro_engine_heap"]()
    assert record["digest"] == rerun["digest"]
