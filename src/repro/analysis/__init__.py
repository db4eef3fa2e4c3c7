"""Correctness tooling: hdpat-lint (static) + runtime sanitizers.

Two sides, one goal — every figure rests on the simulator being
bit-deterministic and conservation-correct, so both are machine-checked:

* :mod:`repro.analysis.rules` / :mod:`repro.analysis.lint` — an AST lint
  pass enforcing determinism invariants per layer (no wall-clock or
  global-``random`` use in simulation layers, no unseeded generators, no
  set-order leaks, no mutable defaults, picklable exec jobs, integral
  cycle math, conformant metric names).
* :mod:`repro.analysis.sanitizers` — runtime checks armed by
  ``Simulator(sanitize=True)`` / ``--sanitize``: event-order causality,
  NoC byte conservation, buffer-leak detection at quiesce, a dual-run
  determinism digest, and (``sanitize="races"``) the dynamic same-cycle
  race detector.
* :mod:`repro.analysis.races` — the static half of the race detector: a
  callback-registration graph over ``schedule``/``schedule_at`` sites
  with per-callback read/write summaries, flagging statically-possible
  same-cycle conflicts (RACE001 write-write, RACE002 read-write).

CLI: ``python -m repro lint`` and ``python -m repro races``; the runtime
sanitizers arm with ``python -m repro run <benchmark> --sanitize``.
See docs/ANALYSIS.md.

The package namespace re-exports nothing: import from the submodule, so
a run that needs only the sanitizers (or a result digest) does not load
the lint machinery.
"""
