"""Golden determinism digests: the gate on simulated behaviour.

Seven shards run at scale 0.02 and seed 42 — five simulation runs
(fig14 baseline/HDPAT spmv, HDPAT fft, fig6 bt counts, ext_faults spmv at
a 10 % degradation plan) and two host micro-kernels (the TLB-hierarchy
lookup path and the event engine's scheduling loop).  Each shard's
digest must equal the committed value in ``fixtures/golden_digests.json``.
A digest that moves means simulated behaviour changed, not just speed.

Every simulation shard also runs a second time under
``Observability(metrics=True, profile=True)``: observability must never
perturb what is simulated, so both digests must agree.

A declared model change regenerates the fixture (and bumps
``CACHE_SCHEMA``)::

    PYTHONPATH=src python tests/test_golden_digests.py \\
        > tests/fixtures/golden_digests.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.analysis.sanitizers import result_digest
from repro.config.hdpat import HDPATConfig
from repro.config.presets import wafer_7x7_config
from repro.config.scaling import capacity_scaled
from repro.faults import degradation_plan
from repro.mem.page import PageTableEntry
from repro.obs import Observability
from repro.sim.engine import Simulator
from repro.system.runner import run_benchmark
from repro.tlb.hierarchy import TranslationHierarchy

FIXTURE = Path(__file__).parent / "fixtures" / "golden_digests.json"

SCALE = 0.02
SEED = 42

#: Iteration counts for the host micro-kernels (scale-independent).
TLB_MICRO_ITERATIONS = 150_000
HEAP_MICRO_EVENTS = 120_000

#: Shard name -> (workload, scheme, fault fraction).
SIM_SHARDS = {
    "fig14_baseline_spmv": ("spmv", "baseline", 0.0),
    "fig14_hdpat_spmv": ("spmv", "hdpat", 0.0),
    "fig14_hdpat_fft": ("fft", "hdpat", 0.0),
    "fig6_counts_bt": ("bt", "baseline", 0.0),
    "ext_faults_spmv": ("spmv", "hdpat", 0.1),
}


def _dict_digest(payload: Dict[str, object]) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def sim_digest(name: str, obs: Observability | None = None) -> str:
    """Digest of one simulation shard's :class:`RunResult`."""
    workload, scheme, fault_fraction = SIM_SHARDS[name]
    config = wafer_7x7_config()
    if scheme == "hdpat":
        config = config.with_hdpat(HDPATConfig.full())
    if fault_fraction:
        config = config.with_faults(degradation_plan(
            config.mesh_width, config.mesh_height, SEED, fault_fraction,
        ))
    config = capacity_scaled(config, SCALE)
    result = run_benchmark(config, workload, scale=SCALE, seed=SEED, obs=obs)
    return result_digest(result)


def micro_tlb_lookup() -> str:
    """The TLB-hierarchy lookup path, isolated from the event engine.

    Installs a page-table working set, then drives a deterministic probe
    stream whose stride mixes L1 hits, fill paths, filter negatives, and
    walk completions.  The digest covers the outcome histogram.
    """
    config = wafer_7x7_config().gpm
    hierarchy = TranslationHierarchy(0, config)
    resident = 1024
    for vpn in range(resident):
        hierarchy.install_local_page(
            PageTableEntry(vpn=vpn, pfn=vpn + 1, owner_gpm=0)
        )
    span = resident * 4  # 3/4 of probes miss the local page table
    outcomes: Dict[str, int] = {}
    vpn = 0
    for _ in range(TLB_MICRO_ITERATIONS):
        # Weyl-style stride: full-period, deterministic, cheap.
        vpn = (vpn + 40503) % span
        probe = hierarchy.probe_local(vpn)
        name = probe.outcome.value
        outcomes[name] = outcomes.get(name, 0) + 1
        if name == "needs_walk":
            hierarchy.complete_local_walk(vpn)
    return _dict_digest({"outcomes": outcomes, "span": span})


def micro_engine_heap() -> str:
    """The event engine's scheduling loop, with live callbacks.

    A fixed set of actors each reschedule themselves with distinct
    deterministic strides until the event budget drains.  The digest
    covers the final cycle and event count, so a change to event ordering
    or termination flips it.
    """
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
    final_cycle = sim.run()
    events = sim.events_processed
    # Every budgeted event plus the seed events must have fired.
    assert events == budget + actors
    return _dict_digest(
        {"final_cycle": final_cycle, "events": events,
         "actors": actors, "budget": budget}
    )


MICRO_SHARDS = {
    "micro_tlb_lookup": micro_tlb_lookup,
    "micro_engine_heap": micro_engine_heap,
}


def digests() -> Dict[str, str]:
    """Every shard's digest, in fixture form."""
    out = {name: sim_digest(name) for name in SIM_SHARDS}
    out.update((name, shard()) for name, shard in MICRO_SHARDS.items())
    return out


@pytest.fixture(scope="module")
def golden() -> Dict[str, str]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


class TestGoldenDigests:
    def test_fixture_covers_every_shard(self, golden):
        assert set(golden) == set(SIM_SHARDS) | set(MICRO_SHARDS)

    @pytest.mark.parametrize("name", list(SIM_SHARDS))
    def test_sim_shard_matches_golden_digest(self, name, golden):
        bare = sim_digest(name)
        assert bare == golden[name], f"{name}: simulated behaviour changed"
        observed = sim_digest(name, Observability(metrics=True, profile=True))
        assert observed == bare, f"{name}: observability perturbed the run"

    @pytest.mark.parametrize("name", list(MICRO_SHARDS))
    def test_micro_shard_matches_golden_digest(self, name, golden):
        assert MICRO_SHARDS[name]() == golden[name]


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")
