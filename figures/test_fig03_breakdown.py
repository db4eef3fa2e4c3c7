"""Figure 3 — IOMMU latency breakdown for SPMV."""

from conftest import run_experiment

from repro.experiments import fig03_latency_breakdown


def test_fig03_latency_breakdown(cache):
    result = run_experiment(fig03_latency_breakdown.run, cache)
    percents = {row[0]: row[2] for row in result.rows}
    # Paper: pre-queue delay is the largest single component for SPMV.
    assert percents["pre_queue"] == max(percents.values())
