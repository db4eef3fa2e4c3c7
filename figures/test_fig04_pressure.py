"""Figure 4 — IOMMU buffer pressure, MCM-4 vs 48-GPM wafer."""

from conftest import run_experiment

from repro.experiments import fig04_buffer_pressure


def test_fig04_buffer_pressure(cache):
    result = run_experiment(fig04_buffer_pressure.run, cache)
    mcm_peak = result.rows[0][1]
    wafer_peak = result.rows[1][1]
    # Paper: the wafer builds a standing backlog the MCM never approaches.
    assert wafer_peak > 10 * max(mcm_peak, 1)
