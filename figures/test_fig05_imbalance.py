"""Figure 5 — per-GPM execution time by geometric position."""

from conftest import run_experiment

from repro.experiments import fig05_position_imbalance


def test_fig05_position_imbalance(cache):
    result = run_experiment(fig05_position_imbalance.run, cache)
    # Paper: central GPMs finish earlier than peripheral ones.
    for workload in ("SPMV", "FIR"):
        rows = [row for row in result.rows if row[0] == workload]
        inner, outer = rows[0][3], rows[-1][3]
        assert inner <= outer
