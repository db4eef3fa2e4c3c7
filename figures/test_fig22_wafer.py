"""Figure 22 — HDPAT on the larger 7x12 wafer."""

from conftest import run_experiment

from repro.experiments import fig22_wafer_7x12


def test_fig22_larger_wafer(cache):
    result = run_experiment(fig22_wafer_7x12.run, cache)
    geomean = result.row_for("GEOMEAN")[1]
    # Paper: 1.49x geometric mean on the 83-GPM wafer.
    assert geomean > 1.2
