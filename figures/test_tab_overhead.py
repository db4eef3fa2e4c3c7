"""Section V-F — redirection-table area/power overhead."""

from conftest import run_experiment

from repro.experiments import tab_overhead


def test_overhead_estimate(cache):
    result = run_experiment(tab_overhead.run, cache)
    # Paper: 0.034 mm^2, 0.16 W, 0.02% area, 0.09% power.
    assert abs(result.row_for("Area (mm^2)")[1] - 0.034) < 0.01
    assert abs(result.row_for("Power (W)")[1] - 0.16) < 0.03
