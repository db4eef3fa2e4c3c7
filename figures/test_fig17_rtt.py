"""Figure 17 — remote translation round-trip time."""

from conftest import run_experiment

from repro.experiments import fig17_response_time


def test_fig17_response_time(cache):
    result = run_experiment(fig17_response_time.run, cache)
    mean_ratio = result.row_for("MEAN")[3]
    # Paper: 41% average RTT reduction (normalized mean ~0.59).
    assert mean_ratio < 0.9
