"""Figure 18 — proactive delivery granularity (1/4/8 PTEs)."""

from conftest import run_experiment

from repro.experiments import fig18_prefetch_granularity


def test_fig18_prefetch_granularity(cache):
    result = run_experiment(fig18_prefetch_granularity.run, cache)
    geomean = result.row_for("GEOMEAN")
    one, four, eight = geomean[1], geomean[2], geomean[3]
    # Paper: 1.40x / 1.57x / 1.59x — 4 PTEs beat 1; 8 adds little.
    assert four > one
    assert eight > four - 0.05  # saturation, not regression
    assert (eight - four) < (four - one)
