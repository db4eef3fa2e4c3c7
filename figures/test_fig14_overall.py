"""Figure 14 — overall performance: HDPAT vs SOTA vs baseline."""

from conftest import run_experiment

from repro.experiments import fig14_overall


def test_fig14_overall_performance(cache):
    result = run_experiment(fig14_overall.run, cache)
    geomean = result.row_for("GEOMEAN")
    headers = result.headers
    hdpat = geomean[headers.index("Hdpat")]
    # Paper: HDPAT 1.57x average, ahead of every SOTA baseline.
    assert hdpat > 1.3
    for sota in ("Transfw", "Valkyrie", "Barre"):
        assert hdpat > geomean[headers.index(sota)]
