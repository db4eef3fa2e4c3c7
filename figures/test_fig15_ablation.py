"""Figure 15 — ablation of HDPAT's techniques."""

from conftest import run_experiment

from repro.experiments import fig15_ablation


def test_fig15_ablation(cache):
    result = run_experiment(fig15_ablation.run, cache)
    geomean = result.row_for("GEOMEAN")
    headers = result.headers
    full = geomean[headers.index("HDPAT (all)")]
    redirection = geomean[headers.index("+Redirection")]
    prefetch = geomean[headers.index("+Prefetch")]
    cluster = geomean[headers.index("Cluster+Rot")]
    # Paper ordering: the full combination beats each partial design, and
    # redirection/prefetch each beat bare cluster+rotation.
    assert full >= redirection - 0.02
    assert full >= prefetch - 0.02
    assert redirection > cluster - 0.02
    assert full > 1.3
