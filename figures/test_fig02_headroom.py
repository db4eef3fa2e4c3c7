"""Figure 2 — IOMMU headroom (baseline vs idealized IOMMUs)."""

from conftest import run_experiment

from repro.experiments import fig02_headroom


def test_fig02_headroom(cache):
    result = run_experiment(fig02_headroom.run, cache)
    geomean = result.row_for("GEOMEAN")
    # Paper: 5.45x / 4.96x — both idealizations must be far above baseline,
    # showing the IOMMU is the bottleneck.
    assert geomean[2] > 1.5
    assert geomean[3] > 1.5
