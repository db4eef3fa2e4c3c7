"""Figure 16 — translation-handling breakdown under HDPAT."""

from conftest import run_experiment

from repro.experiments import fig16_breakdown


def test_fig16_breakdown(cache):
    result = run_experiment(fig16_breakdown.run, cache)
    rows = {row[0]: row for row in result.rows}
    # Paper: 42.1% of translations offloaded on average; MT remains
    # IOMMU-dominant; PR leans on peer caching.
    mean = rows["MEAN"]
    offload = mean[1] + mean[2] + mean[3]
    assert 0.2 < offload < 0.8
    assert rows["MT"][4] > 0.8  # IOMMU share
    assert rows["PR"][1] > rows["MT"][1]  # peer share
