"""Figure 6 — per-page IOMMU translation-count distribution."""

from conftest import run_experiment

from repro.experiments import fig06_translation_counts


def test_fig06_translation_counts(cache):
    result = run_experiment(fig06_translation_counts.run, cache)
    single = {row[0]: row[2] for row in result.rows}
    mean = {row[0]: row[5] for row in result.rows}
    # Paper: AES and RELU translate each page once; BT/FWT repeat.
    assert single["RELU"] > 0.8
    assert mean["FWT"] > mean["RELU"]
    assert mean["PR"] > 1.5
