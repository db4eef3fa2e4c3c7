"""Figure 20 — page-size sensitivity."""

from conftest import run_experiment

from repro.experiments import fig20_page_size


def test_fig20_page_size(cache):
    result = run_experiment(fig20_page_size.run, cache)
    # Paper: larger pages help the baseline, and HDPAT maintains its
    # advantage at every page size.
    baseline_norm = result.column("Baseline")
    assert baseline_norm[-1] > baseline_norm[0]  # 64K beats 4K baseline
    for row in result.rows:
        assert row[2] > row[1]  # HDPAT above baseline at each size
