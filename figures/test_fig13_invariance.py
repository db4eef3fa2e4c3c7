"""Figure 13 — size-invariance of IOMMU pressure (FIR)."""

from conftest import run_experiment

from repro.experiments import fig13_size_invariance


def test_fig13_size_invariance(cache):
    result = run_experiment(fig13_size_invariance.run, cache)
    assert len(result.rows) == 3
    # Paper: the normalized time-series shapes are similar across sizes.
    assert "similarity" in result.notes
