"""Table I — system configuration."""

from conftest import run_experiment

from repro.experiments import tab01_config


def test_tab01_configuration(cache):
    result = run_experiment(tab01_config.run, cache)
    assert result.row_for("IOMMU")[1].startswith("16 shared")
    assert result.row_for("Redirection Table")[1] == "1024 entries, LRU"
