"""Design-knob ablations from DESIGN.md: rotation, layer count, push
threshold, and the shootdown-cost extension."""

from conftest import run_experiment

from repro.experiments import (
    ext_layers,
    ext_migration,
    ext_rotation,
    ext_shootdown,
    ext_threshold,
)


def test_ext_rotation(cache):
    result = run_experiment(ext_rotation.run, cache)
    assert len(result.rows) >= 2


def test_ext_layer_count(cache):
    result = run_experiment(ext_layers.run, cache)
    geomean = result.row_for("GEOMEAN")
    # Every layer count keeps a solid win over the baseline...
    assert min(geomean[1:]) > 1.2
    # ...and sharing-heavy PR wants caching layers more than streaming
    # RELU does (relative to their own C=0 points).
    pr = result.row_for("PR")
    relu = result.row_for("RELU")
    assert pr[3] / pr[1] > relu[3] / relu[1] - 0.05


def test_ext_push_threshold(cache):
    result = run_experiment(ext_threshold.run, cache)
    speedups = {row[0]: row[1] for row in result.rows}
    # Pushing nothing (huge threshold) must not beat the default.
    assert speedups["threshold=2"] > speedups["threshold=8"] - 0.1


def test_ext_migration_is_neutral_under_hdpat(cache):
    result = run_experiment(ext_migration.run, cache, benchmarks=["fir", "pr", "mt"])
    ratio = result.row_for("GEOMEAN-RATIO")[2]
    # The negative result: migration neither rescues nor wrecks HDPAT.
    assert 0.85 < ratio < 1.1
    migrations = sum(
        row[3] for row in result.rows if isinstance(row[3], int)
    )
    assert migrations > 0  # the mechanism did fire


def test_ext_shootdown_negligible(cache):
    result = run_experiment(ext_shootdown.run, cache)
    for row in result.rows:
        fraction = row[5]
        # Paper §II-A: freeing-time shootdown has negligible impact.
        assert fraction < 0.25
