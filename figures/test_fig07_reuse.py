"""Figure 7 — reuse-distance distribution for repeat-translation workloads."""

from conftest import run_experiment

from repro.experiments import fig07_reuse_distance


def test_fig07_reuse_distance(cache):
    result = run_experiment(fig07_reuse_distance.run, cache)
    # Paper: distances span small values up to hundreds of thousands —
    # the distribution is wide, not concentrated in one bucket.
    for row in result.rows:
        fractions = row[2:8]
        assert max(fractions) < 1.0
    mt = result.row_for("MT")
    # MT's reuses are long-distance (beyond the small buckets).
    assert mt[2] + mt[3] < 0.5
