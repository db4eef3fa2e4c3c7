"""Figure 8 — spatial locality of consecutive translation requests."""

from conftest import run_experiment

from repro.experiments import fig08_spatial_locality


def test_fig08_spatial_locality(cache):
    result = run_experiment(fig08_spatial_locality.run, cache)
    within4 = {row[0]: row[3] for row in result.rows}
    # Paper: 10-30% of next requests land within a few pages for the
    # compute-intensive benchmarks; streaming ones are even higher.
    assert within4["FIR"] > 0.10
    assert within4["RELU"] > 0.10
    assert within4["MT"] < within4["FIR"]
