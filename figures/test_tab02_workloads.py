"""Table II — benchmark suite."""

from conftest import run_experiment

from repro.experiments import tab02_workloads


def test_tab02_workloads(cache):
    result = run_experiment(tab02_workloads.run, cache)
    assert len(result.rows) == 14
    assert result.row_for("SPMV")[3] == "120 MB"
