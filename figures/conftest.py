"""Shared figure-check fixtures.

All figure checks run at one common scale so the session-scoped run cache
shares baseline runs across figures (fig02/14/15/16/17/18 all normalise to
the same baseline executions).
"""

import pytest

from repro.experiments.common import RunCache

#: Common workload scale for the figure checks.  The CLI
#: (``python -m repro experiments <fig> --scale ...``) reruns any figure
#: at higher fidelity; Figure 13's size-invariance result justifies
#: scaled proxies.
FIGURE_SCALE = 0.04

FIGURE_SEED = 42


@pytest.fixture(scope="session")
def cache():
    return RunCache()


def run_experiment(run_fn, cache, **kwargs):
    """Execute one experiment, print its regenerated table, and return it
    for assertions."""
    kwargs.setdefault("scale", FIGURE_SCALE)
    kwargs.setdefault("seed", FIGURE_SEED)
    result = run_fn(cache=cache, **kwargs)
    print()
    result.show()
    return result
