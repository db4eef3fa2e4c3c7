"""Golden figure tables: the gate on what the figure harnesses print.

Fifteen harnesses run at scale 0.02 on ``aes`` with seed 42, all through
one shared :class:`~repro.experiments.common.RunCache`, and each
``format_table()`` text must equal the committed one in
``fixtures/golden_tables.json``.  The digests in ``golden_digests.json``
say that simulated behaviour moved; these say which printed cell moved.
A mismatch fails with a unified diff of the table.

A declared model change (or a deliberate table change) regenerates the
fixture::

    PYTHONPATH=src python tests/test_golden_tables.py \\
        > tests/fixtures/golden_tables.json
"""

from __future__ import annotations

import difflib
import json
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.experiments.common import RunCache
from repro.experiments.registry import get_experiment

FIXTURE = Path(__file__).parent / "fixtures" / "golden_tables.json"

SCALE = 0.02
SEED = 42
BENCHMARKS = ["aes"]

EXPERIMENTS = (
    "fig02", "fig03", "fig04", "fig14", "fig15", "fig16", "fig17", "fig18",
    "fig19", "fig22", "fig21", "ext_layers", "ext_threshold", "ext_rotation", "ext_migration",
)


def tables() -> Dict[str, str]:
    """Every experiment's table text, in fixture form."""
    cache = RunCache()
    return {
        experiment_id: get_experiment(experiment_id)(
            scale=SCALE, benchmarks=BENCHMARKS, seed=SEED, cache=cache,
        ).format_table()
        for experiment_id in EXPERIMENTS
    }


@pytest.fixture(scope="module")
def golden() -> Dict[str, str]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def current() -> Dict[str, str]:
    return tables()


class TestGoldenTables:
    def test_fixture_covers_every_experiment(self, golden):
        assert set(golden) == set(EXPERIMENTS)

    @pytest.mark.parametrize("experiment_id", EXPERIMENTS)
    def test_table_matches_golden(self, experiment_id, golden, current):
        expected, actual = golden[experiment_id], current[experiment_id]
        if actual != expected:
            diff = "\n".join(difflib.unified_diff(
                expected.splitlines(), actual.splitlines(),
                "golden", "now", lineterm="",
            ))
            pytest.fail(f"{experiment_id}: table moved\n{diff}")


if __name__ == "__main__":
    json.dump(tables(), sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")
