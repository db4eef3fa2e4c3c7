"""Experiment harnesses — one module per paper figure/table.

Every module exposes ``run(scale=..., benchmarks=..., seed=...) ->
ExperimentResult`` and registers itself in :mod:`repro.experiments.registry`.
The CLI (``python -m repro experiments <id>``, also installed as
``hdpat-experiments``) prints the regenerated rows.
"""

from repro.experiments.common import ExperimentResult, RunCache
from repro.experiments.registry import EXPERIMENT_IDS, get_experiment

__all__ = ["EXPERIMENT_IDS", "ExperimentResult", "RunCache", "get_experiment"]
