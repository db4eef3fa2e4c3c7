"""Test fixtures: seeded-defect modules and committed golden data.

Modules here contain *deliberate* violations (e.g. the racy ticker pair
in :mod:`tests.fixtures.racy_ticker`); they are imported by tests only
and must never be linted as part of the shipped tree.
``golden_digests.json`` holds the determinism digests that
:mod:`tests.test_golden_digests` checks.
"""
