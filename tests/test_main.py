"""The ``python -m repro <verb>`` front door."""

from __future__ import annotations

import pytest

from repro.__main__ import main


class TestFrontDoor:
    def test_no_verb_prints_usage(self, capsys):
        assert main([]) == 0
        assert "verbs:" in capsys.readouterr().out

    def test_experiments_verb(self, capsys):
        assert main(["experiments", "tab02"]) == 0
        assert "Table II" in capsys.readouterr().out

    def test_run_verb(self, capsys):
        assert main(["run", "aes", "--mesh", "3x3", "--scale", "0.02"]) == 0
        assert "IOMMU" in capsys.readouterr().out

    @pytest.mark.parametrize("verb", ["bench", "sweep"])
    def test_unknown_verb_exits_two(self, verb, capsys):
        assert main([verb]) == 2
        assert f"unknown verb {verb!r}" in capsys.readouterr().err
