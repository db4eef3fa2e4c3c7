"""The ``python -m repro <verb>`` front door."""

from __future__ import annotations

import importlib
import json
import os

import pytest

from repro.__main__ import main

RACY_FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "racy_ticker.py"
)


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

    @pytest.mark.parametrize("verb", ["bench", "sweep", "sanitize"])
    def test_unknown_verb_exits_two(self, verb, capsys):
        assert main([verb]) == 2
        err = capsys.readouterr().err
        assert f"unknown verb {verb!r}" in err
        assert "usage: python -m repro <verb>" in err

    @pytest.mark.parametrize("verb,module", [
        ("run", "repro.system.cli"),
        ("experiments", "repro.experiments.cli"),
    ])
    def test_verb_forwards_its_arguments(self, verb, module, monkeypatch):
        calls = []
        monkeypatch.setattr(
            importlib.import_module(module), "main",
            lambda argv: calls.append(argv) or 7,
        )
        assert main([verb, "a", "--b", "c"]) == 7
        assert calls == [["a", "--b", "c"]]

    def test_lint_verb(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("X = 1\n")
        assert main(["lint", str(clean), "--strict"]) == 0
        assert "hdpat-lint: 0 error(s), 0 warning(s)" in capsys.readouterr().out

    def test_races_verb(self, capsys):
        assert main(["races", RACY_FIXTURE, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in payload["findings"]] == ["RACE001"] * 2
