"""hdpat-lint tests: every rule fires on a seeded violation (none is
vacuous), inline pragmas suppress, and the shipped tree is clean."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.lint import layer_of, lint_paths, lint_source, summarize
from repro.analysis.rules import rules_by_id

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")


def rule_ids(source, layer="sim", path="src/repro/sim/toy.py"):
    source = textwrap.dedent(source)
    return [f.rule_id for f in lint_source(source, path=path, layer=layer)]


# ----------------------------------------------------------------------
# Seeded violations: every rule must catch its own bug by id
# ----------------------------------------------------------------------
class TestSeededViolations:
    def test_wal001_wallclock_import_and_call(self):
        assert "WAL001" in rule_ids("from time import perf_counter\n")
        assert "WAL001" in rule_ids("import time\n")
        assert "WAL001" in rule_ids(
            "import time  # lint: disable=all\n"
            "def f():\n"
            "    return time.time()\n"
        )
        assert "WAL001" in rule_ids(
            "def f(datetime):\n"
            "    return datetime.now()\n"
        )

    def test_wal001_allowed_in_host_layers(self):
        assert rule_ids("from time import perf_counter\n", layer="exec") == []
        assert rule_ids("import time\n", layer="experiments") == []

    def test_rnd001_module_level_random(self):
        assert "RND001" in rule_ids(
            "import random  # lint: disable=all\n"
            "def f():\n"
            "    return random.randint(0, 7)\n"
        )

    def test_rnd001_seeded_instance_stays_legal(self):
        assert rule_ids(
            "import random  # lint: disable=all\n"
            "def f(seed):\n"
            "    rng = random.Random(seed)\n"
            "    return rng.randint(0, 7)\n"
        ) == []

    def test_rnd002_unseeded_random_any_layer(self):
        source = (
            "import random  # lint: disable=all\n"
            "rng = random.Random()\n"
        )
        assert "RND002" in rule_ids(source)
        assert "RND002" in rule_ids(source, layer="experiments")

    def test_ord001_set_iteration(self):
        assert "ORD001" in rule_ids(
            "def f(items):\n"
            "    for item in set(items):\n"
            "        yield item\n"
        )
        assert "ORD001" in rule_ids(
            "def f(xs):\n"
            "    return [x for x in {1, 2, 3}]\n"
        )

    def test_ord001_sorted_set_is_fine(self):
        assert rule_ids(
            "def f(items):\n"
            "    for item in sorted(set(items)):\n"
            "        yield item\n"
        ) == []

    def test_ord001_set_name_iteration(self):
        assert "ORD001" in rule_ids(
            "def f(items):\n"
            "    keys = frozenset(items)\n"
            "    for k in keys:\n"
            "        yield k\n"
        )
        # Propagates through a plain alias assignment.
        assert "ORD001" in rule_ids(
            "def f(items):\n"
            "    a = set(items)\n"
            "    b = a\n"
            "    return [x for x in b]\n"
        )

    def test_ord001_set_pop_arbitrary_element(self):
        assert "ORD001" in rule_ids(
            "def f():\n"
            "    seen = set()\n"
            "    seen.add(1)\n"
            "    seen.pop()\n"
        )
        # list.pop() and keyed dict.pop('k') stay legal.
        assert rule_ids(
            "def f(d):\n"
            "    stack = [1]\n"
            "    stack.pop()\n"
            "    d.pop('k')\n"
        ) == []

    def test_ord001_fromkeys_dict_inherits_set_order(self):
        assert "ORD001" in rule_ids(
            "def f(items):\n"
            "    s = set(items)\n"
            "    d = dict.fromkeys(s)\n"
            "    for k in d:\n"
            "        yield k\n"
        )
        assert "ORD001" in rule_ids(
            "def f(items):\n"
            "    d = dict.fromkeys(set(items))\n"
            "    for k in d.keys():\n"
            "        yield k\n"
        )

    def test_ord001_rebound_name_clears_taint(self):
        assert rule_ids(
            "def f(items):\n"
            "    seen = set(items)\n"
            "    seen = sorted(seen)\n"
            "    for k in seen:\n"
            "        yield k\n"
        ) == []

    def test_ord001_taint_is_scope_local(self):
        # The nested function's 'seen' is a different binding; the outer
        # list must not inherit the inner taint (or vice versa).
        assert rule_ids(
            "def outer(items):\n"
            "    seen = list(items)\n"
            "    def inner():\n"
            "        seen = set()\n"
            "        seen.add(1)\n"
            "    for k in seen:\n"
            "        yield k\n"
        ) == []

    def test_ord001_downgraded_to_warning_in_host_layers(self):
        findings = lint_source(
            "def f(items):\n    for item in set(items):\n        pass\n",
            layer="exec",
        )
        assert [f.severity for f in findings] == ["warning"]

    def test_mut001_mutable_default(self):
        assert "MUT001" in rule_ids("def f(acc=[]):\n    return acc\n")
        assert "MUT001" in rule_ids("def f(*, acc={}):\n    return acc\n")
        assert "MUT001" in rule_ids("def f(acc=list()):\n    return acc\n")

    def test_pck001_lambda_in_exec_layer_only(self):
        source = "factory = lambda: 1\n"
        assert "PCK001" in rule_ids(source, layer="exec")
        assert rule_ids(source, layer="gpm") == []

    def test_flt001_float_into_schedule(self):
        assert "FLT001" in rule_ids(
            "def f(sim, n):\n"
            "    sim.schedule(n / 2, callback)\n"
        )
        assert "FLT001" in rule_ids(
            "def f(sim):\n"
            "    sim.schedule_at(1.5, callback)\n"
        )

    def test_flt001_int_truncation_is_fine(self):
        assert rule_ids(
            "def f(sim, n):\n"
            "    sim.schedule(int(n / 2), callback)\n"
        ) == []

    def test_flt001_division_on_cycle_variable(self):
        assert "FLT001" in rule_ids(
            "def f(self):\n"
            "    self.busy_until /= 2\n"
        )

    def test_met001_metric_name_scheme(self):
        assert "MET001" in rule_ids(
            "def f(registry):\n"
            "    registry.counter('IOMMU.Walks')\n"
        )
        assert rule_ids(
            "def f(registry):\n"
            "    registry.counter('iommu.walks')\n"
        ) == []


# ----------------------------------------------------------------------
# Suppression: inline pragmas
# ----------------------------------------------------------------------
class TestSuppression:
    def test_disable_pragma_by_rule_id(self):
        assert rule_ids(
            "def f(acc=[]):  # lint: disable=MUT001\n    return acc\n"
        ) == []

    def test_disable_all_pragma(self):
        assert rule_ids("import time  # lint: disable=all\n") == []

    def test_allow_wallclock_pragma(self):
        assert rule_ids("import time  # lint: allow-wallclock\n") == []

    def test_pragma_only_covers_its_line(self):
        findings = rule_ids(
            "import time  # lint: allow-wallclock\n"
            "from time import perf_counter\n"
        )
        assert findings == ["WAL001"]

    def test_pragma_anywhere_on_multiline_statement(self):
        # The finding anchors on the statement's first line; the pragma
        # sits on a continuation line (the common layout once a call is
        # wrapped by a formatter).  The whole statement range counts.
        assert rule_ids(
            "def f(sim, n):\n"
            "    sim.schedule(\n"
            "        n / 2,  # lint: disable=FLT001\n"
            "        callback,\n"
            "    )\n"
        ) == []
        assert rule_ids(
            "def f(sim, n):\n"
            "    sim.schedule(  # lint: disable=FLT001\n"
            "        n / 2,\n"
            "        callback,\n"
            "    )\n"
        ) == []

    def test_multiline_pragma_does_not_blanket_compound_bodies(self):
        # A pragma on a 'for' header must not suppress findings inside
        # the loop body (only the header lines are the statement range).
        findings = rule_ids(
            "def f(sim, items):  # lint: disable=FLT001\n"
            "    for item in items:\n"
            "        sim.schedule(item / 2, callback)\n"
        )
        assert findings == ["FLT001"]


# ----------------------------------------------------------------------
# Driver: layers, tree cleanliness, CLI
# ----------------------------------------------------------------------
class TestDriver:
    def test_layer_mapping(self):
        assert layer_of("src/repro/noc/link.py") == "noc"
        assert layer_of("src/repro/units.py") == "root"
        assert layer_of("src/repro/exec/jobs.py") == "exec"
        assert layer_of("/abs/elsewhere/module.py") == "root"

    def test_shipped_tree_is_clean(self):
        findings = lint_paths([SRC_REPRO])
        assert findings == [], [f.to_dict() for f in findings]

    def test_only_the_engine_may_read_the_wall_clock(self):
        # Host wall time is attributed at dispatch, in one engine hook;
        # no simulation layer times its own code.
        pragmas = []
        for layer in ("sim", "tlb", "noc", "iommu", "faults", "gpm", "mem",
                      "core", "system"):
            for root, _dirs, files in os.walk(os.path.join(SRC_REPRO, layer)):
                for name in sorted(files):
                    if not name.endswith(".py"):
                        continue
                    path = os.path.join(root, name)
                    with open(path, encoding="utf-8") as handle:
                        if "lint: allow-wallclock" in handle.read():
                            pragmas.append(os.path.relpath(path, SRC_REPRO))
        assert pragmas == [os.path.join("sim", "engine.py")]

    def test_summarize_counts(self):
        findings = lint_source("def f(a=[], b={}):\n    return a, b\n",
                               layer="sim")
        summary = summarize(findings)
        assert summary["MUT001"] == 2
        assert summary["errors"] == 2

    def test_rules_registry_has_stable_ids(self):
        assert set(rules_by_id()) == {
            "WAL001", "RND001", "RND002", "ORD001",
            "MUT001", "PCK001", "FLT001", "MET001",
        }

    def test_syntax_error_is_reported_not_raised(self):
        findings = lint_source("def broken(:\n", layer="sim")
        assert [f.rule_id for f in findings] == ["PARSE"]


class TestCli:
    def _run(self, *args, cwd=REPO_ROOT):
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, env=env, cwd=cwd,
        )

    def test_lint_clean_tree_exits_zero(self):
        proc = self._run("lint", SRC_REPRO, "--format", "json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["findings"] == []
        assert payload["summary"]["errors"] == 0

    def test_lint_violation_exits_nonzero(self, tmp_path):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\n\ndef f(acc=[]):\n    return acc\n")
        proc = self._run("lint", str(bad), "--format", "json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert {f["rule"] for f in payload["findings"]} == {"WAL001", "MUT001"}

    def test_pragma_silences_a_finding_end_to_end(self, tmp_path):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "def f(acc=[]):  # lint: disable=MUT001 (caller-owned)\n"
            "    return acc\n"
        )
        proc = self._run("lint", str(bad), "--strict")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 error(s), 0 warning(s)" in proc.stdout
