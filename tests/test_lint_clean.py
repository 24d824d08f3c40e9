"""Tier-1 gate: ``src/repro`` passes the per-module rules.

RPR001–006, RPR008 and RPR009 (:mod:`repro.devtools.analyze.rules`)
are the executable form of the determinism and error-taxonomy
invariants in DESIGN.md §8: if a change reintroduces wall-clock reads,
unseeded randomness, builtin raises, hash-ordered iteration, etc. into
``src/repro``, this test — and the CI lint job — fail.  The rules'
output must not depend on the run or on the order files are found in.
"""

import json
from pathlib import Path

import pytest

from repro.devtools.analyze import Project
from repro.devtools.analyze.cli import main as analyze_main
from repro.devtools.analyze.rules import check_rules
from repro.devtools.analyze.suppress import apply_suppressions

from tests.analyze_fixtures import write_fixture_tree

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Per-module violations spread over several files, so ordering and
#: rendering have something to get wrong.
VIOLATIONS = {
    "core/legacy.py": (
        "import random\n\n"
        "def pick(items=[]):\n"
        "    for x in set(items):\n"
        "        raise ValueError(random.random())\n"
    ),
    "sim/clock.py": "import time\n\ndef now():\n    return time.time()\n",
    "engine/loop.py": "def drain(q):\n    for k in {1, 2}:\n        q.pop(k)\n",
}


@pytest.fixture(scope="module")
def violations(tmp_path_factory):
    return write_fixture_tree(tmp_path_factory.mktemp("lint"), VIOLATIONS)


def rule_findings(project):
    return apply_suppressions(project, check_rules(project))


def test_src_repro_exists():
    assert SRC.is_dir(), f"expected library sources at {SRC}"


def test_src_repro_is_lint_clean():
    findings = rule_findings(Project.load([SRC]))
    rendered = "\n".join(f.render() for f in findings)
    assert not findings, f"per-module rule findings in src/repro:\n{rendered}"


def test_cli_on_src_repro_exits_zero(capsys):
    assert analyze_main([str(SRC), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["findings"] == [] and doc["counts"] == {}


def test_json_output_byte_identical_across_runs(violations, capsys):
    assert analyze_main([str(violations), "--format", "json"]) == 1
    first = capsys.readouterr().out
    assert analyze_main([str(violations), "--format", "json"]) == 1
    second = capsys.readouterr().out
    assert first == second
    assert {"RPR001", "RPR002"} <= set(json.loads(first)["counts"])


def test_file_order_does_not_affect_output(violations):
    forward = rule_findings(Project.load([violations]))
    pieces = sorted(violations.rglob("*.py"), reverse=True)
    backward = rule_findings(Project.load(pieces))
    assert forward and forward == backward
    assert len({f.relpath for f in forward}) == len(VIOLATIONS)
