"""Tier-1 gate: ``src/repro`` passes its own static analysis.

This is the executable form of the invariants in DESIGN.md §8, §10,
§12 and §15: if a change reintroduces wall-clock reads, unseeded
randomness, builtin raises, hash-ordered iteration, an upward import, a
unit conflict, a dead public symbol, etc. into ``src/repro``, this
test — and the CI lint job — fail.  Two runs must render
byte-identical output.
"""

import json
from pathlib import Path

import pytest

from repro.devtools.analyze import Project
from repro.devtools.analyze.cli import analyze_project
from repro.devtools.analyze.deadcode import check_dead_code
from repro.devtools.analyze.graphio import architecture_md, graph_dot, graph_json

SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"


@pytest.fixture(scope="module")
def project():
    return Project.load([SRC_REPRO])


def test_src_repro_is_analyze_clean(project):
    findings = analyze_project(project)
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"kdd-repro analyze findings:\n{rendered}"


def test_src_repro_has_no_dead_public_symbols(project):
    # RPR110 runs in the default pass above; this names its failures.
    findings = [f for f in check_dead_code(project) if f.code == "RPR110"]
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"dead-code findings:\n{rendered}"


def test_output_is_byte_identical_across_runs(project):
    def render(proj):
        findings = analyze_project(proj)
        return (
            json.dumps([f.to_json() for f in findings], sort_keys=True)
            + graph_json(proj) + graph_dot(proj) + architecture_md(proj)
        )

    assert render(project) == render(Project.load([SRC_REPRO]))


def test_architecture_doc_is_current(project):
    """docs/architecture.md is generated; regenerate it when the import
    graph changes: kdd-repro analyze --write-docs docs/architecture.md"""
    doc = SRC_REPRO.parent.parent / "docs" / "architecture.md"
    assert doc.read_text(encoding="utf-8") == architecture_md(project)
