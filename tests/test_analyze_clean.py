"""Tier-1 gate: ``src/repro`` passes its own static analysis.

This is the executable form of the invariants in DESIGN.md §8, §10,
§12 and §15: if a change reintroduces wall-clock reads, unseeded
randomness, builtin raises, hash-ordered iteration, an upward import, a
unit conflict, a dead public symbol, etc. into ``src/repro``, this
test — and the CI lint job — fail.  Two runs must render
byte-identical output.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.analyze import Project
from repro.devtools.analyze.cli import analyze_project
from repro.devtools.analyze.deadcode import check_dead_code
from repro.devtools.analyze.graphio import architecture_md, graph_dot, graph_json

from tests.analyze_fixtures import write_fixture_tree

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


#: A fixture tree with findings (rules, RNG streams, effects, columnar
#: contracts) and non-empty reports: the real tree prints nothing, so
#: comparing its output across hash seeds would prove nothing.
HASH_SEED_TREE = {
    "contracts.py": """\
        def columnar(dtypes=None, shapes=None):
            return lambda func: func
    """,
    "sim/clock.py": """\
        def stamp():
            import time
            return time.time()

        def draw():
            import random
            return random.random()
    """,
    "faults/sched.py": """\
        import numpy as np

        def wire(flag, registry):
            if flag:
                rng = np.random.default_rng(1)
            else:
                rng = np.random.default_rng(2)
            registry["disk"] = rng
            registry["flash"] = rng
            for key in {"a", "b", "c"}:
                registry[key] = None
    """,
    "serve/composer.py": """\
        import numpy as np

        def cell(seed, epoch):
            def draw():
                return np.random.default_rng((seed, epoch)).random()
            return draw
    """,
    "traces/cols.py": """\
        import numpy as np

        from ..contracts import columnar

        @columnar({"lbas": "int64", "return": "int64"})
        def shift(lbas):
            return lbas.astype(np.int32)
    """,
    "harness/sweep.py": """\
        _SEEN = {}

        def _note(key):
            _SEEN[key] = 1

        def _execute_cell(cell):
            def fire():
                _note(cell)
            return fire
    """,
}


def test_analyzer_output_is_independent_of_the_hash_seed(tmp_path):
    root = write_fixture_tree(tmp_path / "tree", HASH_SEED_TREE)

    def run(seed):
        out = tmp_path / f"seed{seed}"
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=str(SRC_REPRO.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.harness.cli", "analyze", str(root),
             "--format", "json",
             "--effects-report", str(out / "effects.json"),
             "--columnar-report", str(out / "columnar.json"),
             "--export-json", str(out / "graph.json")],
            env=env, capture_output=True, text=True, check=False,
            timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        return [proc.stdout] + [
            (out / name).read_text(encoding="utf-8")
            for name in ("effects.json", "columnar.json", "graph.json")
        ]

    first, second = run(1), run(9)
    codes = json.loads(first[0])["counts"]
    assert {"RPR001", "RPR002", "RPR105", "RPR111"} <= set(codes)
    assert first == second
