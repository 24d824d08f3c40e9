"""Import graph, layering contract, and analyzer determinism.

Covers the project loader (edge kinds, relative-import resolution),
the RPR101/102/103 layering analyses on fixture trees, the CLI exit
codes, and the hypothesis property that findings are byte-identical
under shuffled file discovery order.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests.analyze_fixtures import write_fixture_tree
from repro.devtools.analyze import Project, check_layering
from repro.devtools.analyze.cli import analyze_project
from repro.devtools.analyze.cli import main as analyze_main
from repro.devtools.analyze.graphio import graph_dot, graph_json
from repro.devtools.analyze.project import EDGE_DEFERRED, EDGE_TOP, EDGE_TYPING

SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"


def codes(findings):
    return sorted({f.code for f in findings})


class TestProjectLoader:
    def test_module_naming_and_packages(self, analyze_tree):
        project = analyze_tree({
            "units.py": "KIB = 1024\n",
            "sim/api.py": "from ..units import KIB\n",
        })
        assert "repro" in project.modules
        assert "repro.units" in project.modules
        assert "repro.sim.api" in project.modules
        assert project.modules["repro.sim.api"].top_package == "sim"
        assert project.modules["repro.units"].top_package == "units"

    def test_edge_kinds(self, analyze_tree):
        project = analyze_tree({
            "units.py": "KIB = 1024\n",
            "stats/a.py": "x = 1\n",
            "sim/api.py": """\
                from typing import TYPE_CHECKING

                from ..units import KIB

                if TYPE_CHECKING:
                    from ..stats.a import x

                def f():
                    from ..stats import a
                    return a
            """,
        })
        kinds = {(e.dst, e.kind) for e in project.edges
                 if e.src == "repro.sim.api"}
        assert ("repro.units", EDGE_TOP) in kinds
        assert ("repro.stats.a", EDGE_TYPING) in kinds
        assert ("repro.stats.a", EDGE_DEFERRED) in kinds

    def test_relative_import_resolution(self, analyze_tree):
        project = analyze_tree({
            "sim/a.py": "from .b import helper\n",
            "sim/b.py": "def helper():\n    return 1\n",
        })
        edge = [e for e in project.edges if e.src == "repro.sim.a"]
        assert edge and edge[0].dst == "repro.sim.b"
        assert edge[0].symbol == "helper"


class TestLayering:
    def test_clean_tree_has_no_findings(self, analyze_tree):
        project = analyze_tree({
            "units.py": "KIB = 1024\n",
            "sim/api.py": "from ..units import KIB\n",
            "harness/run.py": "from ..sim.api import KIB\n",
        })
        assert check_layering(project) == []

    def test_import_cycle_is_rpr101(self, analyze_tree):
        project = analyze_tree({
            "sim/a.py": "from .b import g\n\ndef f():\n    return g\n",
            "sim/b.py": "from .a import f\n\ndef g():\n    return f\n",
        })
        findings = check_layering(project)
        assert codes(findings) == ["RPR101"]
        assert "repro.sim.a -> repro.sim.b" in findings[0].message or \
            "repro.sim.b -> repro.sim.a" in findings[0].message

    def test_deferred_import_breaks_no_cycle(self, analyze_tree):
        project = analyze_tree({
            "sim/a.py": "from .b import g\n\ndef f():\n    return g\n",
            "sim/b.py": "def g():\n    from .a import f\n    return f\n",
        })
        assert [f for f in check_layering(project) if f.code == "RPR101"] == []

    def test_upward_import_is_rpr102(self, analyze_tree):
        project = analyze_tree({
            "harness/runner.py": "def build():\n    return 1\n",
            "faults/exp.py": "from ..harness.runner import build\n",
        })
        findings = check_layering(project)
        assert codes(findings) == ["RPR102"]
        assert "simulation" in findings[0].message
        assert "application" in findings[0].message

    def test_deferred_upward_import_still_rpr102(self, analyze_tree):
        project = analyze_tree({
            "harness/runner.py": "def build():\n    return 1\n",
            "sim/api.py": """\
                def f():
                    from ..harness.runner import build
                    return build()
            """,
        })
        assert codes(check_layering(project)) == ["RPR102"]

    def test_typing_only_upward_import_is_exempt(self, analyze_tree):
        project = analyze_tree({
            "harness/runner.py": "class Runner:\n    pass\n",
            "sim/api.py": """\
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from ..harness.runner import Runner

                def f(r: "Runner") -> None:
                    pass
            """,
        })
        assert check_layering(project) == []

    def test_engine_core_ownership_is_rpr103(self, analyze_tree):
        project = analyze_tree({
            "engine/core.py": "class EventLoop:\n    pass\n",
            "engine/system.py": "from .core import EventLoop\n",
            "sim/api.py": "from ..engine.core import EventLoop\n",
        })
        findings = check_layering(project)
        assert codes(findings) == ["RPR103"]
        assert findings[0].relpath == "sim/api.py"
        assert "single clock owner" in findings[0].message


class TestGraphExport:
    def test_json_and_dot_are_stable(self, analyze_tree):
        project = analyze_tree({
            "units.py": "KIB = 1024\n",
            "sim/api.py": "from ..units import KIB\n",
        })
        doc = json.loads(graph_json(project))
        names = [m["name"] for m in doc["modules"]]
        assert names == sorted(names)
        assert any(e["src"] == "repro.sim.api" and e["dst"] == "repro.units"
                   for e in doc["edges"])
        dot = graph_dot(project)
        assert dot.startswith("// Generated")
        assert '"sim" -> "units"' in dot


class TestCli:
    def test_clean_fixture_exits_zero(self, tmp_path, capsys):
        pkg = write_fixture_tree(tmp_path, {
            "units.py": "KIB = 1024\n",
            "sim/api.py": "from ..units import KIB\n\n"
                          "__all__ = ['CHUNK']\n\nCHUNK = 4 * KIB\n",
        })
        assert analyze_main([str(pkg)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cycle_fixture_exits_nonzero_with_stable_code(
            self, tmp_path, capsys):
        pkg = write_fixture_tree(tmp_path, {
            "sim/a.py": "from .b import g\n\ndef f():\n    return g\n",
            "sim/b.py": "from .a import f\n\ndef g():\n    return f\n",
        })
        assert analyze_main([str(pkg), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["counts"]) == ["RPR101"]

    def test_kdd_repro_subcommand_delegation(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro.harness.cli", "analyze",
             str(SRC_REPRO), "--format", "json"],
            capture_output=True, text=True,
            cwd=str(SRC_REPRO.parent.parent),
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["findings"] == []

    def test_effects_report_export(self, tmp_path, capsys):
        report = tmp_path / "effects-report.json"
        assert analyze_main([str(SRC_REPRO),
                             "--effects-report", str(report)]) == 0
        assert "clean" in capsys.readouterr().out
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert "repro.harness.sweep:_execute_cell" in \
            doc["sweep"]["entry_points"]
        assert "membership" not in doc

    def test_kdd_repro_analyze_effects_smoke(self, tmp_path):
        # The CI lint invocation: one pass runs every family (effects
        # included) and writes all four artifacts.
        reports = {
            "--export-dot": tmp_path / "import-graph.dot",
            "--export-json": tmp_path / "import-graph.json",
            "--effects-report": tmp_path / "effects-report.json",
            "--columnar-report": tmp_path / "columnar-report.json",
        }
        flags = [str(arg) for pair in reports.items() for arg in pair]
        out = subprocess.run(
            [sys.executable, "-m", "repro.harness.cli", "analyze",
             str(SRC_REPRO), "--format", "json", *flags],
            capture_output=True, text=True,
            cwd=str(SRC_REPRO.parent.parent),
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["findings"] == []
        assert all(path.stat().st_size > 0 for path in reports.values())

    def test_family_filter_flags_are_gone(self, capsys):
        # Every run executes all families, with no baseline to filter
        # them.  The retired flags must be rejected, not parsed as
        # abbreviations of the report flags.
        for flag in ("--effects", "--columnar", "--baseline",
                     "--update-baseline", "--dead-code"):
            with pytest.raises(SystemExit) as exc:
                analyze_main([str(SRC_REPRO), flag])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in \
                capsys.readouterr().err


DETERMINISM_FILES = {
    "units.py": "KIB = 1024\n",
    "harness/runner.py": "def build():\n    return 1\n",
    "faults/exp.py": "from ..harness.runner import build\n",
    "sim/a.py": "from .b import g\n\ndef f():\n    return g\n",
    "sim/b.py": "from .a import f\n\ndef g():\n    return f\n",
    "engine/core.py": "class EventLoop:\n    pass\n",
    "sim/clock.py": "from ..engine.core import EventLoop\n",
    # per-module rule violations: RPR001, RPR003, RPR004, RPR006
    "core/legacy.py": (
        "import random\n\n"
        "def pick(items=[]):\n"
        "    for x in set(items):\n"
        "        raise ValueError(random.random())\n"
    ),
}


@pytest.fixture(scope="module")
def determinism_pkg(tmp_path_factory):
    return write_fixture_tree(tmp_path_factory.mktemp("det"),
                              DETERMINISM_FILES)


class TestDeterminism:
    def render(self, project):
        findings = analyze_project(project)
        return json.dumps(
            [f.to_json() for f in findings], sort_keys=True
        ) + graph_json(project) + graph_dot(project)

    @given(rng=st.randoms(use_true_random=False))
    def test_findings_invariant_under_discovery_order(
            self, rng, determinism_pkg):
        files = sorted(p for p in determinism_pkg.rglob("*.py"))
        baseline = self.render(Project.load([determinism_pkg]))
        shuffled = list(files)
        rng.shuffle(shuffled)
        assert self.render(Project.load(shuffled)) == baseline
