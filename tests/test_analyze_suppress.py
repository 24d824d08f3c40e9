"""Inline suppressions and the analyzer CLI surface.

The analyzer reads ``# kdd-analyze: disable=...`` comments
(:func:`repro.devtools.analyze.suppress.parse_suppressions`).  These
tests pin the grammar, the unused-suppression meta-findings, the
unknown-rule report for retired codes, and the CLI exit discipline for
the report-export flags.
"""

import json
from pathlib import Path

from repro.devtools.analyze.cli import main as analyze_main
from repro.devtools.analyze.columnar import check_columnar
from repro.devtools.analyze.suppress import (
    ANALYZER_CODES,
    COLUMNAR_CODES,
    EFFECTS_CODES,
    FLOW_CODES,
    RULE_CODES,
    apply_suppressions,
    parse_suppressions,
)

from tests.analyze_fixtures import write_fixture_tree

SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"


def codes(findings):
    return sorted(f.code for f in findings)


class TestSharedGrammar:
    def test_comma_lists_and_all_parse_identically(self):
        source = "x = 1  # kdd-analyze: disable=RPR301, RPR304\ny = 2  # kdd-analyze: disable=all\n"
        sup = parse_suppressions(source)
        assert sup == {1: ["RPR301", "RPR304"], 2: ["all"]}

    def test_marker_inside_string_literal_is_not_a_suppression(self):
        source = 's = "# kdd-analyze: disable=RPR301"\n'
        assert parse_suppressions(source) == {}


class TestAnalyzerSuppressions:
    def test_suppressed_finding_is_dropped(self, analyze_tree):
        project = analyze_tree({
            "core/flow.py": """\
                import numpy as np

                def compact(lbas: np.ndarray):
                    return lbas.astype(np.int32)  # kdd-analyze: disable=RPR301
            """,
        })
        raw = check_columnar(project)
        assert codes(raw) == ["RPR301"]
        assert apply_suppressions(project, raw) == []

    def test_disable_all_waives_the_line(self, analyze_tree):
        project = analyze_tree({
            "core/flow.py": """\
                import numpy as np

                def compact(lbas: np.ndarray):
                    return lbas.astype(np.int32)  # kdd-analyze: disable=all
            """,
        })
        assert apply_suppressions(project, check_columnar(project)) == []

    def test_unused_suppression_is_reported(self, analyze_tree):
        project = analyze_tree({
            "core/flow.py": """\
                import numpy as np

                def widen(lbas: np.ndarray):
                    return lbas.astype(np.uint64)  # kdd-analyze: disable=RPR302
            """,
        })
        findings = apply_suppressions(project, check_columnar(project))
        assert codes(findings) == ["RPR000"]
        assert "unused suppression of RPR302" in findings[0].message

    def test_unknown_rule_is_reported(self, analyze_tree):
        project = analyze_tree({
            "core/flow.py": """\
                x = 1  # kdd-analyze: disable=RPR999
            """,
        })
        findings = apply_suppressions(project, [])
        assert codes(findings) == ["RPR000"]
        assert "unknown analyzer rule RPR999" in findings[0].message

    def test_retired_codes_are_unknown_rules(self, analyze_tree):
        # RPR201, RPR203 and RPR303 left with the CacheSets mirror, and
        # RPR007 left behind RPR104; a leftover suppression of one is a
        # typo-class finding.
        project = analyze_tree({
            "core/flow.py": """\
                x = 1  # kdd-analyze: disable=RPR303
                y = 2  # kdd-analyze: disable=RPR201, RPR203
                z = 3  # kdd-analyze: disable=RPR007
            """,
        })
        findings = apply_suppressions(project, [])
        assert codes(findings) == ["RPR000"] * 4
        assert [f.message for f in findings] == [
            f"suppression of unknown analyzer rule {code}"
            for code in ("RPR303", "RPR201", "RPR203", "RPR007")
        ]

    def test_code_families_partition_the_rule_space(self):
        families = [RULE_CODES, FLOW_CODES, EFFECTS_CODES, COLUMNAR_CODES]
        assert sum(map(len, families)) == len(ANALYZER_CODES)
        assert ANALYZER_CODES == frozenset().union(*families)
        assert ANALYZER_CODES == {
            *(f"RPR00{i}" for i in (1, 2, 3, 4, 5, 6, 8, 9)),
            *(f"RPR1{i:02d}" for i in range(1, 12)),
            "RPR205", "RPR206", "RPR207",
            "RPR301", "RPR302", "RPR304", "RPR305",
        }

    def test_real_tree_has_no_unused_analyzer_suppressions(self):
        # Every inline analyzer exception in src/repro must still be
        # load-bearing; rot shows up here instead of in a baseline.
        from repro.devtools.analyze import Project

        project = Project.load([SRC_REPRO])
        findings = apply_suppressions(project, check_columnar(project))
        assert [f for f in findings if f.code == "RPR000"] == []


class TestColumnarCli:
    def _violating_tree(self, tmp_path):
        # One columnar violation plus two flow violations (an unused
        # import, an unreferenced public function): a run reports both
        # families.
        return write_fixture_tree(tmp_path, {
            "core/flow.py": """\
                import json
                import numpy as np

                def compact(lbas: np.ndarray):
                    return lbas.astype(np.int32)
            """,
        })

    def test_default_run_includes_both_families(self, tmp_path, capsys):
        root = self._violating_tree(tmp_path)
        rc = analyze_main(["--format", "json", str(root)])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["counts"]) == {"RPR109", "RPR110", "RPR301"}

    def test_columnar_report_export(self, tmp_path, capsys):
        target = tmp_path / "columnar-report.json"
        rc = analyze_main(
            ["--columnar-report", str(target), str(SRC_REPRO)]
        )
        assert rc == 0
        doc = json.loads(target.read_text(encoding="utf-8"))
        assert doc["version"] == 1
        assert sorted(doc["rules"]) == \
            ["RPR301", "RPR302", "RPR304", "RPR305"]
        assert doc["declarations"]

    def test_unwritable_columnar_report_exits_2(self, tmp_path, capsys):
        # A path whose parent is a regular file cannot be created; the
        # CLI must fail with a ConfigError naming the path — exit 2,
        # no traceback.
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        target = blocker / "columnar-report.json"
        rc = analyze_main(["--columnar-report", str(target), str(SRC_REPRO)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"cannot write report {target}" in err
        assert "Traceback" not in err

    def test_unwritable_effects_report_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        target = blocker / "effects-report.json"
        rc = analyze_main(["--effects-report", str(target), str(SRC_REPRO)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"cannot write report {target}" in err
        assert "Traceback" not in err
