"""``kdd-repro analyze`` command line.

Every run executes every analysis family; the export flags
(``--export-dot``, ``--export-json``, ``--effects-report``,
``--columnar-report``, ``--write-docs``) each add one artifact to that
single pass.  Exit codes: 0 clean, 1 findings remain after inline
suppressions, 2 usage or configuration error (a missing path, an
unparseable file).  Output (human and JSON) is byte-identical across
runs and file-discovery orders.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from ...errors import ConfigError, ReproError
from .columnar import check_columnar, columnar_report
from .deadcode import check_dead_code
from .effects import check_effects, effects_report
from .excflow import check_contracts
from .graphio import architecture_md, graph_dot, graph_json
from .layers import check_layering
from .project import Finding, Project
from .rngflow import check_rng_provenance
from .rules import check_rules
from .suppress import apply_suppressions
from .unitflow import check_units

_DEFAULT_TARGET = "src/repro"

#: Every analysis, in code order; each one gates.
_ANALYSES = (
    check_rules,
    check_layering,
    check_units,
    check_rng_provenance,
    check_contracts,
    check_dead_code,
    check_effects,
    check_columnar,
)


def analyze_project(project: Project) -> list[Finding]:
    """Run every analysis over one parsed :class:`Project`.

    Inline ``# kdd-analyze: disable=RPRnnn`` suppressions are applied
    here (with unused-suppression meta-findings), so every caller —
    CLI, CI gate, tests — sees the same post-suppression view.
    """
    findings = [f for analysis in _ANALYSES for f in analysis(project)]
    return apply_suppressions(project, findings)


def _parser() -> argparse.ArgumentParser:
    # No prefix matching: the retired --effects/--columnar would
    # otherwise abbreviate --effects-report/--columnar-report and write
    # a report over whatever path followed them.
    parser = argparse.ArgumentParser(
        prog="kdd-repro analyze",
        allow_abbrev=False,
        description="Static analysis of the repro library: determinism and "
        "error-taxonomy rules, layering contract, flow-sensitive unit/RNG "
        "taint, exception-flow verification, dead code, effect contracts "
        "(sweep races, recovery read-surface), and columnar dtype/shape "
        "contracts.",
    )
    parser.add_argument(
        "paths", nargs="*", default=None,
        help=f"files or directories to analyze (default: {_DEFAULT_TARGET})",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="output format (default %(default)s); json output is stable "
        "and byte-identical across runs",
    )
    parser.add_argument(
        "--effects-report", metavar="FILE", type=Path, default=None,
        help="write the inferred effect model (sweep entry points, "
        "reachability and cached functions) as stable JSON",
    )
    parser.add_argument(
        "--columnar-report", metavar="FILE", type=Path, default=None,
        help="write the declared columnar contract surface (@columnar "
        "declarations, hot modules) as stable JSON",
    )
    parser.add_argument(
        "--export-dot", metavar="FILE", type=Path, default=None,
        help="write the package-level import graph as Graphviz DOT",
    )
    parser.add_argument(
        "--export-json", metavar="FILE", type=Path, default=None,
        help="write the module-level import graph as JSON",
    )
    parser.add_argument(
        "--write-docs", metavar="FILE", type=Path, default=None,
        help="write the generated architecture map (docs/architecture.md)",
    )
    return parser


def _render_json(findings: list[Finding]) -> str:
    counts = Counter(f.code for f in findings)
    doc = {
        "version": 1,
        "findings": [f.to_json() for f in findings],
        "counts": dict(sorted(counts.items())),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    paths = [Path(p) for p in (args.paths or [_DEFAULT_TARGET])]
    try:
        project = Project.load(paths)
        findings = analyze_project(project)

        exports = (
            (args.export_dot, graph_dot),
            (args.export_json, graph_json),
            (args.write_docs, architecture_md),
            (args.effects_report, effects_report),
            (args.columnar_report, columnar_report),
        )
        for target, render in exports:
            if target is not None:
                try:
                    target.parent.mkdir(parents=True, exist_ok=True)
                    target.write_text(render(project), encoding="utf-8")
                except OSError as exc:
                    raise ConfigError(
                        f"cannot write report {target}: {exc}"
                    ) from exc
    except ReproError as exc:
        print(f"kdd-repro analyze: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(_render_json(findings))
    else:
        for finding in findings:
            print(finding.render())
        if findings:
            counts = Counter(f.code for f in findings)
            summary = ", ".join(f"{c}: {n}" for c, n in sorted(counts.items()))
            print(f"\n{len(findings)} finding(s) ({summary})")
        else:
            print("kdd-repro analyze: clean")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
