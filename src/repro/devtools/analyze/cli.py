"""``kdd-repro analyze`` command line.

Every run executes every gating analysis family; the export flags
(``--export-dot``, ``--export-json``, ``--effects-report``,
``--columnar-report``, ``--write-docs``) each add one artifact to that
single pass.  Exit codes mirror kdd-lint: 0 clean, 1 findings remain
after the baseline, 2 usage or configuration error.  Output (human and
JSON) is byte-identical across runs and file-discovery orders.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from ...errors import ConfigError, ReproError
from ..lint.baseline import apply_baseline, load_baseline, write_baseline
from ..lint.findings import Finding
from .columnar import check_columnar, columnar_report
from .deadcode import check_dead_public, check_unused_imports
from .effects import check_effects, effects_report
from .excflow import check_contracts
from .graphio import architecture_md, graph_dot, graph_json
from .layers import check_layering
from .project import Project
from .rngflow import check_rng_provenance
from .suppress import apply_suppressions
from .unitflow import check_units

_DEFAULT_TARGET = "src/repro"

#: Gating analyses, in code order.  RPR110 (dead public symbols) is
#: report-only and opt-in via --dead-code.
_ANALYSES = (
    check_layering,
    check_units,
    check_rng_provenance,
    check_contracts,
    check_unused_imports,
    check_effects,
    check_columnar,
)


def analyze_project(project: Project, dead_code: bool = False) -> list[Finding]:
    """Run every gating analysis over one parsed :class:`Project`.

    Inline ``# kdd-analyze: disable=RPRnnn`` suppressions are applied
    here (with unused-suppression meta-findings), so every caller —
    CLI, CI gate, tests — sees the same post-suppression view.
    """
    findings: list[Finding] = []
    for analysis in _ANALYSES:
        findings.extend(analysis(project))
    if dead_code:
        findings.extend(check_dead_public(project))
    findings = apply_suppressions(project, findings)
    return sorted(findings, key=Finding.sort_key)


def _parser() -> argparse.ArgumentParser:
    # No prefix matching: the retired --effects/--columnar would
    # otherwise abbreviate --effects-report/--columnar-report and write
    # a report over whatever path followed them.
    parser = argparse.ArgumentParser(
        prog="kdd-repro analyze",
        allow_abbrev=False,
        description="Whole-program static analysis: layering contract, "
        "flow-sensitive unit/RNG taint, exception-flow verification, "
        "effect contracts (sweep races, recovery read-surface), and "
        "columnar dtype/shape contracts.",
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
        "--baseline", metavar="FILE", type=Path, default=None,
        help="JSON baseline of grandfathered findings to ignore "
        "(kdd-lint baseline format)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite --baseline to cover all current findings, then exit 0",
    )
    parser.add_argument(
        "--dead-code", action="store_true",
        help="also report dead public symbols (RPR110, report-only)",
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
    if args.update_baseline and args.baseline is None:
        print("kdd-repro analyze: --update-baseline requires --baseline",
              file=sys.stderr)
        return 2

    paths = [Path(p) for p in (args.paths or [_DEFAULT_TARGET])]
    try:
        project = Project.load(paths)
        findings = analyze_project(project, dead_code=args.dead_code)

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

        if args.update_baseline:
            count = write_baseline(args.baseline, findings)
            print(
                f"kdd-repro analyze: wrote {count} fingerprint(s) to "
                f"{args.baseline}",
                file=sys.stderr,
            )
            return 0

        stale = 0
        if args.baseline is not None:
            findings, stale = apply_baseline(
                findings, load_baseline(args.baseline))
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
    if stale:
        print(
            f"kdd-repro analyze: {stale} stale baseline "
            f"entr{'y' if stale == 1 else 'ies'} (fixed findings); "
            "regenerate with --update-baseline",
            file=sys.stderr,
        )
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
