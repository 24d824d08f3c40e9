"""Inline suppressions for the whole-program analyzer.

The analyzer shares kdd-lint's suppression grammar and engine
(:func:`repro.devtools.lint.engine.parse_suppressions`) under its own
comment tag::

    lbas = pages.astype(np.int64)  # kdd-analyze: disable=RPR302

Semantics mirror kdd-lint exactly: a suppression only applies on the
finding's own line, ``all`` waives every code, and a suppression that
suppressed nothing is itself reported as an RPR000 meta-finding — so
columnar (and any other analyzer-family) exceptions live next to the
code they excuse and rot is visible, instead of accumulating in a
baseline file.  A suppression naming a code outside
:data:`ANALYZER_CODES` — a typo, or a retired rule such as RPR201,
RPR203 or RPR303 — is reported as unknown.
"""

from __future__ import annotations

from ..lint.engine import parse_suppressions
from ..lint.findings import META_CODE, Finding
from .project import Project, finding_at

#: The comment tag the analyzer reads.
ANALYZE_TOOL = "kdd-analyze"

#: Code families, one per analysis module.  Retired codes (RPR201,
#: RPR203, RPR303) stay out for good: a rule's code is never reused.
FLOW_CODES = frozenset({f"RPR1{i:02d}" for i in range(1, 12)})
EFFECTS_CODES = frozenset({"RPR205", "RPR206", "RPR207"})
COLUMNAR_CODES = frozenset({"RPR301", "RPR302", "RPR304", "RPR305"})

#: Every code an analyzer run can emit.
ANALYZER_CODES = FLOW_CODES | EFFECTS_CODES | COLUMNAR_CODES

_ALL = "all"


def apply_suppressions(project: Project, findings: list[Finding]) -> list[Finding]:
    """Drop inline-suppressed findings; report unused suppressions."""
    by_relpath: dict[str, dict[int, list[str]]] = {}
    for mod in project.modules.values():
        sup = parse_suppressions(mod.source, tool=ANALYZE_TOOL)
        if sup:
            by_relpath[mod.relpath] = sup

    used: set[tuple[str, int, str]] = set()
    kept: list[Finding] = []
    for finding in findings:
        codes = by_relpath.get(finding.relpath, {}).get(finding.line, [])
        if finding.code in codes:
            used.add((finding.relpath, finding.line, finding.code))
        elif _ALL in codes:
            used.add((finding.relpath, finding.line, _ALL))
        else:
            kept.append(finding)

    for mod in project.modules.values():
        suppressions = by_relpath.get(mod.relpath)
        if not suppressions:
            continue
        for line in sorted(suppressions):
            codes = suppressions[line]
            if META_CODE in codes:
                continue  # explicitly waived, mirroring kdd-lint
            for code in codes:
                if (mod.relpath, line, code) in used:
                    continue
                if code != _ALL and code not in ANALYZER_CODES:
                    message = f"suppression of unknown analyzer rule {code}"
                else:
                    message = (
                        f"unused suppression of {code}: no {code} finding "
                        f"on this line"
                    )
                kept.append(finding_at(mod, line, 0, META_CODE, message))

    return sorted(kept, key=Finding.sort_key)
