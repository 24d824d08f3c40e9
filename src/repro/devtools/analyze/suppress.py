"""Inline suppressions for the analyzer.

A finding is waived by a comment on its own line::

    lbas = pages.astype(np.int64)  # kdd-analyze: disable=RPR302

The comment names one code, a comma list (``disable=RPR002,RPR004``) or
``all``.  A suppression that suppressed nothing is itself reported as
an RPR000 meta-finding — so exceptions live next to the code they
excuse and rot is visible.  A suppression naming a code outside
:data:`ANALYZER_CODES` — a typo, or a retired rule such as RPR007,
RPR201, RPR203 or RPR303 — is reported as unknown.
"""

from __future__ import annotations

import io
import re
import tokenize

from .project import META_CODE, Finding, Project, finding_at
from .rules import RULES

_SUPPRESS_RE = re.compile(r"#\s*kdd-analyze:\s*disable=([A-Za-z0-9,\s]+)")

#: Code families, one per analysis module.  Retired codes (RPR007,
#: RPR201, RPR203, RPR303) stay out for good: a rule's code is never
#: reused.
RULE_CODES = frozenset(rule.code for rule in RULES)
FLOW_CODES = frozenset({f"RPR1{i:02d}" for i in range(1, 12)})
EFFECTS_CODES = frozenset({"RPR205", "RPR206", "RPR207"})
COLUMNAR_CODES = frozenset({"RPR301", "RPR302", "RPR304", "RPR305"})

#: Every code an analyzer run can emit.
ANALYZER_CODES = RULE_CODES | FLOW_CODES | EFFECTS_CODES | COLUMNAR_CODES

_ALL = "all"


def parse_suppressions(source: str) -> dict[int, list[str]]:
    """Map line number -> suppressed codes, parsed from comment tokens.

    Comments are found with :mod:`tokenize` rather than substring
    matching, so a disable marker inside a string literal is not a
    suppression.  Unparseable source yields no suppressions.
    """
    out: dict[int, list[str]] = {}
    if "kdd-analyze" not in source:
        return out  # nothing to find; skip tokenizing the module
    reader = io.StringIO(source).readline
    try:
        tokens = list(tokenize.generate_tokens(reader))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if match is None:
            continue
        codes = [c.strip() for c in match.group(1).split(",")]
        out.setdefault(tok.start[0], []).extend(
            c.lower() if c.lower() == _ALL else c.upper() for c in codes if c
        )
    return out


def apply_suppressions(project: Project, findings: list[Finding]) -> list[Finding]:
    """Drop inline-suppressed findings; report unused suppressions."""
    by_relpath: dict[str, dict[int, list[str]]] = {}
    for mod in project.modules.values():
        sup = parse_suppressions(mod.source)
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
                continue  # explicitly waived, e.g. shared fixture lines
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
