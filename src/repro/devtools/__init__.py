"""Developer tooling for the repro codebase.

Nothing in this package is imported by the simulation library at run
time; it exists to keep the library honest.  Its one tool is
:mod:`repro.devtools.analyze` (``kdd-repro analyze``), a domain-specific
static analyzer that enforces the determinism, error-taxonomy,
unit-discipline, layering, effect and columnar invariants the
reproduction's byte-for-byte guarantees rest on.
"""

from __future__ import annotations
