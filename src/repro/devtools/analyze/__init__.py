"""Whole-program static analysis for the repro codebase.

Where :mod:`repro.devtools.lint` checks one file at a time, this
package parses all of ``src/repro`` once into a :class:`Project`
(module set + import graph + cross-module symbol table) and runs five
analyses whose invariants only exist *between* modules:

=========  ============================================================
RPR101     module-level import cycle
RPR102     package layering violation (lower layer imports upward)
RPR103     ownership edge rule (``engine.core`` is engine-internal)
RPR104     flow-sensitive unit taint (bytes/pages/ms/seconds mixing)
RPR105     RNG stream flows into more than one owner
RPR106     RNG stream constructed with module-global lifetime
RPR107     reachable taxonomy raise missing from a declared contract
RPR108     raising public sim/engine/faults entry point lacks contract
RPR109     imported name never used
RPR110     dead public symbol (opt-in, ``--dead-code``)
RPR111     serve-layer RNG stream seed is not sha256-derived
RPR205     sweep-worker-reachable code mutates module-level state
RPR206     ``lru_cache`` on sweep-worker-reachable code (unallowlisted)
RPR207     power-failure recovery reads outside the crash-surviving surface
RPR301     index column leaves int64 (dtype-flow taint / @columnar breach)
RPR302     unsafe cast (float truncation / unit-carrying narrow)
RPR304     boolean-mask misuse (``and``/``or``, chained fancy assignment)
RPR305     scalar loop over an ndarray in a hot module
=========  ============================================================

RPR201, RPR203 and RPR303 guarded the ``CacheSets`` int64 mirror of
its residency index; they were retired with the mirror and their codes
are not reused.

The analyzer is held to the determinism bar it enforces: findings and
every export (JSON, DOT, the generated architecture map) are invariant
under file-discovery order.  Shared finding/baseline machinery comes
from :mod:`repro.devtools.lint`, and inline suppressions use the shared
``# kdd-analyze: disable=RPRnnn`` grammar
(:mod:`repro.devtools.analyze.suppress`).
"""

from __future__ import annotations

from .columnar import ColumnarAnalysis, check_columnar, columnar_report
from .deadcode import check_dead_public, check_unused_imports
from .effects import EffectAnalysis, check_effects, effects_report
from .excflow import ExceptionFlow, check_contracts
from .graphio import architecture_md, graph_dot, graph_json
from .layers import DEFAULT_LAYERS, LayerSpec, check_layering
from .project import ImportEdge, ModuleInfo, Project
from .rngflow import check_rng_provenance
from .suppress import ANALYZER_CODES, apply_suppressions
from .unitflow import check_units

__all__ = [
    "ANALYZER_CODES",
    "ColumnarAnalysis",
    "DEFAULT_LAYERS",
    "EffectAnalysis",
    "ExceptionFlow",
    "ImportEdge",
    "LayerSpec",
    "ModuleInfo",
    "Project",
    "apply_suppressions",
    "architecture_md",
    "check_columnar",
    "check_contracts",
    "check_dead_public",
    "check_effects",
    "check_layering",
    "check_rng_provenance",
    "check_units",
    "check_unused_imports",
    "columnar_report",
    "effects_report",
    "graph_dot",
    "graph_json",
]
