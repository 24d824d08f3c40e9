"""Static analysis for the repro codebase (``kdd-repro analyze``).

This package parses all of ``src/repro`` once into a :class:`Project`
(module set + import graph + cross-module symbol table) and runs every
analysis over that one model — the per-module determinism and taxonomy
rules as well as the whole-program analyses whose invariants only
exist *between* modules:

=========  ============================================================
RPR001     unseeded or global randomness in library code
RPR002     wall-clock reads inside simulation modules
RPR003     builtin exceptions raised instead of the repro.errors taxonomy
RPR004     iteration over sets without ``sorted()`` (hash-order hazard)
RPR005     float ``==`` / ``!=`` comparisons in stats/, sim/ and engine/
RPR006     mutable default arguments
RPR008     naked ``except Exception`` swallowing the error taxonomy
RPR009     simulated-clock arithmetic outside ``repro/engine/``
RPR101     module-level import cycle
RPR102     package layering violation (lower layer imports upward)
RPR103     ownership edge rule (``engine.core`` is engine-internal)
RPR104     flow-sensitive unit taint (bytes/pages/ms/seconds mixing)
RPR105     RNG stream flows into more than one owner
RPR106     RNG stream constructed with module-global lifetime
RPR107     reachable taxonomy raise missing from a declared contract
RPR108     raising public sim/engine/faults/serve entry point lacks contract
RPR109     imported name never used
RPR110     dead public symbol
RPR111     serve-layer RNG stream seed is not sha256-derived
RPR205     sweep-worker-reachable code mutates module-level state
RPR206     ``lru_cache`` on sweep-worker-reachable code (unallowlisted)
RPR207     power-failure recovery reads outside the crash-surviving surface
RPR301     index column leaves int64 (dtype-flow taint / @columnar breach)
RPR302     unsafe cast (float truncation / unit-carrying narrow)
RPR304     boolean-mask misuse (``and``/``or``, chained fancy assignment)
RPR305     scalar loop over an ndarray in a hot module
=========  ============================================================

RPR007 (lexical bytes/pages mixing) retired once RPR104 saw every
expression it saw; RPR201, RPR203 and RPR303 guarded the ``CacheSets``
int64 mirror of its residency index and were retired with the mirror.
Retired codes are not reused.

The analyzer is held to the determinism bar it enforces: findings and
every export (JSON, DOT, the generated architecture map) are invariant
under file-discovery order.  Inline suppressions use the
``# kdd-analyze: disable=RPRnnn`` grammar
(:mod:`repro.devtools.analyze.suppress`).
"""

from __future__ import annotations

from .columnar import ColumnarAnalysis, check_columnar, columnar_report
from .deadcode import check_dead_code
from .effects import EffectAnalysis, check_effects, effects_report
from .excflow import ExceptionFlow, check_contracts
from .graphio import architecture_md, graph_dot, graph_json
from .layers import DEFAULT_LAYERS, LayerSpec, check_layering
from .project import Finding, ImportEdge, ModuleInfo, Project
from .rngflow import check_rng_provenance
from .rules import check_rules
from .suppress import ANALYZER_CODES, apply_suppressions
from .unitflow import check_units

__all__ = [
    "ANALYZER_CODES",
    "ColumnarAnalysis",
    "DEFAULT_LAYERS",
    "EffectAnalysis",
    "ExceptionFlow",
    "Finding",
    "ImportEdge",
    "LayerSpec",
    "ModuleInfo",
    "Project",
    "apply_suppressions",
    "architecture_md",
    "check_columnar",
    "check_contracts",
    "check_dead_code",
    "check_effects",
    "check_layering",
    "check_rng_provenance",
    "check_rules",
    "check_units",
    "columnar_report",
    "effects_report",
    "graph_dot",
    "graph_json",
]
