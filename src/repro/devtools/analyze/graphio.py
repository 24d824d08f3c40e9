"""Import-graph export: JSON, Graphviz DOT, and docs/architecture.md.

All three renderings are pure functions of a :class:`Project` and emit
sorted, byte-stable output — the JSON artifact is diffable across CI
runs and the architecture doc is regenerated (never hand-edited) with
``kdd-repro analyze --write-docs docs/architecture.md``.
"""

from __future__ import annotations

import json

from .layers import DEFAULT_LAYERS, OWNERSHIP, LayerSpec
from .project import EDGE_TOP, Project

_LAYER_COLORS = {
    "foundation": "#dbeafe",
    "data": "#dcfce7",
    "devices": "#fef9c3",
    "simulation": "#fee2e2",
    "application": "#f3e8ff",
}


def _layer_name(spec: LayerSpec, top_package: str) -> str:
    idx = spec.index_of(top_package)
    return spec.name_of(idx) if idx is not None else "unlayered"


def graph_json(project: Project, spec: LayerSpec = DEFAULT_LAYERS) -> str:
    """Full-fidelity module graph as stable JSON."""
    modules = [
        {
            "layer": _layer_name(spec, mod.top_package),
            "name": mod.name,
            "package": mod.top_package or "repro",
            "relpath": mod.relpath,
        }
        for mod in project.modules.values()
    ]
    edges = [
        {
            "dst": edge.dst,
            "kind": edge.kind,
            "line": edge.line,
            "src": edge.src,
            "symbol": edge.symbol,
        }
        for edge in project.edges
    ]
    doc = {"version": 1, "modules": modules, "edges": edges}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _package_edges(
    project: Project,
) -> dict[tuple[str, str], set[str]]:
    """Aggregate module edges to top-package edges with their kinds."""
    out: dict[tuple[str, str], set[str]] = {}
    for edge in project.edges:
        src = project.modules[edge.src].top_package or "repro"
        dst = project.modules[edge.dst].top_package or "repro"
        if src == dst:
            continue
        out.setdefault((src, dst), set()).add(edge.kind)
    return out


def graph_dot(project: Project, spec: LayerSpec = DEFAULT_LAYERS) -> str:
    """Package-level digraph, clustered by layer, for Graphviz.

    Package granularity keeps the rendering legible; the JSON export
    carries the full module-level graph.
    """
    packages = sorted({mod.top_package or "repro"
                       for mod in project.modules.values()})
    by_layer: dict[str, list[str]] = {}
    for pkg in packages:
        key = "repro" if pkg == "repro" else pkg
        layer = _layer_name(spec, "" if pkg == "repro" else pkg)
        by_layer.setdefault(layer, []).append(key)

    lines = [
        "// Generated by `kdd-repro analyze --export-dot`; do not edit.",
        "digraph repro {",
        "  rankdir=BT;",
        "  node [shape=box, style=filled, fontname=\"Helvetica\"];",
    ]
    for idx, (layer, _) in enumerate(spec.layers):
        members = by_layer.get(layer, [])
        if not members:
            continue
        color = _LAYER_COLORS.get(layer, "#eeeeee")
        lines.append(f"  subgraph cluster_{idx} {{")
        lines.append(f"    label=\"{layer}\";")
        for pkg in sorted(members):
            lines.append(f"    \"{pkg}\" [fillcolor=\"{color}\"];")
        lines.append("  }")
    for layer in sorted(set(by_layer) - {name for name, _ in spec.layers}):
        for pkg in sorted(by_layer[layer]):
            lines.append(f"  \"{pkg}\" [fillcolor=\"#eeeeee\"];")
    for (src, dst), kinds in sorted(_package_edges(project).items()):
        style = "solid" if EDGE_TOP in kinds else "dashed"
        lines.append(f"  \"{src}\" -> \"{dst}\" [style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def architecture_md(project: Project,
                    spec: LayerSpec = DEFAULT_LAYERS) -> str:
    """The layer map rendered as markdown (docs/architecture.md)."""
    pkg_edges = _package_edges(project)
    lines = [
        "# Architecture: layers and import contract",
        "",
        "<!-- Generated by `kdd-repro analyze --write-docs`; do not edit"
        " by hand. -->",
        "",
        "A package may import its own layer or any layer below it, never",
        "above (`kdd-repro analyze` finding RPR102); module-level import",
        "cycles are forbidden outright (RPR101).  Dashed edges in the DOT",
        "export are deferred (function-body) or typing-only imports.",
        "",
        "## Layers (top imports down)",
        "",
        "| Layer | Packages | Role |",
        "|---|---|---|",
    ]
    roles = {
        "application": "CLI, sweep harness, devtools (static analysis)",
        "simulation": "event engine, timed systems, fault injection",
        "devices": "disk/flash/NVRAM models, RAID, caches, KDD core",
        "data": "trace parsing, delta codec, summary statistics",
        "foundation": "error taxonomy and unit helpers",
    }
    for name, packages in reversed(spec.layers):
        shown = ", ".join(f"`{p}`" if p else "`repro` (root)"
                          for p in packages)
        lines.append(f"| {name} | {shown} | {roles.get(name, '')} |")
    lines += [
        "",
        "## Ownership rules",
        "",
    ]
    for owned, owner in OWNERSHIP:
        lines.append(
            f"- `{owned}` is internal to `{owner}` (RPR103): the event loop"
            " is the single clock owner; everything else goes through the"
            f" `{owner}` facade."
        )
    lines += [
        "- `harness` is never imported by simulation code: it lives in the"
        " application layer, so any `sim`/`engine`/`faults` import of it"
        " is an RPR102 layer violation.",
        "",
        "## Package imports (observed)",
        "",
        "| Package | Imports |",
        "|---|---|",
    ]
    by_src: dict[str, list[str]] = {}
    for (src, dst), kinds in sorted(pkg_edges.items()):
        suffix = "" if EDGE_TOP in kinds else " *(deferred/typing)*"
        by_src.setdefault(src, []).append(f"`{dst}`{suffix}")
    for src in sorted(by_src):
        lines.append(f"| `{src}` | {', '.join(by_src[src])} |")
    lines += [
        "",
        "## Exception contracts",
        "",
        "Public `sim`/`engine`/`faults` entry points declare their",
        "may-raise set with `@repro.errors.raises(...)`; `kdd-repro",
        "analyze` verifies the declarations against a whole-program",
        "may-raise computation (RPR107/RPR108).  `ConfigError` is ambient",
        "and never declared.  See DESIGN.md §10 for how the escalation",
        "chain maps to the paper's Section III-E fault handling.",
        "",
        f"Modules: {len(project.modules)}; project import edges:"
        f" {len(project.edges)}.",
    ]
    return "\n".join(lines) + "\n"
