"""Layering contract: package DAG, cycle detection, ownership edges.

The codebase is organised as five layers; a module may import its own
layer or any layer *below* it, never above:

=============  ==========================================================
foundation     ``errors``, ``units``, ``contracts``
data           ``traces``, ``delta``, ``stats``
devices        ``disk``, ``flash``, ``nvram``, ``raid``, ``cache``, ``core``
simulation     ``sim``, ``engine``, ``faults``, ``reliability``, ``serve``
application    ``harness``, ``devtools``, the root ``repro`` module
=============  ==========================================================

This encodes the two prose rules from the determinism contract: the
engine is the only clock owner (nothing below the simulation layer can
reach it, and ``engine.core`` — the event loop that *is* the clock —
may only be imported from inside ``repro.engine``, RPR103), and
harness code is never imported by sim code (``harness`` sits in the
top layer, RPR102).

Cycles (RPR101) are checked over *top-level* edges only: a deferred
(function-body) import is the sanctioned way to break an import-time
cycle, and ``TYPE_CHECKING`` imports never execute at all.  Layering
(RPR102/103) is stricter: it also covers deferred imports, because a
lower layer calling upward at run time is still an inverted
dependency — only typing-only edges are exempt.
"""

from __future__ import annotations

from dataclasses import dataclass

from .project import (
    EDGE_TOP,
    EDGE_TYPING,
    Finding,
    ImportEdge,
    Project,
    finding_at,
)


@dataclass(frozen=True)
class LayerSpec:
    """Ordered layer table: index in ``layers`` is the layer's height."""

    layers: tuple[tuple[str, tuple[str, ...]], ...]

    def index_of(self, top_package: str) -> int | None:
        """Layer height of a top-level package ("" = the repro root)."""
        for idx, (_, packages) in enumerate(self.layers):
            if top_package in packages:
                return idx
        return None

    def name_of(self, idx: int) -> str:
        return self.layers[idx][0]


DEFAULT_LAYERS = LayerSpec(layers=(
    ("foundation", ("errors", "units", "contracts")),
    ("data", ("traces", "delta", "stats")),
    ("devices", ("disk", "flash", "nvram", "raid", "cache", "core")),
    ("simulation", ("sim", "engine", "faults", "reliability", "serve")),
    ("application", ("harness", "devtools", "")),
))

#: Modules only this package prefix may import (ownership edges).
#: ``engine.core`` owns the simulated clock; everything else must go
#: through the ``repro.engine`` facade so there is exactly one owner.
OWNERSHIP = (("repro.engine.core", "repro.engine"),)


def _cycles(project: Project) -> list[list[str]]:
    """Strongly connected components of size > 1 over top-level edges.

    Tarjan's algorithm, iterative, visiting nodes and neighbours in
    sorted order so the output is deterministic.
    """
    graph: dict[str, list[str]] = {name: [] for name in project.modules}
    for edge in project.edges:
        if edge.kind == EDGE_TOP and edge.dst in graph:
            if edge.dst not in graph[edge.src]:
                graph[edge.src].append(edge.dst)
    for neighbours in graph.values():
        neighbours.sort()

    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0

    for root in sorted(graph):
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, child_idx = work.pop()
            if child_idx == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            neighbours = graph[node]
            for i in range(child_idx, len(neighbours)):
                nxt = neighbours[i]
                if nxt not in index:
                    work.append((node, i + 1))
                    work.append((nxt, 0))
                    recurse = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if recurse:
                continue
            if low[node] == index[node]:
                scc: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                if len(scc) > 1:
                    sccs.append(sorted(scc))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sorted(sccs)


def _cycle_edge(project: Project, scc: list[str]) -> ImportEdge:
    """A representative edge of the cycle, anchored at its first module."""
    members = set(scc)
    anchor = scc[0]
    for edge in project.edges:
        if edge.kind == EDGE_TOP and edge.src == anchor and edge.dst in members:
            return edge
    # Unreachable for a real SCC, but keep a total function.
    return ImportEdge(anchor, anchor, 1, 0, EDGE_TOP)


def check_layering(
    project: Project, spec: LayerSpec = DEFAULT_LAYERS
) -> list[Finding]:
    """RPR101 cycles, RPR102 layer inversions, RPR103 ownership edges."""
    findings: list[Finding] = []

    for scc in _cycles(project):
        edge = _cycle_edge(project, scc)
        mod = project.modules[edge.src]
        findings.append(finding_at(
            mod, edge.line, edge.col, "RPR101",
            "import cycle at module load time: " + " -> ".join(scc + [scc[0]])
            + "; break it with a deferred import or by moving the shared "
              "code down a layer",
        ))

    seen: set[tuple[str, str, int, int]] = set()
    for edge in project.edges:
        if edge.kind == EDGE_TYPING:
            continue
        site = (edge.src, edge.dst, edge.line, edge.col)
        if site in seen:
            continue  # one statement importing several symbols: one finding
        seen.add(site)
        src_mod = project.modules[edge.src]
        dst_mod = project.modules[edge.dst]
        src_layer = spec.index_of(src_mod.top_package)
        dst_layer = spec.index_of(dst_mod.top_package)
        if src_layer is None or dst_layer is None:
            continue  # package not in the contract: nothing to enforce
        if dst_layer > src_layer:
            findings.append(finding_at(
                src_mod, edge.line, edge.col, "RPR102",
                f"layer violation: {edge.src} ({spec.name_of(src_layer)}) "
                f"imports {edge.dst} ({spec.name_of(dst_layer)}); "
                f"{spec.name_of(src_layer)} may only import itself or lower "
                "layers",
            ))

    for owned, owner_prefix in OWNERSHIP:
        own_seen: set[tuple[str, int, int]] = set()
        for edge in project.edges:
            if edge.kind == EDGE_TYPING or edge.dst != owned:
                continue
            own_site = (edge.src, edge.line, edge.col)
            if own_site in own_seen:
                continue
            own_seen.add(own_site)
            if edge.src == owner_prefix or \
                    edge.src.startswith(owner_prefix + "."):
                continue
            src_mod = project.modules[edge.src]
            findings.append(finding_at(
                src_mod, edge.line, edge.col, "RPR103",
                f"ownership violation: {owned} is internal to "
                f"{owner_prefix} (single clock owner); import the "
                f"{owner_prefix} facade instead",
            ))

    return sorted(findings, key=Finding.sort_key)
