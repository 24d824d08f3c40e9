"""Effect analysis (RPR205-RPR207).

Infers, per project function, the module-level state it may mutate and
the functions it calls, and enforces two contract families on top:

* **Sweep race detection** (RPR205/RPR206).  Module-level mutable
  state (``global`` writes, mutation of module constants, class
  attributes) and caching decorators reachable from the sweep
  process-pool worker entry points and from engine hooks are flagged
  unless allowlisted, statically pinning process-pool determinism.
* **Recovery read-surface** (RPR207).  The interprocedural *read*
  closure of the power-failure recovery entry point must stay inside
  the declared crash-surviving surface (NVRAM words and flash page
  images); a recovery path that consults live volatile state only
  looks correct until a real power loss.

Reachability follows :meth:`Project.callees
<repro.devtools.analyze.project.Project.callees>`, the analyzer's one
call model, and each function also reaches the ``def``s nested in it (a
closure runs wherever it is handed on).  Mutating calls on module state
fall back to a method-name heuristic (:data:`MUTATING_METHODS`).
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field

from .project import Finding, FuncInfo, ModuleInfo, Project, finding_at, scope_nodes

# -- contract configuration --------------------------------------------------

#: Sweep process-pool worker entry points: everything these reach runs
#: inside a forked/spawned worker and must not share module state.
SWEEP_ENTRY_POINTS = (
    ("repro.harness.sweep", (
        "_execute_cell", "_run_sim_cell", "_run_replay_cell",
        "_run_fio_cell", "_run_stats_cell", "_run_faults_cell",
        "_run_reliability_cell", "_run_serve_cell",
    )),
    ("repro.harness.faultsweep", ("run_faults_cell", "demo_op_trace")),
    ("repro.harness.relsweep", ("run_reliability_cell",)),
    ("repro.harness.servesweep", ("run_serve_cell",)),
)
#: Engine hooks run inside worker cells too (fault pipelines,
#: instrumentation); every method of every subclass is an entry point.
HOOK_BASE = "repro.engine.hooks:EngineHook"
#: Worker-reachable functions allowed to hold module-level state:
#: deliberate per-process memoisation whose cache key captures every
#: input (documented in DESIGN §12).
SWEEP_ALLOWLIST = frozenset({"repro.harness.sweep:_trace_for"})

#: Method names assumed to mutate the module-level object they are
#: called on (builtin containers, external objects).
MUTATING_METHODS = frozenset({
    "add", "append", "clear", "discard", "drain", "extend", "insert",
    "move_to_end", "pop", "popitem", "push", "put", "record", "remove",
    "reverse", "setdefault", "sort", "trim", "update", "write",
})

#: functools caching decorators (per-process state by construction).
CACHE_DECORATORS = frozenset({"functools.cache", "functools.lru_cache"})

#: The power-failure recovery entry point (RPR207).  Its whole-program
#: *read* closure must stay inside the declared crash-surviving
#: surface below: recovery consulting any other state is exactly the
#: bug the crash matrix exists to catch — a recovery that "works" in
#: tests because it peeks at live in-memory state that would be gone
#: after a real power loss.
RECOVERY_ENTRY = "repro.core.recovery:recover_from_power_failure"
#: Attributes of the crashed object the recovery may consult, and the
#: class each resolves to (``repro.faults.crash._RecoveryStandin``
#: mirrors exactly this shape when recovering from a snapshot).
RECOVERY_ROOTS = {
    "mlog": "repro.cache.mlog:MetadataLog",
    "staging": "repro.nvram.staging:StagingBuffer",
}
#: Per class: the attributes that survive a power failure — NVRAM
#: words (head/tail counters, retention lists, buffered entries) and
#: committed flash page images.  Everything else on these classes is
#: volatile bookkeeping.
RECOVERY_SURFACE = {
    "repro.cache.mlog:MetadataLog": frozenset({
        "head", "tail", "_page_image", "buffer", "_committing",
        "_relocating",
    }),
    "repro.nvram.staging:StagingBuffer": frozenset({
        "_entries", "_flushing",
    }),
    "repro.nvram.metabuffer:MetadataBuffer": frozenset({"_entries"}),
}

#: Chain marker for a subscript step (``x[...]``).
_SUB = "[]"


# -- intraprocedural extraction ----------------------------------------------


def _chain(expr: ast.expr) -> tuple[ast.AST, list[str]]:
    """Decompose an Attribute/Subscript chain into (root, parts).

    ``self._entries[i]`` -> (Name self, ["_entries", "[]"]).
    """
    parts: list[str] = []
    node: ast.AST = expr
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            parts.append(_SUB)
            node = node.value
        else:
            return node, parts[::-1]


@dataclass
class FuncEffects:
    """Intraprocedural effect facts for one function."""

    #: resolved call targets (function ids) for reachability.
    callees: list[str] = field(default_factory=list)
    #: (description, line, col) module-state mutations (RPR205).
    global_mutations: list[tuple[str, int, int]] = field(default_factory=list)
    #: (decorator display name, line, col) caching decorators (RPR206).
    cache_decorators: list[tuple[str, int, int]] = field(default_factory=list)


class _FuncVisitor:
    """One pass over a function body collecting :class:`FuncEffects`."""

    def __init__(self, project: Project, func: FuncInfo) -> None:
        self.project = project
        self.func = func
        self.mod: ModuleInfo = project.modules[func.module]
        self.eff = FuncEffects()
        self.nodes = list(scope_nodes(func.node))
        self._collect_scopes()
        self._collect_decorators()
        for node in self.nodes:
            self._visit(node)

    # -- scope maps ----------------------------------------------------------

    def _collect_scopes(self) -> None:
        self.globals_decl: set[str] = set()
        self.locals = {arg.arg for arg in self.func.params}
        args = self.func.node.args
        if args.vararg is not None:
            self.locals.add(args.vararg.arg)
        if args.kwarg is not None:
            self.locals.add(args.kwarg.arg)
        for node in self.nodes:
            if isinstance(node, ast.Global):
                self.globals_decl.update(node.names)
            elif isinstance(node, ast.Name) and \
                    isinstance(node.ctx, (ast.Store, ast.Del)):
                self.locals.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    self.locals.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ExceptHandler) and node.name:
                self.locals.add(node.name)
        self.locals -= self.globals_decl

    def _collect_decorators(self) -> None:
        for dec in self.func.node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = self.project.external_name(self.mod, target)
            if name in CACHE_DECORATORS:
                self.eff.cache_decorators.append(
                    (name.rsplit(".", 1)[1], dec.lineno, dec.col_offset))

    # -- node dispatch -------------------------------------------------------

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._write_target(target)
        elif isinstance(node, ast.AugAssign):
            self._write_target(node.target)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._write_target(node.target)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._write_target(target)
        elif isinstance(node, ast.Call):
            self._handle_call(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested def runs wherever the function hands it on (a
            # callback, a scheduled closure): reaching one reaches both.
            if node is not self.func.node:
                self.eff.callees.append(f"{self.func.id}.<locals>.{node.name}")

    # -- write targets -------------------------------------------------------

    def _module_state_desc(self, name: str, parts: list[str]) -> str | None:
        resolved = self.project._chase(self.mod.name, name)
        if resolved is not None and resolved in self.project.classes:
            if parts and parts[0] is not _SUB:
                return f"class attribute '{name}.{parts[0]}'"
            return f"class attribute table '{name}'"
        if self.mod.symbols.get(name) == "const":
            return f"module-level '{name}'"
        binding = self.mod.bindings.get(name)
        if binding is not None and binding.symbol and \
                binding.module in self.project.modules:
            site = self.project.resolve_symbol(binding.module, binding.symbol)
            if site is not None and site[1] == "const":
                return f"module-level '{name}' (from {site[0]})"
        return None

    def _write_target(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._write_target(element)
            return
        node, parts = _chain(target)
        line, col = target.lineno, target.col_offset
        if isinstance(node, ast.Call):
            func = node.func  # type(self).attr = ... / type(x).attr = ...
            if isinstance(func, ast.Name) and func.id == "type" and parts:
                self.eff.global_mutations.append(
                    (f"class attribute 'type(...).{parts[0]}'", line, col))
            return
        if not isinstance(node, ast.Name):
            return
        name = node.id
        if not parts:
            if name in self.globals_decl:
                self.eff.global_mutations.append(
                    (f"module global '{name}'", line, col))
            return
        if name in self.locals:
            return
        desc = self._module_state_desc(name, parts)
        if desc is not None:
            self.eff.global_mutations.append((desc, line, col))

    # -- calls ---------------------------------------------------------------

    def _handle_call(self, call: ast.Call) -> None:
        self.eff.callees.extend(self.project.callees(self.func, call))
        func = call.func
        if not isinstance(func, ast.Attribute) or \
                func.attr not in MUTATING_METHODS:
            return
        node, parts = _chain(func.value)
        if isinstance(node, ast.Name) and node.id not in self.locals:
            desc = self._module_state_desc(node.id, parts or [_SUB])
            if desc is not None:
                self.eff.global_mutations.append(
                    (desc, call.lineno, call.col_offset))


# -- interprocedural analysis ------------------------------------------------


class EffectAnalysis:
    """Sweep reachability and contract checks over one :class:`Project`."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.effects: dict[str, FuncEffects] = {
            fid: _FuncVisitor(project, project.functions[fid]).eff
            for fid in sorted(project.functions)
        }

    # -- sweep reachability --------------------------------------------------

    def sweep_entries(self) -> list[str]:
        entries: list[str] = []
        for module, names in SWEEP_ENTRY_POINTS:
            for name in names:
                fid = f"{module}:{name}"
                if fid in self.project.functions:
                    entries.append(fid)
        if HOOK_BASE in self.project.classes:
            for cid in sorted(self.project.subclasses_of(HOOK_BASE)):
                info = self.project.classes[cid]
                for name in sorted(info.methods):
                    fid = f"{info.module}:{info.name}.{name}"
                    if fid in self.project.functions:
                        entries.append(fid)
        return sorted(set(entries))

    def sweep_reachable(self) -> dict[str, str]:
        """func id -> first (sorted) worker entry point that reaches it."""
        graph = {fid: sorted(set(eff.callees))
                 for fid, eff in self.effects.items()}
        reached: dict[str, str] = {}
        for entry in self.sweep_entries():
            if entry in reached:
                continue
            stack = [entry]
            while stack:
                fid = stack.pop()
                if fid in reached:
                    continue
                reached[fid] = entry
                stack.extend(t for t in reversed(graph.get(fid, ()))
                             if t not in reached)
        return reached

    # -- the contract checks -------------------------------------------------

    def check(self) -> list[Finding]:
        findings: list[Finding] = []
        findings.extend(self._check_sweep_purity())
        findings.extend(self.check_recovery_surface())
        return sorted(findings, key=Finding.sort_key)

    def _mod_of(self, func: FuncInfo) -> ModuleInfo:
        return self.project.modules[func.module]

    # -- recovery read-surface (RPR207) --------------------------------------

    def _recovery_chains(
        self, func: FuncInfo, roots: frozenset[str]
    ) -> list[tuple[list[str], int, int, bool]]:
        """Attribute chains rooted at ``roots`` in ``func``'s body.

        Returns ``(parts, line, col, as_argument)`` per chain; a chain
        with ``as_argument`` is the bare root passed to a callable —
        the one shape that would let reads escape the closure, so the
        check flags it rather than guessing.  Plain aliases
        (``x = root.attr``) extend the root set with their one-level
        chain; values produced *through a call* are data, not state,
        and deeper reads on them are not tracked.
        """
        aliases: dict[str, list[str]] = {}
        out: list[tuple[list[str], int, int, bool]] = []
        nodes = list(scope_nodes(func.node))
        for node in nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Name) and \
                    isinstance(node.value, ast.Attribute):
                root, parts = _chain(node.value)
                if isinstance(root, ast.Name) and root.id in roots and \
                        _SUB not in parts:
                    aliases[node.targets[0].id] = parts
        for node in nodes:
            if isinstance(node, ast.Attribute):
                root, parts = _chain(node)
                if not isinstance(root, ast.Name):
                    continue
                if root.id in roots:
                    out.append((parts, node.lineno, node.col_offset, False))
                elif root.id in aliases:
                    out.append((aliases[root.id] + parts,
                                node.lineno, node.col_offset, False))
            elif isinstance(node, ast.Call):
                for arg in (*node.args,
                            *(kw.value for kw in node.keywords)):
                    if isinstance(arg, ast.Name) and arg.id in roots:
                        out.append(([], arg.lineno, arg.col_offset, True))
        return out

    def _recovery_walk(
        self, class_id: str, parts: list[str], mod: ModuleInfo,
        line: int, col: int, findings: list[Finding],
        visited: set[tuple[str, str]], origin: str,
    ) -> None:
        """Check one attribute chain against ``class_id``'s surface."""
        if not parts or parts[0] is _SUB or parts[0] == _SUB:
            return
        name = parts[0]
        if self.project.find_method(class_id, name) is not None:
            # A method (or property) of the surface class: recurse into
            # its body — its reads are part of the closure.
            self._recovery_visit(class_id, name, findings, visited)
            return  # its return value is derived data, not state
        allowed = RECOVERY_SURFACE.get(class_id, frozenset())
        if name not in allowed:
            cls = class_id.rsplit(":", 1)[1]
            findings.append(finding_at(
                mod, line, col, "RPR207",
                f"recovery read-closure escapes the crash-surviving "
                f"surface: {origin} reads {cls}.{name}, which does not "
                f"survive a power failure (declared surface: "
                f"{', '.join(sorted(allowed)) or 'none'})",
            ))
            return
        attr_cls = self.project.attr_class(class_id, name)
        rest = parts[1:]
        if attr_cls and rest:
            self._recovery_walk(attr_cls, rest, mod, line, col,
                                findings, visited, origin)
        # Unresolved sub-objects (dicts, lists, tuples of entries) are
        # the declared attribute's *value*: reading through them is the
        # point of the surface.

    def _recovery_visit(
        self, class_id: str, method: str, findings: list[Finding],
        visited: set[tuple[str, str]],
    ) -> None:
        key = (class_id, method)
        if key in visited:
            return
        visited.add(key)
        func = self.project.find_method(class_id, method)
        if func is None:
            return
        mod = self._mod_of(func)
        origin = f"{func.qualname}()"
        for parts, line, col, as_arg in self._recovery_chains(
                func, frozenset({"self"})):
            if as_arg:
                findings.append(finding_at(
                    mod, line, col, "RPR207",
                    f"{origin} passes the receiver to another callable; "
                    "the recovery read-closure cannot follow it — keep "
                    "crash-surviving reads first-person",
                ))
                continue
            self._recovery_walk(class_id, parts, mod, line, col,
                                findings, visited, origin)

    def check_recovery_surface(self) -> list[Finding]:
        """RPR207: the interprocedural read-closure of the power-failure
        recovery entry point stays inside the declared crash-surviving
        surface (:data:`RECOVERY_ROOTS` / :data:`RECOVERY_SURFACE`)."""
        entry = self.project.functions.get(RECOVERY_ENTRY)
        if entry is None:
            return []
        findings: list[Finding] = []
        visited: set[tuple[str, str]] = set()
        mod = self._mod_of(entry)
        origin = f"{entry.qualname}()"
        param_names = [a.arg for a in entry.params]
        if not param_names:
            return []
        root = param_names[0]
        for parts, line, col, as_arg in self._recovery_chains(
                entry, frozenset({root})):
            if as_arg:
                findings.append(finding_at(
                    mod, line, col, "RPR207",
                    f"{origin} passes the crashed object to another "
                    "callable; the recovery read-closure cannot follow "
                    "it — consult the crash-surviving surface directly",
                ))
                continue
            if not parts:
                continue
            first = parts[0]
            if first not in RECOVERY_ROOTS:
                findings.append(finding_at(
                    mod, line, col, "RPR207",
                    f"recovery read-closure escapes the crash-surviving "
                    f"surface: {origin} reads the crashed object's "
                    f"'{first}', which does not survive a power failure "
                    f"(declared roots: "
                    f"{', '.join(sorted(RECOVERY_ROOTS))})",
                ))
                continue
            self._recovery_walk(RECOVERY_ROOTS[first], parts[1:], mod,
                                line, col, findings, visited, origin)
        # A chain and its prefixes share a site; keep one finding each.
        unique: dict[tuple, Finding] = {}
        for finding in findings:
            key = (finding.relpath, finding.line, finding.col,
                   finding.message)
            unique.setdefault(key, finding)
        return list(unique.values())

    def _check_sweep_purity(self) -> list[Finding]:
        findings: list[Finding] = []
        reached = self.sweep_reachable()
        for fid in sorted(reached):
            if fid in SWEEP_ALLOWLIST:
                continue
            eff = self.effects.get(fid)
            func = self.project.functions.get(fid)
            if eff is None or func is None:
                continue
            entry = reached[fid]
            for desc, line, col in eff.global_mutations:
                findings.append(finding_at(
                    self._mod_of(func), line, col, "RPR205",
                    f"{func.qualname}() mutates {desc} but is reachable "
                    f"from sweep worker entry {entry}; process-pool cells "
                    "must not share module state",
                ))
            for deco, line, col in eff.cache_decorators:
                findings.append(finding_at(
                    self._mod_of(func), line, col, "RPR206",
                    f"@{deco} on {func.qualname}() holds per-process state "
                    f"and is reachable from sweep worker entry {entry}; "
                    "allowlist deliberate memoisation in "
                    "repro.devtools.analyze.effects or drop the cache",
                ))
        return findings


def check_effects(project: Project) -> list[Finding]:
    """RPR205-RPR207: sweep-parallelism race detection and the recovery
    read-surface."""
    return EffectAnalysis(project).check()


# -- machine-readable export -------------------------------------------------


def effects_report(project: Project) -> str:
    """Stable JSON export of the effect model behind RPR205 and RPR206:
    sweep worker entry points, reachability and cached functions."""
    analysis = EffectAnalysis(project)
    reached = analysis.sweep_reachable()
    cached = [
        {
            "function": fid,
            "decorator": deco,
            "allowlisted": fid in SWEEP_ALLOWLIST,
        }
        for fid in sorted(reached)
        for deco, _line, _col in analysis.effects[fid].cache_decorators
    ]
    doc = {
        "version": 1,
        "sweep": {
            "entry_points": analysis.sweep_entries(),
            "reachable_functions": len(reached),
            "allowlist": sorted(SWEEP_ALLOWLIST),
            "cached_functions": cached,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True)
