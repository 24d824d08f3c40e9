"""Unused imports (RPR109) and dead public symbols (RPR110).

Both analyses read the same cross-module reference index: every
``from X import name`` binding, every ``module.attr`` access through a
module binding, and every ``__all__`` export, chased through re-export
chains to the defining module.

RPR109 (unused import) gates CI.  An import is unused when the bound
name is never loaded in its own module, never re-exported through
``__all__``, and never imported *from* this module by another project
module.  Package ``__init__`` modules without an ``__all__`` are
skipped entirely — there, imports *are* the public surface and intent
cannot be distinguished from accident.

RPR110 (dead public symbol) gates CI as well.  A top-level public
symbol no project module references may still be consumed by tests,
benchmarks, or downstream users, so check those trees before deleting
it; otherwise underscore-rename it or export it through ``__all__``.
Both run as one analysis over one index build.
"""

from __future__ import annotations

import ast
import re

from .project import Finding, ModuleInfo, Project, finding_at

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _loaded_names(mod: ModuleInfo) -> set[str]:
    """Names loaded anywhere in the module, plus words in string
    constants (quoted annotations, ``__all__``-adjacent registries) so
    string references never count an import as unused."""
    out: set[str] = set()
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(_WORD.findall(node.value))
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _docstring_values(mod: ModuleInfo) -> set[int]:
    """ids of Constant nodes that are docstrings (module/class/func)."""
    out: set[int] = set()
    scopes: list[ast.AST] = [mod.tree]
    for node in ast.walk(mod.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scopes.append(node)
    for scope in scopes:
        body = scope.body  # type: ignore[attr-defined]
        if body and isinstance(body[0], ast.Expr) and \
                isinstance(body[0].value, ast.Constant) and \
                isinstance(body[0].value.value, str):
            out.add(id(body[0].value))
    return out


def _string_words(mod: ModuleInfo) -> set[str]:
    """Words in *non-docstring* string constants.

    These are working strings — registry keys, lazy-export tables,
    ``__all__`` entries, qualified-name maps — so a symbol name among
    them counts as a reference.  Docstrings are excluded: prose
    *mentioning* a name must not keep it alive.
    """
    docstrings = _docstring_values(mod)
    out: set[str] = set()
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings:
            out.update(_WORD.findall(node.value))
    return out


def _defining_site(
    project: Project, module: str, name: str
) -> tuple[str, str]:
    """Chase re-export chains to the (module, name) that defines it."""
    seen: set[tuple[str, str]] = set()
    while (module, name) not in seen:
        seen.add((module, name))
        mod = project.modules.get(module)
        if mod is None or name in mod.symbols:
            break
        binding = mod.bindings.get(name)
        if binding is None or binding.symbol == "" \
                or binding.module not in project.modules:
            break
        module, name = binding.module, binding.symbol
    return module, name


class _ReferenceIndex:
    """(module, symbol) pairs referenced from anywhere in the project."""

    def __init__(self, project: Project) -> None:
        self.project = project
        #: symbols some *other* module pulls from a given module, keyed
        #: on the importing side: (source_module, symbol_name).
        self.imported: set[tuple[str, str]] = set()
        #: fully chased definition sites referenced anywhere.
        self.referenced: set[tuple[str, str]] = set()
        #: definition sites exported through any __all__.
        self.exported: set[tuple[str, str]] = set()
        self._build()

    def _mark(self, module: str, name: str) -> None:
        self.imported.add((module, name))
        self.referenced.add(_defining_site(self.project, module, name))

    def _build(self) -> None:
        for mod in self.project.modules.values():
            for name, binding in mod.bindings.items():
                if binding.module not in self.project.modules:
                    continue
                if binding.symbol:
                    self._mark(binding.module, binding.symbol)
            for node in ast.walk(mod.tree):
                if not isinstance(node, ast.Attribute):
                    continue
                if not isinstance(node.value, ast.Name):
                    continue
                binding = mod.bindings.get(node.value.id)
                if binding is not None and binding.symbol == "" \
                        and binding.module in self.project.modules:
                    self._mark(binding.module, node.attr)
            if mod.exports:
                for name in mod.exports:
                    site = _defining_site(self.project, mod.name, name)
                    self.exported.add(site)
                    self.referenced.add(site)

        # Registration pattern: a decorated top-level def is consumed by
        # its decorator (e.g. a registry decorator) even when the
        # name itself is never loaded again.
        self.decorated: set[tuple[str, str]] = set()
        for mod in self.project.modules.values():
            for stmt in mod.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)) and stmt.decorator_list:
                    self.decorated.add((mod.name, stmt.name))

        # Working-string references (PEP 562 lazy-export tables, registry
        # keys, qualified-name maps): one project-wide word set, built
        # from non-docstring strings only.
        self.string_words: set[str] = set()
        for mod in self.project.modules.values():
            self.string_words |= _string_words(mod)


def check_dead_code(project: Project) -> list[Finding]:
    """RPR109 and RPR110 over one shared reference index."""
    index = _ReferenceIndex(project)
    findings = [*_unused_imports(project, index),
                *_dead_public(project, index)]
    return sorted(findings, key=Finding.sort_key)


def _unused_imports(project: Project, index: _ReferenceIndex) -> list[Finding]:
    """RPR109: imported names never used, re-exported, or pulled onward."""
    findings: list[Finding] = []
    for mod in project.modules.values():
        if mod.is_package and mod.exports is None:
            continue  # bare package __init__: imports are the API surface
        loaded = _loaded_names(mod)
        exports = set(mod.exports or ())
        for name, binding in sorted(mod.bindings.items()):
            if name.startswith("_") or binding.module == "__future__":
                continue
            if name in loaded or name in exports:
                continue
            if (mod.name, name) in index.imported:
                continue  # another module re-imports it from here
            findings.append(finding_at(
                mod, binding.line, 0, "RPR109",
                f"'{name}' (from {binding.module}) is imported but never "
                "used, exported, or re-imported by another module",
            ))
    return findings


def _dead_public(project: Project, index: _ReferenceIndex) -> list[Finding]:
    """RPR110: public top-level symbols nothing in the project references.

    External consumers (tests, benchmarks) are invisible here; check
    them before deleting.
    """
    findings: list[Finding] = []
    for mod in project.modules.values():
        if mod.name == "repro.errors":
            continue  # the taxonomy is contract vocabulary, not dead code
        loaded = _loaded_names(mod)
        exports = set(mod.exports or ())
        for name, kind in sorted(mod.symbols.items()):
            if name.startswith("_") or name in exports:
                continue
            site = (mod.name, name)
            if site in index.referenced or site in index.decorated:
                continue
            if name in loaded or name in index.string_words:
                continue
            line = 1
            for stmt in mod.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)) and stmt.name == name:
                    line = stmt.lineno
                    break
                if isinstance(stmt, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == name
                        for t in stmt.targets):
                    line = stmt.lineno
                    break
                if isinstance(stmt, ast.AnnAssign) and \
                        isinstance(stmt.target, ast.Name) and \
                        stmt.target.id == name:
                    line = stmt.lineno
                    break
            findings.append(finding_at(
                mod, line, 0, "RPR110",
                f"public {kind} '{name}' is referenced by no project "
                "module; underscore-rename it or delete it (check tests "
                "and benchmarks first)",
            ))
    return findings
