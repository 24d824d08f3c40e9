"""Project model: modules, import graph, and cross-module symbol table.

Everything downstream (the per-module rules, layering, unit taint, RNG
provenance, exception flow, dead code, effects, columnar contracts)
consumes one :class:`Project` built from a single parse of the tree and
reports :class:`Finding` records.  Construction is deterministic: files
are loaded in sorted order and every exposed collection iterates in
sorted order, so analysis output is invariant under file-discovery
order (a property pinned by a hypothesis test).  Every analysis reads
calls through :meth:`Project.callees`, a function's own nodes through
:func:`scope_nodes`, its statements through :class:`FlowWalker`, and
imported names through ``ModuleInfo.bindings``.

Module naming
-------------

Modules are named by their dotted path under the ``repro`` package
root: ``src/repro/sim/openloop.py`` is ``repro.sim.openloop`` and the root
``__init__.py`` is ``repro``.  Fixture trees only need a ``repro/``
directory somewhere on the path for the same rule to apply.
"""

from __future__ import annotations

import ast
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path, PurePosixPath
from typing import Any

from ...errors import ConfigError

#: Code reserved for the analyzer's own meta-diagnostics (unused or
#: unknown suppressions).  It can be suppressed like any other code.
META_CODE = "RPR000"

#: Import-edge kinds.  ``top`` executes at module import time (the only
#: kind that can create a real import cycle); ``deferred`` executes
#: inside a function body; ``typing`` only exists for the type checker
#: (guarded by ``if TYPE_CHECKING:``).
EDGE_TOP = "top"
EDGE_DEFERRED = "deferred"
EDGE_TYPING = "typing"


@dataclass(frozen=True)
class Finding:
    """One diagnostic at a specific source location.

    ``path`` is the path as given on the command line (for display);
    ``relpath`` is the module path relative to the ``repro`` package
    root (for rule scoping and the JSON output, so both are the same
    whatever prefix the tree is checked out at).
    """

    path: str
    relpath: str
    line: int
    col: int
    code: str
    message: str

    def sort_key(self) -> tuple[str, int, int, str, str]:
        return (self.relpath, self.line, self.col, self.code, self.message)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_json(self) -> dict[str, object]:
        return {
            "code": self.code,
            "col": self.col,
            "line": self.line,
            "message": self.message,
            "path": self.relpath,
        }


def repro_relpath(path: Path) -> str:
    """Path relative to the ``repro`` package root, as a posix string.

    ``src/repro/sim/openloop.py`` -> ``sim/openloop.py``.  Files outside a
    ``repro`` directory fall back to their basename, which leaves them
    unscoped (path-scoped rules treat them as top-level modules).
    """
    parts = path.resolve().parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            rel = parts[i + 1 :]
            if rel:
                return str(PurePosixPath(*rel))
    return path.name


def iter_python_files(paths: list[Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    seen: set[Path] = set()
    out: list[Path] = []
    for path in paths:
        if path.is_dir():
            candidates = sorted(p for p in path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        elif not path.exists():
            raise ConfigError(f"no such file or directory: {path}")
        else:
            candidates = []
        for cand in candidates:
            resolved = cand.resolve()
            if resolved not in seen:
                seen.add(resolved)
                out.append(cand)
    return sorted(out, key=lambda p: str(p))


@dataclass(frozen=True)
class ImportEdge:
    """One import of a project module by another."""

    src: str  # importing module, e.g. "repro.engine.system"
    dst: str  # imported module, e.g. "repro.engine.hooks"
    line: int
    col: int
    kind: str  # EDGE_TOP | EDGE_DEFERRED | EDGE_TYPING
    symbol: str = ""  # "" for whole-module imports

    def sort_key(self) -> tuple[str, str, int, int, str]:
        return (self.src, self.dst, self.line, self.col, self.symbol)


@dataclass(frozen=True)
class Binding:
    """What one imported name in a module refers to.

    ``module`` is the dotted source module (project or external);
    ``symbol`` is the attribute taken from it (``""`` when the binding
    is the module object itself).
    """

    module: str
    symbol: str = ""
    line: int = 0
    kind: str = EDGE_TOP


@dataclass
class ClassInfo:
    """Cross-module view of one top-level class."""

    name: str
    module: str
    node: ast.ClassDef
    #: Base-class ids ("module:Class") resolved to project classes.
    bases: list[str] = field(default_factory=list)
    #: Method name -> FunctionDef/AsyncFunctionDef node.
    methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = \
        field(default_factory=dict)
    #: Instance attribute -> project class id, for ``self.x = Cls(...)``
    #: assignments seen in any method (construction-tracked types).
    attr_classes: dict[str, str] = field(default_factory=dict)

    @property
    def id(self) -> str:
        return f"{self.module}:{self.name}"


@dataclass
class FuncInfo:
    """One function or method, addressable across the project."""

    module: str
    qualname: str  # "replay_trace", "SimEngine.submit", "f.<locals>.g"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str = ""  # owning top-level class, "" for plain functions

    @property
    def id(self) -> str:
        return f"{self.module}:{self.qualname}"

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def params(self) -> list[ast.arg]:
        """Named parameters in order: positional-only, positional, then
        keyword-only (``*args`` and ``**kwargs`` are not included)."""
        args = self.node.args
        return [*args.posonlyargs, *args.args, *args.kwonlyargs]

    @property
    def class_id(self) -> str:
        """The owning class's id, "" for plain functions."""
        return f"{self.module}:{self.class_name}" if self.class_name else ""

    @property
    def is_public(self) -> bool:
        if any(part.startswith("_") and not part.startswith("__")
               for part in self.qualname.split(".")):
            return False
        return "<locals>" not in self.qualname


@dataclass
class ModuleInfo:
    """One parsed module plus everything extracted from it."""

    name: str  # dotted, e.g. "repro.sim.openloop"
    relpath: str  # repro-relative path, e.g. "sim/openloop.py"
    path: str  # path as given (for display)
    tree: ast.Module
    source: str
    is_package: bool
    #: Imported-name bindings (project and external), in source order.
    bindings: dict[str, Binding] = field(default_factory=dict)
    #: Top-level defs: name -> "func" | "class" | "const".
    symbols: dict[str, str] = field(default_factory=dict)
    exports: tuple[str, ...] | None = None  # __all__ if present

    @property
    def package(self) -> str:
        """The package this module's relative imports resolve against."""
        if self.is_package:
            return self.name
        return self.name.rsplit(".", 1)[0] if "." in self.name else self.name

    @property
    def top_package(self) -> str:
        """First path component under ``repro`` ("" for the root)."""
        parts = self.name.split(".")
        return parts[1] if len(parts) > 1 else ""


def finding_at(
    mod: ModuleInfo, line: int, col: int, code: str, message: str
) -> Finding:
    """Build a Finding anchored at a source line of ``mod``."""
    return Finding(mod.path, mod.relpath, line, col, code, message)


#: Nodes whose body is a scope of its own.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def scope_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """``node`` and every node that runs in its scope, breadth-first.

    This is the analyzer's one body walk.  Like :func:`ast.walk` it
    yields siblings in source order, but it does not enter the body of a
    ``def``, ``lambda`` or ``class`` below ``node``: a nested ``def`` is
    its own :class:`FuncInfo`, and no nested body runs where it is
    written.  The nested node itself is yielded, with the parts the
    enclosing scope evaluates (decorators, defaults, annotations, bases).
    """
    todo: deque[ast.AST] = deque([node])
    while todo:
        cur = todo.popleft()
        yield cur
        nested = cur is not node and isinstance(cur, _SCOPES)
        for name, value in ast.iter_fields(cur):
            if nested and name == "body":
                continue
            if isinstance(value, ast.AST):
                todo.append(value)
            elif isinstance(value, list):
                todo.extend(v for v in value if isinstance(v, ast.AST))


def _module_name(relpath: str) -> str:
    """``sim/openloop.py`` -> ``repro.sim.openloop``; ``__init__.py`` -> ``repro``."""
    dotted = relpath[:-3].replace("/", ".")
    if dotted == "__init__":
        return "repro"
    if dotted.endswith(".__init__"):
        dotted = dotted[: -len(".__init__")]
    return f"repro.{dotted}"


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


class _ImportCollector(ast.NodeVisitor):
    """Collect imports with their execution kind (top/deferred/typing)."""

    def __init__(self) -> None:
        self.found: list[tuple[ast.Import | ast.ImportFrom, str]] = []
        self._depth = 0
        self._typing = 0

    def _kind(self) -> str:
        if self._typing:
            return EDGE_TYPING
        return EDGE_DEFERRED if self._depth else EDGE_TOP

    def visit_Import(self, node: ast.Import) -> None:
        self.found.append((node, self._kind()))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.found.append((node, self._kind()))

    def _enter_function(self, node: ast.AST) -> None:
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_FunctionDef = _enter_function
    visit_AsyncFunctionDef = _enter_function
    visit_Lambda = _enter_function

    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking_test(node.test):
            self._typing += 1
            for stmt in node.body:
                self.visit(stmt)
            self._typing -= 1
            for stmt in node.orelse:
                self.visit(stmt)
        else:
            self.generic_visit(node)


def _extract_all(tree: ast.Module) -> tuple[str, ...] | None:
    for stmt in tree.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        else:
            continue
        for tgt in targets:
            if isinstance(tgt, ast.Name) and tgt.id == "__all__":
                if isinstance(value, (ast.List, ast.Tuple)):
                    names = [el.value for el in value.elts
                             if isinstance(el, ast.Constant)
                             and isinstance(el.value, str)]
                    return tuple(names)
    return None


class Project:
    """All modules of one source tree, parsed once.

    ``modules`` maps dotted names to :class:`ModuleInfo`; ``edges`` is
    the project import graph (imports of non-project modules are kept
    separately in each module's ``bindings`` for the unused-import
    analysis).
    """

    def __init__(self, modules: dict[str, ModuleInfo]) -> None:
        self.modules = dict(sorted(modules.items()))
        self.edges: list[ImportEdge] = []
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FuncInfo] = {}
        #: (scope, call site) -> callee ids; see :meth:`callees`.
        self._callees: dict[tuple[str, ast.Call], list[str]] = {}
        #: function id -> local name -> classes it may hold; see
        #: :meth:`_local_types`.
        self._types: dict[str, dict[str, set[str]]] = {}
        self._index_symbols()
        self._resolve_imports()
        self._index_defs()

    # -- construction --------------------------------------------------------

    @classmethod
    def load(cls, paths: list[Path]) -> "Project":
        """Parse every ``.py`` file under ``paths`` into a project.

        Input order does not matter: modules are keyed and processed by
        dotted name.  Unparseable files raise :class:`ConfigError` —
        the analyzer needs the whole program, a broken file means the
        whole run is unreliable.
        """
        modules: dict[str, ModuleInfo] = {}
        for file in iter_python_files(paths):
            relpath = repro_relpath(file)
            name = _module_name(relpath)
            try:
                source = file.read_text(encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"cannot read {file}: {exc}") from exc
            try:
                tree = ast.parse(source)
            except SyntaxError as exc:
                raise ConfigError(
                    f"{file}:{exc.lineno}: syntax error: {exc.msg}"
                ) from exc
            if name in modules:
                raise ConfigError(
                    f"module {name} found twice: {modules[name].path} and {file}"
                )
            modules[name] = ModuleInfo(
                name=name,
                relpath=relpath,
                path=str(file),
                tree=tree,
                source=source,
                is_package=file.name == "__init__.py",
            )
        return cls(modules)

    # -- symbol table --------------------------------------------------------

    def _index_symbols(self) -> None:
        for mod in self.modules.values():
            mod.exports = _extract_all(mod.tree)
            for stmt in mod.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    mod.symbols[stmt.name] = "func"
                elif isinstance(stmt, ast.ClassDef):
                    mod.symbols[stmt.name] = "class"
                elif isinstance(stmt, ast.Assign):
                    for tgt in stmt.targets:
                        if isinstance(tgt, ast.Name):
                            mod.symbols.setdefault(tgt.id, "const")
                elif isinstance(stmt, ast.AnnAssign):
                    if isinstance(stmt.target, ast.Name):
                        mod.symbols.setdefault(stmt.target.id, "const")

    # -- import resolution ---------------------------------------------------

    def _resolve_base(self, mod: ModuleInfo, node: ast.ImportFrom) -> str:
        """Absolute dotted module an ImportFrom pulls from."""
        if node.level == 0:
            return node.module or ""
        parts = mod.package.split(".")
        if node.level > 1:
            parts = parts[: len(parts) - (node.level - 1)]
        base = ".".join(parts)
        return f"{base}.{node.module}" if node.module else base

    def _resolve_imports(self) -> None:
        edges: list[ImportEdge] = []
        for mod in self.modules.values():
            collector = _ImportCollector()
            collector.visit(mod.tree)
            for node, kind in collector.found:
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        bound = alias.asname or alias.name.split(".")[0]
                        mod.bindings.setdefault(
                            bound, Binding(alias.name, "", node.lineno, kind))
                        if alias.name in self.modules:
                            edges.append(ImportEdge(
                                mod.name, alias.name, node.lineno,
                                node.col_offset, kind))
                    continue
                base = self._resolve_base(mod, node)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    submodule = f"{base}.{alias.name}"
                    if submodule in self.modules:
                        # ``from pkg import submodule``
                        if kind == EDGE_TOP:
                            mod.bindings.setdefault(
                                bound, Binding(submodule, "", node.lineno, kind))
                        edges.append(ImportEdge(
                            mod.name, submodule, node.lineno,
                            node.col_offset, kind))
                        continue
                    if kind == EDGE_TOP or bound not in mod.bindings:
                        mod.bindings[bound] = Binding(
                            base, alias.name, node.lineno, kind)
                    if base in self.modules:
                        edges.append(ImportEdge(
                            mod.name, base, node.lineno, node.col_offset,
                            kind, symbol=alias.name))
        self.edges = sorted(edges, key=ImportEdge.sort_key)

    # -- definitions ---------------------------------------------------------

    def _index_defs(self) -> None:
        for mod in self.modules.values():
            for stmt in mod.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._index_function(mod, stmt, prefix="", class_name="")
                elif isinstance(stmt, ast.ClassDef):
                    self._index_class(mod, stmt)
        for info in self.classes.values():
            self._track_attr_classes(info)

    def _index_function(
        self,
        mod: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        prefix: str,
        class_name: str,
    ) -> None:
        qualname = f"{prefix}{node.name}"
        info = FuncInfo(module=mod.name, qualname=qualname, node=node,
                        class_name=class_name)
        self.functions[info.id] = info
        for inner in scope_nodes(node):
            if inner is not node and \
                    isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(mod, inner, f"{qualname}.<locals>.",
                                     class_name)

    def _index_class(self, mod: ModuleInfo, node: ast.ClassDef) -> None:
        info = ClassInfo(name=node.name, module=mod.name, node=node)
        for base in node.bases:
            resolved = self.resolve_class_expr(mod, base)
            if resolved is not None:
                info.bases.append(resolved.id)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[stmt.name] = stmt
                self._index_function(mod, stmt, prefix=f"{node.name}.",
                                     class_name=node.name)
        self.classes[info.id] = info

    def _track_attr_classes(self, info: ClassInfo) -> None:
        """Record ``self.x = Cls(...)`` constructions as attribute types."""
        mod = self.modules[info.module]
        for method in info.methods.values():
            for node in scope_nodes(method):
                if not isinstance(node, ast.Assign):
                    continue
                value = node.value
                if not (isinstance(value, ast.Call)):
                    continue
                cls = self.resolve_class_expr(mod, value.func)
                if cls is None:
                    continue
                for tgt in node.targets:
                    if (
                        isinstance(tgt, ast.Attribute)
                        and isinstance(tgt.value, ast.Name)
                        and tgt.value.id == "self"
                    ):
                        info.attr_classes.setdefault(tgt.attr, cls.id)

    # -- cross-module resolution --------------------------------------------

    def resolve_symbol(
        self, module: str, name: str, _seen: frozenset[tuple[str, str]] = frozenset()
    ) -> tuple[str, str] | None:
        """Follow import re-exports to ``name``'s defining module.

        Returns ``(module, kind)`` where ``kind`` is the symbol kind in
        the defining module, or ``None`` when the name leaves the
        project (external import) or does not exist.
        """
        if (module, name) in _seen or module not in self.modules:
            return None
        mod = self.modules[module]
        if name in mod.symbols:
            return module, mod.symbols[name]
        binding = mod.bindings.get(name)
        if binding is None:
            return None
        seen = _seen | {(module, name)}
        if binding.symbol == "":
            return None  # bound to a module object, not a symbol
        if binding.module in self.modules:
            return self.resolve_symbol(binding.module, binding.symbol, seen)
        return None

    def resolve_class_expr(
        self, mod: ModuleInfo, expr: ast.expr
    ) -> ClassInfo | None:
        """Resolve a Name/Attribute expression to a project class."""
        resolved = self.resolve_func_expr(mod, expr)
        return self.classes.get(resolved) if resolved is not None else None

    def _chase(self, module: str, name: str,
               _seen: frozenset[tuple[str, str]] = frozenset()) -> str | None:
        """Resolve (module, name) to a definition id ("module:name")."""
        if (module, name) in _seen or module not in self.modules:
            return None
        mod = self.modules[module]
        if name in mod.symbols and mod.symbols[name] in ("class", "func"):
            return f"{module}:{name}"
        binding = mod.bindings.get(name)
        if binding is None or binding.symbol == "":
            return None
        return self._chase(binding.module, binding.symbol,
                           _seen | {(module, name)})

    def resolve_func_expr(self, mod: ModuleInfo, expr: ast.expr) -> str | None:
        """Resolve a call-target expression to a function/class id."""
        if isinstance(expr, ast.Name):
            return self._chase(mod.name, expr.id)
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            binding = mod.bindings.get(expr.value.id)
            if binding is not None and binding.symbol == "" \
                    and binding.module in self.modules:
                return self._chase(binding.module, expr.attr)
        return None

    def class_mro(self, class_id: str) -> list[str]:
        """Project-visible linearisation: the class then its base chain."""
        out: list[str] = []
        stack = [class_id]
        while stack:
            cur = stack.pop(0)
            if cur in out or cur not in self.classes:
                continue
            out.append(cur)
            stack.extend(self.classes[cur].bases)
        return out

    def find_method(self, class_id: str, name: str) -> FuncInfo | None:
        for cid in self.class_mro(class_id):
            info = self.classes[cid]
            if name in info.methods:
                return self.functions.get(f"{info.module}:{info.name}.{name}")
        return None

    def subclasses_of(self, class_id: str) -> set[str]:
        """``class_id`` plus every project class that derives from it."""
        out = {class_id}
        changed = True
        while changed:
            changed = False
            for info in self.classes.values():
                if info.id in out:
                    continue
                if any(base in out for base in info.bases):
                    out.add(info.id)
                    changed = True
        return out

    def attr_class(self, class_id: str, attr: str) -> str:
        """Construction-tracked class of ``attr`` on a ``class_id``
        instance, looked up through the MRO ("" when unknown)."""
        for cid in self.class_mro(class_id):
            found = self.classes[cid].attr_classes.get(attr)
            if found is not None:
                return found
        return ""

    # -- the call model ------------------------------------------------------

    def callees(self, scope: FuncInfo | ModuleInfo,
                call: ast.Call) -> list[str]:
        """Project functions ``call`` may reach, as sorted function ids.

        This is the analyzer's one call model: unit taint, RNG
        provenance, exception flow, effects and the columnar contracts
        all ask it which functions a call site reaches, and
        :meth:`bind_args` which parameter each argument binds.
        ``scope`` is the function the call appears in (or the module,
        for module-level code).  A call reaches:

        * a module function or imported name: that function;
        * a project class: its ``__init__`` and ``__post_init__``,
          through the MRO;
        * ``recv.m(...)``: method ``m``, through the MRO of every class
          ``recv`` may be an instance of.  A receiver is typed when it
          is ``self`` (in a method or a function nested in one);
          ``super()`` with a single project base; a parameter annotated
          with a project class (``system: SimEngine``); a local assigned
          a construction (``v = Cls(...)``) or a typed value (``x =
          self.attr``); or an attribute of a typed receiver
          (``self.attr``), typed by the ``self.attr = Cls(...)``
          constructions in its class's MRO.  A local assigned several
          types reaches the method of each.

        Soundness note: calls the model cannot resolve (duck-typed
        callables, external libraries, receivers of unknown type) reach
        nothing, so every analysis built on it under-approximates; the
        fixtures in the test suite pin exactly what each rule proves.
        The answer is computed once per call site and scope.
        """
        key = (scope.id if isinstance(scope, FuncInfo) else scope.name, call)
        found = self._callees.get(key)
        if found is None:
            found = self._callees[key] = self._resolve_call(scope, call)
        return found

    def _resolve_call(self, scope: FuncInfo | ModuleInfo,
                      call: ast.Call) -> list[str]:
        func = scope if isinstance(scope, FuncInfo) else None
        mod = self.modules[func.module] if func is not None else scope
        target = self.resolve_func_expr(mod, call.func)
        if target in self.functions:
            return [target]
        if target in self.classes:
            receivers, names = {target}, ("__init__", "__post_init__")
        elif target is None and func is not None and \
                isinstance(call.func, ast.Attribute):
            receivers = self._instance_of(func, call.func.value)
            names = (call.func.attr,)
        else:
            return []
        methods = (self.find_method(cid, name)
                   for cid in receivers for name in names)
        return sorted({m.id for m in methods if m is not None})

    def _instance_of(self, func: FuncInfo, expr: ast.expr) -> set[str]:
        """Project classes the value of ``expr`` in ``func`` may have."""
        if isinstance(expr, ast.Name):
            return self._local_types(func).get(expr.id, set())
        if isinstance(expr, ast.Attribute):
            owners = self._instance_of(func, expr.value)
            return {cls for cls in (self.attr_class(owner, expr.attr)
                                    for owner in owners) if cls}
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) \
                and expr.func.id == "super" and func.class_id:
            bases = self.classes[func.class_id].bases
            return set(bases) if len(bases) == 1 else set()
        return set()

    def _local_types(self, func: FuncInfo) -> dict[str, set[str]]:
        """Local name -> project classes it may hold in ``func``."""
        types = self._types.get(func.id)
        if types is not None:
            return types
        mod = self.modules[func.module]
        # Published before it is filled: an alias's value is typed
        # against the bindings made earlier in source order.
        types = self._types[func.id] = {}
        if func.class_id:
            types["self"] = {func.class_id}
        for arg in func.params:
            cls = self.resolve_class_expr(mod, arg.annotation) \
                if arg.annotation is not None else None
            if cls is not None:
                types.setdefault(arg.arg, set()).add(cls.id)
        binds: list[tuple[list[ast.expr], ast.expr]] = []
        for node in scope_nodes(func.node):
            if isinstance(node, ast.Assign):
                binds.append((node.targets, node.value))
            elif isinstance(node, ast.NamedExpr):
                binds.append(([node.target], node.value))
        binds.sort(key=lambda bind: (bind[1].lineno, bind[1].col_offset))
        for targets, value in binds:
            if isinstance(value, ast.Call):
                cls = self.resolve_class_expr(mod, value.func)
                classes = {cls.id} if cls is not None else set()
            else:
                classes = self._instance_of(func, value)
            for tgt in targets:
                if classes and isinstance(tgt, ast.Name):
                    types.setdefault(tgt.id, set()).update(classes)
        return types

    def bind_args(self, callee: str, call: ast.Call) -> dict[str, ast.expr]:
        """Parameter name -> argument expression at one resolved call.

        A method's ``self``/``cls`` is bound by the call itself (every
        method :meth:`callees` returns is reached through a receiver or
        a construction), so positional arguments bind from the next
        parameter on, up to the first ``*`` splat.  Keyword arguments
        bind by name; one the callee does not declare lands in its
        ``**kwargs`` under that name.
        """
        func = self.functions[callee]
        positional = len(func.params) - len(func.node.args.kwonlyargs)
        params = [a.arg for a in func.params[:positional]]
        if func.class_name and params and params[0] in ("self", "cls"):
            params = params[1:]
        bound: dict[str, ast.expr] = {}
        for param, arg in zip(params, call.args):
            if isinstance(arg, ast.Starred):
                break
            bound[param] = arg
        for kw in call.keywords:
            if kw.arg is not None:
                bound[kw.arg] = kw.value
        return bound

    def external_name(self, mod: ModuleInfo, expr: ast.expr) -> str | None:
        """Dotted name of a reference rooted at an external import.

        Under ``import numpy as np``, ``np.random.default_rng`` is
        ``"numpy.random.default_rng"``; under ``from hashlib import
        sha256``, ``sha256`` is ``"hashlib.sha256"``.  ``None`` for
        locals, project names and expressions not rooted at a name.
        """
        attrs: list[str] = []
        while isinstance(expr, ast.Attribute):
            attrs.append(expr.attr)
            expr = expr.value
        if not isinstance(expr, ast.Name):
            return None
        binding = mod.bindings.get(expr.id)
        if binding is None or binding.module in self.modules:
            return None
        if binding.symbol:
            root = f"{binding.module}.{binding.symbol}"
        elif binding.module.split(".")[0] == expr.id:
            root = expr.id  # ``import a.b`` binds ``a``
        else:
            root = binding.module
        return ".".join([root, *reversed(attrs)])


class FlowWalker:
    """The analyzer's one forward walk over a scope's statements.

    ``env`` maps each name to what the analysis knows about its value.
    ``if`` arms and ``try`` handlers each start from the state before
    them and merge name by name through :meth:`join`, a name one side
    lacks counting as :attr:`missing`; a loop body runs once and then
    merges with the state from before the loop.  An analysis keeps only
    its lattice and its hooks: :meth:`expr` sees each expression that
    control flow evaluates (a test, an iterable, a context manager),
    :meth:`loop_head` a ``for`` head, and :meth:`simple` every other
    statement, a nested ``def`` or ``class`` included.
    """

    #: The value of a name one branch never bound.
    missing: Any = None

    def __init__(self) -> None:
        self.env: dict[str, Any] = {}

    def join(self, a: Any, b: Any) -> Any:
        """A name's value after branches that left it ``a`` and ``b``."""
        raise NotImplementedError

    def expr(self, expr: ast.expr) -> None:
        """Check an expression that control flow evaluates."""

    def loop_head(self, stmt: ast.For | ast.AsyncFor) -> None:
        """Evaluate a ``for`` iterable and bind its target."""
        self.expr(stmt.iter)

    def simple(self, stmt: ast.stmt) -> None:
        """Handle a statement with no control flow of its own (by
        default, :meth:`expr` each expression it holds)."""
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self.expr(child)

    def block(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self.stmt(stmt)

    def stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.If):
            self.expr(stmt.test)
            before = dict(self.env)
            self.block(stmt.body)
            taken = self.env
            self.env = before
            self.block(stmt.orelse)
            self.merge(taken, self.env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            before = dict(self.env)
            if isinstance(stmt, ast.While):
                self.expr(stmt.test)
            else:
                self.loop_head(stmt)
            self.block(stmt.body)
            self.block(stmt.orelse)
            self.merge(before, self.env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.expr(item.context_expr)
            self.block(stmt.body)
        elif isinstance(stmt, ast.Try):
            before = dict(self.env)
            self.block(stmt.body)
            branches = [self.env]
            for handler in stmt.handlers:
                self.env = dict(before)
                self.block(handler.body)
                branches.append(self.env)
            self.merge(*branches)
            self.block(stmt.orelse)
            self.block(stmt.finalbody)
        else:
            self.simple(stmt)

    def merge(self, *branches: dict[str, Any]) -> None:
        keys = sorted(set().union(*branches))
        self.env = {key: reduce(self.join, (env.get(key, self.missing)
                                            for env in branches))
                    for key in keys}
