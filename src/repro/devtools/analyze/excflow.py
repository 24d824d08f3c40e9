"""Exception-flow verification (RPR107, RPR108).

Computes, for every project function, the set of ``repro.errors``
taxonomy classes it *may raise* — a fixpoint over the project call
graph with structured ``try``/``except`` evaluation — and checks the
public entry points of the simulation layers (``sim``, ``engine``,
``faults``, ``serve``) against their declared :func:`repro.errors.raises`
contracts:

* **RPR107** — a reachable taxonomy raise is missing from the entry
  point's declared contract.  Declaring a base class covers its
  subclasses (``except`` semantics); over-declaration is allowed, so
  contracts can be written generously without going stale.
* **RPR108** — a public entry point that can raise taxonomy errors has
  no contract at all.

:class:`repro.errors.ConfigError` is **ambient**: every boundary may
reject an invalid configuration, so it is excluded from may-raise sets
entirely and never needs declaring.  Dunder methods are exempt from
RPR108 (an ``__init__`` is not an entry point), though a dunder that
*declares* a contract is still held to it.

Calls are resolved by :meth:`Project.callees
<repro.devtools.analyze.project.Project.callees>`, the analyzer's one
call model (its docstring lists the receiver shapes it types); a call
it cannot resolve contributes nothing to a may-raise set.
"""

from __future__ import annotations

import ast

from .project import Finding, FuncInfo, Project, finding_at, scope_nodes

ERRORS_MODULE = "repro.errors"
ROOT_ERROR = f"{ERRORS_MODULE}:ReproError"
AMBIENT = f"{ERRORS_MODULE}:ConfigError"
RAISES_DECORATOR = f"{ERRORS_MODULE}:raises"

#: Top-level packages whose public functions are checked entry points.
ENTRY_PACKAGES = frozenset({"sim", "engine", "faults", "serve"})

_MAX_ITERATIONS = 50


class ExceptionFlow:
    """May-raise sets and contract checks over one :class:`Project`."""

    def __init__(self, project: Project) -> None:
        self.project = project
        #: taxonomy class ids ("repro.errors:SimulationError").
        self.taxonomy: set[str] = set()
        self._ambient: set[str] = set()
        #: func id -> taxonomy ids it may raise (ConfigError excluded).
        self.may_raise: dict[str, set[str]] = {}
        #: func id -> declared contract ids, only when @raises is present.
        self.declared: dict[str, set[str]] = {}
        self._build_taxonomy()
        self._collect_contracts()
        self._solve()

    # -- setup ---------------------------------------------------------------

    def _build_taxonomy(self) -> None:
        if ROOT_ERROR in self.project.classes:
            self.taxonomy = self.project.subclasses_of(ROOT_ERROR)
        if AMBIENT in self.project.classes:
            self._ambient = self.project.subclasses_of(AMBIENT)

    def _collect_contracts(self) -> None:
        for func in self.project.functions.values():
            mod = self.project.modules[func.module]
            for dec in func.node.decorator_list:
                if not isinstance(dec, ast.Call):
                    continue
                target = self.project.resolve_func_expr(mod, dec.func)
                if target != RAISES_DECORATOR:
                    continue
                declared: set[str] = set()
                for arg in dec.args:
                    cls = self.project.resolve_class_expr(mod, arg)
                    if cls is not None and cls.id in self.taxonomy:
                        declared.add(cls.id)
                self.declared[func.id] = declared

    # -- raise resolution ----------------------------------------------------

    def _taxonomy_of(self, func: FuncInfo, expr: ast.expr) -> str | None:
        target = expr.func if isinstance(expr, ast.Call) else expr
        cls = self.project.resolve_class_expr(
            self.project.modules[func.module], target)
        if cls is None or cls.id not in self.taxonomy:
            return None
        if cls.id in self._ambient:
            return None  # ConfigError is ambient, never tracked
        return cls.id

    def _caught(self, func: FuncInfo, handler: ast.ExceptHandler) -> set[str]:
        """Taxonomy classes a handler clause catches (closure)."""
        if handler.type is None:
            return set(self.taxonomy)
        exprs = handler.type.elts \
            if isinstance(handler.type, ast.Tuple) else [handler.type]
        mod = self.project.modules[func.module]
        caught: set[str] = set()
        for expr in exprs:
            cls = self.project.resolve_class_expr(mod, expr)
            if cls is not None:
                if cls.id in self.taxonomy:
                    caught |= self.project.subclasses_of(cls.id)
                continue
            name = expr.attr if isinstance(expr, ast.Attribute) else (
                expr.id if isinstance(expr, ast.Name) else "")
            if name in ("Exception", "BaseException"):
                caught |= set(self.taxonomy)
        return caught

    # -- structured body evaluation ------------------------------------------

    def _expr_calls(self, func: FuncInfo, node: ast.AST) -> set[str]:
        """May-raise contribution of calls in an expression subtree
        (deferred bodies, such as a lambda's, don't raise here)."""
        out: set[str] = set()
        for cur in scope_nodes(node):
            if isinstance(cur, ast.Call):
                for callee in self.project.callees(func, cur):
                    out |= self.may_raise.get(callee, set())
        return out

    def _block(self, func: FuncInfo, stmts: list[ast.stmt],
               reraise: set[str]) -> set[str]:
        out: set[str] = set()
        for stmt in stmts:
            out |= self._stmt(func, stmt, reraise)
        return out

    def _stmt(self, func: FuncInfo, stmt: ast.stmt,
              reraise: set[str]) -> set[str]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return set()
        if isinstance(stmt, ast.Raise):
            out = set()
            if stmt.exc is None:
                out |= reraise
            else:
                out |= self._expr_calls(func, stmt.exc)
                cls = self._taxonomy_of(func, stmt.exc)
                if cls is not None:
                    out.add(cls)
            if stmt.cause is not None:
                out |= self._expr_calls(func, stmt.cause)
            return out
        if isinstance(stmt, ast.Try):
            body = self._block(func, stmt.body, reraise)
            escaped = set(body)
            handler_sets: list[set[str]] = []
            for handler in stmt.handlers:
                caught = self._caught(func, handler)
                handler_sets.append(
                    self._block(func, handler.body, reraise=body & caught))
                escaped -= caught
            out = escaped
            for handled in handler_sets:
                out |= handled
            out |= self._block(func, stmt.orelse, reraise)
            out |= self._block(func, stmt.finalbody, reraise)
            return out
        if isinstance(stmt, (ast.If, ast.While)):
            out = self._expr_calls(func, stmt.test)
            out |= self._block(func, stmt.body, reraise)
            out |= self._block(func, stmt.orelse, reraise)
            return out
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            out = self._expr_calls(func, stmt.iter)
            out |= self._block(func, stmt.body, reraise)
            out |= self._block(func, stmt.orelse, reraise)
            return out
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            out: set[str] = set()
            for item in stmt.items:
                out |= self._expr_calls(func, item.context_expr)
            out |= self._block(func, stmt.body, reraise)
            return out
        return self._expr_calls(func, stmt)

    # -- fixpoint ------------------------------------------------------------

    def _solve(self) -> None:
        funcs = sorted(self.project.functions)
        self.may_raise = {fid: set() for fid in funcs}
        for _ in range(_MAX_ITERATIONS):
            changed = False
            for fid in funcs:
                func = self.project.functions[fid]
                new = self._block(func, list(func.node.body), set())
                if new != self.may_raise[fid]:
                    self.may_raise[fid] = new
                    changed = True
            if not changed:
                return
        # The lattice is finite and monotone, so this is unreachable;
        # bail out with the partial result rather than spinning.

    # -- contract checks -----------------------------------------------------

    def _covered(self, declared: set[str]) -> set[str]:
        out: set[str] = set()
        for cls_id in declared:
            out |= self.project.subclasses_of(cls_id)
        return out

    @staticmethod
    def _class_names(ids: set[str]) -> str:
        return ", ".join(sorted(i.rsplit(":", 1)[1] for i in ids))

    def check(self) -> list[Finding]:
        findings: list[Finding] = []
        for fid in sorted(self.project.functions):
            func = self.project.functions[fid]
            mod = self.project.modules[func.module]
            if mod.top_package not in ENTRY_PACKAGES or not func.is_public:
                continue
            computed = self.may_raise[fid]
            declared = self.declared.get(fid)
            if declared is None:
                if computed and not func.name.startswith("__"):
                    findings.append(finding_at(
                        mod, func.node.lineno, func.node.col_offset, "RPR108",
                        f"public entry point {func.qualname}() may raise "
                        f"{self._class_names(computed)} but declares no "
                        "contract; add @raises(...) from repro.errors",
                    ))
                continue
            missing = computed - self._covered(declared)
            if missing:
                findings.append(finding_at(
                    mod, func.node.lineno, func.node.col_offset, "RPR107",
                    f"contract of {func.qualname}() is missing reachable "
                    f"raise(s): {self._class_names(missing)}; extend "
                    "@raises(...) or handle them inside",
                ))
        return sorted(findings, key=Finding.sort_key)


def check_contracts(project: Project) -> list[Finding]:
    """RPR107/RPR108: may-raise sets vs declared @raises contracts."""
    return ExceptionFlow(project).check()
