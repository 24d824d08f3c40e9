"""Exception-flow verification (RPR107, RPR108).

Computes, for every project function, the set of ``repro.errors``
taxonomy classes it *may raise* — a fixpoint over the project call
graph with structured ``try``/``except`` evaluation — and checks the
public entry points of the simulation layers (``sim``, ``engine``,
``faults``) against their declared :func:`repro.errors.raises`
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

Soundness note: calls the analysis cannot resolve (duck-typed
callables, external libraries) contribute nothing to may-raise sets.
The resolver covers module functions, imported names, ``self.m()``,
construction-tracked ``self.attr.m()`` and local ``v = Cls(); v.m()``
receivers, ``super().m()`` with a single project base, and class
construction (``__init__``/``__post_init__``).  That is enough to make
the sets *useful* (they catch real escalation-chain gaps, see the
FaultPipelineHook proof in tests) without pretending to be complete.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .project import Finding, FuncInfo, ModuleInfo, Project, finding_at

ERRORS_MODULE = "repro.errors"
ROOT_ERROR = f"{ERRORS_MODULE}:ReproError"
AMBIENT = f"{ERRORS_MODULE}:ConfigError"
RAISES_DECORATOR = f"{ERRORS_MODULE}:raises"

#: Top-level packages whose public functions are checked entry points.
ENTRY_PACKAGES = frozenset({"sim", "engine", "faults", "serve"})

_MAX_ITERATIONS = 50


@dataclass
class _FuncCtx:
    """Resolution context for one function body."""

    mod: ModuleInfo
    func: FuncInfo
    class_id: str = ""
    local_classes: dict[str, str] = field(default_factory=dict)


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

    # -- call/raise resolution -----------------------------------------------

    def _make_ctx(self, func: FuncInfo) -> _FuncCtx:
        mod = self.project.modules[func.module]
        class_id = f"{func.module}:{func.class_name}" if func.class_name else ""
        ctx = _FuncCtx(mod=mod, func=func, class_id=class_id)
        for node in ast.walk(func.node):
            if isinstance(node, ast.Assign) and \
                    isinstance(node.value, ast.Call):
                cls = self.project.resolve_class_expr(mod, node.value.func)
                if cls is None:
                    continue
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        ctx.local_classes.setdefault(tgt.id, cls.id)
        return ctx

    def _callees(self, ctx: _FuncCtx, call: ast.Call) -> list[str]:
        project = self.project
        resolved = project.resolve_func_expr(ctx.mod, call.func)
        if resolved is not None:
            if resolved in project.functions:
                return [resolved]
            if resolved in project.classes:
                out = []
                for name in ("__init__", "__post_init__"):
                    method = project.find_method(resolved, name)
                    if method is not None:
                        out.append(method.id)
                return out
            return []
        func = call.func
        if not isinstance(func, ast.Attribute):
            return []
        base = func.value
        if isinstance(base, ast.Name):
            receiver = ""
            if base.id == "self" and ctx.class_id:
                receiver = ctx.class_id
            elif base.id in ctx.local_classes:
                receiver = ctx.local_classes[base.id]
            if receiver:
                method = project.find_method(receiver, func.attr)
                if method is not None:
                    return [method.id]
            return []
        if isinstance(base, ast.Attribute) and \
                isinstance(base.value, ast.Name) and \
                base.value.id == "self" and ctx.class_id:
            for cid in project.class_mro(ctx.class_id):
                attr_cls = project.classes[cid].attr_classes.get(base.attr)
                if attr_cls is not None:
                    method = project.find_method(attr_cls, func.attr)
                    return [method.id] if method is not None else []
            return []
        if isinstance(base, ast.Call) and isinstance(base.func, ast.Name) \
                and base.func.id == "super" and ctx.class_id:
            bases = project.classes[ctx.class_id].bases
            if len(bases) == 1:
                method = project.find_method(bases[0], func.attr)
                if method is not None:
                    return [method.id]
        return []

    def _taxonomy_of(self, ctx: _FuncCtx, expr: ast.expr) -> str | None:
        target = expr.func if isinstance(expr, ast.Call) else expr
        cls = self.project.resolve_class_expr(ctx.mod, target)
        if cls is None or cls.id not in self.taxonomy:
            return None
        if cls.id in self._ambient:
            return None  # ConfigError is ambient, never tracked
        return cls.id

    def _caught(self, ctx: _FuncCtx, handler: ast.ExceptHandler) -> set[str]:
        """Taxonomy classes a handler clause catches (closure)."""
        if handler.type is None:
            return set(self.taxonomy)
        exprs = handler.type.elts \
            if isinstance(handler.type, ast.Tuple) else [handler.type]
        caught: set[str] = set()
        for expr in exprs:
            cls = self.project.resolve_class_expr(ctx.mod, expr)
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

    def _expr_calls(self, ctx: _FuncCtx, node: ast.AST) -> set[str]:
        """May-raise contribution of calls in an expression subtree."""
        out: set[str] = set()
        stack: list[ast.AST] = [node]
        while stack:
            cur = stack.pop()
            if isinstance(cur, (ast.Lambda, ast.FunctionDef,
                                ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # deferred bodies don't raise here
            if isinstance(cur, ast.Call):
                for callee in self._callees(ctx, cur):
                    out |= self.may_raise.get(callee, set())
            stack.extend(ast.iter_child_nodes(cur))
        return out

    def _block(self, ctx: _FuncCtx, stmts: list[ast.stmt],
               reraise: set[str]) -> set[str]:
        out: set[str] = set()
        for stmt in stmts:
            out |= self._stmt(ctx, stmt, reraise)
        return out

    def _stmt(self, ctx: _FuncCtx, stmt: ast.stmt,
              reraise: set[str]) -> set[str]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return set()
        if isinstance(stmt, ast.Raise):
            out = set()
            if stmt.exc is None:
                out |= reraise
            else:
                out |= self._expr_calls(ctx, stmt.exc)
                cls = self._taxonomy_of(ctx, stmt.exc)
                if cls is not None:
                    out.add(cls)
            if stmt.cause is not None:
                out |= self._expr_calls(ctx, stmt.cause)
            return out
        if isinstance(stmt, ast.Try):
            body = self._block(ctx, stmt.body, reraise)
            escaped = set(body)
            handler_sets: list[set[str]] = []
            for handler in stmt.handlers:
                caught = self._caught(ctx, handler)
                handler_sets.append(
                    self._block(ctx, handler.body, reraise=body & caught))
                escaped -= caught
            out = escaped
            for handled in handler_sets:
                out |= handled
            out |= self._block(ctx, stmt.orelse, reraise)
            out |= self._block(ctx, stmt.finalbody, reraise)
            return out
        if isinstance(stmt, (ast.If, ast.While)):
            out = self._expr_calls(ctx, stmt.test)
            out |= self._block(ctx, stmt.body, reraise)
            out |= self._block(ctx, stmt.orelse, reraise)
            return out
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            out = self._expr_calls(ctx, stmt.iter)
            out |= self._block(ctx, stmt.body, reraise)
            out |= self._block(ctx, stmt.orelse, reraise)
            return out
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            out: set[str] = set()
            for item in stmt.items:
                out |= self._expr_calls(ctx, item.context_expr)
            out |= self._block(ctx, stmt.body, reraise)
            return out
        return self._expr_calls(ctx, stmt)

    # -- fixpoint ------------------------------------------------------------

    def _solve(self) -> None:
        funcs = sorted(self.project.functions)
        self.may_raise = {fid: set() for fid in funcs}
        contexts = {fid: self._make_ctx(self.project.functions[fid])
                    for fid in funcs}
        for _ in range(_MAX_ITERATIONS):
            changed = False
            for fid in funcs:
                ctx = contexts[fid]
                new = self._block(ctx, list(ctx.func.node.body), set())
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
