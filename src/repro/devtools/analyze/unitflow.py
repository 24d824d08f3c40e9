"""Flow-sensitive unit taint (RPR104).

An intraprocedural forward dataflow: a unit (``bytes``, ``pages``,
``ms``, ``seconds``) attaches to a value at a naming site or a
known-converter call and then propagates through assignments,
augmented assignments, returns, and resolved project-call boundaries —
so a ``bytes`` value laundered through a blandly named local is still
caught, and a rate like ``ops_per_page`` is correctly unit-less.
Every expression is checked wherever it appears: ``+``/``-``/``%`` and
the six ordering and equality comparisons, inside call arguments,
literals, comprehensions, lambdas, subscripts and f-strings, in ``for``
iterables, ``with`` items, defaults, decorators and class bodies.  That
covers every shape the retired lexical rule RPR007 saw.

The lattice per variable is tiny: ``None`` (unknown / dimensionless)
or one unit string.  The statement walk is the analyzer's one
:class:`~repro.devtools.analyze.project.FlowWalker`; this lattice joins
by agreement — a variable keeps a unit over an ``if``/``else`` only
when both arms agree, and over a loop only when the body agrees with
the state before it.  A name whose spelling carries a unit keeps that
unit regardless of the merge.  This is deliberately conservative: the
analysis prefers silence to a false positive, because it gates CI.
"""

from __future__ import annotations

import ast
import re

from .project import Finding, FlowWalker, FuncInfo, ModuleInfo, Project, finding_at

_TOKEN_SPLIT = re.compile(r"[_\W]+")
_TOKENS = {
    "bytes": frozenset({"bytes", "nbytes"}),
    "pages": frozenset({"pages", "npages"}),
    "ms": frozenset({"ms"}),
    "seconds": frozenset({"seconds"}),
}

#: Return units of the repro.units conversion helpers; their names mix
#: both unit tokens (``pages_for_bytes``) so lexical inference would
#: refuse to classify them.
KNOWN_RETURNS = {
    "repro.units:pages_for_bytes": "pages",
}

#: ms and seconds both measure time but at different scale; bytes and
#: pages both measure capacity.  Any cross-unit combination is a
#: conflict — same-dimension pairs just get a more pointed hint.
_CONVERT_HINT = {
    frozenset({"bytes", "pages"}): "repro.units.pages_for_bytes / "
                                   "DEFAULT_PAGE_SIZE",
    frozenset({"ms", "seconds"}): "repro.units.MILLISECOND",
}

#: Comparisons whose operands must share a unit (``in``/``is`` test
#: membership and identity, not magnitude).
_ORDERING = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)

#: Unresolved builtins whose result carries their arguments' unit.
_UNIT_PRESERVING = frozenset({"min", "max", "abs", "round", "sum"})


def _hint(a: str, b: str) -> str:
    return _CONVERT_HINT.get(frozenset({a, b}), "a repro.units conversion")


def unit_of_name(name: str) -> str | None:
    """Unit implied by a name, or None for unknown/ambiguous/rate names."""
    tokens = set(_TOKEN_SPLIT.split(name.lower()))
    if "per" in tokens:  # rates are dimensionless
        return None
    hits = [unit for unit, toks in _TOKENS.items() if tokens & toks]
    if len(hits) != 1:
        return None
    # Bare "ms"/"seconds" as a whole name is fine; bare single-token
    # heuristics stay narrow to avoid tainting loop counters etc.
    return hits[0]


class _FunctionUnits(FlowWalker):
    """One forward pass over a function (or module) body."""

    def __init__(self, analysis: "UnitFlow", mod: ModuleInfo,
                 scope: FuncInfo | ModuleInfo) -> None:
        super().__init__()
        self.analysis = analysis
        self.mod = mod
        self.scope = scope
        # qualname for messages, "" at module scope
        self.owner = scope.qualname if isinstance(scope, FuncInfo) else ""
        self._return_unit = unit_of_name(scope.name) \
            if isinstance(scope, FuncInfo) else None

    # -- expression units ----------------------------------------------------

    def unit_of(self, expr: ast.expr) -> str | None:
        """Unit of ``expr``, checking every subexpression on the way."""
        if isinstance(expr, ast.Name):
            # The spelling wins over the merged flow environment, so a
            # unit-named binding made on one branch keeps its unit.
            return unit_of_name(expr.id) or self.env.get(expr.id)
        if isinstance(expr, ast.BinOp):
            return self._binop_unit(expr)
        if isinstance(expr, ast.Compare):
            units = [self.unit_of(expr.left),
                     *map(self.unit_of, expr.comparators)]
            for op, left, right in zip(expr.ops, units, units[1:]):
                if isinstance(op, _ORDERING):
                    self._check_conflict(expr, left, right)
            return None
        if isinstance(expr, ast.UnaryOp):
            return self.unit_of(expr.operand)
        if isinstance(expr, ast.Call):
            return self._call_unit(expr)
        if isinstance(expr, ast.IfExp):
            self.unit_of(expr.test)
            a, b = self.unit_of(expr.body), self.unit_of(expr.orelse)
            return a if a == b else None
        self._visit_children(expr)
        if isinstance(expr, ast.Attribute):
            return unit_of_name(expr.attr)
        return None

    def _visit_children(self, node: ast.AST) -> None:
        """Check the expressions nested in ``node``: literal elements,
        comprehension clauses, lambda bodies and defaults, subscripts,
        f-string fields."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.unit_of(child)
            else:
                self._visit_children(child)

    def _binop_unit(self, expr: ast.BinOp) -> str | None:
        left, right = self.unit_of(expr.left), self.unit_of(expr.right)
        if isinstance(expr.op, (ast.Add, ast.Sub, ast.Mod)):
            self._check_conflict(expr, left, right)
            return left if left is not None else right
        # multiplication/division (and every other operator) performs a
        # conversion; the result's dimension is not either operand's,
        # so drop the taint.
        return None

    def _call_unit(self, expr: ast.Call) -> str | None:
        self.unit_of(expr.func)
        units = {arg: self.unit_of(arg)
                 for arg in (*expr.args, *(kw.value for kw in expr.keywords))}
        callees = self.analysis.project.callees(self.scope, expr)
        if not callees and isinstance(expr.func, ast.Name) and \
                expr.func.id in _UNIT_PRESERVING:
            found = {units[arg] for arg in expr.args} - {None}
            return found.pop() if len(found) == 1 else None
        for callee in callees:
            if callee in KNOWN_RETURNS:
                return KNOWN_RETURNS[callee]
            self._check_call_args(expr, callee, units)
        return None

    # -- conflict reporting --------------------------------------------------

    def _where(self) -> str:
        return f" in {self.owner}()" if self.owner else " at module scope"

    def _check_conflict(self, node: ast.AST, left: str | None,
                        right: str | None) -> None:
        if left is None or right is None or left == right:
            return
        self.analysis.report(
            self.mod, node,
            f"unit conflict{self._where()}: combines a {left}-valued "
            f"expression with a {right}-valued one; convert via "
            f"{_hint(left, right)} first",
        )

    def _check_call_args(self, call: ast.Call, callee: str,
                         units: dict[ast.expr, str | None]) -> None:
        project = self.analysis.project
        qualname = project.functions[callee].qualname
        for param, arg in project.bind_args(callee, call).items():
            want, got = unit_of_name(param), units[arg]
            if want is not None and got is not None and want != got:
                self.analysis.report(
                    self.mod, arg,
                    f"unit conflict{self._where()}: passes a {got}-valued "
                    f"argument to parameter '{param}' ({want}) of "
                    f"{qualname}(); convert via {_hint(want, got)} first",
                )

    # -- statements ----------------------------------------------------------

    def join(self, a: str | None, b: str | None) -> str | None:
        return a if a == b else None

    def expr(self, expr: ast.expr) -> None:
        self.unit_of(expr)

    def loop_head(self, stmt: ast.For | ast.AsyncFor) -> None:
        self.unit_of(stmt.iter)
        if isinstance(stmt.target, ast.Name):
            self.env[stmt.target.id] = unit_of_name(stmt.target.id)

    def simple(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            unit = self.unit_of(stmt.value)
            for tgt in stmt.targets:
                self._assign(tgt, unit, stmt)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign(stmt.target, self.unit_of(stmt.value), stmt)
        elif isinstance(stmt, ast.AugAssign):
            target, value = self.unit_of(stmt.target), self.unit_of(stmt.value)
            if isinstance(stmt.op, (ast.Add, ast.Sub, ast.Mod)):
                self._check_conflict(stmt, target, value)
            elif isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = None
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            got = self.unit_of(stmt.value)
            want = self._return_unit
            if want is not None and got is not None and want != got:
                self.analysis.report(
                    self.mod, stmt,
                    f"unit conflict{self._where()}: returns a {got}-valued "
                    f"expression from a {want}-valued function; convert via "
                    f"{_hint(want, got)} first",
                )
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # The body is its own scope (analysed separately); decorators
            # and defaults are evaluated here.
            args = stmt.args
            for expr in [*stmt.decorator_list, *args.defaults,
                         *args.kw_defaults]:
                if expr is not None:
                    self.unit_of(expr)
        elif isinstance(stmt, ast.ClassDef):
            for expr in [*stmt.decorator_list, *stmt.bases,
                         *(kw.value for kw in stmt.keywords)]:
                self.unit_of(expr)
            outer = self.env
            self.env = dict(outer)
            self.block(stmt.body)
            self.env = outer
        else:
            super().simple(stmt)  # e.g. an assert's call checks

    def _assign(self, target: ast.expr, unit: str | None,
                stmt: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            declared = unit_of_name(target.id)
            if declared is not None and unit is not None and declared != unit:
                self.analysis.report(
                    self.mod, stmt,
                    f"unit conflict{self._where()}: assigns a {unit}-valued "
                    f"expression to '{target.id}' ({declared}); convert via "
                    f"{_hint(declared, unit)} first",
                )
            self.env[target.id] = declared if declared is not None else unit
        elif isinstance(target, ast.Attribute):
            declared = unit_of_name(target.attr)
            if declared is not None and unit is not None and declared != unit:
                self.analysis.report(
                    self.mod, stmt,
                    f"unit conflict{self._where()}: assigns a {unit}-valued "
                    f"expression to attribute '{target.attr}' ({declared}); "
                    f"convert via {_hint(declared, unit)} first",
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, None, stmt)
        else:
            self._visit_children(target)  # a subscript's index expression


class UnitFlow:
    """Project-wide driver for the per-function unit dataflow."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.findings: list[Finding] = []

    def report(self, mod: ModuleInfo, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        self.findings.append(finding_at(mod, line, col, "RPR104", message))

    def run(self) -> list[Finding]:
        for mod in self.project.modules.values():
            _FunctionUnits(self, mod, mod).block(mod.tree.body)
        for func in self.project.functions.values():
            mod = self.project.modules[func.module]
            walker = _FunctionUnits(self, mod, func)
            walker.env = {arg.arg: unit_of_name(arg.arg)
                          for arg in func.params}
            walker.block(func.node.body)
        return sorted(self.findings, key=Finding.sort_key)


def check_units(project: Project) -> list[Finding]:
    """RPR104: flow-sensitive bytes/pages/ms/seconds taint conflicts."""
    return UnitFlow(project).run()
