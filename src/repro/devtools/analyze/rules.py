"""Per-module determinism and taxonomy rules (RPR001–006, RPR008, RPR009).

Each rule is an :class:`ast.NodeVisitor` run over one module's
already-parsed tree from the :class:`Project`, scoped by the module's
``repro``-relative path (:meth:`Rule.applies_to`).  The rules encode
the invariants behind the reproduction's byte-for-byte determinism
guarantee (DESIGN.md §8):

==========  ===========================================================
RPR001      unseeded or global randomness in library code
RPR002      wall-clock reads inside simulation modules
RPR003      builtin exceptions raised instead of the repro.errors taxonomy
RPR004      iteration over sets without ``sorted()`` (hash-order hazard)
RPR005      float ``==`` / ``!=`` comparisons in stats/, sim/ and engine/
RPR006      mutable default arguments
RPR008      naked ``except Exception`` swallowing the error taxonomy
RPR009      simulated-clock arithmetic outside ``repro/engine/``
==========  ===========================================================

RPR007 (lexical bytes/pages mixing) is retired: RPR104 sees every
expression it saw.  Its code is not reused.
"""

from __future__ import annotations

import ast

from .project import Finding, ModuleInfo, Project, finding_at, scope_nodes

#: Module directories (relative to the ``repro`` package root) that
#: hold *simulation* code, where wall-clock time is banned outright.
SIM_DIRS = ("sim", "cache", "raid", "core", "flash", "delta", "nvram", "faults",
            "engine", "serve")

#: Directories where exact float comparison is flagged (RPR005).
FLOAT_EQ_DIRS = ("stats", "sim", "engine")

#: The one directory allowed to advance simulated time (RPR009).
#: The harness/devtools side needs no allowlist constant: wall-clock
#: scoping is expressed positively through SIM_DIRS membership.
ENGINE_DIRS = ("engine",)


class Rule(ast.NodeVisitor):
    """Base class: one rule instance is created per checked module."""

    code: str = ""

    def __init__(self, project: Project, mod: ModuleInfo) -> None:
        self.project = project
        self.mod = mod
        self.findings: list[Finding] = []

    @classmethod
    def applies_to(cls, relpath: str) -> bool:
        """Whether this rule runs on the module at ``relpath``."""
        return True

    def run(self) -> list[Finding]:
        self.visit(self.mod.tree)
        return self.findings

    def report(self, node: ast.AST, message: str) -> None:
        self.findings.append(finding_at(
            self.mod, getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0), self.code, message))


def _in_dirs(relpath: str, dirs: tuple[str, ...]) -> bool:
    return relpath.split("/", 1)[0] in dirs


#: numpy.random attributes that construct *seedable* generators (fine
#: to call; RPR001 separately checks default_rng's arguments).
_NP_SEEDABLE = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator",
     "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"}
)


class UnseededRandomness(Rule):
    """Global or unseeded randomness (random.*, legacy np.random.*
    globals, default_rng() without a seed) breaks cross-run and
    cross-worker reproducibility; thread an explicit seed or
    np.random.Generator instead.
    """

    code = "RPR001"

    def visit_Call(self, node: ast.Call) -> None:
        target = self.project.external_name(self.mod, node.func)
        if target is not None:
            self._check(node, target)
        self.generic_visit(node)

    def _check(self, node: ast.Call, target: str) -> None:
        if target.startswith("random."):
            attr = target.split(".", 1)[1]
            if attr in ("Random", "SystemRandom") and (node.args or node.keywords):
                return  # random.Random(seed) is explicitly seeded
            self.report(
                node,
                f"call to {target}() uses the process-global random state; "
                "use a seeded np.random.Generator",
            )
            return
        if target.startswith("numpy.random."):
            attr = target.split(".", 2)[2]
            if "." in attr:
                return  # method on Generator etc., already seeded
            if attr not in _NP_SEEDABLE:
                self.report(
                    node,
                    f"legacy global np.random.{attr}() depends on hidden "
                    "state; use np.random.default_rng(seed)",
                )
            elif attr == "default_rng" and not node.args and not node.keywords:
                self.report(
                    node,
                    "default_rng() without a seed draws OS entropy; pass an "
                    "explicit seed",
                )


#: Call targets that read the wall clock.
_WALL_CLOCK = frozenset(
    {
        "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
        "time.monotonic", "time.monotonic_ns", "time.process_time",
        "time.process_time_ns", "time.clock_gettime", "time.localtime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)


class WallClock(Rule):
    """Simulation modules must be pure functions of their inputs:
    reading the wall clock (time.time, perf_counter, datetime.now)
    makes results run-dependent.  Simulated time comes from the
    trace; only the harness may time real execution.
    """

    code = "RPR002"

    @classmethod
    def applies_to(cls, relpath: str) -> bool:
        return _in_dirs(relpath, SIM_DIRS)

    def visit_Call(self, node: ast.Call) -> None:
        target = self.project.external_name(self.mod, node.func)
        if target in _WALL_CLOCK:
            self.report(
                node,
                f"wall-clock call {target}() in simulation code; simulated "
                "time must come from the trace/engine, not the host clock",
            )
        self.generic_visit(node)


#: Builtin exceptions that signal a *library* failure and must be
#: replaced by the repro.errors taxonomy.  TypeError, AssertionError,
#: NotImplementedError mark programming errors and deliberately
#: propagate unchanged (see repro.errors docstring); KeyError/IndexError/
#: StopIteration implement container and iterator protocols.
_FORBIDDEN_RAISES = frozenset(
    {"ValueError", "RuntimeError", "Exception", "BaseException",
     "OSError", "IOError", "EnvironmentError", "ArithmeticError",
     "LookupError", "BufferError"}
)


class BuiltinRaise(Rule):
    """Library code raises from the repro.errors taxonomy so callers can
    catch library failures without masking programming errors; bare
    ValueError/RuntimeError/... escape that contract.
    """

    code = "RPR003"

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        name = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name in _FORBIDDEN_RAISES:
            self.report(
                node,
                f"raise {name} from library code; use a repro.errors class "
                "(ConfigError, SimulationError, ...) instead",
            )
        self.generic_visit(node)


def _is_set_expr(node: ast.expr, set_vars: dict[str, bool]) -> bool:
    """Statically-known set expression (literal, constructor, tracked var)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    if isinstance(node, ast.Name):
        return set_vars.get(node.id, False)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # set algebra (a | b, a - b, ...) over known sets
        return _is_set_expr(node.left, set_vars) and _is_set_expr(node.right, set_vars)
    return False


class SetIteration(Rule):
    """Iterating a set feeds hash order into simulation state, which
    varies across PYTHONHASHSEED values and sweep workers; wrap the
    iterable in sorted() to pin a total order.
    """

    code = "RPR004"

    def __init__(self, project: Project, mod: ModuleInfo) -> None:
        super().__init__(project, mod)
        self._scopes: list[dict[str, bool]] = [{}]

    # -- scope tracking -------------------------------------------------
    def _walk_scope(self, node: ast.AST) -> None:
        self._scopes.append({})
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _walk_scope
    visit_AsyncFunctionDef = _walk_scope
    visit_Lambda = _walk_scope

    def _set_vars(self) -> dict[str, bool]:
        return self._scopes[-1]

    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = _is_set_expr(node.value, self._set_vars())
        for tgt in node.targets:
            if isinstance(tgt, ast.Name):
                self._set_vars()[tgt.id] = is_set
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and node.value is not None:
            self._set_vars()[node.target.id] = _is_set_expr(
                node.value, self._set_vars()
            )
        self.generic_visit(node)

    # -- iteration contexts ---------------------------------------------
    def _check_iter(self, iterable: ast.expr) -> None:
        if _is_set_expr(iterable, self._set_vars()):
            self.report(
                iterable,
                "iteration over a set is hash-ordered and nondeterministic "
                "across workers; use sorted(...) to fix the order",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node: ast.AST) -> None:
        for gen in node.generators:  # type: ignore[attr-defined]
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_GeneratorExp = _visit_comp
    visit_DictComp = _visit_comp

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # building another set keeps the order hazard contained; only
        # flag once the result is *iterated*, which the contexts above
        # catch.
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # list(s) / tuple(s) materialise hash order into a sequence
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple", "enumerate")
            and len(node.args) == 1
        ):
            self._check_iter(node.args[0])
        self.generic_visit(node)


def _is_floatish(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp):
        return _is_floatish(node.operand)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    ):
        return True
    return False


class FloatEquality(Rule):
    """Exact == / != against float values is brittle under
    re-association (parallel reduction order); compare with
    math.isclose or a tolerance.
    """

    code = "RPR005"

    @classmethod
    def applies_to(cls, relpath: str) -> bool:
        return _in_dirs(relpath, FLOAT_EQ_DIRS)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)) and (
                _is_floatish(left) or _is_floatish(right)
            ):
                self.report(
                    node,
                    "exact float == / != comparison; use math.isclose or "
                    "an explicit tolerance",
                )
                break
        self.generic_visit(node)


_MUTABLE_CTORS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter",
     "OrderedDict"}
)


class MutableDefault(Rule):
    """Mutable default arguments are shared across calls, leaking state
    between simulation runs; default to None (or use
    dataclasses.field(default_factory=...)).
    """

    code = "RPR006"

    def _check_args(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        for default in [*node.args.defaults, *node.args.kw_defaults]:
            if default is None:
                continue
            mutable = isinstance(
                default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CTORS
            )
            if mutable:
                self.report(
                    default,
                    f"mutable default argument in {node.name}(); default to "
                    "None and construct inside the function",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_args(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_args(node)
        self.generic_visit(node)


#: Over-broad exception classes a handler must not silently absorb.
_BROAD_CATCHES = frozenset({"Exception", "BaseException"})


def _catches_broadly(handler: ast.ExceptHandler) -> bool:
    """Whether the handler matches Exception/BaseException or everything."""
    def broad(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in _BROAD_CATCHES
        if isinstance(expr, ast.Attribute):
            return expr.attr in _BROAD_CATCHES
        return False

    if handler.type is None:
        return True  # bare except:
    if isinstance(handler.type, ast.Tuple):
        return any(broad(el) for el in handler.type.elts)
    return broad(handler.type)


def _reraises(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body (re-)raises on every analysis we attempt.

    A ``raise`` anywhere in the handler's own statements counts —
    including ``raise SomeError(...) from exc`` conversions into the
    taxonomy — but raises inside functions *defined* in the handler do
    not execute when the handler runs, so nested scopes are skipped.
    """
    return any(isinstance(node, ast.Raise) for node in scope_nodes(handler))


class BroadExcept(Rule):
    """`except Exception` (or bare except) in library code swallows
    programming errors together with taxonomy failures, hiding
    determinism bugs behind fallback paths; catch a repro.errors
    class, a specific builtin, or re-raise.
    """

    code = "RPR008"

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if _catches_broadly(node) and not _reraises(node):
            what = "bare except:" if node.type is None else \
                "except over Exception/BaseException"
            self.report(
                node,
                f"{what} swallows the error silently; catch a repro.errors "
                "class (ReproError subclass) or re-raise",
            )
        self.generic_visit(node)


def _mentions_clock_state(node: ast.expr) -> str | None:
    """Name of the simulated-clock state ``node`` touches, if any."""
    if isinstance(node, ast.Attribute) and node.attr == "busy_until":
        return ".busy_until"
    if isinstance(node, ast.Name) and node.id == "earliest":
        return "earliest"
    return None


class ClockArithmetic(Rule):
    """Simulated time advances only inside repro.engine: mutating a
    device's busy_until clock or computing start times with
    max(earliest, ...) elsewhere re-creates the ad-hoc scheduling the
    engine replaced and silently forks the timing model.  Serve
    operations through an engine resource instead.
    """

    code = "RPR009"

    @classmethod
    def applies_to(cls, relpath: str) -> bool:
        return not _in_dirs(relpath, ENGINE_DIRS)

    def _check_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Attribute) and target.attr == "busy_until":
            self.report(
                target,
                "direct mutation of a device busy_until clock outside "
                "repro/engine/; device timing belongs to the engine's "
                "resources",
            )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for el in target.elts:
                self._check_target(el)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "max":
            for arg in node.args:
                what = _mentions_clock_state(arg)
                if what is not None:
                    self.report(
                        node,
                        f"max({what}, ...) start-time arithmetic outside "
                        "repro/engine/; queue-discipline decisions belong "
                        "to the engine's resources",
                    )
                    break
        self.generic_visit(node)


#: Every per-module rule, in code order.
RULES: tuple[type[Rule], ...] = (
    UnseededRandomness, WallClock, BuiltinRaise, SetIteration,
    FloatEquality, MutableDefault, BroadExcept, ClockArithmetic,
)


def check_rules(project: Project) -> list[Finding]:
    """RPR001–006, RPR008, RPR009 over every module of ``project``."""
    findings: list[Finding] = []
    for mod in project.modules.values():
        for rule in RULES:
            if rule.applies_to(mod.relpath):
                findings.extend(rule(project, mod).run())
    return sorted(findings, key=Finding.sort_key)
