"""RNG-stream provenance (RPR105, RPR106, RPR111).

Determinism rests on RNG *ownership*: every ``numpy.random.Generator``
is constructed from a derived seed for exactly one device (or one
sweep cell) and never shared.  Two devices drawing from one stream
couple their fault schedules — results then depend on service order,
which is exactly the nondeterminism the engine is built to exclude.

This analysis tracks stream values intraprocedurally, in flow order
(:class:`~repro.devtools.analyze.project.FlowWalker`): each name holds
the set of streams it may refer to, and branches merge by union.

* A *stream* is born at a ``numpy.random`` constructor call
  (``default_rng``, ``Generator``, ``PCG64``, ...), at a call to a
  project class that constructs one in its ``__init__`` (e.g.
  ``DeviceFaultStream``), or at a call to a project function whose
  return annotation or return statements yield one.
* A *sink* takes ownership: storing the stream into an attribute or a
  subscript (a device/cell registry), or passing it to a resolved
  project callee that retains the corresponding parameter (stores it
  on ``self`` or into a container).
* One stream value reaching **two or more** sinks is RPR105.  Calls
  the analysis cannot resolve are assumed non-retaining — the analysis
  gates CI, so it prefers a false negative to a false positive.
* Constructing a stream at module scope (RPR106) is always wrong: a
  module-global generator outlives every device and sweep cell, so its
  consumption order depends on import and scheduling history.
* In the serving layer (RPR111) stream *birth* has an extra obligation:
  the seed expression must be sha256-derived.  Tenant substreams are
  only independent, order-free, and replayable because every one is
  keyed off the composer seed through a cryptographic hash
  (``substream_seed``); a serve-layer ``default_rng(seed)`` whose seed
  does not flow through ``hashlib.sha256`` — directly, via a project
  function that transitively hashes, or via a local name assigned from
  one — couples streams through accidental seed collisions.
"""

from __future__ import annotations

import ast

from .project import (
    Finding,
    FlowWalker,
    FuncInfo,
    ModuleInfo,
    Project,
    finding_at,
    scope_nodes,
)

#: numpy.random constructors that yield a stream object.
RNG_CTORS = frozenset(f"numpy.random.{name}" for name in (
    "default_rng", "Generator", "PCG64", "PCG64DXSM", "Philox", "SFC64",
    "MT19937", "RandomState",
))

#: The hash a serve-layer seed must flow through (RPR111).
SHA256 = "hashlib.sha256"

#: Top-level packages whose RNG streams must be seeded from a
#: sha256-derived substream (RPR111).
HASHED_SEED_PACKAGES = frozenset({"serve"})


class _Summaries:
    """Project-level facts the per-function walk consumes."""

    def __init__(self, project: Project) -> None:
        self.project = project
        #: function ids whose call yields a stream value: constructors
        #: of classes whose instances own a Generator, and functions
        #: returning a stream.
        self.stream_funcs: set[str] = set()
        #: function id -> parameter names it retains (stores durably).
        self.retained_params: dict[str, set[str]] = {}
        #: function ids whose body (transitively) calls hashlib.sha256.
        self.hashing_funcs: set[str] = set()
        self._build()

    def _build(self) -> None:
        project = self.project
        # Pass 1: classes that construct an RNG inside a method body.
        stream_classes: set[str] = set()
        for cls in project.classes.values():
            mod = project.modules[cls.module]
            init = cls.methods.get("__init__") or cls.methods.get(
                "__post_init__")
            if init is None:
                continue
            for node in scope_nodes(init):
                if isinstance(node, ast.Call) and \
                        project.external_name(mod, node.func) in RNG_CTORS:
                    stream_classes.add(cls.id)
                    break
        # Subclasses of stream-like classes are stream-like too.
        for cls_id in sorted(stream_classes):
            stream_classes |= project.subclasses_of(cls_id)
        ctors = {f"{cls_id}.{name}" for cls_id in stream_classes
                 for name in ("__init__", "__post_init__")}
        ctors &= set(project.functions)

        # Pass 2: functions whose annotation or returns yield a stream.
        returns: set[str] = set()
        for func in project.functions.values():
            mod = project.modules[func.module]
            ann = func.node.returns
            if ann is not None:
                resolved = project.resolve_class_expr(mod, ann)
                if resolved is not None and resolved.id in stream_classes:
                    returns.add(func.id)
                    continue
                if isinstance(ann, ast.Attribute) and ann.attr == "Generator":
                    returns.add(func.id)
                    continue
            for node in scope_nodes(func.node):
                if isinstance(node, ast.Return) and node.value is not None \
                        and isinstance(node.value, ast.Call):
                    if project.external_name(mod, node.value.func) in \
                            RNG_CTORS or ctors.intersection(
                                project.callees(func, node.value)):
                        returns.add(func.id)
                        break
        self.stream_funcs = ctors | returns

        # Pass 3: retained parameters (stored to self.*, an attribute,
        # or a subscript anywhere in the body).
        for func in project.functions.values():
            params = {a.arg for a in func.params} - {"self"}
            retained = {
                node.value.id for node in scope_nodes(func.node)
                if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Name)
                and node.value.id in params
                and any(isinstance(tgt, (ast.Attribute, ast.Subscript))
                        for tgt in node.targets)
            }
            if retained:
                self.retained_params[func.id] = retained

        # Pass 4: sha256-deriving functions, to a fixed point (a
        # function that calls a hashing function hashes too).
        changed = True
        while changed:
            changed = False
            for func in project.functions.values():
                if func.id in self.hashing_funcs:
                    continue
                mod = project.modules[func.module]
                for node in scope_nodes(func.node):
                    if not isinstance(node, ast.Call):
                        continue
                    if project.external_name(mod, node.func) == SHA256 or \
                            self.hashing_funcs.intersection(
                                project.callees(func, node)):
                        self.hashing_funcs.add(func.id)
                        changed = True
                        break


class RngFlow:
    """Per-function stream tracking over the whole project."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.summaries = _Summaries(project)
        self.findings: list[Finding] = []

    # -- stream production ---------------------------------------------------

    def _is_stream_call(self, mod: ModuleInfo, scope: FuncInfo | ModuleInfo,
                        call: ast.Call) -> bool:
        if self.project.external_name(mod, call.func) in RNG_CTORS:
            return True
        return not self.summaries.stream_funcs.isdisjoint(
            self.project.callees(scope, call))

    # -- module scope (RPR106) -----------------------------------------------

    def _check_module_scope(self, mod: ModuleInfo) -> None:
        for stmt in mod.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and \
                        self._is_stream_call(mod, mod, node):
                    self.findings.append(finding_at(
                        mod, node.lineno, node.col_offset, "RPR106",
                        "RNG stream constructed at module scope: a global "
                        "generator outlives every device and sweep cell; "
                        "construct it per-device/per-cell from a derived "
                        "seed instead",
                    ))

    # -- function scope (RPR105) ---------------------------------------------

    def _check_function(self, func: FuncInfo) -> None:
        mod = self.project.modules[func.module]
        streams = _Streams(self, func)
        streams.block(func.node.body)
        for birth in sorted(streams.sinks):
            events = sorted(streams.sinks[birth])
            if len(events) < 2:
                continue
            line, col = birth
            var = streams.names.get(birth, "<stream>")
            where = ", ".join(f"line {ln} ({what})" for ln, what in events)
            self.findings.append(finding_at(
                mod, line, col, "RPR105",
                f"RNG stream '{var}' in {func.qualname}() flows into "
                f"{len(events)} owners ({where}); every device/cell must "
                "own a distinct seeded stream — construct one per owner",
            ))

    # -- serve-layer seed provenance (RPR111) --------------------------------

    def _expr_hashed(
        self, mod: ModuleInfo, func: FuncInfo, expr: ast.expr,
        tainted: set[str],
    ) -> bool:
        """True when a sha256 derivation reaches ``expr``."""
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                if self.project.external_name(mod, node.func) == SHA256 or \
                        self.summaries.hashing_funcs.intersection(
                            self.project.callees(func, node)):
                    return True
            elif isinstance(node, ast.Name) and node.id in tainted:
                return True
        return False

    def _check_seed_provenance(self, func: FuncInfo) -> None:
        mod = self.project.modules[func.module]
        if mod.top_package not in HASHED_SEED_PACKAGES:
            return
        # Intraprocedural name taint: locals assigned from a hashed
        # expression carry the derivation, to a fixed point (assignment
        # chains need not appear in source order in a breadth-first walk).
        tainted: set[str] = set()
        assigns = [n for n in scope_nodes(func.node)
                   if isinstance(n, ast.Assign)]
        changed = True
        while changed:
            changed = False
            for node in assigns:
                if not self._expr_hashed(mod, func, node.value, tainted):
                    continue
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name) and tgt.id not in tainted:
                        tainted.add(tgt.id)
                        changed = True
        for node in scope_nodes(func.node):
            if not (isinstance(node, ast.Call) and self.project.external_name(
                    mod, node.func) in RNG_CTORS):
                continue
            seed: ast.expr | None = node.args[0] if node.args else None
            if seed is None:
                for kw in node.keywords:
                    if kw.arg == "seed":
                        seed = kw.value
            if seed is not None and \
                    self._expr_hashed(mod, func, seed, tainted):
                continue
            self.findings.append(finding_at(
                mod, node.lineno, node.col_offset, "RPR111",
                f"serve-layer RNG stream in {func.qualname}() is not "
                "seeded from a sha256-derived substream; derive the seed "
                "through substream_seed() (or another hashlib.sha256 "
                "derivation) so tenant streams stay independent and "
                "replayable",
            ))

    def run(self) -> list[Finding]:
        for mod in self.project.modules.values():
            self._check_module_scope(mod)
        for func in self.project.functions.values():
            self._check_function(func)
            self._check_seed_provenance(func)
        return sorted(self.findings, key=Finding.sort_key)


class _Streams(FlowWalker):
    """RPR105's walk over one function body.

    Each name holds the births (``(line, col)`` of the constructing
    call) of the streams it may refer to; branches merge by union.  A
    store into an attribute or a subscript, or an argument a callee
    retains, is a sink of every birth its value may hold.
    """

    missing: frozenset[tuple[int, int]] = frozenset()

    def __init__(self, flow: RngFlow, func: FuncInfo) -> None:
        super().__init__()
        self.flow, self.func = flow, func
        self.mod = flow.project.modules[func.module]
        #: birth -> the first name it was bound to.
        self.names: dict[tuple[int, int], str] = {}
        #: birth -> (line, what) of each sink it reaches.
        self.sinks: dict[tuple[int, int], list[tuple[int, str]]] = {}

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def _sink(self, value: ast.expr, line: int, what: str) -> None:
        if isinstance(value, ast.Name):
            for birth in self.env.get(value.id, ()):
                self.sinks.setdefault(birth, []).append((line, what))

    def expr(self, node: ast.AST) -> None:
        """Record each call under ``node`` (an expression or a whole
        statement) that passes a stream to a retaining callee as a sink."""
        project = self.flow.project
        for call in scope_nodes(node):
            if not isinstance(call, ast.Call):
                continue
            owners: dict[ast.expr, str] = {}
            for callee in project.callees(self.func, call):
                kept = self.flow.summaries.retained_params.get(callee, ())
                for param, arg in project.bind_args(callee, call).items():
                    if param in kept:
                        owners.setdefault(arg, callee)
            for arg, callee in owners.items():
                self._sink(arg, call.lineno, f"passed to {callee}")

    def loop_head(self, stmt: ast.For | ast.AsyncFor) -> None:
        self.expr(stmt.iter)
        if isinstance(stmt.target, ast.Name):
            self.env[stmt.target.id] = self.missing

    def simple(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # a nested body is a scope of its own
        self.expr(stmt)
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]  # ``rng: Generator = ...`` binds alike
        else:
            return
        value = stmt.value
        if isinstance(value, ast.Call) and self.flow._is_stream_call(
                self.mod, self.func, value):
            births = frozenset({(value.lineno, value.col_offset)})
        elif isinstance(value, ast.Name):  # an alias: the same stream
            births = self.env.get(value.id, self.missing)
        else:
            births = self.missing
        for tgt in targets:
            if isinstance(tgt, ast.Name):
                self.env[tgt.id] = births
                for birth in births:
                    self.names.setdefault(birth, tgt.id)
            elif isinstance(tgt, (ast.Attribute, ast.Subscript)):
                # an owner (a construction stored directly has no other)
                self._sink(value, stmt.lineno, "stored")


def check_rng_provenance(project: Project) -> list[Finding]:
    """RPR105/RPR106/RPR111: stream sharing, module-global streams,
    and serve-layer sha256 seed provenance."""
    return RngFlow(project).run()
