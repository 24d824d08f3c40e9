"""RNG-stream provenance (RPR105, RPR106, RPR111).

Determinism rests on RNG *ownership*: every ``numpy.random.Generator``
is constructed from a derived seed for exactly one device (or one
sweep cell) and never shared.  Two devices drawing from one stream
couple their fault schedules — results then depend on service order,
which is exactly the nondeterminism the engine is built to exclude.

This analysis tracks stream values intraprocedurally:

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

from .project import Finding, FuncInfo, ModuleInfo, Project, finding_at

#: numpy.random constructor names that yield a stream object.
RNG_CTORS = frozenset({
    "default_rng", "Generator", "PCG64", "PCG64DXSM", "Philox", "SFC64",
    "MT19937", "RandomState",
})

#: Top-level packages whose RNG streams must be seeded from a
#: sha256-derived substream (RPR111).
HASHED_SEED_PACKAGES = frozenset({"serve"})


def _is_numpy_rng_call(mod: ModuleInfo, call: ast.Call) -> bool:
    """True for ``np.random.default_rng(...)``-shaped constructions."""
    func = call.func
    if isinstance(func, ast.Name):
        binding = mod.bindings.get(func.id)
        return (
            func.id in RNG_CTORS
            and binding is not None
            and binding.module.startswith("numpy")
        )
    if not (isinstance(func, ast.Attribute) and func.attr in RNG_CTORS):
        return False
    base = func.value
    if isinstance(base, ast.Attribute) and base.attr == "random" \
            and isinstance(base.value, ast.Name):
        binding = mod.bindings.get(base.value.id)
        return binding is not None and binding.module == "numpy"
    if isinstance(base, ast.Name):
        binding = mod.bindings.get(base.id)
        return binding is not None and binding.module.startswith("numpy")
    return False


def _is_sha256_call(mod: ModuleInfo, call: ast.Call) -> bool:
    """True for ``hashlib.sha256(...)``-shaped constructions."""
    func = call.func
    if isinstance(func, ast.Name):
        binding = mod.bindings.get(func.id)
        return (
            func.id == "sha256"
            and binding is not None
            and binding.module == "hashlib"
        )
    if isinstance(func, ast.Attribute) and func.attr == "sha256" \
            and isinstance(func.value, ast.Name):
        binding = mod.bindings.get(func.value.id)
        return binding is not None and binding.module == "hashlib"
    return False


class _Summaries:
    """Project-level facts the per-function walk consumes."""

    def __init__(self, project: Project) -> None:
        self.project = project
        #: class ids whose instances own a Generator (stream-like).
        self.stream_classes: set[str] = set()
        #: function ids that return a stream value.
        self.stream_returns: set[str] = set()
        #: function id -> parameter names it retains (stores durably).
        self.retained_params: dict[str, set[str]] = {}
        #: function ids whose body (transitively) calls hashlib.sha256.
        self.hashing_funcs: set[str] = set()
        self._build()

    def _build(self) -> None:
        # Pass 1: classes that construct an RNG inside a method body.
        for cls in self.project.classes.values():
            mod = self.project.modules[cls.module]
            init = cls.methods.get("__init__") or cls.methods.get(
                "__post_init__")
            if init is None:
                continue
            for node in ast.walk(init):
                if isinstance(node, ast.Call) and \
                        _is_numpy_rng_call(mod, node):
                    self.stream_classes.add(cls.id)
                    break
        # Subclasses of stream-like classes are stream-like too.
        for cls_id in sorted(self.stream_classes):
            self.stream_classes |= self.project.subclasses_of(cls_id)

        # Pass 2: functions whose annotation or returns yield a stream.
        for func in self.project.functions.values():
            mod = self.project.modules[func.module]
            ann = func.node.returns
            if ann is not None:
                resolved = self.project.resolve_class_expr(mod, ann)
                if resolved is not None and \
                        resolved.id in self.stream_classes:
                    self.stream_returns.add(func.id)
                    continue
                if isinstance(ann, ast.Attribute) and ann.attr == "Generator":
                    self.stream_returns.add(func.id)
                    continue
            for node in ast.walk(func.node):
                if isinstance(node, ast.Return) and node.value is not None \
                        and isinstance(node.value, ast.Call):
                    if _is_numpy_rng_call(mod, node.value):
                        self.stream_returns.add(func.id)
                        break
                    callee = self.project.resolve_func_expr(
                        mod, node.value.func)
                    if callee in self.stream_classes:
                        self.stream_returns.add(func.id)
                        break

        # Pass 3: retained parameters (stored to self.*, an attribute,
        # or a subscript anywhere in the body).
        for func in self.project.functions.values():
            params = {a.arg for a in func.node.args.args}
            params |= {a.arg for a in func.node.args.kwonlyargs}
            params.discard("self")
            retained: set[str] = set()
            for node in ast.walk(func.node):
                if not isinstance(node, ast.Assign):
                    continue
                if isinstance(node.value, ast.Name) and \
                        node.value.id in params:
                    for tgt in node.targets:
                        if isinstance(tgt, (ast.Attribute, ast.Subscript)):
                            retained.add(node.value.id)
            if retained:
                self.retained_params[func.id] = retained

        # Pass 4: sha256-deriving functions, to a fixed point (a
        # function that calls a hashing function hashes too).
        changed = True
        while changed:
            changed = False
            for func in self.project.functions.values():
                if func.id in self.hashing_funcs:
                    continue
                mod = self.project.modules[func.module]
                for node in ast.walk(func.node):
                    if not isinstance(node, ast.Call):
                        continue
                    if _is_sha256_call(mod, node) or self.resolve_call(
                            mod, func, node) in self.hashing_funcs:
                        self.hashing_funcs.add(func.id)
                        changed = True
                        break

    def resolve_call(
        self, mod: ModuleInfo, func: FuncInfo, call: ast.Call
    ) -> str | None:
        """Resolve a call to a function id, including ``self.m()``."""
        target = self.project.resolve_func_expr(mod, call.func)
        if target is not None:
            return target
        f = call.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                and f.value.id == "self" and func.class_name:
            method = self.project.find_method(
                f"{func.module}:{func.class_name}", f.attr)
            return method.id if method is not None else None
        return None

    def retains(self, func_id: str, arg_index: int, keyword: str | None,
                has_self: bool) -> bool:
        retained = self.retained_params.get(func_id)
        if not retained:
            return False
        func = self.project.functions[func_id]
        params = [a.arg for a in func.node.args.args]
        if has_self and params and params[0] == "self":
            params = params[1:]
        if keyword is not None:
            return keyword in retained
        if 0 <= arg_index < len(params):
            return params[arg_index] in retained
        return False


class RngFlow:
    """Per-function stream tracking over the whole project."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.summaries = _Summaries(project)
        self.findings: list[Finding] = []

    # -- stream production ---------------------------------------------------

    def _is_stream_call(self, mod: ModuleInfo, call: ast.Call) -> bool:
        if _is_numpy_rng_call(mod, call):
            return True
        callee = self.project.resolve_func_expr(mod, call.func)
        if callee is None:
            return False
        if callee in self.summaries.stream_classes:
            return True
        return callee in self.summaries.stream_returns

    # -- module scope (RPR106) -----------------------------------------------

    def _check_module_scope(self, mod: ModuleInfo) -> None:
        for stmt in mod.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and \
                        self._is_stream_call(mod, node):
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
        streams: dict[str, tuple[int, int]] = {}  # var -> birth (line, col)
        names: dict[tuple[int, int], str] = {}  # birth -> first var name
        sinks: dict[tuple[int, int], list[tuple[int, str]]] = {}

        def sink(var: str, node: ast.AST, what: str) -> None:
            birth = streams[var]
            sinks.setdefault(birth, []).append(
                (getattr(node, "lineno", 1), what))

        for node in ast.walk(func.node):
            if isinstance(node, ast.Assign):
                value = node.value
                if isinstance(value, ast.Call) and \
                        self._is_stream_call(mod, value):
                    birth = (value.lineno, value.col_offset)
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Name):
                            streams[tgt.id] = birth
                            names.setdefault(birth, tgt.id)
                        elif isinstance(tgt, (ast.Attribute, ast.Subscript)):
                            pass  # direct store: one construction, one owner
                elif isinstance(value, ast.Name) and value.id in streams:
                    # aliasing: the alias is the same stream object
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Name):
                            streams[tgt.id] = streams[value.id]
                        elif isinstance(tgt, (ast.Attribute, ast.Subscript)):
                            sink(value.id, node, "stored")
            elif isinstance(node, ast.Call):
                callee = self.project.resolve_func_expr(mod, node.func)
                has_self = False
                if callee is not None and callee in self.project.classes:
                    init = self.project.find_method(callee, "__init__")
                    callee = init.id if init is not None else None
                    has_self = True
                if callee is None:
                    continue
                for idx, arg in enumerate(node.args):
                    if isinstance(arg, ast.Name) and arg.id in streams and \
                            self.summaries.retains(callee, idx, None,
                                                   has_self):
                        sink(arg.id, node, f"passed to {callee}")
                for kw in node.keywords:
                    if isinstance(kw.value, ast.Name) and \
                            kw.value.id in streams and \
                            self.summaries.retains(callee, -1, kw.arg,
                                                   has_self):
                        sink(kw.value.id, node, f"passed to {callee}")

        for birth in sorted(sinks):
            events = sorted(sinks[birth])
            if len(events) < 2:
                continue
            line, col = birth
            var = names.get(birth, "<stream>")
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
                if _is_sha256_call(mod, node):
                    return True
                callee = self.summaries.resolve_call(mod, func, node)
                if callee is not None and \
                        callee in self.summaries.hashing_funcs:
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
        # chains need not appear in source order under ast.walk).
        tainted: set[str] = set()
        assigns = [n for n in ast.walk(func.node)
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
        for node in ast.walk(func.node):
            if not (isinstance(node, ast.Call)
                    and _is_numpy_rng_call(mod, node)):
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


def check_rng_provenance(project: Project) -> list[Finding]:
    """RPR105/RPR106/RPR111: stream sharing, module-global streams,
    and serve-layer sha256 seed provenance."""
    return RngFlow(project).run()
