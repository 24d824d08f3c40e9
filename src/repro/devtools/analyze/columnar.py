"""Columnar contract analysis (RPR301, RPR302, RPR304, RPR305).

The simulation's correctness-critical inner loops run as numpy
columnar kernels, and none of the earlier analyses see array
semantics: a silent int32 downcast of an LBA column or a chained
fancy-index assignment that mutates a temporary would both pass the
layering/unit/effects suites clean.  This module runs an
interprocedural dtype/shape dataflow over the single-parse
:class:`~repro.devtools.analyze.project.Project` model instead.

The per-value lattice is a :class:`Col`: a canonical dtype name (or
``None`` for unknown), whether the value is an ndarray, whether it
carries *index taint* (an LBA / page-address / epoch column, which
must stay 64-bit integer end-to-end), and whether a float value has
passed through an explicit rounding step (the RPR302 safe-cast token).
The statement walk is the analyzer's one
:class:`~repro.devtools.analyze.project.FlowWalker`, shared with RPR104
and RPR105; the ``Col`` join keeps a dtype only where branches agree —
conservative on purpose, because the pass gates CI.

Declared contracts come from :func:`repro.contracts.columnar`:

* parameter / return dtype specs are verified against the inferred
  flow inside the body and at every resolved call site,
* *named column* entries (keys that are neither parameters nor
  ``"return"``) type the body's locals of that name, and
* shape symbols assert that arguments sharing a symbol are sliced the
  same way at call sites.

Rules
-----

RPR301
    Index columns leave int64/uint64: narrowing ``astype``, a
    ``dtype=`` literal below 64-bit int on an index-named binding,
    implicit float promotion (true division) of an index array, or a
    value that contradicts a ``@columnar`` declaration.
RPR302
    Unsafe casts: float→int ``astype`` without an explicit rounding
    step (``np.floor_divide``/``np.rint``/...), and a unit-carrying
    value (RPR104's bytes/pages/ms/seconds lattice) cast below 64-bit
    width.
RPR304
    Boolean-mask misuse: ``and``/``or`` on mask arrays (truth-value
    error or short-circuit surprise at runtime), and chained
    fancy-index assignment that writes into a temporary copy.
RPR305
    Scalar loop in a hot module: a python ``for`` over an ndarray or a
    per-element ``.item()`` in one of the designated hot modules,
    unless the function is on the explicit allowlist.

RPR303 (in-place writes through views of the ``CacheSets`` mirror) is
retired with the mirror; its code is not reused.

Suppression uses the analyzer's inline syntax ``# kdd-analyze:
disable=RPRnnn`` (see :mod:`repro.devtools.analyze.suppress`): a
columnar exception is a reviewed property of a line of code, not a
grandfathered debt.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field, replace

from .project import (
    Finding,
    FlowWalker,
    FuncInfo,
    ModuleInfo,
    Project,
    finding_at,
    scope_nodes,
)
from .unitflow import unit_of_name

# -- contract configuration --------------------------------------------------

COLUMNAR_DECORATOR = "repro.contracts:columnar"

#: Attributes holding the structured trace record array.
RECORD_ATTRS = frozenset({"records", "_records"})

#: The IO_DTYPE schema (repro.traces.record); field subscripts of a
#: record array get these dtypes, and the address column is index-
#: tainted at the source.
RECORD_FIELDS = {
    "time": "float64",
    "lba": "uint64",
    "npages": "uint32",
    "is_read": "bool",
}

#: Name tokens that mark a value as an address/index column.  Token
#: split matches the RPR104 convention (underscores and non-word
#: characters), so ``npages`` — a *count* — is one token and stays
#: untainted while ``n_pages`` would not be an address either way.
INDEX_TOKENS = frozenset(
    {"lba", "lbas", "lpn", "lpns", "page", "pages", "epoch", "epochs"}
)

#: Index columns must stay in one of these dtypes end-to-end.
INDEX_DTYPES = frozenset({"int64", "uint64"})

#: Modules whose request-path bodies must stay columnar (RPR305).
HOT_MODULES = frozenset(
    {
        "repro.cache.common",
        "repro.cache.partition",
        "repro.cache.sets",
        "repro.serve.composer",
        "repro.serve.driver",
        "repro.stats.streaming",
        "repro.traces.trace",
    }
)

#: Reviewed scalar paths inside hot modules.  Trace iteration is the
#: per-record view that ``write_spc`` and the rebuild source consume;
#: the simulators read whole columns instead.
HOT_ALLOWLIST = frozenset(
    {
        "repro.traces.trace:Trace.__iter__",
    }
)

#: Tooling/bench packages are out of scope: they post-process results
#: and never touch the simulation's columnar state.
EXEMPT_PACKAGES = frozenset({"devtools", "harness"})

_CANONICAL_DTYPES = frozenset(
    {
        "bool",
        "int8",
        "int16",
        "int32",
        "int64",
        "uint8",
        "uint16",
        "uint32",
        "uint64",
        "float16",
        "float32",
        "float64",
    }
)

#: Scalar (non-array) dtype specs accepted in declarations.
_SCALAR_SPECS = frozenset({"int", "float"})
#: Sequence-of-python-scalars specs (``touch_many`` takes a list, not
#: an ndarray; its elements still must not be floats).
_SEQUENCE_SPECS = frozenset({"list[int]", "list[float]"})

_WIDTH = {
    "bool": 1,
    "int8": 1,
    "uint8": 1,
    "int16": 2,
    "uint16": 2,
    "float16": 2,
    "int32": 4,
    "uint32": 4,
    "float32": 4,
    "int64": 8,
    "uint64": 8,
    "float64": 8,
}

_TOKEN_SPLIT = re.compile(r"[_\W]+")

#: numpy namespace functions that return rounded floats (the RPR302
#: safe-cast token) — ``floor_divide`` covers the windowing idiom
#: ``np.floor_divide(times, w).astype(np.int64)``.
_ROUNDING_FUNCS = frozenset(
    {"floor", "ceil", "rint", "trunc", "round", "around", "floor_divide"}
)

#: numpy namespace functions whose result propagates the first data
#: argument's dtype and index taint.
_PROPAGATE_FUNCS = frozenset(
    {
        "sort",
        "unique",
        "repeat",
        "roll",
        "flip",
        "diff",
        "cumsum",
        "clip",
        "concatenate",
        "minimum",
        "maximum",
        "abs",
        "copy",
        "ascontiguousarray",
    }
)

#: numpy namespace functions returning platform-int index arrays.
_INTP_FUNCS = frozenset(
    {"argsort", "searchsorted", "flatnonzero", "bincount", "argmin", "argmax"}
)

#: ndarray methods returning another view of the same buffer.
_VIEW_METHODS = frozenset(
    {"reshape", "ravel", "view", "squeeze", "transpose", "swapaxes"}
)

#: Generator.<method> -> result dtype (None: propagate nothing).
_RNG_METHODS = {
    "random": "float64",
    "uniform": "float64",
    "normal": "float64",
    "standard_normal": "float64",
    "exponential": "float64",
    "integers": "int64",
    "poisson": "int64",
    "permutation": "int64",
    "geometric": "int64",
}

_RULES = {
    "RPR301": "index column leaves int64 (dtype-flow taint)",
    "RPR302": "unsafe cast (float truncation / unit-carrying narrow)",
    "RPR304": "boolean-mask misuse (and/or, chained fancy assignment)",
    "RPR305": "scalar loop over an ndarray in a hot module",
}


def _name_tokens(name: str) -> set[str]:
    return set(_TOKEN_SPLIT.split(name.lower()))


def is_index_name(name: str) -> bool:
    """True when a name reads as an address/index column."""
    return bool(_name_tokens(name) & INDEX_TOKENS)


# -- the per-value lattice ----------------------------------------------------


@dataclass(frozen=True)
class Col:
    """What the dataflow knows about one value."""

    dtype: str | None = None  # canonical dtype name, or None = unknown
    array: bool = False  # definitely an ndarray
    index: bool = False  # carries address/index taint
    rounded: bool = False  # float that passed an explicit rounding step


UNKNOWN = Col()


def _merge_col(a: Col, b: Col) -> Col:
    if a == b:
        return a
    return Col(
        dtype=a.dtype if a.dtype == b.dtype else None,
        array=a.array and b.array,
        index=a.index or b.index,
        rounded=a.rounded and b.rounded,
    )


def _is_float(dtype: str | None) -> bool:
    return dtype is not None and dtype.startswith("float")


def _is_int(dtype: str | None) -> bool:
    return dtype is not None and (
        dtype.startswith("int") or dtype.startswith("uint")
    )


# -- declarations -------------------------------------------------------------


@dataclass(frozen=True)
class Spec:
    """One parsed dtype spec from a ``@columnar`` declaration."""

    options: tuple[str, ...] = ()  # acceptable array dtypes
    scalar: str = ""  # "int" / "float" for python scalars
    sequence: str = ""  # "int" / "float" for python sequences
    elements: tuple["Spec", ...] | None = None  # tuple returns

    def matches(self, col: Col) -> bool:
        """Whether an inferred value is compatible (unknown passes)."""
        if self.elements is not None:
            return True  # tuple specs are checked element-wise
        if self.scalar:
            return not col.array
        if self.sequence:
            return not (col.array and _is_float(col.dtype)
                        and self.sequence == "int")
        if col.dtype is None:
            return True
        return col.dtype in self.options

    def describe(self) -> str:
        if self.elements is not None:
            return "(" + ", ".join(e.describe() for e in self.elements) + ")"
        if self.scalar:
            return self.scalar
        if self.sequence:
            return f"list[{self.sequence}]"
        return "|".join(self.options)

    def to_col(self) -> Col:
        if self.elements is not None or self.scalar or self.sequence:
            return UNKNOWN
        dtype = self.options[0] if len(self.options) == 1 else None
        return Col(dtype=dtype, array=True)


def parse_spec(text: str) -> Spec | None:
    """Parse one dtype spec string; None when malformed."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        parts = [p.strip() for p in text[1:-1].split(",") if p.strip()]
        if not parts:
            return None
        elements = []
        for part in parts:
            sub = parse_spec(part)
            if sub is None or sub.elements is not None:
                return None
            elements.append(sub)
        return Spec(elements=tuple(elements))
    if text in _SCALAR_SPECS:
        return Spec(scalar=text)
    if text in _SEQUENCE_SPECS:
        return Spec(sequence=text[5:-1])
    options = tuple(p.strip() for p in text.split("|"))
    if not options or any(opt not in _CANONICAL_DTYPES for opt in options):
        return None
    return Spec(options=options)


@dataclass
class Decl:
    """One ``@columnar`` declaration, read straight from the AST."""

    func_id: str
    node: ast.expr  # the decorator expression (for anchoring findings)
    params: dict[str, Spec] = field(default_factory=dict)
    ret: Spec | None = None
    columns: dict[str, Spec] = field(default_factory=dict)
    shapes: dict[str, str] = field(default_factory=dict)


def _literal_str_dict(node: ast.expr | None) -> dict[str, str] | None:
    """Extract ``{"name": "spec"}`` from a literal dict expression."""
    if node is None:
        return {}
    if not isinstance(node, ast.Dict):
        return None
    out: dict[str, str] = {}
    for key, value in zip(node.keys, node.values):
        if not (
            isinstance(key, ast.Constant)
            and isinstance(key.value, str)
            and isinstance(value, ast.Constant)
            and isinstance(value.value, str)
        ):
            return None
        out[key.value] = value.value
    return out


# -- the per-function walker --------------------------------------------------


class _FunctionCols(FlowWalker):
    """One forward dtype/shape pass over a function body."""

    def __init__(
        self,
        analysis: "ColumnarAnalysis",
        mod: ModuleInfo,
        func: FuncInfo,
        decl: Decl | None,
        hot: bool,
    ) -> None:
        super().__init__()
        self.analysis = analysis
        self.mod = mod
        self.func = func
        self.decl = decl
        self.hot = hot

    # -- reporting -----------------------------------------------------------

    def _where(self) -> str:
        return f" in {self.func.qualname}()"

    def report(self, node: ast.AST, code: str, message: str) -> None:
        self.analysis.report(self.mod, node, code, message)

    # -- expression typing ---------------------------------------------------

    def col_of(self, expr: ast.expr) -> Col:
        if isinstance(expr, ast.Name):
            if expr.id in self.env:
                return self.env[expr.id]
            return Col(index=is_index_name(expr.id))
        if isinstance(expr, ast.Attribute):
            return self._attr_col(expr)
        if isinstance(expr, ast.Subscript):
            return self._subscript_col(expr)
        if isinstance(expr, ast.BinOp):
            return self._binop_col(expr)
        if isinstance(expr, ast.UnaryOp):
            if isinstance(expr.op, ast.Not):
                return UNKNOWN
            return self.col_of(expr.operand)
        if isinstance(expr, ast.BoolOp):
            for value in expr.values:
                col = self.col_of(value)
                if col.array and col.dtype == "bool":
                    op = "and" if isinstance(expr.op, ast.And) else "or"
                    self.report(
                        value,
                        "RPR304",
                        f"boolean-mask misuse{self._where()}: python "
                        f"'{op}' on a mask array raises or short-circuits "
                        f"element-wise intent; use '&'/'|' (or np.logical_*)",
                    )
            return UNKNOWN
        if isinstance(expr, ast.Compare):
            arr = self.col_of(expr.left).array or any(
                self.col_of(cmp).array for cmp in expr.comparators
            )
            return Col(dtype="bool", array=arr)
        if isinstance(expr, ast.Call):
            return self._call_col(expr)
        if isinstance(expr, ast.IfExp):
            self.col_of(expr.test)
            return _merge_col(self.col_of(expr.body), self.col_of(expr.orelse))
        if isinstance(expr, ast.Starred):
            return self.col_of(expr.value)
        return UNKNOWN

    def _attr_col(self, expr: ast.Attribute) -> Col:
        if expr.attr in RECORD_ATTRS:
            return Col(dtype="record", array=True)
        if expr.attr == "T":
            return self.col_of(expr.value)
        if isinstance(expr.value, ast.Name) and expr.value.id == "self":
            attr_col = self.analysis.attr_col(
                self.mod, self.func.class_name, expr.attr
            )
            if attr_col is not None:
                return replace(
                    attr_col, index=attr_col.index or is_index_name(expr.attr)
                )
        return Col(index=is_index_name(expr.attr))

    def _subscript_col(self, expr: ast.Subscript) -> Col:
        base = self.col_of(expr.value)
        if base.dtype == "record":
            if (
                isinstance(expr.slice, ast.Constant)
                and isinstance(expr.slice.value, str)
            ):
                fld = expr.slice.value
                dtype = RECORD_FIELDS.get(fld)
                if dtype is not None:
                    return Col(
                        dtype=dtype, array=True, index=is_index_name(fld)
                    )
            return Col(array=True)
        slice_col = self.col_of(expr.slice)
        if self._keeps_rows(expr.slice, slice_col):
            return base
        # Scalar element access: the result stops being "the column"
        # (for a multi-dim array it may still be a row, but nothing
        # downstream treats a single row as a batch).
        return replace(base, array=False)

    def _keeps_rows(self, node: ast.expr, col: Col) -> bool:
        """Whether a subscript index yields an array, not an element."""
        if isinstance(node, (ast.Slice, ast.List)):
            return True
        if isinstance(node, ast.Tuple):
            return any(
                self._keeps_rows(el, self.col_of(el)) for el in node.elts
            )
        return col.array

    def _binop_col(self, expr: ast.BinOp) -> Col:
        left = self.col_of(expr.left)
        right = self.col_of(expr.right)
        arr = left.array or right.array
        idx = left.index or right.index
        if isinstance(expr.op, ast.Div):
            if idx and arr and not self.analysis.silent:
                self.report(
                    expr,
                    "RPR301",
                    f"index column promoted to float{self._where()}: true "
                    f"division of an address/index array loses exactness "
                    f"above 2**53; use '//' (or np.floor_divide)",
                )
            return Col(dtype="float64", array=arr, index=idx)
        if isinstance(expr.op, ast.Pow):
            return Col(array=arr, index=idx)
        if _is_float(left.dtype) or _is_float(right.dtype):
            dtype: str | None = "float64"
        elif left.dtype == right.dtype:
            dtype = left.dtype
        elif left.dtype is None:
            dtype = right.dtype
        elif right.dtype is None:
            dtype = left.dtype
        else:
            dtype = None  # mixed signedness promotes unpredictably
        rounded = isinstance(expr.op, ast.FloorDiv)
        return Col(dtype=dtype, array=arr, index=idx, rounded=rounded)

    # -- calls ---------------------------------------------------------------

    def _dtype_of(self, expr: ast.expr | None) -> str | None:
        """Canonical dtype named by a ``dtype=`` argument expression."""
        if expr is None:
            return None
        name: str | None = None
        if isinstance(expr, ast.Attribute):
            module, _, name = (self.analysis.project.external_name(
                self.mod, expr) or "").rpartition(".")
            if module != "numpy":
                name = None
            elif name == "bool_":
                name = "bool"
        elif isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            name = expr.value
        elif isinstance(expr, ast.Name):
            name = {"int": "int64", "float": "float64", "bool": "bool"}.get(
                expr.id
            )
        return name if name in _CANONICAL_DTYPES else None

    def _kwarg(self, call: ast.Call, name: str) -> ast.expr | None:
        for kw in call.keywords:
            if kw.arg == name:
                return kw.value
        return None

    def _call_col(self, call: ast.Call) -> Col:
        module, _, name = (self.analysis.project.external_name(
            self.mod, call.func) or "").rpartition(".")
        if module == "numpy":
            return self._np_call_col(call, name)
        if isinstance(call.func, ast.Attribute):
            return self._method_col(call, call.func)
        # Plain-name calls: builtins, then resolved project functions.
        if isinstance(call.func, ast.Name):
            name = call.func.id
            if name in ("len", "int", "float", "bool", "abs", "round"):
                for arg in call.args:
                    self.col_of(arg)
                return UNKNOWN
            if name in ("list", "sorted", "tuple"):
                inner = self.col_of(call.args[0]) if call.args else UNKNOWN
                return Col(index=inner.index)
        for arg in call.args:
            self.col_of(arg)
        for kw in call.keywords:
            self.col_of(kw.value)
        return self._project_call_col(call)

    def _np_call_col(self, call: ast.Call, name: str) -> Col:
        for arg in call.args:
            self.col_of(arg)
        dtype_kw = self._dtype_of(self._kwarg(call, "dtype"))
        arg0 = call.args[0] if call.args else None
        arg0_col = self.col_of(arg0) if arg0 is not None else UNKNOWN

        if name in ("zeros", "ones", "empty"):
            if dtype_kw is None and len(call.args) >= 2:
                dtype_kw = self._dtype_of(call.args[1])
            return Col(dtype=dtype_kw or "float64", array=True)
        if name == "full":
            if dtype_kw is None and len(call.args) >= 3:
                dtype_kw = self._dtype_of(call.args[2])
            if dtype_kw is None and len(call.args) >= 2:
                fill = call.args[1]
                if isinstance(fill, ast.Constant):
                    if isinstance(fill.value, bool):
                        dtype_kw = "bool"
                    elif isinstance(fill.value, int):
                        dtype_kw = "int64"
                    elif isinstance(fill.value, float):
                        dtype_kw = "float64"
                elif isinstance(fill, ast.UnaryOp) and isinstance(
                    fill.operand, ast.Constant
                ) and isinstance(fill.operand.value, int):
                    dtype_kw = "int64"
            return Col(dtype=dtype_kw, array=True)
        if name == "arange":
            if dtype_kw is None:
                floats = any(
                    isinstance(a, ast.Constant) and isinstance(a.value, float)
                    for a in call.args
                )
                dtype_kw = "float64" if floats else "int64"
            return Col(dtype=dtype_kw, array=True)
        if name == "linspace":
            return Col(dtype=dtype_kw or "float64", array=True)
        if name in ("frombuffer", "fromiter"):
            if dtype_kw is None and len(call.args) >= 2:
                dtype_kw = self._dtype_of(call.args[1])
            return Col(dtype=dtype_kw, array=True)
        if name == "asarray":
            # asarray of an ndarray returns the same buffer: keep taint.
            return replace(
                arg0_col, dtype=dtype_kw or arg0_col.dtype, array=True
            )
        if name == "array":
            return Col(
                dtype=dtype_kw or arg0_col.dtype,
                array=True,
                index=arg0_col.index,
            )
        if name in ("zeros_like", "ones_like", "empty_like", "full_like"):
            return Col(
                dtype=dtype_kw or arg0_col.dtype,
                array=True,
                index=arg0_col.index,
            )
        if name in _ROUNDING_FUNCS:
            if name == "floor_divide":
                other = (
                    self.col_of(call.args[1]) if len(call.args) > 1
                    else UNKNOWN
                )
                if _is_int(arg0_col.dtype) and _is_int(other.dtype):
                    dtype: str | None = arg0_col.dtype
                else:
                    dtype = "float64" if (
                        _is_float(arg0_col.dtype) or _is_float(other.dtype)
                    ) else None
            else:
                dtype = arg0_col.dtype or "float64"
            return Col(
                dtype=dtype,
                array=arg0_col.array,
                index=arg0_col.index,
                rounded=True,
            )
        if name in _PROPAGATE_FUNCS:
            if name == "concatenate" and isinstance(
                arg0, (ast.List, ast.Tuple)
            ):
                cols = [self.col_of(el) for el in arg0.elts]
                merged = cols[0] if cols else UNKNOWN
                for col in cols[1:]:
                    merged = _merge_col(merged, col)
                arg0_col = merged
            return Col(
                dtype=arg0_col.dtype,
                array=True,
                index=arg0_col.index,
                rounded=arg0_col.rounded,
            )
        if name in _INTP_FUNCS:
            return Col(dtype="int64", array=True)
        if name == "where" and len(call.args) == 3:
            return _merge_col(
                replace(self.col_of(call.args[1]), array=True),
                replace(self.col_of(call.args[2]), array=True),
            )
        if name in ("any", "all"):
            # Full reductions collapse to a scalar; only an axis= call
            # keeps an array result.
            return Col(
                dtype="bool", array=self._kwarg(call, "axis") is not None
            )
        if name in ("isin", "isclose", "logical_and", "logical_or",
                    "logical_not", "logical_xor"):
            return Col(dtype="bool", array=arg0_col.array)
        if name == "diff":
            return Col(dtype=arg0_col.dtype, array=True, index=arg0_col.index)
        return UNKNOWN

    def _method_col(self, call: ast.Call, func: ast.Attribute) -> Col:
        method = func.attr
        recv = self.col_of(func.value)
        for arg in call.args:
            self.col_of(arg)

        if method == "astype":
            target = self._dtype_of(
                call.args[0] if call.args else self._kwarg(call, "dtype")
            )
            self._check_astype(call, func.value, recv, target)
            return Col(
                dtype=target, array=True, index=recv.index
            )
        if method in _VIEW_METHODS:
            return replace(recv, array=True)
        if method == "copy":
            return recv
        if method == "tolist":
            return Col(index=recv.index)
        if method == "item":
            if self.hot and recv.array and not self.analysis.silent:
                self.report(
                    call,
                    "RPR305",
                    f"per-element .item() in hot module "
                    f"{self.mod.name}{self._where()}: extract whole columns "
                    f"(or allowlist the function in "
                    f"repro.devtools.analyze.columnar.HOT_ALLOWLIST)",
                )
            return Col(dtype=recv.dtype, index=recv.index)
        if method in ("sum", "max", "min", "prod"):
            return Col(dtype=recv.dtype, index=recv.index)
        if method == "mean":
            return Col(dtype="float64")
        if method in ("any", "all"):
            return Col(
                dtype="bool", array=self._kwarg(call, "axis") is not None
            )
        if method == "round":
            return Col(
                dtype=recv.dtype, array=recv.array, index=recv.index,
                rounded=True,
            )
        if method in _RNG_METHODS:
            dtype = (
                self._dtype_of(self._kwarg(call, "dtype"))
                or _RNG_METHODS[method]
            )
            arr = self._kwarg(call, "size") is not None or (
                method in ("random", "standard_normal", "permutation")
                and bool(call.args)
            ) or (method == "integers" and len(call.args) >= 3) or (
                method == "poisson" and len(call.args) >= 2
            )
            return Col(dtype=dtype, array=arr)
        for kw in call.keywords:
            self.col_of(kw.value)
        return self._project_call_col(call)

    def _project_call_col(self, call: ast.Call) -> Col:
        """Check a call against its callees' declarations and type its
        result (merged by agreement when it has several callees)."""
        result: Col | None = None
        for callee in self.analysis.project.callees(self.func, call):
            func = self.analysis.project.functions[callee]
            decl = self.analysis.decls.get(callee)
            if decl is not None:
                self._check_call_args(call, func, decl)
            col = UNKNOWN
            if decl is not None and decl.ret is not None:
                col = decl.ret.to_col()
            elif isinstance(func.node.returns, ast.Attribute) and \
                    func.node.returns.attr == "ndarray":
                col = Col(array=True)
            result = col if result is None else _merge_col(result, col)
        return UNKNOWN if result is None else result

    def _check_call_args(
        self, call: ast.Call, func: FuncInfo, decl: Decl
    ) -> None:
        if self.analysis.silent:
            return
        by_param = self.analysis.project.bind_args(func.id, call)
        for param, arg in sorted(by_param.items()):
            spec = decl.params.get(param)
            if spec is None:
                continue
            col = self.col_of(arg)
            if not spec.matches(col):
                got = col.dtype or ("ndarray" if col.array else "scalar")
                self.report(
                    arg,
                    "RPR301",
                    f"columnar contract violation{self._where()}: argument "
                    f"'{param}' of {func.qualname}() is declared "
                    f"{spec.describe()} but a {got} value flows in",
                )
        self._check_call_shapes(call, func, decl, by_param)

    def _check_call_shapes(
        self,
        call: ast.Call,
        func: FuncInfo,
        decl: Decl,
        by_param: dict[str, ast.expr],
    ) -> None:
        groups: dict[str, list[tuple[str, ast.expr]]] = {}
        for param, symbol in sorted(decl.shapes.items()):
            if param in by_param:
                groups.setdefault(symbol, []).append((param, by_param[param]))
        for symbol, members in sorted(groups.items()):
            slices = [
                (param, ast.dump(arg.slice))
                for param, arg in members
                if isinstance(arg, ast.Subscript)
            ]
            if len(slices) < 2:
                continue
            first_param, first = slices[0]
            for param, other in slices[1:]:
                if other != first:
                    self.report(
                        call,
                        "RPR301",
                        f"columnar shape mismatch{self._where()}: arguments "
                        f"'{first_param}' and '{param}' of {func.qualname}() "
                        f"share shape {symbol} but are sliced differently",
                    )
                    break

    # -- rule bodies ---------------------------------------------------------

    def _check_astype(
        self,
        call: ast.Call,
        receiver: ast.expr,
        recv: Col,
        target: str | None,
    ) -> None:
        if target is None or self.analysis.silent:
            return
        if recv.index and target not in INDEX_DTYPES:
            self.report(
                call,
                "RPR301",
                f"index column cast to {target}{self._where()}: LBA/page "
                f"addresses must stay int64/uint64 end-to-end (wraps or "
                f"loses precision on large-address traces)",
            )
            return
        if _is_float(recv.dtype) and _is_int(target) and not recv.rounded:
            self.report(
                call,
                "RPR302",
                f"truncating float->{target} cast{self._where()}: astype "
                f"truncates toward zero; round explicitly first "
                f"(np.floor_divide / np.rint / np.floor)",
            )
            return
        unit = None
        if isinstance(receiver, ast.Name):
            unit = unit_of_name(receiver.id)
        elif isinstance(receiver, ast.Attribute):
            unit = unit_of_name(receiver.attr)
        if (
            unit is not None
            and not recv.index
            and target in _WIDTH
            and _WIDTH[target] < 8
        ):
            self.report(
                call,
                "RPR302",
                f"unit-carrying cast{self._where()}: a {unit}-valued column "
                f"narrowed to {target} can overflow silently; keep 64-bit "
                f"width or suppress with a reviewed bound",
            )

    # -- statements ----------------------------------------------------------

    missing = UNKNOWN

    def join(self, a: Col, b: Col) -> Col:
        return _merge_col(a, b)

    def expr(self, expr: ast.expr) -> None:
        self.col_of(expr)

    def simple(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._handle_assign(stmt.targets, stmt.value, stmt)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._handle_assign([stmt.target], stmt.value, stmt)
        elif isinstance(stmt, ast.AugAssign):
            self._aug_assign(stmt)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            self._check_return(stmt)
        elif not isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):  # nested scopes are analysed separately
            super().simple(stmt)

    def loop_head(self, stmt: ast.For | ast.AsyncFor) -> None:
        iter_col = self.col_of(stmt.iter)
        if (
            self.hot
            and iter_col.array
            and self.func.id not in HOT_ALLOWLIST
            and not self.analysis.silent
        ):
            self.report(
                stmt,
                "RPR305",
                f"scalar loop over an ndarray in hot module "
                f"{self.mod.name}{self._where()}: vectorize, .tolist() "
                f"first, or allowlist the function in "
                f"repro.devtools.analyze.columnar.HOT_ALLOWLIST",
            )
        if isinstance(stmt.target, ast.Name):
            elem = Col(
                dtype=None if iter_col.dtype == "record" else iter_col.dtype,
                index=iter_col.index,
            )
            self.env[stmt.target.id] = elem

    def _aug_assign(self, stmt: ast.AugAssign) -> None:
        value_col = self.col_of(stmt.value)
        target = stmt.target
        if isinstance(target, ast.Name):
            base = self.env.get(target.id, UNKNOWN)
            self.env[target.id] = _merge_col(base, value_col)
        elif isinstance(target, ast.Subscript):
            self.col_of(target.value)
            self.col_of(target.slice)

    def _handle_assign(
        self, targets: list[ast.expr], value: ast.expr, stmt: ast.stmt
    ) -> None:
        col = self.col_of(value)
        elem_cols: list[Col] | None = None
        if isinstance(value, ast.Call):
            for callee in self.analysis.project.callees(self.func, value):
                decl = self.analysis.decls.get(callee)
                if (
                    decl is not None
                    and decl.ret is not None
                    and decl.ret.elements is not None
                ):
                    elem_cols = [spec.to_col() for spec in decl.ret.elements]
                    break
        for target in targets:
            self._assign(target, col, value, stmt, elem_cols)

    def _assign(
        self,
        target: ast.expr,
        col: Col,
        value: ast.expr,
        stmt: ast.stmt,
        elem_cols: list[Col] | None = None,
    ) -> None:
        if isinstance(target, ast.Name):
            self._assign_name(target.id, col, stmt)
        elif isinstance(target, ast.Attribute):
            self._check_index_binding(target.attr, col, stmt)
        elif isinstance(target, ast.Subscript):
            self._assign_subscript(target, stmt)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for i, elt in enumerate(target.elts):
                sub = UNKNOWN
                if elem_cols is not None and i < len(elem_cols):
                    sub = elem_cols[i]
                elif isinstance(value, (ast.Tuple, ast.List)) and i < len(
                    value.elts
                ):
                    sub = self.col_of(value.elts[i])
                self._assign(elt, sub, value, stmt)

    def _assign_name(self, name: str, col: Col, stmt: ast.stmt) -> None:
        self._check_index_binding(name, col, stmt)
        if self.decl is not None and name in self.decl.columns:
            spec = self.decl.columns[name]
            if not spec.matches(col) and not self.analysis.silent:
                got = col.dtype or "ndarray"
                self.report(
                    stmt,
                    "RPR301",
                    f"columnar contract violation{self._where()}: column "
                    f"'{name}' is declared {spec.describe()} but a {got} "
                    f"value is bound to it",
                )
            elif col.dtype is None:
                # Adopt the declaration: it is the reviewed source of
                # truth when inference has nothing better.
                col = replace(spec.to_col(), index=col.index)
        if is_index_name(name):
            col = replace(col, index=True)
        self.env[name] = col

    def _check_index_binding(
        self, name: str, col: Col, stmt: ast.stmt
    ) -> None:
        if self.analysis.silent or not is_index_name(name):
            return
        if not col.array or col.dtype is None:
            return
        if _is_float(col.dtype):
            self.report(
                stmt,
                "RPR301",
                f"float-typed value bound to index name '{name}'"
                f"{self._where()}: addresses must stay 64-bit integers",
            )
        elif col.dtype not in INDEX_DTYPES and col.dtype != "bool":
            self.report(
                stmt,
                "RPR301",
                f"index name '{name}' bound to a {col.dtype} array"
                f"{self._where()}: dtype below 64-bit int wraps on "
                f"large-address traces",
            )

    def _assign_subscript(self, target: ast.Subscript, stmt: ast.stmt) -> None:
        base = target.value
        self.col_of(base)
        if isinstance(base, ast.Subscript) and not isinstance(
            base.slice, ast.Slice
        ):
            inner = self.col_of(base.slice)
            if (
                inner.array or isinstance(base.slice, ast.List)
            ) and not self.analysis.silent:
                self.report(
                    stmt,
                    "RPR304",
                    f"chained fancy-index assignment{self._where()}: "
                    f"a[mask][idx] = v writes into a temporary copy and "
                    f"never reaches the source array; combine the indices "
                    f"into one subscript",
                )
        self.col_of(target.slice)

    def _check_return(self, stmt: ast.Return) -> None:
        value = stmt.value
        assert value is not None
        if isinstance(value, ast.Constant) and value.value is None:
            return
        decl = self.decl
        if decl is None or decl.ret is None:
            self.col_of(value)
            return
        spec = decl.ret
        if spec.elements is not None and isinstance(value, ast.Tuple):
            for i, elt in enumerate(value.elts):
                if i >= len(spec.elements):
                    break
                self._check_return_value(elt, spec.elements[i], i)
            return
        self._check_return_value(value, spec, None)

    def _check_return_value(
        self, expr: ast.expr, spec: Spec, position: int | None
    ) -> None:
        col = self.col_of(expr)
        if spec.matches(col) or self.analysis.silent:
            return
        where = f" (tuple element {position})" if position is not None else ""
        got = col.dtype or ("ndarray" if col.array else "scalar")
        self.report(
            expr,
            "RPR301",
            f"columnar contract violation{self._where()}: return value"
            f"{where} is declared {spec.describe()} but a {got} value "
            f"flows out",
        )


# -- project driver -----------------------------------------------------------


class ColumnarAnalysis:
    """Project-wide driver for the columnar dtype/shape dataflow."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.findings: list[Finding] = []
        self.decls: dict[str, Decl] = {}
        self._attr_cols: dict[str, dict[str, Col]] = {}
        #: True while pre-passes type expressions without reporting.
        self.silent = False
        self._collect_decls()

    # -- reporting -----------------------------------------------------------

    def report(
        self, mod: ModuleInfo, node: ast.AST, code: str, message: str
    ) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        self.findings.append(finding_at(mod, line, col, code, message))

    # -- declarations --------------------------------------------------------

    def _collect_decls(self) -> None:
        for func in self.project.functions.values():
            mod = self.project.modules[func.module]
            for dec in func.node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                resolved = self.project.resolve_func_expr(mod, target)
                if resolved != COLUMNAR_DECORATOR:
                    continue
                if not isinstance(dec, ast.Call):
                    self.report(
                        mod, dec, "RPR301",
                        f"@columnar on {func.qualname} must be called "
                        f"(use @columnar() for a bare marker)",
                    )
                    continue
                decl = self._parse_decl(mod, func, dec)
                if decl is not None:
                    self.decls[func.id] = decl

    def _parse_decl(
        self, mod: ModuleInfo, func: FuncInfo, dec: ast.Call
    ) -> Decl | None:
        kwargs = {kw.arg: kw.value for kw in dec.keywords}
        if dec.args:
            kwargs.setdefault("dtypes", dec.args[0])
            if len(dec.args) > 1:
                kwargs.setdefault("shapes", dec.args[1])
        dtypes = _literal_str_dict(kwargs.get("dtypes"))
        shapes = _literal_str_dict(kwargs.get("shapes"))
        if dtypes is None or shapes is None:
            self.report(
                mod, dec, "RPR301",
                f"@columnar declaration on {func.qualname} is not a literal "
                f"dict of string specs; the analyzer cannot check it",
            )
            return None
        decl = Decl(func_id=func.id, node=dec, shapes=dict(shapes))
        params = {a.arg for a in func.params}
        for name, text in dtypes.items():
            spec = parse_spec(text)
            if spec is None:
                self.report(
                    mod, dec, "RPR301",
                    f"@columnar declaration on {func.qualname}: spec "
                    f"{text!r} for {name!r} is not a recognised dtype spec",
                )
                continue
            if name == "return":
                decl.ret = spec
            elif name in params:
                decl.params[name] = spec
            else:
                decl.columns[name] = spec
        for name in shapes:
            if name != "return" and name not in params \
                    and name not in dtypes:
                self.report(
                    mod, dec, "RPR301",
                    f"@columnar declaration on {func.qualname}: shape entry "
                    f"{name!r} names neither a parameter nor a declared "
                    f"column",
                )
        return decl

    # -- construction-tracked attribute dtypes -------------------------------

    def attr_col(
        self, mod: ModuleInfo, class_name: str, attr: str
    ) -> Col | None:
        """dtype of ``self.<attr>`` from constructor assignments."""
        if not class_name:
            return None
        class_id = f"{mod.name}:{class_name}"
        for cid in self.project.class_mro(class_id):
            cols = self._attr_cols.get(cid)
            if cols is None:
                # Publish an empty map first: the prepass types the
                # constructor bodies, which may read other attributes
                # of the same class (re-entrancy must terminate).
                self._attr_cols[cid] = {}
                cols = self._build_attr_cols(cid)
                self._attr_cols[cid] = cols
            if attr in cols:
                return cols[attr]
        return None

    def _build_attr_cols(self, class_id: str) -> dict[str, Col]:
        info = self.project.classes.get(class_id)
        if info is None:
            return {}
        mod = self.project.modules[info.module]
        out: dict[str, Col] = {}
        self.silent = True
        try:
            for name in sorted(info.methods):
                method = info.methods[name]
                func = self.project.functions.get(
                    f"{info.module}:{info.name}.{name}"
                )
                if func is None:
                    continue
                walker = _FunctionCols(self, mod, func, None, hot=False)
                for node in scope_nodes(method):
                    if not isinstance(node, ast.Assign):
                        continue
                    for tgt in node.targets:
                        if (
                            isinstance(tgt, ast.Attribute)
                            and isinstance(tgt.value, ast.Name)
                            and tgt.value.id == "self"
                            and isinstance(node.value, ast.Call)
                        ):
                            col = walker.col_of(node.value)
                            if col.dtype is not None and col.array:
                                out.setdefault(tgt.attr, col)
        finally:
            self.silent = False
        return out

    # -- the pass ------------------------------------------------------------

    def _seed_params(self, walker: _FunctionCols, func: FuncInfo,
                     decl: Decl | None) -> None:
        for arg in func.params:
            col = Col(index=is_index_name(arg.arg))
            ann = arg.annotation
            if isinstance(ann, ast.Attribute) and ann.attr == "ndarray":
                col = replace(col, array=True)
            if decl is not None and arg.arg in decl.params:
                spec = decl.params[arg.arg]
                declared = spec.to_col()
                if declared.array or declared.dtype is not None:
                    col = replace(
                        declared, index=col.index, array=True
                    )
            walker.env[arg.arg] = col

    def run(self) -> list[Finding]:
        for func in self.project.functions.values():
            mod = self.project.modules[func.module]
            if mod.top_package in EXEMPT_PACKAGES:
                continue
            decl = self.decls.get(func.id)
            walker = _FunctionCols(
                self, mod, func, decl, hot=mod.name in HOT_MODULES
            )
            self._seed_params(walker, func, decl)
            walker.block(func.node.body)
        return sorted(self.findings, key=Finding.sort_key)


def check_columnar(project: Project) -> list[Finding]:
    """RPR301/RPR302/RPR304/RPR305: numpy dtype/shape flow, mask misuse,
    hot loops."""
    return ColumnarAnalysis(project).run()


# -- machine-readable export --------------------------------------------------


def columnar_report(project: Project) -> str:
    """Stable JSON export of the declared columnar contract surface."""
    analysis = ColumnarAnalysis(project)
    declarations = []
    for func_id in sorted(analysis.decls):
        decl = analysis.decls[func_id]
        entry: dict[str, object] = {"function": func_id}
        dtypes: dict[str, str] = {}
        for name, spec in sorted(decl.params.items()):
            dtypes[name] = spec.describe()
        for name, spec in sorted(decl.columns.items()):
            dtypes[name] = spec.describe()
        if decl.ret is not None:
            dtypes["return"] = decl.ret.describe()
        entry["dtypes"] = dtypes
        entry["shapes"] = dict(sorted(decl.shapes.items()))
        declarations.append(entry)
    doc = {
        "version": 1,
        "rules": dict(sorted(_RULES.items())),
        "declarations": declarations,
        "hot_modules": sorted(HOT_MODULES),
        "hot_allowlist": sorted(HOT_ALLOWLIST),
        "index_tokens": sorted(INDEX_TOKENS),
    }
    return json.dumps(doc, indent=2, sort_keys=True)
