"""Machine-checked columnar contracts (DESIGN §15).

Foundation-layer vocabulary for contracts the whole-program analyzer
(:mod:`repro.devtools.analyze.columnar`) enforces statically.  Like
:func:`repro.errors.raises`, the decorator here changes nothing at
runtime beyond a marker attribute — it exists so intent is written in
the code and the analyzer can hold every caller to it.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from typing import TypeVar

_F = TypeVar("_F", bound=Callable[..., object])


def columnar(
    dtypes: Mapping[str, str] | None = None,
    shapes: Mapping[str, str] | None = None,
) -> Callable[[_F], _F]:
    """Declare the columnar contract of a batch kernel.

    ``dtypes`` maps names to dtype specs; ``shapes`` maps the same
    names to symbolic shapes (``"(n,)"``).  A name is either a
    parameter, ``"return"``, or a *named column* the kernel produces
    (checked wherever the body binds or passes a value under that
    name).  Dtype specs are numpy dtype names (``"int64"``,
    ``"float64"``, ``"bool"``), a ``"|"``-union of them, the scalar
    specs ``"int"``/``"float"``, or a parenthesised tuple for
    multi-value returns (``"(uint64, bool)"``).

    Both mappings must be **literal** dicts of string literals: the
    whole point is that ``kdd-repro analyze`` (rule family
    RPR301-RPR305) reads the declaration straight from the AST and
    verifies the body and every resolved call site against it.  At
    runtime the declaration is only recorded on the function.
    """

    def decorate(func: _F) -> _F:
        func.__columnar__ = {  # type: ignore[attr-defined]
            "dtypes": dict(dtypes or {}),
            "shapes": dict(shapes or {}),
        }
        return func

    return decorate

