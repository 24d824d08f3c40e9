"""The analyzer's scope model: the body walk and the flow walker.

Every analysis reads a function through :func:`scope_nodes` (which
nodes the function itself runs) and :class:`FlowWalker` (how flow
merges), both in ``repro.devtools.analyze.project``.
"""

import ast
import textwrap

from repro.devtools.analyze.project import FlowWalker, scope_nodes

SCOPES = textwrap.dedent("""\
    def outer(a, b=default()):
        x = first()
        def inner(c=second()):
            hidden()
        f = lambda y=third(): hidden()
        class Local(Base):
            hidden()
        return last(x)
""")


def test_scope_nodes_skip_nested_bodies_in_source_order():
    outer = ast.parse(SCOPES).body[0]
    nodes = list(scope_nodes(outer))
    assert nodes[0] is outer
    # Siblings come out in source order (breadth-first, like ast.walk).
    assert [type(n).__name__ for n in nodes if isinstance(n, ast.stmt)] == \
        ["FunctionDef", "Assign", "FunctionDef", "Assign", "ClassDef",
         "Return"]
    # Defaults and bases run in the enclosing scope; nested bodies not.
    assert [n.func.id for n in nodes if isinstance(n, ast.Call)] == \
        ["default", "first", "last", "second", "third"]
    assert "Base" in {n.id for n in nodes if isinstance(n, ast.Name)}


class _Bound(FlowWalker):
    """Each name holds the set of lines that may have bound it."""

    missing = frozenset()

    def join(self, a, b):
        return a | b

    def simple(self, stmt):
        if isinstance(stmt, ast.Assign):
            self.env[stmt.targets[0].id] = frozenset({stmt.lineno})


def test_flow_walker_merges_branches_loops_and_handlers():
    walker = _Bound()
    walker.block(ast.parse(textwrap.dedent("""\
        a = 1
        if c:
            a = 3
        else:
            b = 5
        for i in r:
            a = 7
        try:
            t = 9
        except E:
            t = 11
    """)).body)
    assert walker.env == {"a": {1, 3, 7}, "b": {5}, "t": {9, 11}}
