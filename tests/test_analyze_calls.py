"""The analyzer's call model: ``Project.callees``, ``bind_args`` and
``external_name``.

One fixture tree holds every receiver shape the model types; each test
asks which functions one call site reaches.  Unresolvable receivers
reach nothing.
"""

import ast

import pytest

CALLS_TREE = {
    "raid/layout.py": """\
        class Layout:
            def locate(self, lpage):
                return lpage
    """,
    "raid/array.py": """\
        from .layout import Layout

        def make_layout():
            return Layout()

        class Base:
            def __init__(self):
                self.layout = Layout()

            def flush(self):
                return None

        class Array(Base):
            def write(self, lpage):
                self.flush()
                super().flush()
                return self.layout.locate(lpage)

        class Record:
            def __post_init__(self):
                self.ok = True
    """,
    "sim/api.py": """\
        import numpy as np

        from ..raid import array
        from ..raid.array import Array, Record, make_layout
        from ..raid.layout import Layout

        def helper(op):
            return op

        def build():
            return Layout()

        class Twin(Array, Layout):
            def write(self, lpage):
                return super().flush()

        class Driver:
            def __init__(self):
                self.array = Array()

            def run(self, op, engine: Array, other):
                helper(op)
                make_layout()
                array.make_layout()
                Array()
                Record()
                local = Layout()
                local.locate(op)
                alias = self.array
                alias.write(op)
                engine.write(op)
                self.array.layout.locate(op)
                other.write(op)
                made = build()
                made.locate(op)
                np.zeros(op)
                self.missing()
    """,
}


@pytest.fixture
def project(analyze_tree):
    return analyze_tree(CALLS_TREE)


def callees_of(project, func_id, callee_src):
    """Callees of the one call in ``func_id`` whose target reads
    ``callee_src``."""
    func = project.functions[func_id]
    calls = [node for node in ast.walk(func.node)
             if isinstance(node, ast.Call)
             and ast.unparse(node.func) == callee_src]
    assert len(calls) == 1, callee_src
    return project.callees(func, calls[0])


RUN = "repro.sim.api:Driver.run"
WRITE = "repro.raid.array:Array.write"
LOCATE = ["repro.raid.layout:Layout.locate"]


class TestCallees:
    def test_module_function(self, project):
        assert callees_of(project, RUN, "helper") == \
            ["repro.sim.api:helper"]

    def test_imported_function(self, project):
        assert callees_of(project, RUN, "make_layout") == \
            ["repro.raid.array:make_layout"]

    def test_function_through_module_binding(self, project):
        assert callees_of(project, RUN, "array.make_layout") == \
            ["repro.raid.array:make_layout"]

    def test_construction_reaches_inherited_init(self, project):
        assert callees_of(project, RUN, "Array") == \
            ["repro.raid.array:Base.__init__"]

    def test_construction_reaches_post_init(self, project):
        assert callees_of(project, RUN, "Record") == \
            ["repro.raid.array:Record.__post_init__"]

    def test_self_method_through_mro(self, project):
        assert callees_of(project, WRITE, "self.flush") == \
            ["repro.raid.array:Base.flush"]

    def test_single_base_super(self, project):
        assert callees_of(project, WRITE, "super().flush") == \
            ["repro.raid.array:Base.flush"]

    def test_super_with_two_bases_is_unresolved(self, project):
        assert callees_of(
            project, "repro.sim.api:Twin.write", "super().flush") == []

    def test_self_attr_typed_through_base_construction(self, project):
        assert callees_of(project, WRITE, "self.layout.locate") == LOCATE

    def test_local_built_from_project_class(self, project):
        assert callees_of(project, RUN, "local.locate") == LOCATE

    def test_self_attr_alias(self, project):
        assert callees_of(project, RUN, "alias.write") == [WRITE]

    def test_annotated_parameter(self, project):
        assert callees_of(project, RUN, "engine.write") == [WRITE]

    def test_attribute_chain_of_typed_receiver(self, project):
        assert callees_of(project, RUN, "self.array.layout.locate") == \
            LOCATE

    @pytest.mark.parametrize("callee_src", [
        "other.write",  # unannotated parameter
        "made.locate",  # local assigned a call result, not a construction
        "np.zeros",  # external library
        "self.missing",  # no such method in the MRO
    ])
    def test_unresolvable_receivers_reach_nothing(self, project,
                                                   callee_src):
        assert callees_of(project, RUN, callee_src) == []

    def test_answer_is_computed_once_per_call_site(self, project):
        func = project.functions[RUN]
        call = next(node for node in ast.walk(func.node)
                    if isinstance(node, ast.Call)
                    and ast.unparse(node.func) == "engine.write")
        assert project.callees(func, call) is project.callees(func, call)

    def test_module_scope_resolves_names_only(self, analyze_tree):
        project = analyze_tree({"sim/api.py": """\
            def helper(op):
                return op

            VALUE = helper(1)
        """})
        mod = project.modules["repro.sim.api"]
        call = next(node for node in ast.walk(mod.tree)
                    if isinstance(node, ast.Call))
        assert project.callees(mod, call) == ["repro.sim.api:helper"]


class TestBindArgs:
    def test_method_binds_past_self(self, project):
        func = project.functions[RUN]
        call = next(node for node in ast.walk(func.node)
                    if isinstance(node, ast.Call)
                    and ast.unparse(node.func) == "engine.write")
        bound = project.bind_args(WRITE, call)
        assert {name: ast.unparse(arg) for name, arg in bound.items()} == \
            {"lpage": "op"}

    def test_positional_keyword_and_splat(self, analyze_tree):
        project = analyze_tree({"sim/api.py": """\
            def target(a, b, c=0, *, d=0, **extra):
                return a

            def caller(xs):
                target(1, *xs, d=4, e=5)
        """})
        func = project.functions["repro.sim.api:caller"]
        call = next(node for node in ast.walk(func.node)
                    if isinstance(node, ast.Call))
        bound = project.bind_args("repro.sim.api:target", call)
        assert {name: ast.unparse(arg) for name, arg in bound.items()} == \
            {"a": "1", "d": "4", "e": "5"}


class TestExternalName:
    @pytest.mark.parametrize("imports, expr, expected", [
        ("import numpy as np", "np.random.default_rng",
         "numpy.random.default_rng"),
        ("from numpy.random import default_rng", "default_rng",
         "numpy.random.default_rng"),
        ("from numpy import random as npr", "npr.default_rng",
         "numpy.random.default_rng"),
        ("import numpy.random", "numpy.random.default_rng",
         "numpy.random.default_rng"),
        ("import hashlib", "hashlib.sha256", "hashlib.sha256"),
        ("from functools import lru_cache", "lru_cache",
         "functools.lru_cache"),
        ("from ..units import KIB", "KIB", None),  # a project name
        ("import numpy as np", "local.attr", None),  # not an import
    ])
    def test_import_rooted_names(self, analyze_tree, imports, expr,
                                 expected):
        project = analyze_tree({
            "units.py": "KIB = 1024\n",
            "sim/api.py": f"{imports}\n",
        })
        mod = project.modules["repro.sim.api"]
        node = ast.parse(expr, mode="eval").body
        assert project.external_name(mod, node) == expected
