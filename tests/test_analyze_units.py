"""Flow-sensitive unit taint (RPR104).

The dataflow analysis must catch taint laundered through blandly named
locals and across resolved call boundaries, and every expression shape
the retired lexical rule RPR007 saw, while staying silent on rate names
(``*_per_*``) and explicit conversions.
"""

import pytest

from repro.devtools.analyze.unitflow import check_units, unit_of_name


def codes(findings):
    return sorted({f.code for f in findings})


class TestUnitOfName:
    def test_plain_units(self):
        assert unit_of_name("capacity_bytes") == "bytes"
        assert unit_of_name("dirty_pages") == "pages"
        assert unit_of_name("latency_ms") == "ms"
        assert unit_of_name("warmup_seconds") == "seconds"

    def test_rate_names_are_dimensionless(self):
        assert unit_of_name("ops_per_page") is None
        assert unit_of_name("bytes_per_ms") is None

    def test_ambiguous_and_unknown_names(self):
        assert unit_of_name("pages_bytes") is None
        assert unit_of_name("count") is None


class TestTaintThroughAssignment:
    def test_binop_conflict_direct(self, analyze_tree):
        project = analyze_tree({
            "sim/api.py": """\
                def f(size_bytes, latency_ms):
                    return size_bytes + latency_ms
            """,
        })
        findings = check_units(project)
        assert codes(findings) == ["RPR104"]
        assert "bytes" in findings[0].message
        assert "ms" in findings[0].message

    def test_taint_survives_bland_local(self, analyze_tree):
        """The case the lexical rule cannot see: taint via a plain name."""
        project = analyze_tree({
            "sim/api.py": """\
                def f(size_bytes, dirty_pages):
                    tmp = size_bytes
                    return tmp + dirty_pages
            """,
        })
        findings = check_units(project)
        assert codes(findings) == ["RPR104"]
        assert "pages_for_bytes" in findings[0].message

    def test_assignment_to_unit_named_target(self, analyze_tree):
        project = analyze_tree({
            "sim/api.py": """\
                def f(latency_ms):
                    total_seconds = latency_ms
                    return total_seconds
            """,
        })
        findings = check_units(project)
        assert codes(findings) == ["RPR104"]
        assert "total_seconds" in findings[0].message

    def test_division_clears_taint(self, analyze_tree):
        project = analyze_tree({
            "sim/api.py": """\
                def f(size_bytes, page_size):
                    n_pages = size_bytes // page_size
                    return n_pages
            """,
        })
        assert check_units(project) == []

    def test_branch_merge_requires_agreement(self, analyze_tree):
        project = analyze_tree({
            "sim/api.py": """\
                def f(cond, size_bytes, latency_ms, dirty_pages):
                    if cond:
                        tmp = size_bytes
                    else:
                        tmp = latency_ms
                    return tmp + dirty_pages
            """,
        })
        # tmp is bytes on one arm, ms on the other: merged to unknown,
        # so no conflict may be claimed at the use site.
        assert check_units(project) == []


class TestTaintThroughReturn:
    def test_return_unit_from_function_name(self, analyze_tree):
        project = analyze_tree({
            "sim/api.py": """\
                def total_bytes(latency_ms):
                    tmp = latency_ms
                    return tmp
            """,
        })
        findings = check_units(project)
        assert codes(findings) == ["RPR104"]
        assert "returns" in findings[0].message

    def test_known_converter_return_unit(self, analyze_tree):
        project = analyze_tree({
            "units.py": """\
                def pages_for_bytes(n_bytes, page_size):
                    return -(-n_bytes // page_size)
            """,
            "sim/api.py": """\
                from ..units import pages_for_bytes

                def dirty_pages(size_bytes):
                    return pages_for_bytes(size_bytes, 4096)
            """,
        })
        assert check_units(project) == []


class TestTaintAcrossCalls:
    def test_positional_arg_conflict(self, analyze_tree):
        project = analyze_tree({
            "sim/api.py": """\
                def schedule(delay_ms):
                    return delay_ms

                def f(size_bytes):
                    return schedule(size_bytes)
            """,
        })
        findings = check_units(project)
        assert codes(findings) == ["RPR104"]
        assert "'delay_ms'" in findings[0].message

    def test_keyword_arg_conflict_cross_module(self, analyze_tree):
        project = analyze_tree({
            "engine/core.py": """\
                def submit(op, delay_ms=0):
                    return (op, delay_ms)
            """,
            "sim/api.py": """\
                from ..engine.core import submit

                def f(op, size_bytes):
                    return submit(op, delay_ms=size_bytes)
            """,
        })
        findings = check_units(project)
        assert [f.code for f in findings] == ["RPR104"]
        assert findings[0].relpath == "sim/api.py"

    def test_self_method_arg_conflict(self, analyze_tree):
        """``self.fill(size_bytes)`` binds past ``self`` to ``npages``."""
        project = analyze_tree({
            "cache/buffer.py": """\
                class Buffer:
                    def fill(self, npages):
                        return npages

                    def load(self, size_bytes):
                        return self.fill(size_bytes)
            """,
        })
        findings = check_units(project)
        assert codes(findings) == ["RPR104"]
        assert "parameter 'npages' (pages) of Buffer.fill()" in \
            findings[0].message

    def test_matching_units_are_silent(self, analyze_tree):
        project = analyze_tree({
            "sim/api.py": """\
                def schedule(delay_ms):
                    return delay_ms

                def f(latency_ms):
                    return schedule(latency_ms)
            """,
        })
        assert check_units(project) == []


#: Every shape the retired lexical rule RPR007 fired on: its five trigger
#: fixtures, then comparisons, subexpressions, statement contexts, and
#: unit-named bindings that only one branch, loop or ``try`` arm makes.
RPR007_SHAPES = [
    pytest.param("total = cache_bytes + cache_pages\n", id="add"),
    pytest.param("left = size_bytes - used_pages\n", id="sub"),
    pytest.param("ok = nbytes < npages\n", id="compare"),
    pytest.param("ok = obj.nbytes == obj.npages\n", id="compare-attrs"),
    pytest.param("rem = free_bytes % npages\n", id="mod"),
    pytest.param(
        "def f(size_bytes, free_pages):\n"
        "    return size_bytes >= free_pages\n",
        id="compare-in-return"),
    pytest.param("ok = 0 < used_bytes <= npages\n", id="compare-chained"),
    pytest.param("assert used_bytes <= cache_pages\n", id="compare-in-assert"),
    pytest.param("log(cache_bytes + cache_pages)\n", id="unresolved-call-arg"),
    pytest.param("xs = [cache_bytes - cache_pages]\n", id="list-literal"),
    pytest.param('d = {"left": size_bytes - used_pages}\n', id="dict-literal"),
    pytest.param("ys = [cache_bytes + cache_pages for _ in items]\n",
                 id="comprehension"),
    pytest.param("grow = lambda: cache_bytes + cache_pages\n", id="lambda"),
    pytest.param("row = table[cache_bytes - cache_pages]\n", id="subscript"),
    pytest.param('msg = f"{cache_bytes + cache_pages}"\n', id="f-string"),
    pytest.param("for i in range(cache_bytes - cache_pages):\n    pass\n",
                 id="for-iterable"),
    pytest.param("with span(cache_bytes + cache_pages):\n    pass\n",
                 id="with-item"),
    pytest.param("def f(n=cache_bytes + cache_pages):\n    return n\n",
                 id="default"),
    pytest.param(
        "@cached(cache_bytes + cache_pages)\ndef f():\n    return 1\n",
        id="decorator"),
    pytest.param("class Layout:\n    total = cache_bytes + cache_pages\n",
                 id="class-body"),
    pytest.param(
        "def f(cond, npages):\n"
        "    if cond:\n"
        "        free_bytes = 4096\n"
        "    return free_bytes - npages\n",
        id="bound-in-one-branch"),
    pytest.param(
        "def f(sizes, npages):\n"
        "    for size in sizes:\n"
        "        last_bytes = size\n"
        "    return last_bytes + npages\n",
        id="bound-in-for-loop"),
    pytest.param(
        "def f(npages):\n"
        "    while more():\n"
        "        got_bytes = read()\n"
        "    return got_bytes % npages\n",
        id="bound-in-while-loop"),
    pytest.param(
        "def f(npages):\n"
        "    try:\n"
        "        used_bytes = probe()\n"
        "    except KeyError:\n"
        "        return 0\n"
        "    return used_bytes - npages\n",
        id="bound-in-try-arm"),
]

#: RPR007's clean fixtures and the rate-name case: conversions by
#: ``*``/``//``, same-unit arithmetic, an untyped operand, and a rate.
RPR007_CLEAN = [
    pytest.param("total_bytes = npages * page_size\n", id="mult-converts"),
    pytest.param("npages = total_bytes // page_size\n", id="floordiv-converts"),
    pytest.param("total = a_bytes + b_bytes\n", id="same-unit-bytes"),
    pytest.param("total = a_pages + b_pages\n", id="same-unit-pages"),
    pytest.param("ok = nbytes < limit\n", id="untyped-operand"),
    pytest.param(
        "def f(n_ops, elapsed_ms):\n"
        "    ops_per_ms = n_ops / elapsed_ms\n"
        "    return ops_per_ms + n_ops\n",
        id="rate-name"),
]


class TestRetiredLexicalRule:
    """RPR104 sees every expression RPR007 saw, so RPR007 is retired."""

    @pytest.mark.parametrize("snippet", RPR007_SHAPES)
    def test_shape_fires_once(self, snippet, analyze_tree):
        project = analyze_tree({"sim/api.py": snippet})
        assert [f.code for f in check_units(project)] == ["RPR104"]

    @pytest.mark.parametrize("snippet", RPR007_CLEAN)
    def test_clean_shape_is_silent(self, snippet, analyze_tree):
        project = analyze_tree({"sim/api.py": snippet})
        assert check_units(project) == []


class TestLexicalFallback:
    """Unit-named parameters mixed inside a function body: the case RPR007
    was kept as a fallback for is an RPR104 without it."""

    def test_real_mixing_still_flags(self, analyze_tree):
        project = analyze_tree({"sim/api.py": """\
            def f(size_bytes, dirty_pages):
                return size_bytes + dirty_pages
        """})
        assert [f.code for f in check_units(project)] == ["RPR104"]
