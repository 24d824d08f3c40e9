"""Columnar contract analysis (RPR301, RPR302, RPR304, RPR305).

Each rule is proven on a fixture tree where it fires on a seeded
violation and stays silent on the conforming twin; the real tree is
then held to all of them at once (columnar-clean, with mutation tests
showing the dtype contract bites on the serve composer's page column
and the hot-loop lint bites on ``Trace.__iter__``).
"""

import json
from pathlib import Path

from repro.devtools.analyze import Project
from repro.devtools.analyze.columnar import (
    ColumnarAnalysis,
    check_columnar,
    columnar_report,
    parse_spec,
)

SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Mini twin of repro.contracts: the analyzer resolves the decorator
#: by its project id, so the fixture tree needs a real definition.
MINI_CONTRACTS = """\
    def columnar(dtypes=None, shapes=None):
        def mark(func):
            func.__columnar__ = {
                "dtypes": dict(dtypes or {}),
                "shapes": dict(shapes or {}),
            }
            return func
        return mark
"""


def codes(findings):
    return sorted(f.code for f in findings)


class TestIndexDtypeFlow:
    """RPR301: address/index columns must stay 64-bit integers."""

    def test_narrowing_astype_of_index_array_fires(self, analyze_tree):
        project = analyze_tree({
            "core/flow.py": """\
                import numpy as np

                def compact(lbas: np.ndarray):
                    return lbas.astype(np.int32)
            """,
        })
        findings = check_columnar(project)
        assert codes(findings) == ["RPR301"]
        assert "index column cast to int32" in findings[0].message

    def test_narrow_dtype_literal_on_index_binding_fires(self, analyze_tree):
        project = analyze_tree({
            "core/flow.py": """\
                import numpy as np

                def table():
                    pages = np.zeros(16, dtype=np.int32)
                    return pages
            """,
        })
        findings = check_columnar(project)
        assert codes(findings) == ["RPR301"]
        assert "index name 'pages' bound to a int32 array" \
            in findings[0].message

    def test_true_division_promotes_index_to_float(self, analyze_tree):
        project = analyze_tree({
            "core/flow.py": """\
                import numpy as np

                def groups(lbas: np.ndarray, group_pages: int):
                    return lbas / group_pages
            """,
        })
        findings = check_columnar(project)
        assert codes(findings) == ["RPR301"]
        assert "promoted to float" in findings[0].message

    def test_floor_division_of_index_is_clean(self, analyze_tree):
        project = analyze_tree({
            "core/flow.py": """\
                import numpy as np

                def groups(lbas: np.ndarray, group_pages: int):
                    return lbas // group_pages

                def widen(lbas: np.ndarray):
                    return lbas.astype(np.uint64)
            """,
        })
        assert check_columnar(project) == []

    def test_count_names_are_not_index_tainted(self, analyze_tree):
        # npages is one token (a count), not an address: narrowing it
        # is not an RPR301 (RPR302's unit lattice governs it instead).
        project = analyze_tree({
            "core/flow.py": """\
                import numpy as np

                def sizes(reqs: np.ndarray):
                    npages = np.zeros(len(reqs), dtype=np.int32)
                    return npages
            """,
        })
        assert check_columnar(project) == []

    def test_declared_argument_contract_checked_at_call_site(
        self, analyze_tree
    ):
        project = analyze_tree({
            "contracts.py": MINI_CONTRACTS,
            "core/flow.py": """\
                import numpy as np

                from ..contracts import columnar

                @columnar(dtypes={"lbas": "int64|uint64"})
                def classify(lbas):
                    return lbas

                def caller():
                    return classify(np.linspace(0.0, 1.0, 8))
            """,
        })
        findings = check_columnar(project)
        assert codes(findings) == ["RPR301"]
        assert "argument 'lbas' of classify()" in findings[0].message
        assert "int64|uint64" in findings[0].message

    def test_conforming_call_site_is_clean(self, analyze_tree):
        project = analyze_tree({
            "contracts.py": MINI_CONTRACTS,
            "core/flow.py": """\
                import numpy as np

                from ..contracts import columnar

                @columnar(dtypes={"lbas": "int64|uint64"})
                def classify(lbas):
                    return lbas

                def caller():
                    return classify(np.arange(8, dtype=np.int64))
            """,
        })
        assert check_columnar(project) == []

    def test_declared_return_contract_checked_in_body(self, analyze_tree):
        project = analyze_tree({
            "contracts.py": MINI_CONTRACTS,
            "core/flow.py": """\
                import numpy as np

                from ..contracts import columnar

                @columnar(dtypes={"return": "bool"})
                def flags(n):
                    return np.zeros(n, dtype=np.float64)
            """,
        })
        findings = check_columnar(project)
        assert codes(findings) == ["RPR301"]
        assert "return value is declared bool" in findings[0].message


class TestUnsafeCasts:
    """RPR302: truncating and unit-carrying narrow casts."""

    def test_unrounded_float_to_int_astype_fires(self, analyze_tree):
        project = analyze_tree({
            "core/flow.py": """\
                import numpy as np

                def bins(times: np.ndarray, window: float):
                    offsets = times * (1.0 / window)
                    return offsets.astype(np.int64)
            """,
        })
        findings = check_columnar(project)
        assert codes(findings) == ["RPR302"]
        assert "truncating float->int64 cast" in findings[0].message

    def test_floor_divide_then_astype_is_clean(self, analyze_tree):
        # The windowing idiom the production code uses (streaming.py,
        # traces/analysis.py): an explicit rounding step clears the
        # truncation hazard.
        project = analyze_tree({
            "core/flow.py": """\
                import numpy as np

                def bins(times: np.ndarray, window: float):
                    return np.floor_divide(times, window).astype(np.int64)

                def rounded(times: np.ndarray):
                    return np.rint(times).astype(np.int64)
            """,
        })
        assert check_columnar(project) == []

    def test_unit_carrying_narrow_cast_fires(self, analyze_tree):
        project = analyze_tree({
            "core/flow.py": """\
                import numpy as np

                def pack(total_bytes: np.ndarray):
                    return total_bytes.astype(np.int32)
            """,
        })
        findings = check_columnar(project)
        assert codes(findings) == ["RPR302"]
        assert "unit-carrying cast" in findings[0].message
        assert "narrowed to int32" in findings[0].message

    def test_unit_preserving_wide_cast_is_clean(self, analyze_tree):
        project = analyze_tree({
            "core/flow.py": """\
                import numpy as np

                def pack(total_bytes: np.ndarray):
                    return total_bytes.astype(np.int64)
            """,
        })
        assert check_columnar(project) == []


class TestMaskMisuse:
    """RPR304: boolean-mask misuse."""

    def test_python_and_on_mask_arrays_fires(self, analyze_tree):
        project = analyze_tree({
            "core/flow.py": """\
                import numpy as np

                def hot_writes(temps: np.ndarray, reads: np.ndarray):
                    return (temps > 0.5) and (~reads)
            """,
        })
        findings = check_columnar(project)
        assert codes(findings) == ["RPR304"]
        assert "'and' on a mask array" in findings[0].message

    def test_bitwise_mask_combination_is_clean(self, analyze_tree):
        project = analyze_tree({
            "core/flow.py": """\
                import numpy as np

                def hot_writes(temps: np.ndarray, reads: np.ndarray):
                    return (temps > 0.5) & (~reads)
            """,
        })
        assert check_columnar(project) == []

    def test_scalar_comparisons_may_use_and(self, analyze_tree):
        # Scalar subscripts drop the array flag: ordinary python
        # boolean logic on elements is not a mask misuse.
        project = analyze_tree({
            "core/flow.py": """\
                import numpy as np

                def check(temps: np.ndarray, i: int):
                    return temps[i] > 0.5 and temps[i] < 0.9
            """,
        })
        assert check_columnar(project) == []

    def test_chained_fancy_index_assignment_fires(self, analyze_tree):
        project = analyze_tree({
            "core/flow.py": """\
                import numpy as np

                def clamp(values: np.ndarray, mask: np.ndarray):
                    values[mask][0] = 0.0
            """,
        })
        findings = check_columnar(project)
        assert codes(findings) == ["RPR304"]
        assert "temporary copy" in findings[0].message

    def test_single_subscript_assignment_is_clean(self, analyze_tree):
        project = analyze_tree({
            "core/flow.py": """\
                import numpy as np

                def clamp(values: np.ndarray, mask: np.ndarray):
                    values[mask] = 0.0
            """,
        })
        assert check_columnar(project) == []


class TestHotLoops:
    """RPR305: scalar loops in designated hot modules."""

    def test_for_over_ndarray_in_hot_module_fires(self, analyze_tree):
        project = analyze_tree({
            "cache/common.py": """\
                import numpy as np

                def tally(values: np.ndarray):
                    total = 0.0
                    for v in values:
                        total = total + v
                    return total
            """,
        })
        findings = check_columnar(project)
        assert codes(findings) == ["RPR305"]
        assert "scalar loop over an ndarray in hot module" \
            in findings[0].message
        assert "repro.cache.common" in findings[0].message

    def test_tolist_first_is_clean(self, analyze_tree):
        project = analyze_tree({
            "cache/common.py": """\
                import numpy as np

                def tally(values: np.ndarray):
                    total = 0.0
                    for v in values.tolist():
                        total = total + v
                    return total
            """,
        })
        assert check_columnar(project) == []

    def test_same_loop_outside_hot_modules_is_clean(self, analyze_tree):
        project = analyze_tree({
            "core/flow.py": """\
                import numpy as np

                def tally(values: np.ndarray):
                    total = 0.0
                    for v in values:
                        total = total + v
                    return total
            """,
        })
        assert check_columnar(project) == []

    def test_allowlisted_function_is_admitted(self, analyze_tree):
        # repro.traces.trace:Trace.__iter__ is the documented scalar
        # protocol; the allowlist admits it by project id.
        project = analyze_tree({
            "traces/trace.py": """\
                import numpy as np

                class Trace:
                    def __init__(self, records):
                        self._records = records

                    def __iter__(self):
                        for rec in self._records:
                            yield rec
            """,
        })
        assert check_columnar(project) == []


class TestDeclarations:
    """@columnar declaration parsing and malformed-declaration reporting."""

    def test_uncalled_decorator_is_reported(self, analyze_tree):
        project = analyze_tree({
            "contracts.py": MINI_CONTRACTS,
            "core/flow.py": """\
                from ..contracts import columnar

                @columnar
                def classify(lbas):
                    return lbas
            """,
        })
        findings = check_columnar(project)
        assert codes(findings) == ["RPR301"]
        assert "must be called" in findings[0].message

    def test_non_literal_declaration_is_reported(self, analyze_tree):
        project = analyze_tree({
            "contracts.py": MINI_CONTRACTS,
            "core/flow.py": """\
                from ..contracts import columnar

                SPECS = {"lbas": "int64"}

                @columnar(dtypes=SPECS)
                def classify(lbas):
                    return lbas
            """,
        })
        findings = check_columnar(project)
        assert codes(findings) == ["RPR301"]
        assert "not a literal dict" in findings[0].message

    def test_unknown_spec_string_is_reported(self, analyze_tree):
        project = analyze_tree({
            "contracts.py": MINI_CONTRACTS,
            "core/flow.py": """\
                from ..contracts import columnar

                @columnar(dtypes={"lbas": "int65"})
                def classify(lbas):
                    return lbas
            """,
        })
        findings = check_columnar(project)
        assert codes(findings) == ["RPR301"]
        assert "'int65' for 'lbas' is not a recognised dtype spec" \
            in findings[0].message

    def test_shape_entry_must_name_a_parameter(self, analyze_tree):
        project = analyze_tree({
            "contracts.py": MINI_CONTRACTS,
            "core/flow.py": """\
                from ..contracts import columnar

                @columnar(shapes={"ghost": "(n,)"})
                def classify(lbas):
                    return lbas
            """,
        })
        findings = check_columnar(project)
        assert codes(findings) == ["RPR301"]
        assert "names neither a parameter nor a declared column" \
            in findings[0].message

    def test_shared_shape_symbol_checked_at_call_site(self, analyze_tree):
        project = analyze_tree({
            "contracts.py": MINI_CONTRACTS,
            "core/flow.py": """\
                import numpy as np

                from ..contracts import columnar

                @columnar(shapes={"lbas": "(n,)", "reads": "(n,)"})
                def merge(lbas, reads):
                    return lbas

                def caller(lbas, reads, lo, hi):
                    return merge(lbas[lo:hi], reads[:hi])
            """,
        })
        findings = check_columnar(project)
        assert codes(findings) == ["RPR301"]
        assert "share shape (n,)" in findings[0].message
        assert "sliced differently" in findings[0].message

    def test_identically_sliced_arguments_are_clean(self, analyze_tree):
        project = analyze_tree({
            "contracts.py": MINI_CONTRACTS,
            "core/flow.py": """\
                import numpy as np

                from ..contracts import columnar

                @columnar(shapes={"lbas": "(n,)", "reads": "(n,)"})
                def merge(lbas, reads):
                    return lbas

                def caller(lbas, reads, lo, hi):
                    return merge(lbas[lo:hi], reads[lo:hi])
            """,
        })
        assert check_columnar(project) == []

    def test_named_column_types_body_locals(self, analyze_tree):
        project = analyze_tree({
            "contracts.py": MINI_CONTRACTS,
            "core/flow.py": """\
                import numpy as np

                from ..contracts import columnar

                @columnar(dtypes={"hits": "bool"})
                def probe(n):
                    hits = np.zeros(n, dtype=np.float64)
                    return hits
            """,
        })
        findings = check_columnar(project)
        assert codes(findings) == ["RPR301"]
        assert "column 'hits' is declared bool" in findings[0].message

    def test_parse_spec_grammar(self):
        assert parse_spec("int64").options == ("int64",)
        assert parse_spec("int64|uint64").options == ("int64", "uint64")
        assert parse_spec("int").scalar == "int"
        assert parse_spec("list[int]").sequence == "int"
        tup = parse_spec("(uint64, bool)")
        assert tup.elements is not None and len(tup.elements) == 2
        assert parse_spec("int65") is None
        assert parse_spec("list[str]") is None


class TestRealTree:
    def test_src_repro_is_columnar_clean(self):
        project = Project.load([SRC_REPRO])
        assert check_columnar(project) == []

    def test_findings_and_report_are_discovery_order_invariant(self):
        forward = Project.load(sorted(SRC_REPRO.rglob("*.py")))
        backward = Project.load(sorted(SRC_REPRO.rglob("*.py"), reverse=True))
        assert [f.render() for f in check_columnar(forward)] == \
            [f.render() for f in check_columnar(backward)]
        assert columnar_report(forward) == columnar_report(backward)

    def test_narrowing_a_production_index_cast_fails_the_contract(
        self, analyze_tree
    ):
        # Acceptance proof: narrow the composer's page-address cast to
        # uint32 in the otherwise-identical production source and RPR301
        # must fire at the cast.
        composer_src = (SRC_REPRO / "serve" / "composer.py").read_text()
        contracts_src = (SRC_REPRO / "contracts.py").read_text()
        cast = "pages = (pages + self._bases[idx]).astype(np.uint64)"
        broken = composer_src.replace(cast, cast.replace("64", "32"))
        assert broken != composer_src
        clean = analyze_tree({
            "contracts.py": contracts_src,
            "serve/composer.py": composer_src,
        })
        assert check_columnar(clean) == []
        project = analyze_tree({
            "contracts.py": contracts_src,
            "serve/composer.py": broken,
        })
        findings = [f for f in check_columnar(project)
                    if f.code == "RPR301"]
        assert findings, "narrowed page column must trip RPR301"
        assert any("index column cast to uint32" in f.message
                   and "_tenant_epoch()" in f.message for f in findings)

    def test_emptying_the_allowlist_fires_on_trace_iter(self, monkeypatch):
        # Acceptance proof on the production tree: Trace.__iter__ is a
        # real scalar loop in a hot module, admitted only by the
        # explicit allowlist.
        import repro.devtools.analyze.columnar as columnar_mod

        monkeypatch.setattr(columnar_mod, "HOT_ALLOWLIST", frozenset())
        project = Project.load([SRC_REPRO])
        findings = check_columnar(project)
        assert any(
            f.code == "RPR305" and "Trace.__iter__" in f.message
            for f in findings
        )

    def test_declared_surface_matches_production_contracts(self):
        analysis = ColumnarAnalysis(Project.load([SRC_REPRO]))
        declared = set(analysis.decls)
        # The batch membership API carries explicit contracts...
        assert "repro.cache.sets:CacheSets.classify" in declared
        assert "repro.cache.sets:CacheSets.set_of_batch" in declared
        # ...and so do the columnar kernels that feed and read it.
        assert "repro.cache.sets:CacheSets.touch_many" in declared
        assert "repro.traces.trace:Trace.page_accesses" in declared

    def test_columnar_report_shape(self):
        doc = json.loads(columnar_report(Project.load([SRC_REPRO])))
        assert doc["version"] == 1
        assert sorted(doc["rules"]) == \
            ["RPR301", "RPR302", "RPR304", "RPR305"]
        ids = [d["function"] for d in doc["declarations"]]
        assert ids == sorted(ids)
        assert len(ids) >= 10
        # Nothing of the retired mirror contract (RPR303) is reported.
        assert "choke_points" not in doc
        assert "mirror_attrs" not in doc
        assert "repro.traces.trace" in doc["hot_modules"]
        assert "repro.traces.trace:Trace.__iter__" in doc["hot_allowlist"]
