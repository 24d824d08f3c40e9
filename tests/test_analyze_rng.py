"""RNG-stream provenance (RPR105 shared streams, RPR106 module globals).

Every ``numpy.random.Generator`` must be constructed per device or per
sweep cell from a derived seed and owned by exactly one consumer; the
analysis must catch sharing through attribute stores, aliases, and
retaining call boundaries while staying silent on the sanctioned
one-stream-per-owner loop pattern.
"""

from repro.devtools.analyze.rngflow import check_rng_provenance


def codes(findings):
    return sorted({f.code for f in findings})


class TestSharedStream:
    def test_stream_stored_into_two_attributes(self, analyze_tree):
        project = analyze_tree({
            "faults/sched.py": """\
                import numpy as np

                class Pipeline:
                    def wire(self, seed):
                        rng = np.random.default_rng(seed)
                        self.disk_rng = rng
                        self.flash_rng = rng
            """,
        })
        findings = check_rng_provenance(project)
        assert codes(findings) == ["RPR105"]
        assert "'rng'" in findings[0].message
        assert "2 owners" in findings[0].message

    def test_alias_does_not_launder_the_stream(self, analyze_tree):
        project = analyze_tree({
            "faults/sched.py": """\
                import numpy as np

                class Pipeline:
                    def wire(self, seed):
                        rng = np.random.default_rng(seed)
                        shared = rng
                        self.disk_rng = rng
                        self.flash_rng = shared
            """,
        })
        findings = check_rng_provenance(project)
        assert codes(findings) == ["RPR105"]

    def test_stream_shared_via_retaining_callee(self, analyze_tree):
        project = analyze_tree({
            "disk/model.py": """\
                class Disk:
                    def __init__(self, rng):
                        self.rng = rng
            """,
            "faults/sched.py": """\
                import numpy as np

                from ..disk.model import Disk

                def build(seed):
                    rng = np.random.default_rng(seed)
                    return Disk(rng), Disk(rng)
            """,
        })
        findings = check_rng_provenance(project)
        assert codes(findings) == ["RPR105"]
        assert "repro.disk.model:Disk.__init__" in findings[0].message

    def test_stream_shared_via_retaining_self_methods(self, analyze_tree):
        project = analyze_tree({
            "faults/sched.py": """\
                import numpy as np

                class Pipeline:
                    def keep(self, rng):
                        self.disk_rng = rng

                    def keep2(self, rng):
                        self.flash_rng = rng

                    def wire(self, seed):
                        rng = np.random.default_rng(seed)
                        self.keep(rng)
                        self.keep2(rng)
            """,
        })
        findings = check_rng_provenance(project)
        assert codes(findings) == ["RPR105"]
        assert "Pipeline.keep)" in findings[0].message
        assert "Pipeline.keep2)" in findings[0].message

    def test_subscript_registry_counts_as_owner(self, analyze_tree):
        # an annotated binding binds the stream exactly like a plain one
        for binding in ("rng = np.random.default_rng(seed)",
                        "rng: np.random.Generator = "
                        "np.random.default_rng(seed)"):
            project = analyze_tree({
                "faults/sched.py": f"""\
                    import numpy as np

                    def build(seed, registry):
                        {binding}
                        registry["disk0"] = rng
                        registry["disk1"] = rng
                        return registry
                """,
            })
            assert codes(check_rng_provenance(project)) == ["RPR105"], binding

    def test_per_device_loop_is_clean(self, analyze_tree):
        """The sanctioned pattern: one fresh derived stream per owner."""
        project = analyze_tree({
            "faults/sched.py": """\
                import numpy as np

                class Disk:
                    def __init__(self, rng):
                        self.rng = rng

                def build(seed, n):
                    disks = []
                    for i in range(n):
                        rng = np.random.default_rng((seed, i))
                        disks.append(Disk(rng))
                    return disks
            """,
        })
        assert check_rng_provenance(project) == []

    def test_non_retaining_callee_is_not_a_sink(self, analyze_tree):
        project = analyze_tree({
            "faults/sched.py": """\
                import numpy as np

                def draw(rng):
                    return rng.integers(0, 10)

                def build(seed):
                    rng = np.random.default_rng(seed)
                    a = draw(rng)
                    b = draw(rng)
                    return a + b
            """,
        })
        assert check_rng_provenance(project) == []

    def test_stream_class_construction_tracked(self, analyze_tree):
        """A project class that builds a Generator in __init__ is itself
        a stream source; sharing one instance across owners is RPR105."""
        project = analyze_tree({
            "faults/stream.py": """\
                import numpy as np

                class FaultStream:
                    def __init__(self, seed):
                        self._rng = np.random.default_rng(seed)
            """,
            "faults/sched.py": """\
                from .stream import FaultStream

                class Pipeline:
                    def wire(self, seed):
                        stream = FaultStream(seed)
                        self.disk_stream = stream
                        self.flash_stream = stream
            """,
        })
        assert codes(check_rng_provenance(project)) == ["RPR105"]

    def test_stream_returning_helper_tracked(self, analyze_tree):
        project = analyze_tree({
            "faults/stream.py": """\
                import numpy as np

                def derive_rng(seed, label):
                    return np.random.default_rng((seed, label))
            """,
            "faults/sched.py": """\
                from .stream import derive_rng

                class Pipeline:
                    def wire(self, seed):
                        rng = derive_rng(seed, "disk")
                        self.disk_rng = rng
                        self.flash_rng = rng
            """,
        })
        assert codes(check_rng_provenance(project)) == ["RPR105"]


def located(findings):
    return [(f.code, f.line, f.col) for f in findings]


class TestScopeModel:
    """RPR105/RPR111 read a function's own nodes in flow order: a nested
    ``def`` is analysed once, as itself, and branches merge."""

    def test_stream_shared_in_nested_def_is_reported_once(self,
                                                          analyze_tree):
        project = analyze_tree({
            "faults/sched.py": """\
                import numpy as np

                def outer(seed, registry):
                    def wire():
                        rng = np.random.default_rng(seed)
                        registry["a"] = rng
                        registry["b"] = rng
                    return wire
            """,
        })
        findings = check_rng_provenance(project)
        assert located(findings) == [("RPR105", 5, 14)]
        assert "in outer.<locals>.wire()" in findings[0].message

    def test_unhashed_seed_in_nested_def_is_reported_once(self,
                                                          analyze_tree):
        project = analyze_tree({
            "serve/composer.py": """\
                import numpy as np

                def outer(seed):
                    def draw():
                        return np.random.default_rng(seed).random()
                    return draw
            """,
        })
        findings = check_rng_provenance(project)
        assert located(findings) == [("RPR111", 5, 15)]
        assert "in outer.<locals>.draw()" in findings[0].message

    def test_nested_stream_factory_does_not_make_a_stream_factory(
            self, analyze_tree):
        project = analyze_tree({
            "faults/sched.py": """\
                import numpy as np

                def make_count():
                    def fresh():
                        return np.random.default_rng(1)
                    return 5

                def build(registry):
                    n = make_count()
                    registry["a"] = n
                    registry["b"] = n
            """,
        })
        assert check_rng_provenance(project) == []

    def test_stream_built_on_both_arms_then_shared(self, analyze_tree):
        project = analyze_tree({
            "faults/sched.py": """\
                import numpy as np

                def build(flag, registry):
                    if flag:
                        rng = np.random.default_rng(1)
                    else:
                        rng = np.random.default_rng(2)
                    registry["a"] = rng
                    registry["b"] = rng
            """,
        })
        findings = check_rng_provenance(project)
        assert located(findings) == [("RPR105", 5, 14), ("RPR105", 7, 14)]
        for finding in findings:
            assert "in build() flows into 2 owners (line 8 (stored), " \
                "line 9 (stored))" in finding.message

    def test_positional_only_parameter_is_retained(self, analyze_tree):
        project = analyze_tree({
            "faults/sched.py": """\
                import numpy as np

                class Pipeline:
                    def keep(self, rng, /):
                        self.rng = rng

                def wire(seed):
                    rng = np.random.default_rng(seed)
                    disk = Pipeline()
                    flash = Pipeline()
                    disk.keep(rng)
                    flash.keep(rng)
            """,
        })
        findings = check_rng_provenance(project)
        assert located(findings) == [("RPR105", 8, 10)]
        assert "in wire() flows into 2 owners" in findings[0].message
        assert findings[0].message.count(
            "passed to repro.faults.sched:Pipeline.keep") == 2


class TestModuleScope:
    def test_module_global_stream_is_rpr106(self, analyze_tree):
        project = analyze_tree({
            "faults/sched.py": """\
                import numpy as np

                RNG = np.random.default_rng(1234)
            """,
        })
        findings = check_rng_provenance(project)
        assert codes(findings) == ["RPR106"]
        assert "module scope" in findings[0].message

    def test_from_import_constructor_form(self, analyze_tree):
        project = analyze_tree({
            "faults/sched.py": """\
                from numpy.random import default_rng

                RNG = default_rng(1234)
            """,
        })
        assert codes(check_rng_provenance(project)) == ["RPR106"]

    def test_seed_constant_at_module_scope_is_fine(self, analyze_tree):
        project = analyze_tree({
            "faults/sched.py": """\
                DEFAULT_SEED = 1234
            """,
        })
        assert check_rng_provenance(project) == []


class TestServeSeedProvenance:
    """RPR111: serve-layer streams must be seeded via sha256."""

    def test_raw_seed_in_serve_is_rpr111(self, analyze_tree):
        project = analyze_tree({
            "serve/composer.py": """\
                import numpy as np

                class Composer:
                    def cell(self, seed, epoch):
                        rng = np.random.default_rng((seed, epoch))
                        return rng.random()
            """,
        })
        findings = check_rng_provenance(project)
        assert codes(findings) == ["RPR111"]
        assert "sha256" in findings[0].message

    def test_unseeded_serve_stream_is_rpr111(self, analyze_tree):
        project = analyze_tree({
            "serve/composer.py": """\
                import numpy as np

                def draw():
                    return np.random.default_rng().random()
            """,
        })
        assert codes(check_rng_provenance(project)) == ["RPR111"]

    def test_inline_sha256_seed_is_clean(self, analyze_tree):
        project = analyze_tree({
            "serve/composer.py": """\
                import hashlib

                import numpy as np

                def cell(seed, tid):
                    digest = hashlib.sha256(f"{seed}:{tid}".encode())
                    rng = np.random.default_rng(
                        int(digest.hexdigest()[:16], 16)
                    )
                    return rng.random()
            """,
        })
        assert check_rng_provenance(project) == []

    def test_project_hashing_helper_is_clean(self, analyze_tree):
        """A seed routed through a helper that transitively hashes."""
        project = analyze_tree({
            "serve/seeds.py": """\
                import hashlib

                def substream_seed(seed, tid):
                    digest = hashlib.sha256(f"{seed}:{tid}".encode())
                    return int(digest.hexdigest()[:16], 16)

                def epoch_seed(seed, tid, epoch):
                    return (substream_seed(seed, tid), epoch)
            """,
            "serve/composer.py": """\
                import numpy as np

                from .seeds import epoch_seed

                def cell(seed, tid, epoch):
                    rng = np.random.default_rng(epoch_seed(seed, tid, epoch))
                    return rng.random()
            """,
        })
        assert check_rng_provenance(project) == []

    def test_local_name_carries_the_derivation(self, analyze_tree):
        project = analyze_tree({
            "serve/seeds.py": """\
                import hashlib

                def substream_seed(seed, tid):
                    digest = hashlib.sha256(f"{seed}:{tid}".encode())
                    return int(digest.hexdigest()[:16], 16)
            """,
            "serve/composer.py": """\
                import numpy as np

                from .seeds import substream_seed

                def cell(seed, tid, epoch):
                    sub = substream_seed(seed, tid)
                    rng = np.random.default_rng((sub, epoch + 1))
                    return rng.random()
            """,
        })
        assert check_rng_provenance(project) == []

    def test_hashed_self_method_is_clean(self, analyze_tree):
        project = analyze_tree({
            "serve/composer.py": """\
                import hashlib

                import numpy as np

                class Composer:
                    def _sub(self, tid):
                        digest = hashlib.sha256(tid.encode())
                        return int(digest.hexdigest()[:16], 16)

                    def cell(self, tid):
                        rng = np.random.default_rng(self._sub(tid))
                        return rng.random()
            """,
        })
        assert check_rng_provenance(project) == []

    def test_raw_seed_outside_serve_is_not_rpr111(self, analyze_tree):
        """The obligation is scoped: other layers keep plain derived
        seeds (the fault scheduler's (seed, i) tuples stay legal)."""
        project = analyze_tree({
            "faults/sched.py": """\
                import numpy as np

                def cell(seed, epoch):
                    rng = np.random.default_rng((seed, epoch))
                    return rng.random()
            """,
        })
        assert check_rng_provenance(project) == []
