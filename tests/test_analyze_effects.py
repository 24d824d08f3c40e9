"""Effect analysis (RPR205-RPR207).

Each contract family is proven on a fixture tree where the rule fires
on a seeded violation and stays silent on the conforming twin; the
real tree is then held to all of them at once (effects-clean, with a
mutation test showing the recovery-surface contract actually bites on
the production persistence stack).
"""

from pathlib import Path

from repro.devtools.analyze import Project
from repro.devtools.analyze.effects import (
    EffectAnalysis,
    check_effects,
    effects_report,
)

SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"


def codes(findings):
    return sorted(f.code for f in findings)


class TestSweepRaces:
    def test_module_dict_mutation_in_worker_is_rpr205(self, analyze_tree):
        project = analyze_tree({
            "harness/sweep.py": """\
                _CACHE = {}

                def _remember(key):
                    _CACHE[key] = 1

                def _execute_cell(cell):
                    _remember(cell)
            """,
        })
        findings = check_effects(project)
        assert codes(findings) == ["RPR205"]
        assert "_remember()" in findings[0].message
        assert "_execute_cell" in findings[0].message

    def test_global_statement_in_worker_is_rpr205(self, analyze_tree):
        project = analyze_tree({
            "harness/sweep.py": """\
                _COUNT = 0

                def _execute_cell(cell):
                    global _COUNT
                    _COUNT += 1
            """,
        })
        findings = check_effects(project)
        assert codes(findings) == ["RPR205"]
        assert "'_COUNT'" in findings[0].message

    def test_class_attribute_write_in_worker_is_rpr205(self, analyze_tree):
        project = analyze_tree({
            "harness/sweep.py": """\
                class Config:
                    limit = 3

                def _execute_cell(cell):
                    Config.limit = cell
            """,
        })
        findings = check_effects(project)
        assert codes(findings) == ["RPR205"]
        assert "Config.limit" in findings[0].message

    def test_engine_hook_methods_are_worker_entries(self, analyze_tree):
        project = analyze_tree({
            "engine/hooks.py": """\
                class EngineHook:
                    def on_request(self, op):
                        pass
            """,
            "faults/pipe.py": """\
                from ..engine.hooks import EngineHook

                TALLY = []

                class CountingHook(EngineHook):
                    def on_request(self, op):
                        TALLY.append(op)
            """,
        })
        findings = check_effects(project)
        assert codes(findings) == ["RPR205"]
        assert "CountingHook.on_request()" in findings[0].message

    def test_lru_cache_in_worker_is_rpr206(self, analyze_tree):
        project = analyze_tree({
            "harness/sweep.py": """\
                from functools import lru_cache

                @lru_cache(maxsize=4)
                def _double(key):
                    return key * 2

                def _execute_cell(cell):
                    return _double(cell)
            """,
        })
        findings = check_effects(project)
        assert codes(findings) == ["RPR206"]
        assert "@lru_cache" in findings[0].message
        assert "_double()" in findings[0].message

    def test_allowlisted_memo_is_accepted(self, analyze_tree):
        # repro.harness.sweep:_trace_for is the documented per-process
        # trace memo; the allowlist admits it by project id.
        project = analyze_tree({
            "harness/sweep.py": """\
                from functools import lru_cache

                @lru_cache(maxsize=16)
                def _trace_for(key):
                    return key * 2

                def _execute_cell(cell):
                    return _trace_for(cell)
            """,
        })
        assert check_effects(project) == []

    def test_unreachable_module_state_is_not_flagged(self, analyze_tree):
        project = analyze_tree({
            "harness/sweep.py": """\
                def _execute_cell(cell):
                    return cell
            """,
            "harness/report.py": """\
                _SEEN = {}

                def record(key):
                    _SEEN[key] = 1
            """,
        })
        assert check_effects(project) == []

    def test_closure_handed_to_a_scheduler_stays_reachable(self,
                                                           analyze_tree):
        """A worker reaches the defs nested in it: ``fire`` only runs
        when the scheduler calls it back."""
        project = analyze_tree({
            "harness/sweep.py": """\
                _SEEN = {}

                def _note(key):
                    _SEEN[key] = 1

                def _schedule(callback):
                    return callback

                def _execute_cell(cell):
                    def fire():
                        _note(cell)
                    _schedule(fire)
            """,
        })
        findings = check_effects(project)
        assert [(f.code, f.line) for f in findings] == [("RPR205", 4)]
        assert "_note() mutates module-level '_SEEN'" in findings[0].message
        assert "repro.harness.sweep:_execute_cell" in findings[0].message


class TestRealTree:
    def test_src_repro_is_effects_clean(self):
        project = Project.load([SRC_REPRO])
        assert check_effects(project) == []

    def test_findings_and_report_are_discovery_order_invariant(self):
        forward = Project.load(sorted(SRC_REPRO.rglob("*.py")))
        backward = Project.load(sorted(SRC_REPRO.rglob("*.py"), reverse=True))
        assert [f.render() for f in check_effects(forward)] == \
            [f.render() for f in check_effects(backward)]
        assert effects_report(forward) == effects_report(backward)

    def test_effect_model_matches_the_production_contract(self):
        analysis = EffectAnalysis(Project.load([SRC_REPRO]))
        # The sweep worker surface includes both cell runners and hooks.
        entries = analysis.sweep_entries()
        assert "repro.harness.sweep:_execute_cell" in entries
        assert any(e.startswith("repro.engine.hooks:") for e in entries)
        # What the workers reach includes the simulation code a cell
        # drives, not only the harness entry points.
        reached = analysis.sweep_reachable()
        assert "repro.serve.driver:ServeDriver.run" in reached
        assert "repro.cache.sets:CacheSets.__init__" in reached

    def test_effects_report_shape(self, tmp_path):
        import json

        doc = json.loads(effects_report(Project.load([SRC_REPRO])))
        assert doc["version"] == 1
        # The report describes sweep reachability only: the retired
        # membership contract (RPR201/RPR203) leaves no key behind.
        assert sorted(doc) == ["sweep", "version"]
        assert doc["sweep"]["entry_points"] == \
            EffectAnalysis(Project.load([SRC_REPRO])).sweep_entries()
        assert doc["sweep"]["reachable_functions"] > 0
        cached = doc["sweep"]["cached_functions"]
        assert cached and all(entry["allowlisted"] for entry in cached)


# -- recovery read-surface (RPR207) ------------------------------------------

#: Mini twin of the persistence stack: module paths and class names
#: match the production RECOVERY_ROOTS / RECOVERY_SURFACE bindings, so
#: the rule runs on the fixture tree exactly as on the real one.
MINI_RECOVERY_STACK = {
    "nvram/metabuffer.py": """\
        class MetadataBuffer:
            def __init__(self):
                self._entries = {}
                self._hot_index = {}

            def snapshot(self):
                return list(self._entries.values())
    """,
    "nvram/staging.py": """\
        class StagingBuffer:
            def __init__(self):
                self._entries = {}
                self._flushing = {}

            def snapshot(self):
                return list(self._flushing.values()) + \\
                    list(self._entries.values())
    """,
    "cache/mlog.py": """\
        from ..nvram.metabuffer import MetadataBuffer

        class MetadataLog:
            def __init__(self):
                self.buffer = MetadataBuffer()
                self.head = 0
                self.tail = 0
                self._page_image = {}
                self._committing = []
                self._relocating = []
                self._shadow_map = {}

            def replay(self):
                out = {}
                for seq in range(self.head, self.tail):
                    for entry in self._page_image.get(seq, ()):
                        out[entry] = entry
                return out

            def nvram_entries(self):
                out = list(self._relocating)
                for batch in self._committing:
                    out.extend(batch)
                out.extend(self.buffer.snapshot())
                return out
    """,
    "core/recovery.py": """\
        def recover_from_power_failure(kdd):
            mapping = kdd.mlog.replay()
            for entry in kdd.mlog.nvram_entries():
                mapping[entry] = entry
            for staged in kdd.staging.snapshot():
                mapping[staged] = staged
            return mapping
    """,
}


def recovery_tree(**overrides):
    files = dict(MINI_RECOVERY_STACK)
    files.update(overrides)
    return files


class TestRecoverySurface:
    def test_conforming_recovery_stack_is_clean(self, analyze_tree):
        project = analyze_tree(recovery_tree())
        assert check_effects(project) == []

    def test_direct_read_outside_roots_is_rpr207(self, analyze_tree):
        project = analyze_tree(recovery_tree(**{
            "core/recovery.py": """\
                def recover_from_power_failure(kdd):
                    mapping = kdd.mlog.replay()
                    for line in kdd.sets.all_lines():
                        mapping[line] = line
                    return mapping
            """,
        }))
        findings = check_effects(project)
        assert codes(findings) == ["RPR207"]
        assert "'sets'" in findings[0].message
        assert "recover_from_power_failure()" in findings[0].message

    def test_interprocedural_volatile_read_is_rpr207(self, analyze_tree):
        # The entry point itself is conforming; the escape is one call
        # deep, inside the surface class -- the closure must follow it.
        mlog = MINI_RECOVERY_STACK["cache/mlog.py"].replace(
            "out = {}", "out = dict(self._shadow_map)")
        assert mlog != MINI_RECOVERY_STACK["cache/mlog.py"]
        project = analyze_tree(recovery_tree(**{"cache/mlog.py": mlog}))
        findings = check_effects(project)
        assert codes(findings) == ["RPR207"]
        assert "MetadataLog._shadow_map" in findings[0].message
        assert "MetadataLog.replay()" in findings[0].message

    def test_two_level_closure_through_sub_object_is_rpr207(self, analyze_tree):
        # recovery -> mlog.nvram_entries -> buffer.snapshot: a volatile
        # read at the third hop must still surface.
        buf = MINI_RECOVERY_STACK["nvram/metabuffer.py"].replace(
            "return list(self._entries.values())",
            "return list(self._hot_index) + list(self._entries.values())")
        assert buf != MINI_RECOVERY_STACK["nvram/metabuffer.py"]
        project = analyze_tree(recovery_tree(**{"nvram/metabuffer.py": buf}))
        findings = check_effects(project)
        assert codes(findings) == ["RPR207"]
        assert "MetadataBuffer._hot_index" in findings[0].message

    def test_passing_crashed_object_onward_is_rpr207(self, analyze_tree):
        project = analyze_tree(recovery_tree(**{
            "core/recovery.py": """\
                def _helper(kdd):
                    return kdd

                def recover_from_power_failure(kdd):
                    mapping = kdd.mlog.replay()
                    _helper(kdd)
                    return mapping
            """,
        }))
        findings = check_effects(project)
        assert codes(findings) == ["RPR207"]
        assert "passes the crashed object" in findings[0].message

    def test_real_tree_entry_is_present_and_clean(self):
        # Guard against the rule silently no-opping: the production
        # entry point must exist under the exact id the rule binds to,
        # and its read-closure must stay inside the declared surface.
        from repro.devtools.analyze.effects import RECOVERY_ENTRY

        project = Project.load([SRC_REPRO])
        assert RECOVERY_ENTRY in project.functions
        analysis = EffectAnalysis(project)
        assert analysis.check_recovery_surface() == []

    def test_shrunk_surface_fires_on_real_tree(self, monkeypatch):
        # Acceptance proof on the production tree: hide one genuinely
        # consulted attribute from the declared surface and the rule
        # must fire at the real read site.
        import repro.devtools.analyze.effects as effects_mod

        shrunk = {
            cls: attrs - {"buffer"}
            for cls, attrs in effects_mod.RECOVERY_SURFACE.items()
        }
        monkeypatch.setattr(effects_mod, "RECOVERY_SURFACE", shrunk)
        analysis = EffectAnalysis(Project.load([SRC_REPRO]))
        findings = analysis.check_recovery_surface()
        assert [f.code for f in findings] == ["RPR207"]
        assert "MetadataLog.buffer" in findings[0].message
