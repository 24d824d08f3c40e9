"""Exception-flow verification (RPR107/RPR108) and the escalation proof.

Fixture trees carry a miniature ``repro/errors.py`` because the
analysis anchors its taxonomy at ``repro.errors:ReproError``; the real
tree's ``FaultPipelineHook`` escalation contract is proven at the end
against the actual source.
"""

from pathlib import Path

import pytest

from repro.devtools.analyze import Project
from repro.devtools.analyze.excflow import ExceptionFlow, check_contracts

SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Mini taxonomy mirroring repro.errors: root, ambient config error,
#: sim/raid branches, and the @raises contract decorator.
MINI_ERRORS = """\
    class ReproError(Exception):
        pass

    class ConfigError(ReproError):
        pass

    class SimulationError(ReproError):
        pass

    class RaidError(ReproError):
        pass

    class DegradedError(RaidError):
        pass

    def raises(*classes):
        def deco(func):
            func.__may_raise__ = classes
            return func
        return deco
"""


def codes(findings):
    return sorted({f.code for f in findings})


class TestUndeclaredRaise:
    def test_public_entry_without_contract_is_rpr108(self, analyze_tree):
        project = analyze_tree({
            "errors.py": MINI_ERRORS,
            "sim/api.py": """\
                from ..errors import SimulationError

                def submit(op):
                    if op is None:
                        raise SimulationError("no op")
                    return op
            """,
        })
        findings = check_contracts(project)
        assert codes(findings) == ["RPR108"]
        assert "submit()" in findings[0].message
        assert "SimulationError" in findings[0].message

    def test_contract_missing_a_reachable_raise_is_rpr107(self, analyze_tree):
        project = analyze_tree({
            "errors.py": MINI_ERRORS,
            "sim/api.py": """\
                from ..errors import RaidError, SimulationError, raises

                @raises(RaidError)
                def submit(op):
                    if op is None:
                        raise SimulationError("no op")
                    raise RaidError("bad stripe")
            """,
        })
        findings = check_contracts(project)
        assert codes(findings) == ["RPR107"]
        assert "SimulationError" in findings[0].message
        assert "RaidError" not in findings[0].message.split(":")[-1].replace(
            "SimulationError", "")

    def test_declaring_base_covers_subclasses(self, analyze_tree):
        project = analyze_tree({
            "errors.py": MINI_ERRORS,
            "sim/api.py": """\
                from ..errors import DegradedError, RaidError, raises

                @raises(RaidError)
                def rebuild(state):
                    if state == "degraded":
                        raise DegradedError("mid-rebuild")
                    return state
            """,
        })
        assert check_contracts(project) == []

    def test_over_declaration_is_allowed(self, analyze_tree):
        project = analyze_tree({
            "errors.py": MINI_ERRORS,
            "sim/api.py": """\
                from ..errors import RaidError, SimulationError, raises

                @raises(RaidError, SimulationError)
                def submit(op):
                    raise SimulationError("no op")
            """,
        })
        assert check_contracts(project) == []

    def test_undeclared_raise_through_private_helper(self, analyze_tree):
        """Interprocedural: the raise lives two private calls down."""
        project = analyze_tree({
            "errors.py": MINI_ERRORS,
            "sim/api.py": """\
                from ..errors import SimulationError

                def _deep(op):
                    raise SimulationError("no op")

                def _helper(op):
                    return _deep(op)

                def submit(op):
                    return _helper(op)
            """,
        })
        findings = check_contracts(project)
        assert codes(findings) == ["RPR108"]
        assert findings[0].message.startswith(
            "public entry point submit()")

    def test_raise_through_annotated_parameter(self, analyze_tree):
        """``engine: Engine`` types the receiver of ``engine.submit()``."""
        project = analyze_tree({
            "errors.py": MINI_ERRORS,
            "engine/core.py": """\
                from ..errors import SimulationError, raises

                class Engine:
                    @raises(SimulationError)
                    def submit(self, op):
                        raise SimulationError("event in the past")
            """,
            "sim/api.py": """\
                from ..engine.core import Engine

                def drive(engine: Engine, ops):
                    for op in ops:
                        engine.submit(op)
            """,
        })
        findings = check_contracts(project)
        assert codes(findings) == ["RPR108"]
        assert findings[0].message.startswith("public entry point drive()")
        assert "SimulationError" in findings[0].message

    def test_raise_through_self_attribute_alias(self, analyze_tree):
        """``metrics = self.metrics`` keeps the attribute's tracked type."""
        project = analyze_tree({
            "errors.py": MINI_ERRORS,
            "serve/driver.py": """\
                from ..errors import SimulationError, raises

                class Metrics:
                    @raises(SimulationError)
                    def assert_bounded(self):
                        raise SimulationError("state grew")

                class Driver:
                    def __init__(self):
                        self.metrics = Metrics()

                    def run(self):
                        metrics = self.metrics
                        metrics.assert_bounded()
            """,
        })
        findings = check_contracts(project)
        assert codes(findings) == ["RPR108"]
        assert findings[0].message.startswith(
            "public entry point Driver.run()")


class TestStructuredFlow:
    def test_caught_exception_leaves_may_raise(self, analyze_tree):
        project = analyze_tree({
            "errors.py": MINI_ERRORS,
            "sim/api.py": """\
                from ..errors import SimulationError

                def submit(op):
                    try:
                        raise SimulationError("no op")
                    except SimulationError:
                        return None
            """,
        })
        assert check_contracts(project) == []

    def test_bare_raise_rethrows_the_caught_class(self, analyze_tree):
        project = analyze_tree({
            "errors.py": MINI_ERRORS,
            "sim/api.py": """\
                from ..errors import SimulationError

                def submit(op):
                    try:
                        raise SimulationError("no op")
                    except SimulationError:
                        raise
            """,
        })
        findings = check_contracts(project)
        assert codes(findings) == ["RPR108"]
        assert "SimulationError" in findings[0].message

    def test_catching_base_subtracts_subclasses(self, analyze_tree):
        project = analyze_tree({
            "errors.py": MINI_ERRORS,
            "sim/api.py": """\
                from ..errors import DegradedError, RaidError

                def rebuild(state):
                    try:
                        raise DegradedError("mid-rebuild")
                    except RaidError:
                        return None
            """,
        })
        assert check_contracts(project) == []

    def test_escalation_pattern_translates_the_class(self, analyze_tree):
        """except FaultClass -> raise Escalated: only the escalated
        class remains in the may-raise set (the escalation chain)."""
        project = analyze_tree({
            "errors.py": MINI_ERRORS,
            "sim/api.py": """\
                from ..errors import DegradedError, RaidError, raises
                from ..errors import SimulationError

                @raises(DegradedError)
                def pump(op):
                    try:
                        raise SimulationError("media fault")
                    except SimulationError as exc:
                        raise DegradedError("escalated") from exc
            """,
        })
        assert check_contracts(project) == []


class TestExemptions:
    def test_config_error_is_ambient(self, analyze_tree):
        project = analyze_tree({
            "errors.py": MINI_ERRORS,
            "sim/api.py": """\
                from ..errors import ConfigError

                def submit(op):
                    if op is None:
                        raise ConfigError("bad op")
                    return op
            """,
        })
        assert check_contracts(project) == []

    def test_private_functions_are_not_entry_points(self, analyze_tree):
        project = analyze_tree({
            "errors.py": MINI_ERRORS,
            "sim/api.py": """\
                from ..errors import SimulationError

                def _submit(op):
                    raise SimulationError("no op")
            """,
        })
        assert check_contracts(project) == []

    def test_non_entry_packages_are_not_checked(self, analyze_tree):
        project = analyze_tree({
            "errors.py": MINI_ERRORS,
            "harness/run.py": """\
                from ..errors import SimulationError

                def run(op):
                    raise SimulationError("no op")
            """,
        })
        assert check_contracts(project) == []

    def test_dunder_without_contract_is_exempt(self, analyze_tree):
        project = analyze_tree({
            "errors.py": MINI_ERRORS,
            "sim/api.py": """\
                from ..errors import SimulationError

                class System:
                    def __init__(self, op):
                        if op is None:
                            raise SimulationError("no op")
                        self.op = op
            """,
        })
        assert check_contracts(project) == []

    def test_dunder_with_contract_is_still_held_to_it(self, analyze_tree):
        project = analyze_tree({
            "errors.py": MINI_ERRORS,
            "sim/api.py": """\
                from ..errors import RaidError, SimulationError, raises

                class System:
                    @raises(RaidError)
                    def __init__(self, op):
                        raise SimulationError("no op")
            """,
        })
        assert codes(check_contracts(project)) == ["RPR107"]


@pytest.fixture(scope="module")
def real_flow():
    return ExceptionFlow(Project.load([SRC_REPRO]))


class TestRealTreeEscalationProof:
    """DESIGN.md §10: the fault pipeline's escalation chain, proven on
    the actual source rather than asserted in prose."""

    def test_fault_classes_never_escape_escalation(self, real_flow):
        fault_closure = real_flow.project.subclasses_of(
            "repro.errors:FaultError")
        escalate = real_flow.may_raise[
            "repro.engine.hooks:FaultPipelineHook._escalate"]
        degraded_closure = real_flow.project.subclasses_of(
            "repro.errors:DegradedError")
        # Whatever escalation re-raises is in the Degraded family, and
        # no raw FaultError class survives the pipeline hook.
        assert escalate <= degraded_closure
        assert not (escalate & fault_closure)

    def test_no_public_entry_point_leaks_fault_classes(self, real_flow):
        fault_closure = real_flow.project.subclasses_of(
            "repro.errors:FaultError")
        leaks = {
            fid for fid, raised in real_flow.may_raise.items()
            if real_flow.project.modules[
                real_flow.project.functions[fid].module
            ].top_package in ("sim", "engine", "faults")
            and real_flow.project.functions[fid].is_public
            and raised & fault_closure
        }
        assert leaks == set()

    def test_declared_contracts_on_real_entry_points(self, real_flow):
        declared = {
            fid: {cls.rsplit(":", 1)[1] for cls in classes}
            for fid, classes in real_flow.declared.items()
        }
        assert declared["repro.engine.core:EventLoop.run"] == \
            {"SimulationError"}
        assert declared["repro.engine.system:SimEngine.submit"] == \
            {"SimulationError"}
        assert declared["repro.engine.system:SimEngine.submit_request"] == \
            {"SimulationError"}
        assert declared["repro.sim.rebuild:rebuild_under_load"] == \
            {"RaidError", "SimulationError"}
        assert declared["repro.faults.demo:demo_event_log"] == {"RaidError"}

    def test_real_tree_is_contract_clean(self, real_flow):
        assert ExceptionFlow(real_flow.project).check() == []
