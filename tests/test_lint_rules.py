"""Per-rule fixture tests for the per-module analyzer rules.

RPR001–006, RPR008 and RPR009 run inside ``kdd-repro analyze``
(:mod:`repro.devtools.analyze.rules`).  Every rule gets at least one
*trigger* snippet (must produce exactly that rule's code) and one
*clean* snippet (must produce nothing).  Each snippet is loaded as one
module of a fixture tree and run through the rule family and the
inline suppressions, exactly as a CLI run would.  Plus tests for the
suppression grammar, unused-suppression reporting, the CLI's exit
codes and output stability.
"""

import json
import textwrap

import pytest

from repro.devtools.analyze import Finding, Project
from repro.devtools.analyze.cli import main as analyze_main
from repro.devtools.analyze.project import META_CODE
from repro.devtools.analyze.rules import RULES, check_rules
from repro.devtools.analyze.suppress import (
    RULE_CODES,
    apply_suppressions,
    parse_suppressions,
)

from tests.analyze_fixtures import write_fixture_tree


@pytest.fixture
def findings(tmp_path_factory):
    """Snippet -> post-suppression findings of the per-module family,
    with the snippet loaded as the module at ``relpath``."""

    def run(src, relpath="core/mod.py"):
        root = write_fixture_tree(tmp_path_factory.mktemp("rules"),
                                  {relpath: textwrap.dedent(src)})
        project = Project.load([root])
        return apply_suppressions(project, check_rules(project))

    return run


@pytest.fixture
def codes(findings):
    def run(src, relpath="core/mod.py"):
        return [f.code for f in findings(src, relpath)]

    return run


# ---------------------------------------------------------------- rules


def test_rules_cover_the_rule_codes():
    assert [rule.code for rule in RULES] == sorted(RULE_CODES)
    assert RULE_CODES == {f"RPR00{i}" for i in (1, 2, 3, 4, 5, 6, 8, 9)}


def test_rule_metadata_is_complete():
    for rule in RULES:
        assert rule.code.startswith("RPR00")
        assert rule.__doc__


# ---------------------------------------------------------------- RPR001


@pytest.mark.parametrize(
    "snippet",
    [
        "import random\nx = random.random()\n",
        "import random\nrandom.shuffle(items)\n",
        "from random import choice\ny = choice(items)\n",
        "import random\nr = random.Random()\n",
        "import numpy as np\nx = np.random.rand(4)\n",
        "import numpy as np\nnp.random.seed(0)\n",
        "import numpy as np\nrng = np.random.default_rng()\n",
        "from numpy.random import default_rng\nrng = default_rng()\n",
    ],
)
def test_rpr001_triggers(snippet, codes):
    assert codes(snippet) == ["RPR001"]


@pytest.mark.parametrize(
    "snippet",
    [
        "import numpy as np\nrng = np.random.default_rng(7)\n",
        "import numpy as np\nrng = np.random.default_rng(seed)\n",
        "import random\nr = random.Random(42)\n",
        "from numpy.random import default_rng\nrng = default_rng(3)\n",
        # methods on an explicit Generator are seeded by construction
        "def f(rng):\n    return rng.random()\n",
    ],
)
def test_rpr001_clean(snippet, codes):
    assert codes(snippet) == []


# ---------------------------------------------------------------- RPR002


@pytest.mark.parametrize(
    "snippet",
    [
        "import time\nt = time.time()\n",
        "import time\nt = time.perf_counter()\n",
        "from time import perf_counter\nt = perf_counter()\n",
        "import datetime\nnow = datetime.datetime.now()\n",
        "from datetime import datetime\nnow = datetime.now()\n",
    ],
)
@pytest.mark.parametrize("where", ["sim/x.py", "cache/x.py", "raid/x.py",
                                   "core/x.py", "flash/x.py", "delta/x.py",
                                   "nvram/x.py"])
def test_rpr002_triggers_in_sim_dirs(snippet, where, codes):
    assert codes(snippet, relpath=where) == ["RPR002"]


def test_rpr002_allowlists_harness_and_tools(codes):
    snippet = "import time\nt = time.time()\n"
    assert codes(snippet, relpath="harness/cli.py") == []
    assert codes(snippet, relpath="devtools/analyze/cli.py") == []
    assert codes(snippet, relpath="traces/trace.py") == []


def test_rpr002_ignores_simulated_time_attributes(codes):
    # attribute access and local variables named `time` are fine
    assert codes("t = req.time\n", relpath="sim/x.py") == []
    assert codes("def f(time):\n    return time + 1\n", relpath="sim/x.py") == []


def test_function_local_imports_resolve(findings):
    found = findings(
        "def stamp():\n"
        "    import time\n"
        "    return time.time()\n"
        "\n"
        "def tick():\n"
        "    from time import perf_counter\n"
        "    return perf_counter()\n"
        "\n"
        "def draw():\n"
        "    import random\n"
        "    return random.random()\n",
        relpath="sim/x.py",
    )
    assert [(f.code, f.line) for f in found] == \
        [("RPR002", 3), ("RPR002", 7), ("RPR001", 11)]


# ---------------------------------------------------------------- RPR003


@pytest.mark.parametrize(
    "snippet",
    [
        "raise ValueError('bad')\n",
        "raise RuntimeError('bad')\n",
        "raise Exception('bad')\n",
        "def f():\n    raise OSError('bad')\n",
        "raise ValueError\n",
    ],
)
def test_rpr003_triggers(snippet, codes):
    assert codes(snippet) == ["RPR003"]


@pytest.mark.parametrize(
    "snippet",
    [
        "from repro.errors import ConfigError\nraise ConfigError('bad')\n",
        # programming errors propagate unchanged by design
        "raise TypeError('not a Trace')\n",
        "raise NotImplementedError\n",
        "raise AssertionError('unreachable')\n",
        # container/iterator protocol
        "def f(k):\n    raise KeyError(k)\n",
        # bare re-raise
        "try:\n    f()\nexcept ValueError:\n    raise\n",
    ],
)
def test_rpr003_clean(snippet, codes):
    assert codes(snippet) == []


# ---------------------------------------------------------------- RPR004


@pytest.mark.parametrize(
    "snippet",
    [
        "for x in {1, 2, 3}:\n    f(x)\n",
        "for x in set(items):\n    f(x)\n",
        "def g(items):\n    s = {i.key for i in items}\n    for x in s:\n        f(x)\n",
        "def g(a, b):\n    s = set(a) | set(b)\n    for x in s:\n        f(x)\n",
        "ys = [f(x) for x in set(items)]\n",
        "ys = list(set(items))\n",
        "def g(items):\n    s = frozenset(items)\n    return tuple(s)\n",
    ],
)
def test_rpr004_triggers(snippet, codes):
    assert codes(snippet) == ["RPR004"]


@pytest.mark.parametrize(
    "snippet",
    [
        "for x in sorted({1, 2, 3}):\n    f(x)\n",
        "for x in sorted(set(items)):\n    f(x)\n",
        "def g(items):\n    s = set(items)\n    for x in sorted(s):\n        f(x)\n",
        "for x in [1, 2, 3]:\n    f(x)\n",
        "for k in mapping:\n    f(k)\n",  # dicts keep insertion order
        "x = {1, 2} & {2, 3}\n",  # set algebra without iteration
        "ok = 3 in {1, 2, 3}\n",  # membership test, no ordering
    ],
)
def test_rpr004_clean(snippet, codes):
    assert codes(snippet) == []


def test_rpr004_set_binding_is_scoped_per_function(codes):
    src = """
    def f(items):
        s = set(items)
        return len(s)

    def g(s):
        for x in s:   # untracked name: no static set evidence
            yield x
    """
    assert codes(src) == []


# ---------------------------------------------------------------- RPR005


@pytest.mark.parametrize(
    "snippet",
    [
        "ok = x == 0.5\n",
        "ok = 1.0 != y\n",
        "ok = (a / b) == c\n",
        "ok = float(a) == b\n",
    ],
)
def test_rpr005_triggers_in_scoped_dirs(snippet, codes):
    assert codes(snippet, relpath="stats/latency.py") == ["RPR005"]
    assert codes(snippet, relpath="sim/openloop.py") == ["RPR005"]


def test_rpr005_scoped_out_elsewhere(codes):
    assert codes("ok = x == 0.5\n", relpath="cache/base.py") == []


@pytest.mark.parametrize(
    "snippet",
    [
        "ok = x == 5\n",
        "ok = x < 0.5\n",  # ordering comparisons are fine
        "import math\nok = math.isclose(x, 0.5)\n",
    ],
)
def test_rpr005_clean(snippet, codes):
    assert codes(snippet, relpath="stats/latency.py") == []


# ---------------------------------------------------------------- RPR006


@pytest.mark.parametrize(
    "snippet",
    [
        "def f(xs=[]):\n    return xs\n",
        "def f(xs={}):\n    return xs\n",
        "def f(xs=set()):\n    return xs\n",
        "def f(xs=list()):\n    return xs\n",
        "def f(*, xs=dict()):\n    return xs\n",
        "async def f(xs=[]):\n    return xs\n",
    ],
)
def test_rpr006_triggers(snippet, codes):
    assert codes(snippet) == ["RPR006"]


@pytest.mark.parametrize(
    "snippet",
    [
        "def f(xs=None):\n    return xs or []\n",
        "def f(xs=()):\n    return xs\n",
        "def f(n=4, name='x'):\n    return n\n",
    ],
)
def test_rpr006_clean(snippet, codes):
    assert codes(snippet) == []


# ---------------------------------------------------------------- RPR008


@pytest.mark.parametrize(
    "snippet",
    [
        "try:\n    f()\nexcept Exception:\n    pass\n",
        "try:\n    f()\nexcept Exception as exc:\n    log(exc)\n",
        "try:\n    f()\nexcept BaseException:\n    cleanup()\n",
        "try:\n    f()\nexcept:\n    pass\n",
        "try:\n    f()\nexcept (ValueError, Exception):\n    pass\n",
        # a raise inside a nested function does not execute in the handler
        "try:\n    f()\nexcept Exception:\n    def g():\n        raise\n",
    ],
)
def test_rpr008_triggers(snippet, codes):
    got = codes(snippet)
    assert "RPR008" in got
    assert [c for c in got if c != "RPR003"] == ["RPR008"]


@pytest.mark.parametrize(
    "snippet",
    [
        # the ResultCache.put idiom: catch everything, clean up, re-raise
        "try:\n    f()\nexcept BaseException:\n    cleanup()\n    raise\n",
        # conversion into the taxonomy counts as re-raising
        "from repro.errors import SimulationError\n"
        "try:\n    f()\nexcept Exception as exc:\n"
        "    raise SimulationError('boom') from exc\n",
        # conditional re-raise deeper in the handler body still counts
        "try:\n    f()\nexcept Exception as exc:\n"
        "    if fatal(exc):\n        raise\n",
        # specific builtins and taxonomy classes are fine without a raise
        "try:\n    f()\nexcept OSError:\n    pass\n",
        "from repro.errors import ReproError\n"
        "try:\n    f()\nexcept ReproError:\n    pass\n",
        "try:\n    f()\nexcept (ValueError, KeyError):\n    pass\n",
    ],
)
def test_rpr008_clean(snippet, codes):
    assert "RPR008" not in codes(snippet)


def test_rpr008_fires_everywhere_in_the_library(codes):
    snippet = "try:\n    f()\nexcept Exception:\n    pass\n"
    for where in ("harness/sweep.py", "devtools/analyze/cli.py",
                  "faults/scrubber.py", "traces/trace.py"):
        assert "RPR008" in codes(snippet, relpath=where), where


# ---------------------------------------------------------------- RPR009


@pytest.mark.parametrize(
    "snippet",
    [
        "disk.busy_until = finish\n",
        "self.ssd.busy_until += delta\n",
        "a, self.disk.busy_until = 1, finish\n",
        "start = max(earliest, busy)\n",
        "start = max(arrival, disk.busy_until)\n",
    ],
)
def test_rpr009_triggers(snippet, codes):
    assert "RPR009" in codes(snippet, relpath="sim/openloop.py")


@pytest.mark.parametrize(
    "snippet",
    [
        # reading the clock is fine; only mutation is scheduling
        "if disk.busy_until > t:\n    f()\n",
        # unrelated max() arithmetic (workload sources keep their clocks)
        "clock = max(clock, req.time)\n",
        "end_time = max(end_time, completion)\n",
        "busy_until = 3\n",  # plain local name, not device state
    ],
)
def test_rpr009_clean(snippet, codes):
    assert "RPR009" not in codes(snippet, relpath="sim/openloop.py")


def test_rpr009_exempts_the_engine_package(codes):
    snippet = "resource.busy_until = finish\nstart = max(earliest, b)\n"
    assert "RPR009" not in codes(snippet, relpath="engine/resources.py")
    assert "RPR009" in codes(snippet, relpath="faults/scrubber.py")


# ---------------------------------------------------------------- suppressions


def test_inline_suppression_silences_finding(codes):
    src = "raise ValueError('x')  # kdd-analyze: disable=RPR003\n"
    assert codes(src) == []


def test_suppression_of_other_code_does_not_apply(codes):
    src = "raise ValueError('x')  # kdd-analyze: disable=RPR001\n"
    got = codes(src)
    assert "RPR003" in got and META_CODE in got  # unused RPR001 + real RPR003


def test_suppress_all_on_line(codes):
    src = "raise ValueError('x')  # kdd-analyze: disable=all\n"
    assert codes(src) == []


def test_multi_code_suppression(codes):
    src = (
        "import time\n"
        "for t in {time.time()}:  # kdd-analyze: disable=RPR002,RPR004\n"
        "    f(t)\n"
    )
    assert codes(src, relpath="sim/x.py") == []


def test_unused_suppression_reported(findings):
    got = findings("x = 1  # kdd-analyze: disable=RPR003\n")
    assert [f.code for f in got] == [META_CODE]
    assert "unused suppression of RPR003" in got[0].message


def test_unknown_code_suppression_reported(findings):
    got = findings("x = 1  # kdd-analyze: disable=RPR999\n")
    assert [f.code for f in got] == [META_CODE]
    assert "unknown analyzer rule RPR999" in got[0].message


def test_suppression_inside_string_is_ignored(codes):
    src = 's = "# kdd-analyze: disable=RPR003"\nraise ValueError("x")\n'
    assert codes(src) == ["RPR003"]


def test_parse_suppressions_maps_lines():
    src = "x = 1\ny = 2  # kdd-analyze: disable=RPR001, RPR004\n"
    assert parse_suppressions(src) == {2: ["RPR001", "RPR004"]}


# ---------------------------------------------------------------- CLI & output


def _write_tree(tmp_path):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text("raise ValueError('x')\n")
    (pkg / "good.py").write_text("_x = 1\n")
    return tmp_path / "repro"


def test_cli_exit_codes(tmp_path, capsys):
    tree = _write_tree(tmp_path)
    assert analyze_main([str(tree)]) == 1
    out = capsys.readouterr().out
    assert "RPR003" in out and "bad.py" in out
    assert analyze_main([str(tree / "core" / "good.py")]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_missing_path_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "nope"
    assert analyze_main([str(missing)]) == 2
    err = capsys.readouterr().err
    assert f"no such file or directory: {missing}" in err
    assert "Traceback" not in err


def test_syntax_error_is_reported_not_raised(tmp_path, capsys):
    tree = _write_tree(tmp_path)
    broken = tree / "core" / "broken.py"
    broken.write_text("x = 1\ndef f(:\n")
    assert analyze_main([str(tree)]) == 2
    err = capsys.readouterr().err
    assert f"{broken}:2: syntax error" in err
    assert "Traceback" not in err


def test_cli_json_output_is_stable(tmp_path, capsys):
    tree = _write_tree(tmp_path)
    assert analyze_main([str(tree), "--format", "json"]) == 1
    first = capsys.readouterr().out
    assert analyze_main([str(tree), "--format", "json"]) == 1
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["counts"] == {"RPR003": 1}
    assert doc["findings"][0]["path"] == "core/bad.py"


def test_findings_sorted_deterministically(findings):
    src = "raise ValueError('b')\nraise ValueError('a')\nfor i in set(x):\n    f(i)\n"
    got = findings(src)
    assert got == sorted(got, key=Finding.sort_key)
    assert [f.line for f in got] == [1, 2, 3]
