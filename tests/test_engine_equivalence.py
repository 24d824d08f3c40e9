"""Equivalence goldens for the event-engine refactor (repro.engine).

``tests/goldens/timing_goldens.json`` holds two stages:

* ``pre``  — captured once on the pre-refactor tree (ad-hoc clocks in
  the timing simulator and its fault-injecting subclass); committed,
  never regenerated.
* ``post`` — the same cells on the engine-backed tree.

The refactor is behaviour-preserving up to three *documented* fixes,
each asserted here explicitly:

1. ``replay_trace`` duration = max(last arrival, last completion), so
   open-loop IOPS can only go *down* (latency columns untouched);
2. the KDD fg_compute critical-path fix: member disk ops wait for the
   foreground compression, adding at most ``compress_time`` (30 us)
   to a request's response — only ``kdd`` rows move, and only upward;
3. ``utilisation`` counts fault stalls/backoffs as busy time, so disk
   busy fractions can only go *up* (the SSD stream injects timeouts as
   extended service, already counted, so its fraction is unchanged
   here).

Everything else — exact-policy latency summaries, fault event logs,
counters, rebuild timing — must be byte-identical, and the current tree
must reproduce the ``post`` stage exactly, single- or multi-process.

(The ``post`` stage also carries the crash-safe DEZ supersede ordering
— see tests/goldens/generate_timing_goldens.py — which moved one
background metadata-write counter in one KDD cell.)
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "goldens"
sys.path.insert(0, str(GOLDEN_DIR))

from generate_timing_goldens import (  # noqa: E402
    COMPUTE_POLICIES,
    EXACT_POLICIES,
    GOLDEN_PATH,
    faults_cells,
    fio_cells,
    replay_cells,
)

#: KDD's on-critical-path compression cost (CacheConfig.compress_time);
#: the fg_compute fix can delay a request by at most this much.
COMPRESS_TIME = 30e-6


@pytest.fixture(scope="module")
def goldens():
    doc = json.loads(GOLDEN_PATH.read_text())
    assert set(doc) == {"pre", "post"}, "run generate_timing_goldens.py"
    return doc


def _pairs(goldens, kind):
    pre, post = goldens["pre"][kind], goldens["post"][kind]
    assert len(pre) == len(post)
    for a, b in zip(pre, post):
        assert (a["policy"], a["workload"]) == (b["policy"], b["workload"])
        yield a, b


def test_exact_policy_replay_rows_identical_except_iops(goldens):
    for a, b in _pairs(goldens, "replay"):
        if a["policy"] not in EXACT_POLICIES:
            continue
        drop = lambda r: {k: v for k, v in r.items() if k != "iops"}  # noqa: E731
        assert drop(a) == drop(b)
        # the duration fix only lengthens the run (queue drain counts)
        assert b["iops"] <= a["iops"]


def test_exact_policy_fio_rows_byte_identical(goldens):
    # closed loop already measured to the last completion: no iops delta
    for a, b in _pairs(goldens, "fio"):
        if a["policy"] in EXACT_POLICIES:
            assert a == b


def test_kdd_rows_carry_bounded_fg_compute_delta(goldens):
    moved = 0
    for kind in ("replay", "fio"):
        for a, b in _pairs(goldens, kind):
            if a["policy"] not in COMPUTE_POLICIES:
                continue
            # fio rows carry an exact mean; replay rows round to 1 us
            if "mean_s" in a:
                mean = lambda r: r["mean_s"]  # noqa: E731
                eps = 1e-12
            else:
                mean = lambda r: r["mean_ms"] * 1e-3  # noqa: E731
                eps = 1.1e-6
            delta = mean(b) - mean(a)
            # serialising compute before member writes can only add time,
            # and at most one compress per request
            assert -eps <= delta <= COMPRESS_TIME + eps
            moved += delta > 0.0
    assert moved > 0, "fg_compute fix should be visible somewhere"


def test_fault_sweep_latency_identical_iops_not_inflated(goldens):
    for a, b in _pairs(goldens, "faults"):
        drop = lambda r: {k: v for k, v in r.items() if k != "iops"}  # noqa: E731
        if a["policy"] in EXACT_POLICIES:
            assert drop(a) == drop(b)
        assert b["iops"] <= a["iops"]


def test_fault_event_log_and_counters_byte_identical(goldens):
    pre, post = goldens["pre"]["faulty_run"], goldens["post"]["faulty_run"]
    for key in ("latency", "mean_exact", "fault_row", "events"):
        assert pre[key] == post[key], key


def test_utilisation_now_counts_fault_stalls(goldens):
    pre = goldens["pre"]["faulty_run"]["utilisation"]
    post = goldens["post"]["faulty_run"]["utilisation"]
    assert set(pre) == set(post)
    assert post["ssd"] == pre["ssd"]
    disks = [d for d in pre if d.startswith("disk")]
    assert all(post[d] >= pre[d] for d in disks)
    assert any(post[d] > pre[d] for d in disks), "stalls should show up"


def test_rebuild_under_load_byte_identical(goldens):
    assert goldens["pre"]["rebuild"] == goldens["post"]["rebuild"]


def test_sweep_rows_stable_across_job_counts(goldens):
    """The engine is deterministic per cell: a 2-process sweep returns
    exactly the single-process golden rows, in the same order."""
    from repro.harness.sweep import SweepEngine

    cells = replay_cells() + fio_cells() + faults_cells()
    rows = [dict(r) for r in SweepEngine(jobs=2).run(cells).rows]
    expected = (goldens["post"]["replay"] + goldens["post"]["fio"]
                + goldens["post"]["faults"])
    assert rows == expected


def test_current_tree_reproduces_post_goldens(goldens):
    """Full regeneration (jobs=1) matches the committed post stage."""
    from generate_timing_goldens import collect

    assert collect() == goldens["post"]
