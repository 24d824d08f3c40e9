"""Generate the timing-equivalence goldens (tests/test_engine_equivalence.py).

The event-engine refactor (``repro.engine``) must be behaviour-
preserving: latency summaries and fault event logs stay numerically
identical to the pre-refactor timing simulator, except for the
documented ``fg_compute`` critical-path fix, whose (tiny) delta the
equivalence suite asserts explicitly.

Usage::

    PYTHONPATH=src python tests/goldens/generate_timing_goldens.py pre
    PYTHONPATH=src python tests/goldens/generate_timing_goldens.py post

``pre`` was run once against the pre-refactor tree and its output is
committed; ``post`` re-runs the same cells on the current tree and
stores them alongside, so the test can assert byte-stability of the
refactored engine *and* the exact relationship to the legacy numbers.

``post`` was regenerated once more for the crash-consistency work: the
KDD write-hit path now stages the superseding delta *before*
invalidating its DEZ predecessor (a freed delta slot can otherwise be
reused while the persisted mapping still points at it).  The later slot
release shifts DEZ placement slightly; the only golden movement is one
background metadata page commit in one closed-loop KDD cell (latency
columns byte-identical).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("timing_goldens.json")

#: Policies that never emit ``fg_compute``: their rows must be
#: byte-identical across the refactor.  KDD compresses deltas on the
#: critical path, so its rows carry the documented fg_compute delta.
EXACT_POLICIES = ("nossd", "wa", "wt", "leavo")
COMPUTE_POLICIES = ("kdd",)


def replay_cells():
    """A reduced fig9 grid: every policy over one write- and one
    read-dominant trace, open-loop, near saturation (queueing builds)."""
    from repro.harness.sweep import SweepCell, workload_trace
    from repro.traces.workloads import workload_spec

    scale, target_iops = 0.002, 120.0
    cells = []
    for name in ("Fin1", "Fin2"):
        trace = workload_trace(name, scale)
        time_scale = workload_spec(name, scale).iops / target_iops
        for policy in (*EXACT_POLICIES, *COMPUTE_POLICIES):
            cells.append(
                SweepCell(
                    kind="replay",
                    policy=policy,
                    trace=trace,
                    cache_pages=512,
                    seed=0,
                    params=(
                        ("max_requests", 1500),
                        ("mean_compression", 0.25),
                        ("time_scale", time_scale),
                    ),
                )
            )
    return cells


def fio_cells():
    """A reduced fig10 grid: closed loop, 8 threads, two read rates."""
    from repro.harness.sweep import SweepCell

    cells = []
    for read_rate in (0.0, 0.5):
        for policy in (*EXACT_POLICIES, *COMPUTE_POLICIES):
            cells.append(
                SweepCell(
                    kind="fio",
                    policy=policy,
                    cache_pages=8000,
                    seed=0,
                    params=(
                        ("mean_compression", 0.25),
                        ("nthreads", 8),
                        ("read_rate", read_rate),
                        ("total_requests", 1200),
                        ("working_set_pages", 20_000),
                    ),
                )
            )
    return cells


def faults_cells():
    """Fault-sweep cells: retry policies under URE + timeout injection."""
    from repro.harness.faultsweep import faults_cell
    from repro.harness.sweep import trace_desc

    trace = trace_desc("uniform", n_requests=400, universe_pages=8192,
                       read_ratio=0.6, seed=0, name="golden-faults")
    return [
        faults_cell(policy, trace, 128, ure_rate=0.01, timeout_rate=0.02,
                    retry=retry)
        for policy in ("wt", "kdd")
        for retry in ("none", "backoff")
    ]


def faulty_event_log():
    """One scripted fault-injected run: latency + counters + event log
    + (legacy) utilisation, covering escalation and device failure."""
    from repro.cache import CacheConfig
    from repro.engine import FaultPipelineHook, SimEngine
    from repro.faults import FaultConfig
    from repro.harness.runner import build_policy
    from repro.raid import RAIDArray, RaidLevel
    from repro.sim.openloop import replay_trace
    from repro.traces import uniform_workload

    raid = RAIDArray(RaidLevel.RAID5, ndisks=5, chunk_pages=4,
                     pages_per_disk=4096)
    policy = build_policy(
        "wt", CacheConfig(cache_pages=128, ways=16, group_pages=16), raid
    )
    system = SimEngine(policy)
    faults = FaultPipelineHook(
        FaultConfig(seed=11, ure_rate=0.01, timeout_rate=0.02,
                    device_failures=(("disk1", 0.5),)),
        retry="backoff",
    )
    system.add_hook(faults)
    trace = uniform_workload(400, 4096, read_ratio=0.6, seed=5)
    rep = replay_trace(system, trace)
    return {
        "latency": rep.latency.row(),
        "mean_exact": rep.latency.mean,
        "fault_row": faults.fault_row(),
        "events": faults.schedule.event_rows(),
        "utilisation": system.utilisation(10.0),
    }


def rebuild_golden():
    """rebuild_under_load: rebuild finish time and foreground latency."""
    from repro.cache import CacheConfig
    from repro.engine import FaultPipelineHook, SimEngine
    from repro.faults import FaultConfig
    from repro.harness.runner import build_policy
    from repro.raid import RAIDArray, RaidLevel
    from repro.sim import rebuild_under_load
    from repro.traces import uniform_workload

    raid = RAIDArray(RaidLevel.RAID5, ndisks=5, chunk_pages=4,
                     pages_per_disk=256)
    policy = build_policy(
        "wt", CacheConfig(cache_pages=64, ways=16, group_pages=16), raid
    )
    system = SimEngine(policy)
    system.add_hook(FaultPipelineHook(FaultConfig(seed=3)))
    raid.fail_disk(1)
    reqs = list(uniform_workload(50, 1024, seed=4))
    report, done = rebuild_under_load(system, 1, iter(reqs), batch_stripes=2)
    return {
        "pages_rebuilt": report.pages_rebuilt,
        "rebuild_done": done,
        "mean_exact": system.recorder.summary().mean,
        "latency": system.recorder.summary().row(),
    }


def collect():
    from repro.harness.sweep import SweepEngine

    engine = SweepEngine(jobs=1)
    return {
        "replay": [dict(r) for r in engine.run(replay_cells()).rows],
        "fio": [dict(r) for r in engine.run(fio_cells()).rows],
        "faults": [dict(r) for r in engine.run(faults_cells()).rows],
        "faulty_run": faulty_event_log(),
        "rebuild": rebuild_golden(),
    }


def main() -> int:
    stage = sys.argv[1] if len(sys.argv) > 1 else "post"
    if stage not in ("pre", "post"):
        raise SystemExit("stage must be 'pre' or 'post'")
    payload = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    payload[stage] = collect()
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote stage {stage!r} to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
