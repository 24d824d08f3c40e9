"""Unit tests for the discrete-event engine package (repro.engine)."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig
from repro.engine import (
    DiskResource,
    EngineHook,
    EventLoop,
    FaultPipelineHook,
    InstrumentationHook,
    OpRecord,
    SimEngine,
    SSDResource,
)
from repro.errors import ConfigError, SimulationError
from repro.faults.retry import retry_policy
from repro.faults.schedule import FaultConfig, FaultSchedule
from repro.harness.runner import build_policy
from repro.raid import DiskOp, RAIDArray, RaidLevel
from repro.sim.openloop import replay_trace
from repro.traces import uniform_workload


def make_system(policy_name="wt", ndisks=4, pages_per_disk=4096,
                cache_pages=64):
    raid = RAIDArray(RaidLevel.RAID5, ndisks=ndisks, chunk_pages=4,
                     pages_per_disk=pages_per_disk)
    policy = build_policy(
        policy_name, CacheConfig(cache_pages=cache_pages, ways=4,
                                 group_pages=16), raid
    )
    return SimEngine(policy)


# ---------------------------------------------------------------- EventLoop


def test_event_loop_orders_by_time_then_fifo():
    loop = EventLoop()
    seen = []
    loop.schedule(2.0, lambda t: seen.append("late"))
    loop.schedule(1.0, lambda t: seen.append("tie-a"))
    loop.schedule(1.0, lambda t: seen.append("tie-b"))
    loop.schedule(0.5, lambda t: seen.append("first"))
    assert loop.run() == 4
    assert seen == ["first", "tie-a", "tie-b", "late"]
    assert loop.now == 2.0


def test_event_loop_clock_is_monotone():
    loop = EventLoop()
    times = []
    loop.schedule(5.0, lambda t: times.append((t, loop.now)))
    loop.run()
    # a source handing over late work does not rewind the clock
    loop.schedule(1.0, lambda t: times.append((t, loop.now)))
    loop.run()
    assert times == [(5.0, 5.0), (1.0, 5.0)]


def test_event_loop_rejects_negative_time():
    with pytest.raises(ConfigError):
        EventLoop().schedule(-0.1, lambda t: None)


@pytest.mark.parametrize("time", [math.nan, math.inf])
def test_event_loop_rejects_non_finite_time(time):
    loop = EventLoop()
    with pytest.raises(ConfigError, match=f"time {time}"):
        loop.schedule(time, lambda t: None)
    assert loop.run() == 0


def test_event_loop_overflow_guard():
    loop = EventLoop()

    def reschedule(t):
        loop.schedule(t + 1.0, reschedule)

    loop.schedule(0.0, reschedule)
    with pytest.raises(SimulationError):
        loop.run(max_events=100)


# ---------------------------------------------------------------- submit's clock


@pytest.mark.parametrize("time", [math.nan, math.inf])
def test_submit_rejects_non_finite_arrival(time):
    system = make_system()
    with pytest.raises(ConfigError, match=f"time {time}"):
        system.submit(0, 1, True, time)
    with pytest.raises(ConfigError, match=f"time {time}"):
        system.inject_disk_ops([DiskOp(0, 0, 1, True)], time)
    assert system.loop.now == 0.0
    assert len(system.recorder) == 0


class _ClockHook(EngineHook):
    def __init__(self):
        self.seen = []
        self.records = []

    def on_request(self, engine, now):
        self.seen.append(now)

    def on_request_done(self, engine, record):
        self.records.append(record)


def test_late_arrival_keeps_the_clock_and_its_own_arrival():
    """A request handed over behind the clock does not rewind ``now``,
    and its response time still counts from its own arrival."""
    system = make_system()
    hook = _ClockHook()
    system.add_hook(hook)
    system.submit(0, 1, True, 5.0)
    completion = system.submit(64, 1, True, 1.0)
    assert system.loop.now == 5.0
    assert hook.seen == [5.0, 5.0]
    late = hook.records[1]
    assert late.arrival == 1.0 and late.completion == completion
    assert late.response_time == completion - 1.0


# ---------------------------------------------------------------- OpRecord


def test_op_record_derived_fields_and_row():
    op = OpRecord(device="disk1", kind="read", npages=2, priority="fg",
                  tag="fg", submitted=1.0, start=1.5, finish=2.5)
    assert op.queue_delay == 0.5
    assert op.service == 1.0
    row = op.row()
    assert row["device"] == "disk1"
    assert row["queue_delay"] == 0.5 and row["fault"] is None
    json.dumps(row)  # JSONL-ready


# ---------------------------------------------------------------- FCFS


def test_fcfs_queues_behind_the_device():
    disk = DiskResource()
    w1 = disk.serve(0, 1, True, 0.0)
    w2 = disk.serve(512, 1, True, 0.0)
    assert w2.start == w1.finish  # queued behind op 1
    w3 = disk.serve(0, 1, True, w2.finish + 1.0)
    assert w3.start == w2.finish + 1.0  # idle gap honoured


def _reads_and_writes(instr):
    return ([op for op in instr.ops if op.kind == "read"],
            [op for op in instr.ops if op.kind == "write"])


@pytest.mark.parametrize("as_iterator", [False, True])
def test_two_phase_service_reads_before_writes(as_iterator):
    ops = [DiskOp(1, 8, 1, False), DiskOp(0, 0, 1, True),
           DiskOp(2, 64, 1, True), DiskOp(0, 0, 1, False)]
    system, instr = make_system(), InstrumentationHook()
    system.add_hook(instr)
    done = system.run_disk_phases(iter(ops) if as_iterator else ops, 0.0)
    reads, writes = _reads_and_writes(instr)
    assert len(reads) == 2
    assert len(writes) == 2  # a one-shot iterator yields its writes too
    phase1 = max(w.finish for w in reads)
    assert all(w.start == 0.0 for w in reads)
    assert all(w.start >= phase1 for w in writes)
    assert done == max(w.finish for w in writes)


class _LateReadHook(EngineHook):
    """Reports every member read as done one second after its window."""

    def on_member_read(self, engine, op, window):
        return window.finish + 1.0


@pytest.mark.parametrize("hook,delay", [(EngineHook(), 0.0),
                                        (_LateReadHook(), 1.0)])
def test_on_member_read_delays_the_write_phase(hook, delay):
    ops = [DiskOp(0, 0, 1, True), DiskOp(2, 64, 1, True),
           DiskOp(1, 8, 1, False), DiskOp(3, 8, 1, False)]
    plain, plain_instr = make_system(), InstrumentationHook()
    plain.add_hook(plain_instr)
    plain_done = plain.run_disk_phases(ops, 0.0)
    hooked, instr = make_system(), InstrumentationHook()
    hooked.add_hook(instr)
    hooked.add_hook(hook)
    done = hooked.run_disk_phases(ops, 0.0)

    plain_reads, plain_writes = _reads_and_writes(plain_instr)
    reads, writes = _reads_and_writes(instr)
    assert reads == plain_reads  # the hook moves no read
    phase1 = max(op.finish for op in plain_reads)
    assert [op.submitted for op in writes] == [phase1 + delay] * 2
    if delay:
        assert done == pytest.approx(plain_done + delay, rel=0, abs=1e-12)
    else:
        assert writes == plain_writes and done == plain_done


# ---------------------------------------------------------------- fault-free path


def _serve_one(resource, earliest):
    if isinstance(resource, DiskResource):
        return resource.serve(64, 2, True, earliest)
    return resource.serve_read(2, earliest)


@pytest.mark.parametrize("make", [DiskResource, SSDResource])
def test_resource_without_fault_stream_is_clean(make):
    resource = make()
    for earliest in (0.0, 0.0, 1.0):
        window = _serve_one(resource, earliest)
        assert window.ok
        assert (window.fault, window.retries, window.fault_latency) == (
            None, 0, 0.0)
    assert resource.stall_time == 0.0
    assert resource.busy_time > 0.0


@pytest.mark.parametrize("make", [DiskResource, SSDResource])
def test_resource_with_fault_stream_draws_once_per_command(make):
    # Zero rates: no command faults, so none is retried and each draws once.
    stream = FaultSchedule(FaultConfig(seed=3)).stream("dev")
    resource = make(faults=stream, retry=retry_policy("backoff"))
    for i in range(7):
        window = _serve_one(resource, float(i))
        assert window.ok and window.retries == 0
    assert stream.draws == 7


# ---------------------------------------------------------------- accounting


def test_busy_time_includes_fault_stalls():
    schedule = FaultSchedule(FaultConfig(seed=2, timeout_rate=0.8))
    disk = DiskResource(faults=schedule.stream("disk0"),
                        retry=retry_policy("none"))
    total = 0.0
    for i in range(50):
        w = disk.serve(i * 8, 1, True, 0.0)
        total += w.finish - w.start
    assert disk.stall_time > 0.0, "seeded stream should have stalled"
    assert disk.busy_time == pytest.approx(total)
    assert disk.busy_time > disk.busy_time - disk.stall_time >= 0.0


def test_utilisation_counts_stalls_end_to_end():
    system = make_system()
    faulty = FaultPipelineHook(
        FaultSchedule(FaultConfig(seed=2, timeout_rate=0.5)),
        retry_policy("backoff"),
    )
    system.add_hook(faulty)
    for req in uniform_workload(100, 2048, read_ratio=0.5, seed=1):
        system.submit_request(req)
    stalled = sum(d.stall_time for d in system.disks)
    assert stalled > 0.0
    util = system.utilisation(10.0)
    busy_only = {
        f"disk{i}": min(1.0, (d.busy_time - d.stall_time) / 10.0)
        for i, d in enumerate(system.disks)
    }
    assert any(util[d] > busy_only[d] for d in busy_only)


# ---------------------------------------------------------------- replay fix


def test_replay_duration_covers_queue_drain():
    system = make_system()
    trace = uniform_workload(80, 2048, read_ratio=0.2, seed=9)
    last_arrival = max(r.time for r in trace) * 1e-3
    rep = replay_trace(system, uniform_workload(80, 2048, read_ratio=0.2,
                                                seed=9), time_scale=1e-3)
    # arrivals are compressed 1000x: the pool falls behind and requests
    # drain long after the last arrival — the duration must cover that
    assert rep.duration > last_arrival
    assert rep.iops == pytest.approx(rep.requests / rep.duration)


# ---------------------------------------------------------------- hooks


def _run_instrumented(hook_order, requests, fault_seed):
    system = make_system()
    pipeline = FaultPipelineHook(
        FaultSchedule(FaultConfig(seed=fault_seed, ure_rate=0.05,
                                  timeout_rate=0.1)),
        retry_policy("backoff"),
    )
    instr = InstrumentationHook()
    hooks = {"fault-first": [pipeline, instr],
             "instr-first": [instr, pipeline]}[hook_order]
    for hook in hooks:
        system.add_hook(hook)
    for lba, npages, is_read, arrival in requests:
        system.submit(lba, npages, is_read, arrival)
    return instr, system.recorder.summary()


@settings(max_examples=25, deadline=None)
@given(
    raw=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4000),  # lba
            st.integers(min_value=1, max_value=4),  # npages
            st.booleans(),  # is_read
            st.floats(min_value=0.0, max_value=0.05,
                      allow_nan=False, allow_infinity=False),  # arrival
        ),
        min_size=1,
        max_size=20,
    ),
    fault_seed=st.integers(min_value=0, max_value=50),
)
def test_op_trace_invariant_under_hook_order(raw, fault_seed):
    """The instrumentation observes resources, not other hooks: the
    collected op trace and the latency summary are identical whether it
    is installed before or after the fault pipeline."""
    requests = sorted(raw, key=lambda r: r[3])
    a_instr, a_latency = _run_instrumented("fault-first", requests, fault_seed)
    b_instr, b_latency = _run_instrumented("instr-first", requests, fault_seed)
    assert a_instr.ops == b_instr.ops
    assert a_instr.requests == b_instr.requests
    assert a_latency == b_latency


# ---------------------------------------------------------------- instrumentation


@pytest.fixture(scope="module")
def instrumented():
    system = make_system()
    instr = InstrumentationHook()
    system.add_hook(instr)
    for req in uniform_workload(120, 2048, read_ratio=0.5, seed=3):
        system.submit_request(req)
    return instr


def test_instrumentation_collects_every_op(instrumented):
    assert len(instrumented.ops) > 0
    assert len(instrumented.requests) == 120
    assert {op.device for op in instrumented.ops} <= set(instrumented.devices)


def test_instrumentation_queue_views(instrumented):
    stats = instrumented.queue_delay_stats()
    hist = instrumented.queue_depth_histogram()
    by_device = {}
    for op in instrumented.ops:
        by_device[op.device] = by_device.get(op.device, 0) + 1
    for device, count in by_device.items():
        assert stats[device]["ops"] == count
        assert sum(hist[device].values()) == count
        assert stats[device]["mean_queue_delay"] >= 0.0


def test_instrumentation_utilisation_timeline(instrumented):
    duration = max(op.finish for op in instrumented.ops)
    timeline = instrumented.utilisation_timeline(duration, bins=10)
    for device, fractions in timeline.items():
        assert len(fractions) == 10
        assert all(0.0 <= f <= 1.0 for f in fractions)
    busy = {op.device for op in instrumented.ops}
    assert any(sum(timeline[d]) > 0 for d in busy)
    with pytest.raises(ConfigError):
        instrumented.utilisation_timeline(0.0)
    with pytest.raises(ConfigError):
        instrumented.utilisation_timeline(1.0, bins=0)


def test_instrumentation_jsonl_export(tmp_path, instrumented):
    path = tmp_path / "trace.jsonl"
    n = instrumented.write_jsonl(str(path))
    lines = path.read_text().splitlines()
    assert n == len(lines) == len(instrumented.ops)
    rows = [json.loads(line) for line in lines]
    # numbered engine-wide, in global service order
    assert [row["op"] for row in rows] == list(range(n))
    assert {"op", "device", "kind", "submitted", "start", "finish",
            "queue_delay", "fault"} <= set(rows[0])
    summary = instrumented.summary(duration=1.0, bins=5)
    json.dumps(summary)
    assert summary["ops"] == len(instrumented.ops)
