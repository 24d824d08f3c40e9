"""The deterministic fault-injection layer (repro.faults).

Covers the schedule's per-device RNG streams, retry/backoff timing,
fault-aware device servers, degraded RAID reads and media repair, the
fault-aware timing simulator, the scrubber, rebuild-under-load, the
sweep-engine ``faults`` cell kind (byte-identical across job counts),
and the CLI driver.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cache import CacheConfig
from repro.engine import (
    EngineHook,
    FaultPipelineHook,
    InstrumentationHook,
    SimEngine,
)
from repro.engine.resources import DiskResource
from repro.errors import ConfigError, DegradedError, FaultError, MediaError
from repro.faults import (
    DeviceFaultStream,
    FaultConfig,
    FaultCounters,
    FaultKind,
    FaultSchedule,
    RETRY_POLICIES,
    RetryPolicy,
    Scrubber,
    demo_event_log,
    retry_policy,
)
from repro.harness.cli import main as cli_main
from repro.harness.faultsweep import faults_cell
from repro.harness.runner import build_policy
from repro.harness.sweep import SweepEngine, trace_desc
from repro.raid import RAIDArray, RaidLevel, rebuild_disk
from repro.sim import rebuild_under_load
from repro.traces import uniform_workload


def make_array(**kw):
    kw.setdefault("ndisks", 5)
    kw.setdefault("chunk_pages", 4)
    kw.setdefault("pages_per_disk", 4096)
    return RAIDArray(RaidLevel.RAID5, **kw)


def make_timed(policy="wt", fault_config=None, cache_pages=64, **kw):
    raid = make_array()
    p = build_policy(policy, CacheConfig(cache_pages=cache_pages, ways=16,
                                         group_pages=16), raid)
    system = SimEngine(p)
    faults = FaultPipelineHook(fault_config, **kw)
    system.add_hook(faults)
    return raid, system, faults


# ---------------------------------------------------------------- schedule


class TestFaultSchedule:
    def test_same_seed_same_draws(self):
        cfg = FaultConfig(seed=42, ure_rate=0.1, timeout_rate=0.1)
        a = DeviceFaultStream("disk0", cfg)
        b = DeviceFaultStream("disk0", cfg)
        draws = [(a.draw(True), b.draw(True)) for _ in range(200)]
        assert all(x == y for x, y in draws)

    def test_streams_are_independent_per_device(self):
        """Draining one device's stream never shifts another's."""
        cfg = FaultConfig(seed=7, ure_rate=0.2, timeout_rate=0.1)
        solo = [DeviceFaultStream("disk1", cfg).draw(True) for _ in range(1)]
        sched = FaultSchedule(cfg)
        for _ in range(500):  # hammer disk0 first
            sched.stream("disk0").draw(True)
        assert sched.stream("disk1").draw(True) == solo[0]

    def test_streams_memoised(self):
        sched = FaultSchedule(FaultConfig(seed=1))
        assert sched.stream("disk0") is sched.stream("disk0")

    def test_draw_rate_one_is_certain(self):
        stream = DeviceFaultStream("d", FaultConfig(seed=0, ure_rate=1.0))
        assert stream.draw(True) is FaultKind.URE
        assert stream.draw(False) is None  # UREs only strike reads

    def test_ssd_stream_never_draws_media_faults(self):
        stream = DeviceFaultStream("ssd", FaultConfig(seed=0, ure_rate=1.0),
                                   media_faults=False)
        assert all(stream.draw(True) is None for _ in range(50))

    def test_scheduled_device_failure(self):
        cfg = FaultConfig(seed=0, device_failures=(("disk2", 0.5),))
        stream = DeviceFaultStream("disk2", cfg)
        assert not stream.failed_by(0.49)
        assert stream.failed_by(0.5)
        assert DeviceFaultStream("disk1", cfg).fail_at is None

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            FaultConfig(ure_rate=1.5)
        with pytest.raises(ConfigError):
            FaultConfig(timeout_s=-1.0)
        with pytest.raises(ConfigError):
            FaultConfig(device_failures=(("disk0", -0.1),))
        with pytest.raises(ConfigError):
            FaultSchedule(FaultConfig(), ure_rate=0.5)

    def test_error_taxonomy(self):
        from repro.errors import DeviceTimeoutError, ReproError

        assert issubclass(MediaError, FaultError)
        assert issubclass(DeviceTimeoutError, FaultError)
        assert issubclass(FaultError, ReproError)

    def test_counters_row(self):
        c = FaultCounters(ures=2, retries=5)
        row = c.row()
        assert row["ures"] == 2 and row["retries"] == 5


# ---------------------------------------------------------------- retry


class TestRetryPolicy:
    def test_exponential_backoff(self):
        p = RetryPolicy(max_retries=3, base_backoff=0.001, multiplier=2.0)
        assert [p.backoff(i) for i in range(3)] == [0.001, 0.002, 0.004]
        assert p.total_backoff(3) == pytest.approx(0.007)

    def test_named_policies(self):
        assert retry_policy("none").max_retries == 0
        assert retry_policy("fixed").multiplier == 1.0
        assert set(RETRY_POLICIES) == {"none", "fixed", "backoff"}

    def test_unknown_policy_raises(self):
        with pytest.raises(ConfigError):
            retry_policy("exponential-ish")


# ---------------------------------------------------------------- devices


class TestDeviceFaults:
    def test_timeout_stall_without_retry(self):
        cfg = FaultConfig(seed=0, timeout_rate=1.0, timeout_s=0.01)
        plain = DiskResource()
        faulty = DiskResource(faults=DeviceFaultStream("d", cfg),
                              retry=retry_policy("none"))
        base = plain.serve(0, 1, True, 0.0)
        w = faulty.serve(0, 1, True, 0.0)
        assert w.fault is FaultKind.TIMEOUT
        assert w.retries == 0
        assert w.finish == pytest.approx(base.finish + 0.01)

    def test_backoff_retries_add_latency(self):
        cfg = FaultConfig(seed=0, timeout_rate=1.0, timeout_s=0.01)
        plain = DiskResource()
        faulty = DiskResource(faults=DeviceFaultStream("d", cfg),
                              retry=retry_policy("backoff"))
        base = plain.serve(0, 1, True, 0.0)
        w = faulty.serve(0, 1, True, 0.0)
        # 3 retried stalls + their backoffs + the final unretried stall
        assert w.fault is FaultKind.TIMEOUT and w.retries == 3
        assert w.fault_latency == pytest.approx(4 * 0.01 + 0.007)
        assert w.finish == pytest.approx(base.finish + w.fault_latency)

    def test_retry_can_clear_a_transient(self):
        cfg = FaultConfig(seed=3, timeout_rate=0.5, timeout_s=0.01)
        server = DiskResource(faults=DeviceFaultStream("d", cfg),
                              retry=retry_policy("backoff"))
        windows = [server.serve(i, 1, True, 0.0) for i in range(40)]
        cleared = [w for w in windows if w.ok and w.retries > 0]
        assert cleared, "some timeout should clear within the retry budget"

    def test_no_faults_means_clean_windows(self):
        server = DiskResource()
        w = server.serve(0, 1, True, 0.0)
        assert w.ok and w.retries == 0 and w.fault_latency == 0.0


# ---------------------------------------------------------------- raid layer


class TestArrayMediaErrors:
    def test_fresh_stripe_reconstructs_with_payload(self):
        raid = make_array(pages_per_disk=64, store_data=True, page_size=32)
        for lpage in range(raid.capacity_pages):
            raid.write(lpage, data=[bytes([lpage % 251]) * 32])
        loc = raid.layout.locate(5)
        raid.mark_media_error(loc.disk, loc.disk_page)
        assert not raid.page_readable(loc.disk, loc.disk_page)
        ops = raid.read(5)
        assert all(op.disk != loc.disk or op.disk_page != loc.disk_page
                   for op in ops)
        assert bytes(raid.read_data(5)) == bytes([5]) * 32

    def test_stale_stripe_read_degrades_until_parity_repair(self):
        raid = make_array(pages_per_disk=64, store_data=True, page_size=32)
        for lpage in range(raid.capacity_pages):
            raid.write(lpage, data=[bytes([lpage % 251]) * 32])
        raid.write_without_parity_update(0, data=b"\xab" * 32)
        victim = raid.layout.locate(1)  # sibling page, same stripe
        raid.mark_media_error(victim.disk, victim.disk_page)
        with pytest.raises(DegradedError):
            raid.read(1)
        with pytest.raises(DegradedError):
            raid.read_data(1)
        raid.parity_update(0, cached_pages=list(raid.layout.stripe_pages(0)))
        assert bytes(raid.read_data(1)) == bytes([1]) * 32
        assert bytes(raid.read_data(0)) == b"\xab" * 32

    def test_repair_page_clears_the_error(self):
        raid = make_array(pages_per_disk=64, store_data=True, page_size=32)
        for lpage in range(raid.capacity_pages):
            raid.write(lpage, data=[bytes([lpage % 251]) * 32])
        loc = raid.layout.locate(3)
        raid.mark_media_error(loc.disk, loc.disk_page)
        ops = raid.repair_page(loc.disk, loc.disk_page)
        writes = [op for op in ops if not op.is_read]
        assert len(writes) == 1 and writes[0].disk == loc.disk
        assert raid.page_readable(loc.disk, loc.disk_page)
        assert raid.repair_page(loc.disk, loc.disk_page) == []  # idempotent

    def test_double_failure_in_stripe_is_fatal_on_raid5(self):
        raid = make_array(pages_per_disk=64)
        loc_a = raid.layout.locate(0)
        loc_b = raid.layout.locate(raid.layout.chunk_pages)  # next chunk, same stripe
        raid.mark_media_error(loc_a.disk, loc_a.disk_page)
        raid.mark_media_error(loc_b.disk, loc_b.disk_page)
        with pytest.raises(DegradedError):
            raid.read(0)

    def test_parity_unit_media_error_rebuilds_from_data(self):
        raid = make_array(pages_per_disk=64, store_data=True, page_size=32)
        for lpage in range(raid.capacity_pages):
            raid.write(lpage, data=[bytes([lpage % 251]) * 32])
        pdisk = raid.layout.parity_disk(0)
        raid.mark_media_error(pdisk, 0)
        raid.repair_page(pdisk, 0)
        assert raid.verify_stripe(0)

    def test_failed_disk_clears_its_media_errors(self):
        raid = make_array(pages_per_disk=64)
        raid.mark_media_error(0, 7)
        raid.mark_media_error(1, 9)
        raid.fail_disk(0)
        assert (0, 7) not in raid.media_errors
        assert (1, 9) in raid.media_errors

    def test_raid0_cannot_reconstruct(self):
        raid = RAIDArray(RaidLevel.RAID0, ndisks=4, chunk_pages=4,
                         pages_per_disk=64)
        raid.mark_media_error(0, 0)
        with pytest.raises(DegradedError):
            raid.read(0)

    def test_raid1_reads_surviving_mirror(self):
        raid = RAIDArray(RaidLevel.RAID1, ndisks=2, chunk_pages=4,
                         pages_per_disk=64, store_data=True, page_size=32)
        raid.write(0, data=[b"\x11" * 32])
        raid.mark_media_error(0, 0)
        assert bytes(raid.read_data(0)) == b"\x11" * 32
        raid.mark_media_error(1, 0)
        with pytest.raises(DegradedError):
            raid.read(0)


# ---------------------------------------------------------------- timed system


class TestFaultyTimedSystem:
    def test_run_is_deterministic(self):
        def run():
            _, system, faults = make_timed(
                "kdd", FaultConfig(seed=7, ure_rate=0.02, timeout_rate=0.02))
            for req in uniform_workload(300, 4096, seed=3):
                system.submit_request(req)
            return (faults.fault_row(), faults.schedule.event_rows(),
                    system.recorder.summary().mean_ms)

        assert run() == run()

    def test_ure_reconstructs_and_repairs(self):
        raid, system, faults = make_timed("wt",
                                          FaultConfig(seed=0, ure_rate=1.0))
        system.submit(0, 1, True, 0.0)
        assert faults.counters.ures == 1
        assert faults.counters.reconstructions == 1
        assert faults.counters.repairs == 1
        assert not raid.media_errors  # background repair cleared it
        kinds = [e.kind for e in faults.schedule.events]
        assert kinds == ["ure", "media_repair"]

    def test_stale_stripe_escalates_then_repairs_on_demand(self):
        raid, system, faults = make_timed("wt",
                                          FaultConfig(seed=0, ure_rate=1.0))
        raid.write_without_parity_update(0)
        system.submit(1, 1, True, 0.0)  # sibling of the stale write
        assert faults.counters.stale_escalations == 1
        assert 0 not in raid.stale_stripes
        kinds = [e.kind for e in faults.schedule.events]
        assert kinds == ["ure", "stale_escalation", "parity_repair",
                        "media_repair"]

    def test_strict_mode_propagates_degraded_error(self):
        raid, system, _ = make_timed("wt", FaultConfig(seed=0, ure_rate=1.0),
                                     repair_stale_on_demand=False)
        raid.write_without_parity_update(0)
        with pytest.raises(DegradedError):
            system.submit(1, 1, True, 0.0)

    def test_timeout_without_retry_escalates_to_peers(self):
        raid, system, faults = make_timed(
            "wt", FaultConfig(seed=0, timeout_rate=1.0), retry="none")
        system.submit(0, 1, True, 0.0)
        assert faults.counters.timeouts >= 1
        assert faults.counters.reconstructions >= 1

    def test_retries_absorb_transients(self):
        _, system, faults = make_timed(
            "wt", FaultConfig(seed=5, timeout_rate=0.3), retry="backoff")
        for req in uniform_workload(100, 4096, seed=1):
            system.submit_request(req)
        assert faults.counters.retries > 0

    def test_scheduled_device_failure_strikes_once(self):
        raid, system, faults = make_timed(
            "kdd", FaultConfig(seed=1, device_failures=(("disk2", 0.05),)))
        for req in uniform_workload(200, 4096, seed=2):
            system.submit_request(req)
        assert 2 in raid.failed_disks
        assert faults.counters.device_failures == 1
        fails = [e for e in faults.schedule.events if e.kind == "device_fail"]
        assert len(fails) == 1 and fails[0].device == "disk2"

    def test_kdd_suspends_delayed_parity_while_degraded(self):
        """Once a member is lost, further write hits must not widen the
        vulnerability window: no new stale stripes may appear."""
        raid, system, _ = make_timed(
            "kdd", FaultConfig(seed=1, device_failures=(("disk1", 0.0),)))
        for req in uniform_workload(200, 4096, read_ratio=0.2, seed=4):
            system.submit_request(req)
        assert 1 in raid.failed_disks
        assert not raid.stale_stripes

    @pytest.mark.parametrize("counting_first", [False, True])
    def test_hooks_never_see_nested_traffic(self, counting_first):
        """Reconstruction and repair ops bypass every hook; the other
        hooks see exactly the member ops the request pipeline served,
        whichever side of the fault pipeline they are installed on."""

        class Counting(EngineHook):
            def __init__(self):
                self.seen = []

            def on_member_read(self, engine, op, window):
                self.seen.append((f"disk{op.disk}", "read", window.start,
                                  window.finish))
                return window.finish

            def on_member_write(self, engine, op, window):
                self.seen.append((f"disk{op.disk}", "write", window.start,
                                  window.finish))

        raid = make_array()
        system = SimEngine(build_policy(
            "kdd", CacheConfig(cache_pages=64, ways=16, group_pages=16), raid))
        faults = FaultPipelineHook(
            FaultConfig(seed=7, ure_rate=0.02, timeout_rate=0.02))
        counting, instr = Counting(), InstrumentationHook()
        hooks = [counting, faults] if counting_first else [faults, counting]
        for hook in (instr, *hooks):
            system.add_hook(hook)
        for req in uniform_workload(300, 4096, seed=3):
            system.submit_request(req)

        assert faults.counters.reconstructions > 0
        assert faults.counters.repairs > 0
        disk_ops = [op for op in instr.ops if op.device.startswith("disk")]
        nested = [op for op in disk_ops if op.tag in ("reconstruct", "repair")]
        assert {op.tag for op in nested} == {"reconstruct", "repair"}
        served = [(op.device, op.kind, op.start, op.finish)
                  for op in disk_ops if op.tag in ("fg", "bg")]
        assert len(served) + len(nested) == len(disk_ops)
        assert counting.seen == served

    def test_ssd_timeouts_are_waited_out(self):
        _, system, faults = make_timed(
            "wt", FaultConfig(seed=2, timeout_rate=0.5), retry="none")
        for req in uniform_workload(60, 4096, read_ratio=1.0, seed=6):
            system.submit_request(req)
        ssd_events = [e for e in faults.schedule.events if e.device == "ssd"]
        assert ssd_events, "cache commands should time out at rate 0.5"


# ---------------------------------------------------------------- scrubber


class TestScrubber:
    def _loaded_array(self):
        raid = make_array(pages_per_disk=16, chunk_pages=2, store_data=True,
                          page_size=16)
        for lpage in range(raid.capacity_pages):
            raid.write(lpage, data=[bytes([lpage % 251]) * 16])
        return raid

    def test_full_pass_repairs_everything(self):
        raid = self._loaded_array()
        raid.write_without_parity_update(0, data=b"\xab" * 16)
        loc = raid.layout.locate(1)
        raid.mark_media_error(loc.disk, loc.disk_page)
        report = Scrubber(raid).run()
        assert report.parity_repaired == 1
        assert report.media_repaired == 1
        assert report.parity_mismatches == 0
        assert not raid.stale_stripes and not raid.media_errors
        assert bytes(raid.read_data(0)) == b"\xab" * 16
        assert bytes(raid.read_data(1)) == bytes([1]) * 16

    def test_incremental_step_wraps(self):
        raid = self._loaded_array()
        scrub = Scrubber(raid)
        total = scrub.total_stripes
        report, _ops = scrub.step(3)
        assert report.stripes_scanned == 3 and scrub.cursor == 3
        scrub.step(total)
        assert scrub.cursor == 3  # wrapped all the way around

    def test_double_failure_is_counted_unrepairable(self):
        raid = self._loaded_array()
        loc_a = raid.layout.locate(0)
        loc_b = raid.layout.locate(raid.layout.chunk_pages)  # next chunk, same stripe
        raid.mark_media_error(loc_a.disk, loc_a.disk_page)
        raid.mark_media_error(loc_b.disk, loc_b.disk_page)
        report = Scrubber(raid).run()
        assert report.unrepairable > 0
        assert raid.media_errors  # left marked, not silently dropped

    def test_verify_reads_are_charged(self):
        raid = self._loaded_array()
        report = Scrubber(raid).run()
        assert report.member_reads > 0 and report.member_writes == 0
        quiet = Scrubber(raid, charge_verify_reads=False).run()
        assert quiet.member_reads == 0

    def test_unbounded_array_rejected(self):
        raid = RAIDArray(RaidLevel.RAID5, ndisks=5, chunk_pages=4,
                         pages_per_disk=None)
        with pytest.raises(ConfigError):
            Scrubber(raid)


# ---------------------------------------------------------------- rebuild


class TestRebuildReport:
    def test_count_only_by_default(self):
        raid = make_array(pages_per_disk=64)
        raid.fail_disk(0)
        report = rebuild_disk(raid, 0)
        assert report.pages_rebuilt == 64
        assert report.member_reads > 0 and report.member_writes == 64
        assert report.disk_ops == []  # not retained

    def test_keep_ops_retains_the_op_list(self):
        raid = make_array(pages_per_disk=64)
        raid.fail_disk(0)
        report = rebuild_disk(raid, 0, keep_ops=True)
        assert len(report.disk_ops) == report.member_ios
        assert {op.disk for op in report.disk_ops if not op.is_read} == {0}

    def test_rebuild_under_load_completes(self):
        raid = make_array(pages_per_disk=256)
        policy = build_policy("wt", CacheConfig(cache_pages=64, ways=16,
                                                group_pages=16), raid)
        system = SimEngine(policy)
        system.add_hook(FaultPipelineHook(FaultConfig(seed=3)))
        reqs = list(uniform_workload(50, 1024, seed=4))
        raid.fail_disk(1)
        report, done = rebuild_under_load(system, 1, iter(reqs),
                                          batch_stripes=2)
        assert report.pages_rebuilt == 256
        assert 1 not in raid.failed_disks
        assert done > 0.0


# ---------------------------------------------------------------- sweep + CLI


class TestFaultSweep:
    CELLS = dict(cache_pages=128, ure_rate=0.01, timeout_rate=0.01)

    def _cells(self):
        trace = trace_desc("uniform", n_requests=200, universe_pages=2048,
                           read_ratio=0.6, seed=0, name="t")
        return [
            faults_cell("kdd", trace, 128, ure_rate=r, timeout_rate=0.01,
                        retry=p)
            for r in (0.0, 0.01) for p in ("none", "backoff")
        ]

    def test_rows_byte_identical_across_jobs(self):
        cells = self._cells()
        serial = SweepEngine(jobs=1).run(cells)
        parallel = SweepEngine(jobs=2).run(cells)
        assert json.dumps(serial.rows, sort_keys=True) == \
            json.dumps(parallel.rows, sort_keys=True)

    def test_rows_survive_the_result_cache(self, tmp_path):
        cells = self._cells()[:2]
        fresh = SweepEngine(jobs=1, cache=tmp_path / "c").run(cells)
        cached = SweepEngine(jobs=1, cache=tmp_path / "c").run(cells)
        assert cached.stats.cached == 2
        assert fresh.rows == cached.rows

    def test_unknown_retry_rejected_at_cell_construction(self):
        trace = trace_desc("uniform", n_requests=10, universe_pages=256,
                           read_ratio=0.5, seed=0, name="t")
        with pytest.raises(ConfigError):
            faults_cell("kdd", trace, 64, retry="nope")

    def test_cli_faults_smoke(self, tmp_path, capsys):
        events_path = tmp_path / "events.json"
        rc = cli_main([
            "faults", "--rates", "0,0.01", "--timeout-rates", "0.01",
            "--retries", "none,backoff", "--requests", "100",
            "--universe-pages", "1024", "--cache-pages", "64",
            "--events-out", str(events_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ures" in out and "reconstructions" in out
        events = json.loads(events_path.read_text())
        kinds = [e["kind"] for e in events]
        assert kinds == ["ure", "reconstruction", "media_repair",
                         "stale_parity", "ure", "degraded_error",
                         "parity_repair", "reconstruction", "media_repair"]

    def test_cli_faults_op_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "ops.jsonl"
        rc = cli_main([
            "faults", "--rates", "0.01", "--timeout-rates", "0.01",
            "--retries", "backoff", "--requests", "100",
            "--universe-pages", "1024", "--cache-pages", "64",
            "--op-trace", str(trace_path),
        ])
        assert rc == 0
        assert "op records" in capsys.readouterr().out
        lines = trace_path.read_text().splitlines()
        assert lines
        ops = [json.loads(line) for line in lines]
        assert [op["op"] for op in ops] == list(range(len(ops)))
        assert all(op["queue_delay"] >= 0.0 for op in ops)
        assert {"submitted", "start", "finish", "device", "kind",
                "fault"} <= set(ops[0])
        # derandomized: a second export is byte-identical
        again = tmp_path / "ops2.jsonl"
        assert cli_main(["faults", "--rates", "0.01", "--timeout-rates",
                         "0.01", "--retries", "backoff", "--requests", "100",
                         "--universe-pages", "1024", "--cache-pages", "64",
                         "--op-trace", str(again)]) == 0
        capsys.readouterr()
        assert again.read_text() == trace_path.read_text()

    def test_cli_rejects_unknown_retry(self, capsys):
        assert cli_main(["faults", "--retries", "bogus"]) == 2
        assert "kdd-repro faults: unknown retry policies ['bogus']" in \
            capsys.readouterr().err


class TestDemoEventLog:
    def test_demo_is_deterministic(self):
        assert demo_event_log() == demo_event_log()

    def test_demo_tells_the_vulnerability_window_story(self):
        events = demo_event_log()
        kinds = [e["kind"] for e in events]
        # act 1: fresh-stripe URE survives
        assert kinds[:3] == ["ure", "reconstruction", "media_repair"]
        # act 2: the same fault inside the window degrades
        assert "degraded_error" in kinds
        window = kinds.index("degraded_error")
        assert kinds[window - 2:window] == ["stale_parity", "ure"]
        # act 3: parity repair closes the window
        assert kinds[window + 1:] == ["parity_repair", "reconstruction",
                                      "media_repair"]


# ---------------------------------------------------------------- package


def test_package_imports_no_engine_or_sim_module():
    """``repro.faults`` sits below the timed system: the engine imports
    its schedule and retry policies, never the other way round."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = (
        "import sys, repro.faults\n"
        "for name in repro.faults.__all__:\n"
        "    getattr(repro.faults, name)\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(('repro.engine', 'repro.sim'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
