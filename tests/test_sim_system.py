"""Tests for the full-system timing composition and the two load models."""

import math

import pytest

from repro.cache import CacheConfig
from repro.engine import EngineHook, SimEngine
from repro.errors import ConfigError
from repro.harness import build_policy, make_raid_for_trace
from repro.raid import RAIDArray, RaidLevel
from repro.sim import FioConfig, openloop, replay_trace, run_closed_loop
from repro.traces import uniform_workload, zipf_workload


def make_system(policy_name="wt", cache_pages=256, ndisks=5, **cfg_kw):
    raid = RAIDArray(RaidLevel.RAID5, ndisks=ndisks, chunk_pages=4,
                     pages_per_disk=1 << 16)
    cfg = CacheConfig(cache_pages=cache_pages, **cfg_kw)
    policy = build_policy(policy_name, cfg, raid)
    return SimEngine(policy)


class TestTimedSystem:
    def test_read_hit_is_fast(self):
        sys_ = make_system("wt")
        sys_.submit(5, 1, is_read=True, arrival=0.0)   # miss: disk read
        done = sys_.submit(5, 1, is_read=True, arrival=10.0)  # hit: SSD read
        assert done - 10.0 < 1e-3  # sub-millisecond

    def test_read_miss_pays_disk(self):
        sys_ = make_system("wt")
        done = sys_.submit(5, 1, is_read=True, arrival=0.0)
        assert done > 3e-3  # seek + rotation

    def test_small_write_pays_two_disk_phases(self):
        sys_ = make_system("nossd")
        t_write = sys_.submit(5, 1, is_read=False, arrival=0.0)
        sys2 = make_system("nossd")
        t_read = sys2.submit(5, 1, is_read=True, arrival=0.0)
        # rmw (read then write phases) is roughly twice a plain read
        assert t_write > 1.5 * t_read

    def test_kdd_write_hit_faster_than_wt(self):
        """The headline latency claim: no parity I/O on KDD's write hits."""
        wt = make_system("wt")
        kdd = make_system("kdd")
        for s in (wt, kdd):
            s.submit(5, 1, is_read=True, arrival=0.0)  # cache the page
        t_wt = wt.submit(5, 1, is_read=False, arrival=1.0) - 1.0
        t_kdd = kdd.submit(5, 1, is_read=False, arrival=1.0) - 1.0
        assert t_kdd < 0.7 * t_wt

    def test_background_work_delays_later_requests(self):
        sys_ = make_system("wt")
        # a read miss schedules a background fill on the SSD
        sys_.submit(5, 1, is_read=True, arrival=0.0)
        busy = sys_.ssd.busy_until
        assert busy > 0.0  # the fill occupied the device

    def test_multi_page_request_single_response(self):
        sys_ = make_system("wt")
        sys_.submit(0, 8, is_read=True, arrival=0.0)
        assert len(sys_.recorder) == 1

    def test_negative_arrival_rejected(self):
        sys_ = make_system("wt")
        with pytest.raises(ConfigError):
            sys_.submit(0, 1, True, -1.0)

    def test_report_contents(self):
        sys_ = make_system("wt")
        sys_.submit(0, 1, True, 0.0)
        rep = sys_.report("test", duration=1.0)
        assert rep.requests == 1
        assert rep.iops == pytest.approx(1.0)
        assert rep.latency.mean > 0


class TestOpenLoop:
    def test_replay_measures_all_requests(self):
        trace = uniform_workload(200, 2000, read_ratio=0.5, iops=50, seed=1)
        sys_ = make_system("wt")
        rep = replay_trace(sys_, trace)
        assert rep.requests == 200
        assert rep.latency.mean > 0

    def test_max_requests_cutoff(self):
        trace = uniform_workload(200, 2000, iops=50, seed=1)
        rep = replay_trace(make_system("wt"), trace, max_requests=50)
        assert rep.requests == 50

    def test_max_seconds_cutoff(self):
        trace = uniform_workload(500, 2000, iops=100, seed=1)
        rep = replay_trace(make_system("wt"), trace, max_seconds=1.0)
        assert rep.requests < 500

    def test_time_scale_reduces_queueing(self):
        trace = uniform_workload(300, 2000, read_ratio=0.0, iops=2000, seed=1)
        fast = replay_trace(make_system("nossd"), trace, time_scale=1.0)
        slow = replay_trace(make_system("nossd"), trace, time_scale=50.0)
        assert slow.latency.mean < fast.latency.mean

    def test_invalid_time_scale(self):
        trace = uniform_workload(10, 100, iops=10, seed=0)
        with pytest.raises(ConfigError):
            replay_trace(make_system("wt"), trace, time_scale=0)

    @pytest.mark.parametrize("time_scale", [math.nan, math.inf])
    def test_non_finite_time_scale_rejected(self, time_scale):
        trace = uniform_workload(10, 100, iops=10, seed=0)
        with pytest.raises(ConfigError, match=f"got {time_scale}"):
            replay_trace(make_system("wt"), trace, time_scale=time_scale)

    def test_negative_max_requests_rejected(self):
        trace = uniform_workload(10, 100, iops=10, seed=0)
        with pytest.raises(ConfigError, match="got -1"):
            replay_trace(make_system("wt"), trace, max_requests=-1)

    def test_nan_max_seconds_rejected(self):
        trace = uniform_workload(10, 100, iops=10, seed=0)
        with pytest.raises(ConfigError, match="got nan"):
            replay_trace(make_system("wt"), trace, max_seconds=math.nan)

    @pytest.mark.parametrize("chunk", [16, 4096])
    @pytest.mark.parametrize("max_requests,max_seconds", [
        (None, None), (0, None), (37, None), (48, None), (500, None),
        (None, 0.5), (60, 0.5), (None, "tie"),
    ])
    def test_replay_submits_the_trace_in_order(self, monkeypatch, chunk,
                                               max_requests, max_seconds):
        """The columnar replay submits exactly what iterating the trace
        gives, cut at ``max_requests`` and ``max_seconds``, whether the
        records fit one chunk or span several."""
        monkeypatch.setattr(openloop, "_CHUNK", chunk)
        trace = uniform_workload(120, 2000, read_ratio=0.5, iops=100, seed=4)
        time_scale = 0.5
        if max_seconds == "tie":  # a cut at an arrival keeps that arrival
            max_seconds = trace[40].time * time_scale
        expected = []
        for req in trace:
            arrival = req.time * time_scale
            if max_seconds is not None and arrival > max_seconds:
                break
            if max_requests is not None and len(expected) >= max_requests:
                break
            expected.append((req.lba, req.npages, req.is_read, arrival))
        if max_seconds is not None:
            assert len(expected) < len(trace)  # the cut bites

        class Submitted(EngineHook):
            def __init__(self):
                self.seen = []

            def on_request_done(self, engine, record):
                self.seen.append((record.lba, record.npages, record.is_read,
                                  record.arrival))

        system = make_system("wt")
        hook = Submitted()
        system.add_hook(hook)
        rep = replay_trace(system, trace, max_requests=max_requests,
                           max_seconds=max_seconds, time_scale=time_scale)
        assert hook.seen == expected
        assert rep.requests == len(expected)


class TestClosedLoop:
    def test_runs_requested_count(self):
        sys_ = make_system("wt", cache_pages=512)
        rep = run_closed_loop(
            sys_, FioConfig(total_requests=300, working_set_pages=2000,
                            read_rate=0.5, nthreads=4, seed=1)
        )
        assert rep.requests == 300
        assert rep.iops > 0

    def test_more_threads_more_queueing(self):
        cfg1 = FioConfig(total_requests=400, working_set_pages=2000,
                         nthreads=1, seed=1)
        cfg16 = FioConfig(total_requests=400, working_set_pages=2000,
                          nthreads=16, seed=1)
        lat1 = run_closed_loop(make_system("nossd"), cfg1).latency.mean
        lat16 = run_closed_loop(make_system("nossd"), cfg16).latency.mean
        assert lat16 > lat1

    def test_read_rate_bounds(self):
        with pytest.raises(ConfigError):
            FioConfig(read_rate=1.5)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            FioConfig(seed=-1)

    def test_kdd_beats_wt_on_write_heavy(self):
        """Figure 10's shape at read rate 0."""
        cfg = FioConfig(total_requests=800, working_set_pages=3000,
                        read_rate=0.0, nthreads=8, seed=3)
        wt = run_closed_loop(make_system("wt", cache_pages=1024), cfg)
        kdd = run_closed_loop(make_system("kdd", cache_pages=1024), cfg)
        assert kdd.latency.mean < wt.latency.mean

    def test_workload_name_encodes_read_rate(self):
        sys_ = make_system("wt")
        rep = run_closed_loop(
            sys_, FioConfig(total_requests=10, working_set_pages=100,
                            read_rate=0.75, nthreads=2)
        )
        assert rep.workload == "fio-zipf-r75"


class TestLatencyRecorder:
    def test_negative_response_time_is_simulation_error(self):
        from repro.errors import SimulationError
        from repro.stats.latency import LatencyRecorder

        rec = LatencyRecorder()
        with pytest.raises(SimulationError):
            rec.record(-1e-6)
        # a simulator fault is not a configuration mistake
        assert not issubclass(SimulationError, ConfigError)

    def test_zero_response_time_allowed(self):
        from repro.stats.latency import LatencyRecorder

        rec = LatencyRecorder()
        rec.record(0.0)
        assert len(rec) == 1
