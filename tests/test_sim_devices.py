"""Tests for the FCFS device servers (``repro.engine.resources``)."""

import pytest

from repro.engine.resources import DiskResource, SSDResource
from repro.errors import ConfigError


class TestDiskServer:
    def test_fcfs_queueing(self):
        d = DiskResource()
        w1 = d.serve(1000, 1, True, earliest=0.0)
        w2 = d.serve(50_000, 1, True, earliest=0.0)
        assert w2.start == pytest.approx(w1.finish)
        assert w2.finish > w2.start

    def test_idle_server_starts_at_arrival(self):
        d = DiskResource()
        w = d.serve(0, 1, True, earliest=5.0)
        assert w.start == pytest.approx(5.0)

    def test_sequential_faster_than_random(self):
        d1 = DiskResource()
        d1.serve(1000, 8, True, 0.0)
        seq = d1.serve(1008, 8, True, 0.0)
        d2 = DiskResource()
        d2.serve(1000, 8, True, 0.0)
        rnd = d2.serve(900_000, 8, True, 0.0)
        assert (seq.finish - seq.start) < (rnd.finish - rnd.start)


class TestSSDServer:
    def test_parallel_batch(self):
        lat = SSDResource.LATENCY
        s = SSDResource()
        w1 = s.serve_read(1, 0.0)
        w8 = s.serve_read(8, 0.0)
        assert (w8.finish - w8.start) == pytest.approx(w1.finish - w1.start)
        assert (w8.finish - w8.start) == pytest.approx(
            lat.command_overhead + lat.page_read)
        w9 = s.serve_read(9, 0.0)
        assert (w9.finish - w9.start) == pytest.approx(
            lat.command_overhead + 2 * lat.page_read)

    def test_fcfs(self):
        s = SSDResource()
        w1 = s.serve_write(1, 0.0)
        w2 = s.serve_read(1, 0.0)
        assert w2.start == pytest.approx(w1.finish)

    def test_validation(self):
        s = SSDResource()
        with pytest.raises(ConfigError):
            s.serve_read(0, 0.0)

    def test_reads_faster_than_writes(self):
        s = SSDResource()
        r = s.serve_read(1, 0.0)
        w = s.serve_write(1, r.finish)
        assert (w.finish - w.start) > (r.finish - r.start)
