"""Tests for geometry, wear tracking, and the SSD device wrapper."""

import numpy as np
import pytest

from repro.errors import ConfigError, FlashError, WornOutError
from repro.flash import (
    MLC_ENDURANCE,
    SSD,
    FlashGeometry,
    LifetimeEstimate,
    WearTracker,
    relative_lifetime,
)
from repro.units import GiB, MiB


class TestGeometry:
    def test_capacity_math(self):
        g = FlashGeometry(
            channels=2,
            dies_per_channel=2,
            planes_per_die=2,
            blocks_per_plane=4,
            pages_per_block=64,
            page_size=4096,
        )
        assert g.planes == 8
        assert g.total_blocks == 32
        assert g.total_pages == 2048
        assert g.capacity_bytes == 8 * MiB

    def test_for_capacity_covers_request(self):
        g = FlashGeometry.for_capacity(1 * GiB)
        assert g.capacity_bytes >= 1 * GiB
        assert g.capacity_bytes < 2 * GiB

    def test_block_plane_interleave(self):
        g = FlashGeometry(channels=4, dies_per_channel=1, planes_per_die=1,
                          blocks_per_plane=2, pages_per_block=4)
        planes = [g.plane_of_block(b) for b in range(4)]
        assert planes == [0, 1, 2, 3]

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            FlashGeometry(channels=0)


class TestWear:
    def test_erase_counting_and_wearout(self):
        g = FlashGeometry(channels=1, dies_per_channel=1, planes_per_die=1,
                          blocks_per_plane=2, pages_per_block=4)
        w = WearTracker(g, endurance=3)
        for _ in range(3):
            w.record_erase(0)
        assert w.erases(0) == 3
        with pytest.raises(WornOutError):
            w.record_erase(0)

    def test_imbalance_and_life(self):
        g = FlashGeometry(channels=1, dies_per_channel=1, planes_per_die=1,
                          blocks_per_plane=4, pages_per_block=4)
        w = WearTracker(g, endurance=100)
        w.record_erase(0)
        w.record_erase(0)
        w.record_erase(1)
        assert w.max_erases == 2
        assert w.life_consumed == pytest.approx(0.02)
        assert w.wear_imbalance > 1.0

    def test_least_worn(self):
        g = FlashGeometry(channels=1, dies_per_channel=1, planes_per_die=1,
                          blocks_per_plane=4, pages_per_block=4)
        w = WearTracker(g)
        w.record_erase(0)
        assert w.least_worn(np.array([0, 1])) == 1


class TestLifetime:
    def test_lifetime_formula(self):
        est = LifetimeEstimate(
            capacity_bytes=100 * GiB,
            endurance=10_000,
            write_amplification=2.0,
            host_writes_per_day=500 * GiB,
        )
        expected_days = (100 * GiB * 10_000) / (500 * GiB * 2.0)
        assert est.lifetime_days == pytest.approx(expected_days)
        assert est.lifetime_years == pytest.approx(expected_days / 365.25)

    def test_zero_writes_is_infinite(self):
        est = LifetimeEstimate(GiB, 1000, 1.0, 0.0)
        assert est.lifetime_days == float("inf")

    def test_relative_lifetime(self):
        # KDD writing 5.1x less than LeavO lives 5.1x longer
        assert relative_lifetime(100.0, 510.0) == pytest.approx(5.1)
        assert relative_lifetime(0.0, 1.0) == float("inf")


class TestSSD:
    def test_capacity_and_rw(self):
        ssd = SSD(capacity_bytes=8 * MiB, store_data=True)
        ssd.write(0, b"hello")
        assert ssd.read(0) == b"hello"
        assert ssd.is_mapped(0)
        ssd.trim(0)
        assert not ssd.is_mapped(0)

    def test_payload_requires_store_data(self):
        ssd = SSD(capacity_bytes=8 * MiB)
        with pytest.raises(ConfigError):
            ssd.write(0, b"x")

    def test_payload_too_large(self):
        ssd = SSD(capacity_bytes=8 * MiB, store_data=True)
        with pytest.raises(FlashError):
            ssd.write(0, b"x" * 5000)

    def test_geometry_xor_capacity_exclusive(self):
        with pytest.raises(ConfigError):
            SSD(geometry=FlashGeometry(), capacity_bytes=GiB)

    @pytest.mark.parametrize("capacity", [0, -5])
    def test_nonpositive_capacity_rejected(self, capacity):
        with pytest.raises(ConfigError, match="capacity must be positive"):
            SSD(capacity_bytes=capacity)

    def test_write_traffic_counters(self):
        ssd = SSD(capacity_bytes=8 * MiB)
        for lpn in range(10):
            ssd.write(lpn)
        assert ssd.host_write_pages == 10
        assert ssd.host_write_bytes == 10 * 4096
        assert ssd.write_amplification >= 1.0

    def test_lifetime_projection_uses_waf(self):
        ssd = SSD(capacity_bytes=8 * MiB)
        ssd.write(0)
        est = ssd.lifetime(host_writes_per_day=1 * MiB)
        assert est.endurance == MLC_ENDURANCE
        assert est.lifetime_days > 0
