"""Tests for the mirrored write-back cache (SRC / cache-optimised RAID)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig, MirroredWriteBack
from repro.errors import CacheError, ConfigError
from repro.harness import simulate_policy
from repro.nvram import PageState
from repro.raid import RAIDArray, RaidLevel
from repro.traces import zipf_workload


def make_mwb(cache_pages=64, **kw):
    raid = RAIDArray(RaidLevel.RAID5, ndisks=5, chunk_pages=4,
                     pages_per_disk=1 << 14)
    kw.setdefault("ways", 16)
    return MirroredWriteBack(CacheConfig(cache_pages=cache_pages, **kw), raid), raid


class TestWriteBackSemantics:
    def test_write_hit_avoids_raid(self):
        p, raid = make_mwb()
        p.write(0)
        out = p.write(0)
        assert out.hit and not out.fg_disk_ops
        assert raid.counters.data_writes == 0

    def test_dirty_pages_are_mirrored(self):
        p, _ = make_mwb()
        p.write(0)
        assert p.dirty_pages == 1
        assert p.mirrored_pages == 1
        p.check_invariants()

    def test_mirror_doubles_dirty_write_traffic(self):
        p, _ = make_mwb()
        p.write(0)  # primary + mirror
        assert p.stats.data_writes == 2
        p.write(0)  # rewrite both copies
        assert p.stats.data_writes == 4

    def test_clean_pages_not_mirrored(self):
        p, _ = make_mwb()
        p.read(0)
        assert p.mirrored_pages == 0
        assert p.stats.fill_writes == 1

    def test_flash_budget_counts_mirrors(self):
        p, _ = make_mwb(cache_pages=8, ways=8, group_pages=1)
        for lba in range(4):
            p.write(lba * 16)
        # 4 dirty pages need 8 flash pages: the budget is exactly full
        assert p.flash_used == 8
        p.write(5 * 16)  # forces a flush to stay within two devices
        assert p.flash_used <= 8
        p.check_invariants()

    def test_finish_flushes_dirty_to_raid(self):
        p, raid = make_mwb()
        for lba in range(5):
            p.write(lba)
        p.finish()
        assert p.dirty_pages == 0
        assert raid.counters.data_writes >= 5
        p.check_invariants()


class TestSsdFailure:
    def test_dirty_pages_survive_one_ssd_loss(self):
        """The design goal: no data loss on a single cache-device failure."""
        p, raid = make_mwb()
        for lba in range(6):
            p.write(lba)
        report = p.fail_ssd(0)
        assert report["dirty_flushed"] == 6
        assert raid.counters.data_writes >= 6  # everything reached RAID
        assert p.dirty_pages == 0

    def test_second_failure_rejected(self):
        p, _ = make_mwb()
        p.fail_ssd(0)
        with pytest.raises(CacheError):
            p.fail_ssd(1)

    def test_bad_device_id(self):
        p, _ = make_mwb()
        with pytest.raises(ConfigError):
            p.fail_ssd(2)


class TestCostComparisonWithKdd:
    def test_mwb_doubles_writes_kdd_does_not(self):
        """Same reliability (RPO=0 under one SSD loss), different bills:
        the mirrored cache pays 2x flash writes per dirty page; KDD pays
        a RAID member write but writes the SSD once (delta only)."""
        trace = zipf_workload(5000, 800, alpha=1.0, read_ratio=0.2, seed=5)
        mwb = simulate_policy("mwb", trace, cache_pages=512, seed=1)
        kdd = simulate_policy("kdd", trace, cache_pages=512, seed=1)
        assert kdd.ssd_write_pages < mwb.ssd_write_pages
        # and the mirrored cache needs half its flash for copies
        assert mwb.stats.data_writes > trace.stats().write_requests

    def test_mwb_latency_beats_kdd(self):
        """What the mirrored cache buys: write-back latency (no RAID on
        the write path) — the axis where it wins."""
        from repro.cache import CacheConfig
        from repro.engine import SimEngine
        from repro.harness import build_policy
        from repro.sim import FioConfig, run_closed_loop

        def mean_ms(policy):
            raid = RAIDArray(RaidLevel.RAID5, ndisks=5, chunk_pages=16,
                             pages_per_disk=1 << 16)
            p = build_policy(policy, CacheConfig(cache_pages=8192, seed=1), raid)
            rep = run_closed_loop(
                SimEngine(p),
                FioConfig(total_requests=600, working_set_pages=4000,
                          read_rate=0.0, nthreads=4, seed=2),
            )
            return rep.latency.mean

        assert mean_ms("mwb") < mean_ms("kdd")


@settings(max_examples=20, deadline=None)
@given(
    ops=st.lists(st.tuples(st.booleans(), st.integers(0, 60)), max_size=200)
)
def test_property_mirror_accounting(ops):
    p, _ = make_mwb(cache_pages=24, ways=8, group_pages=8)
    for is_read, lba in ops:
        p.access(lba, is_read)
    p.check_invariants()
    assert p.flash_used <= p.config.cache_pages
    p.finish()
    p.check_invariants()
    assert p.mirrored_pages == 0
