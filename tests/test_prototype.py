"""Byte-accurate tests for the prototype data path (real deltas, real parity)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ContentWorkload, KDDDataPath
from repro.errors import ConfigError
from repro.raid import RAIDArray, RaidLevel


def make_path(cache_pages=64, page_size=256, dirty_limit=0.5):
    raid = RAIDArray(
        RaidLevel.RAID5,
        ndisks=5,
        chunk_pages=4,
        pages_per_disk=4096,
        page_size=page_size,
        store_data=True,
    )
    return KDDDataPath(
        raid=raid,
        cache_pages=cache_pages,
        ways=16,
        page_size=page_size,
        dirty_limit=dirty_limit,
    )


class TestContentWorkload:
    def test_initial_then_versions(self):
        w = ContentWorkload(universe_pages=10, change_fraction=0.1,
                            page_size=256, seed=1)
        v0 = w.next_version(3)
        v1 = w.next_version(3)
        assert v0 != v1
        assert w.current(3) == v1
        # small change: most bytes unchanged
        diff = sum(a != b for a, b in zip(v0, v1))
        assert diff <= 0.2 * 256

    def test_unwritten_page_is_zero(self):
        w = ContentWorkload(universe_pages=4, page_size=64)
        assert w.current(0) == b"\0" * 64

    def test_validation(self):
        with pytest.raises(ConfigError):
            ContentWorkload(0)
        with pytest.raises(ConfigError):
            ContentWorkload(4, change_fraction=2.0)


class TestDataPath:
    def test_write_then_read_roundtrip(self):
        p = make_path()
        p.write(5, b"hello world")
        assert p.read(5)[:11] == b"hello world"

    def test_write_hit_roundtrip_via_delta(self):
        """The core claim: old data + delta reconstructs the new version."""
        p = make_path()
        w = ContentWorkload(10, change_fraction=0.1, page_size=256, seed=2)
        v0 = w.next_version(5)
        p.write(5, v0)
        v1 = w.next_version(5)
        p.write(5, v1)  # write hit: stored as old + delta
        assert p.write_hits == 1
        assert p.read(5) == v1

    def test_chain_of_versions_always_latest(self):
        p = make_path()
        w = ContentWorkload(4, change_fraction=0.15, page_size=256, seed=3)
        for _ in range(8):
            data = w.next_version(2)
            p.write(2, data)
        assert p.read(2) == w.current(2)

    def test_read_miss_fetches_from_raid(self):
        p = make_path()
        p.write(9, b"abc")
        p.flush()
        # evict by filling... simpler: new path over same raid
        p2 = KDDDataPath(raid=p.raid, cache_pages=64, ways=16, page_size=256)
        assert p2.read(9)[:3] == b"abc"
        assert p2.read_misses == 1

    def test_parity_consistent_after_flush(self):
        p = make_path()
        w = ContentWorkload(30, change_fraction=0.1, page_size=256, seed=4)
        for lba in range(30):
            p.write(lba, w.next_version(lba))
        for lba in range(30):
            p.write(lba, w.next_version(lba))
        p.flush()
        assert not p.raid.stale_stripes
        for stripe in {p.raid.layout.stripe_of(lba) for lba in range(30)}:
            assert p.raid.verify_stripe(stripe)

    def test_survives_disk_failure_after_flush(self):
        """RPO=0 end-to-end: data reconstructable from parity."""
        p = make_path()
        w = ContentWorkload(12, change_fraction=0.1, page_size=256, seed=5)
        latest = {}
        for lba in range(12):
            p.write(lba, w.next_version(lba))
            latest[lba] = w.current(lba)
            p.write(lba, w.next_version(lba))
            latest[lba] = w.current(lba)
        p.flush()
        p.raid.fail_disk(1)
        for lba, data in latest.items():
            assert bytes(p.raid.read_data(lba)) == data

    def test_content_locality_shrinks_deltas(self):
        ratios = []
        for frac in (0.05, 0.50):
            p = make_path(page_size=1024)
            w = ContentWorkload(8, change_fraction=frac, page_size=1024,
                                seed=6)
            for _ in range(10):
                for lba in range(8):
                    p.write(lba, w.next_version(lba))
            ratios.append(p.mean_delta_ratio)
        assert ratios[0] < ratios[1]  # 5% change compresses far better

    def test_device_pages_are_the_cache_page_size(self):
        # 40,960 512-byte cache pages need more device pages than a
        # device of 4 KiB pages holding the same bytes exports.
        raid = RAIDArray(RaidLevel.RAID5, ndisks=5, chunk_pages=16,
                         pages_per_disk=65536, page_size=512,
                         store_data=True)
        p = KDDDataPath(raid=raid, cache_pages=40960, page_size=512)
        assert p.ssd.page_size == 512
        assert p.ssd.capacity_pages >= 40960
        for lba in range(0, 4096, 64):
            assert p.read(lba) == b"\0" * 512

    def test_page_size_mismatch_rejected(self):
        raid = RAIDArray(RaidLevel.RAID5, ndisks=5, chunk_pages=4,
                         pages_per_disk=1024, page_size=128, store_data=True)
        with pytest.raises(ConfigError):
            KDDDataPath(raid=raid, cache_pages=16, page_size=256)

    def test_counting_raid_rejected(self):
        raid = RAIDArray(RaidLevel.RAID5, ndisks=5, chunk_pages=4,
                         pages_per_disk=1024, page_size=256)
        with pytest.raises(ConfigError):
            KDDDataPath(raid=raid, cache_pages=16, page_size=256)


@settings(max_examples=12, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 40)), min_size=1, max_size=120
    ),
    change=st.sampled_from([0.05, 0.2, 0.6]),
)
def test_property_datapath_always_bit_exact(ops, change):
    """Random read/write streams with real content: every read returns
    exactly the reference content; after flush, parity verifies."""
    p = make_path(cache_pages=32, page_size=256, dirty_limit=0.4)
    w = ContentWorkload(41, change_fraction=change, page_size=256, seed=7)
    touched = set()
    for is_read, lba in ops:
        if is_read:
            got = p.read(lba)
            assert got == w.current(lba), lba
        else:
            data = w.next_version(lba)
            p.write(lba, data)
            touched.add(lba)
    for lba in touched:
        assert p.read(lba) == w.current(lba), lba
    p.flush()
    assert not p.raid.stale_stripes
    for stripe in {p.raid.layout.stripe_of(lba) for lba in touched}:
        assert p.raid.verify_stripe(stripe)
