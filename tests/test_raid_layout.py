"""Tests for the striping layouts."""

import pytest

from repro.errors import ConfigError
from repro.raid import RaidLayout, RaidLevel


def test_minimum_disk_counts():
    with pytest.raises(ConfigError):
        RaidLayout(RaidLevel.RAID5, 2)
    with pytest.raises(ConfigError):
        RaidLayout(RaidLevel.RAID6, 3)
    RaidLayout(RaidLevel.RAID5, 3)  # ok


def test_raid5_parity_rotates_left_symmetric():
    lay = RaidLayout(RaidLevel.RAID5, 5, chunk_pages=1)
    assert [lay.parity_disk(s) for s in range(5)] == [4, 3, 2, 1, 0]
    assert lay.parity_disk(5) == 4  # wraps


def test_raid5_data_follows_parity():
    lay = RaidLayout(RaidLevel.RAID5, 5, chunk_pages=1)
    # stripe 0: parity on disk 4, data chunks on 0,1,2,3
    assert [lay.data_disk(0, c) for c in range(4)] == [0, 1, 2, 3]
    # stripe 1: parity on disk 3, data on 4,0,1,2
    assert [lay.data_disk(1, c) for c in range(4)] == [4, 0, 1, 2]


def test_raid5_locate_round_trip():
    lay = RaidLayout(RaidLevel.RAID5, 5, chunk_pages=16)
    seen = set()
    for lpage in range(5 * lay.stripe_data_pages):
        loc = lay.locate(lpage)
        assert loc.disk != lay.parity_disk(loc.stripe)
        key = (loc.disk, loc.disk_page)
        assert key not in seen  # no two logical pages share a physical slot
        seen.add(key)


def test_raid6_p_and_q_distinct_and_rotate():
    lay = RaidLayout(RaidLevel.RAID6, 6, chunk_pages=4)
    for s in range(12):
        p, q = lay.parity_disk(s), lay.q_disk(s)
        assert p != q
        assert q == (p + 1) % 6
        for c in range(lay.data_disks_per_stripe):
            assert lay.data_disk(s, c) not in (p, q)


def test_stripe_data_pages_and_capacity():
    lay = RaidLayout(RaidLevel.RAID5, 5, chunk_pages=16, pages_per_disk=160)
    assert lay.stripe_data_pages == 64
    assert lay.capacity_pages == 640
    assert lay.fault_tolerance == 1


def test_raid0_no_parity():
    lay = RaidLayout(RaidLevel.RAID0, 4, chunk_pages=2)
    assert lay.parity_disk(0) is None
    assert lay.fault_tolerance == 0
    assert lay.stripe_data_pages == 8


def test_raid1_capacity_is_one_member():
    lay = RaidLayout(RaidLevel.RAID1, 3, chunk_pages=4, pages_per_disk=100)
    assert lay.capacity_pages == 100
    assert lay.fault_tolerance == 2


def test_parity_page_tracks_offset():
    lay = RaidLayout(RaidLevel.RAID5, 5, chunk_pages=16)
    lpage = 5  # stripe 0, chunk 0, offset 5
    assert lay.parity_page(0, lpage) == 5
    lpage2 = 64 + 17  # stripe 1, chunk 1, offset 1
    assert lay.parity_page(1, lpage2) == 17


def test_stripe_pages_enumeration():
    lay = RaidLayout(RaidLevel.RAID5, 5, chunk_pages=2)
    assert list(lay.stripe_pages(0)) == list(range(8))
    assert list(lay.stripe_pages(1)) == list(range(8, 16))


def test_capacity_bound_enforced():
    lay = RaidLayout(RaidLevel.RAID5, 5, chunk_pages=2, pages_per_disk=4)
    with pytest.raises(ConfigError):
        lay.locate(lay.capacity_pages + lay.stripe_data_pages)


@pytest.mark.parametrize("level,ndisks", [
    (RaidLevel.RAID0, 4), (RaidLevel.RAID1, 2), (RaidLevel.RAID1, 3),
    (RaidLevel.RAID5, 3), (RaidLevel.RAID5, 5), (RaidLevel.RAID6, 4),
    (RaidLevel.RAID6, 6),
])
def test_locate_agrees_with_stripe_of_and_data_disk(level, ndisks):
    """``locate`` and ``data_disk`` share one rotation: every page of the
    first stripes lands where the two public steps put it by hand, and
    never on the stripe's P or Q disk."""
    lay = RaidLayout(level, ndisks, chunk_pages=3, pages_per_disk=3 * 12)
    for lpage in range(2 * ndisks * lay.stripe_data_pages):
        stripe = lay.stripe_of(lpage)
        within = lpage - stripe * lay.stripe_data_pages
        chunk, offset = within // lay.chunk_pages, within % lay.chunk_pages
        loc = lay.locate(lpage)
        assert (loc.stripe, loc.disk, loc.disk_page) == (
            stripe, lay.data_disk(stripe, chunk),
            stripe * lay.chunk_pages + offset)
        assert loc.disk not in (lay.parity_disk(stripe), lay.q_disk(stripe))
