"""Tests for the RAID array: small writes, delayed parity, failures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, DegradedError, RaidError
from repro.raid import (
    DiskOp,
    OpKind,
    RAIDArray,
    RaidLevel,
    rebuild_disk,
    resync_stale_parity,
)


def r5(store=False, chunk_pages=4, ndisks=5, pages_per_disk=64):
    return RAIDArray(
        RaidLevel.RAID5,
        ndisks=ndisks,
        chunk_pages=chunk_pages,
        pages_per_disk=pages_per_disk,
        page_size=64,
        store_data=store,
    )


def page_bytes(seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=64, dtype=np.uint8).tobytes()


class TestSmallWrite:
    def test_single_page_write_is_2r2w(self):
        """The small write problem: 1 logical write -> 2 reads + 2 writes."""
        arr = r5()
        ops = arr.write(0)
        reads = [o for o in ops if o.is_read]
        writes = [o for o in ops if not o.is_read]
        assert len(reads) == 2 and len(writes) == 2
        assert {o.kind for o in writes} == {OpKind.DATA, OpKind.PARITY}

    def test_full_stripe_write_needs_no_reads(self):
        arr = r5(chunk_pages=1)
        ops = arr.write(0, npages=arr.layout.stripe_data_pages)
        assert not any(o.is_read for o in ops)
        writes = [o for o in ops if not o.is_read]
        assert len(writes) == arr.ndisks  # 4 data + 1 parity

    def test_majority_stripe_write_uses_rcw(self):
        arr = r5(chunk_pages=1)  # 4 data disks per stripe
        ops = arr.write(0, npages=3)  # rcw: read 1, write 4 < rmw: read 4 wr 4
        reads = [o for o in ops if o.is_read]
        assert len(reads) == 1
        assert reads[0].kind is OpKind.DATA

    def test_counters_accumulate(self):
        arr = r5()
        arr.write(0)
        arr.read(0)
        c = arr.counters
        assert c.data_writes == 1 and c.parity_writes == 1
        assert c.data_reads == 2  # 1 rmw read + 1 host read
        assert c.parity_reads == 1
        assert c.total == 5  # rmw (2r + 2w) plus the host read

    def test_raid6_small_write_updates_p_and_q(self):
        arr = RAIDArray(RaidLevel.RAID6, ndisks=6, chunk_pages=2,
                        pages_per_disk=64, page_size=64)
        ops = arr.write(0)
        kinds = [(o.kind, o.is_read) for o in ops]
        assert (OpKind.PARITY, False) in kinds
        assert (OpKind.Q_PARITY, False) in kinds
        assert (OpKind.PARITY, True) in kinds
        assert (OpKind.Q_PARITY, True) in kinds


    @pytest.mark.parametrize("level,ndisks", [
        (RaidLevel.RAID0, 4), (RaidLevel.RAID1, 2), (RaidLevel.RAID5, 5),
        (RaidLevel.RAID6, 6),
    ])
    def test_one_page_writes_match_a_two_page_write(self, level, ndisks):
        """With chunks of two or more pages, two consecutive pages never
        share a (stripe, offset) group, so a two-page write, which goes
        through the grouping loop, must give the ops, counters and disk
        contents of the same pages written one at a time, which take the
        one-page path."""
        def array():
            return RAIDArray(level, ndisks=ndisks, chunk_pages=2,
                             pages_per_disk=64, page_size=64, store_data=True)

        single, paired = array(), array()
        for lpage in range(2 * ndisks * single.layout.stripe_data_pages - 1):
            first, second = page_bytes(2 * lpage), page_bytes(2 * lpage + 1)
            ops = (single.write(lpage, data=[first])
                   + single.write(lpage + 1, data=[second]))
            assert paired.write(lpage, npages=2, data=[first, second]) == ops
        assert single.counters == paired.counters
        for disk in range(ndisks):
            pages = single._disk_data[disk]
            assert pages.keys() == paired._disk_data[disk].keys()
            for disk_page, block in pages.items():
                assert np.array_equal(block, paired._disk_data[disk][disk_page])


class TestPayload:
    def test_write_read_roundtrip(self):
        arr = r5(store=True)
        data = page_bytes(1)
        arr.write(3, data=[data])
        assert arr.read_data(3).tobytes() == data

    def test_parity_consistent_after_writes(self):
        arr = r5(store=True)
        for lpage in range(10):
            arr.write(lpage, data=[page_bytes(lpage)])
        for stripe in {arr.layout.stripe_of(p) for p in range(10)}:
            assert arr.verify_stripe(stripe)

    def test_degraded_read_reconstructs(self):
        arr = r5(store=True)
        data = page_bytes(7)
        arr.write(0, data=[data])
        disk = arr.layout.locate(0).disk
        arr.fail_disk(disk)
        assert arr.read_data(0).tobytes() == data

    def test_read_data_requires_store(self):
        with pytest.raises(ConfigError):
            r5(store=False).read_data(0)


class TestDelayedParity:
    def test_write_without_parity_is_one_io(self):
        arr = r5()
        ops = arr.write_without_parity_update(0)
        assert len(ops) == 1 and not ops[0].is_read
        assert arr.layout.stripe_of(0) in arr.stale_stripes

    def test_parity_update_rmw_reads_and_writes_parity(self):
        arr = r5()
        arr.write_without_parity_update(0)
        stripe = arr.layout.stripe_of(0)
        ops = arr.parity_update(stripe, [0], cached_pages=[0])
        parity_reads = [o for o in ops if o.is_read and o.kind is OpKind.PARITY]
        parity_writes = [o for o in ops if not o.is_read and o.kind is OpKind.PARITY]
        assert len(parity_reads) == 1 and len(parity_writes) == 1
        assert stripe not in arr.stale_stripes

    def test_parity_update_rcw_when_all_cached(self):
        """Reconstruct-write is parity writes only: the fault pipeline's
        stale-parity repair serves it as one phase."""
        for level in (RaidLevel.RAID5, RaidLevel.RAID6):
            for chunk_pages in (1, 4):
                arr = RAIDArray(level, ndisks=5, chunk_pages=chunk_pages,
                                pages_per_disk=64, page_size=64)
                arr.write_without_parity_update(0)
                stripe = arr.layout.stripe_of(0)
                all_pages = list(arr.layout.stripe_pages(stripe))
                ops = arr.parity_update(stripe, cached_pages=all_pages)
                assert ops and not any(o.is_read for o in ops)
                assert {o.kind for o in ops} <= {OpKind.PARITY,
                                                 OpKind.Q_PARITY}

    def test_parity_update_noop_when_not_stale(self):
        arr = r5()
        assert arr.parity_update(0) == []

    def test_delayed_write_payload_consistency(self):
        """After delayed writes + parity_update the stripe verifies."""
        arr = r5(store=True, chunk_pages=2)
        arr.write(0, data=[page_bytes(0)])
        arr.write_without_parity_update(1, data=page_bytes(1))
        stripe = arr.layout.stripe_of(1)
        assert not arr.verify_stripe(stripe)  # parity is stale
        arr.parity_update(stripe, [1], cached_pages=[1])
        assert arr.verify_stripe(stripe)

    def test_delayed_parity_requires_parity_level(self):
        arr = RAIDArray(RaidLevel.RAID0, ndisks=4, chunk_pages=2,
                        pages_per_disk=64, page_size=64)
        with pytest.raises(RaidError):
            arr.write_without_parity_update(0)


class TestFailures:
    def test_too_many_failures(self):
        arr = r5()
        arr.fail_disk(0)
        with pytest.raises(DegradedError):
            arr.fail_disk(1)

    def test_degraded_read_costs_whole_stripe(self):
        arr = r5(chunk_pages=1)
        disk = arr.layout.locate(0).disk
        arr.fail_disk(disk)
        ops = arr.read(0)
        assert len(ops) == arr.ndisks - 1  # peers + parity

    def test_degraded_read_with_stale_parity_is_data_loss(self):
        """The vulnerability window KDD avoids (Section II-B)."""
        arr = r5()
        arr.write_without_parity_update(0)
        other = arr.layout.locate(arr.layout.stripe_data_pages).disk
        victim = arr.layout.locate(0).disk
        arr.fail_disk(victim)
        with pytest.raises(DegradedError):
            arr.read(0)

    def test_resync_clears_stale_stripes(self):
        arr = r5()
        arr.write_without_parity_update(0)
        arr.write_without_parity_update(arr.layout.stripe_data_pages)
        report = resync_stale_parity(arr)
        assert report.stripes_resynced == 2
        assert not arr.stale_stripes

    def test_resync_with_failed_disk_raises(self):
        arr = r5()
        arr.write_without_parity_update(0)
        arr.fail_disk(arr.layout.locate(0).disk)
        with pytest.raises(DegradedError):
            resync_stale_parity(arr)

    def test_rebuild_requires_fresh_parity(self):
        arr = r5()
        arr.write_without_parity_update(0)
        arr.fail_disk(2)
        with pytest.raises(DegradedError):
            rebuild_disk(arr, 2)

    def test_rebuild_restores_payload(self):
        arr = r5(store=True, chunk_pages=2, pages_per_disk=8)
        payloads = {}
        for lpage in range(0, 16):
            payloads[lpage] = page_bytes(lpage)
            arr.write(lpage, data=[payloads[lpage]])
        victim = arr.layout.locate(0).disk
        arr.fail_disk(victim)
        report = rebuild_disk(arr, victim)
        assert report.pages_rebuilt > 0
        assert not arr.degraded
        for lpage, data in payloads.items():
            assert arr.read_data(lpage).tobytes() == data

    def test_rebuild_nonfailed_disk_rejected(self):
        with pytest.raises(DegradedError):
            rebuild_disk(r5(), 0)

    @pytest.mark.parametrize("level,ndisks,roles", [
        (RaidLevel.RAID1, 2, {OpKind.DATA}),
        (RaidLevel.RAID5, 5, {OpKind.DATA, OpKind.PARITY}),
        (RaidLevel.RAID6, 6, {OpKind.DATA, OpKind.PARITY, OpKind.Q_PARITY}),
    ])
    def test_reconstruct_read_ops_are_reads_only(self, level, ndisks, roles):
        """Every unit is reconstructed by reads alone, so the fault
        pipeline serves a reconstruction as one phase."""
        arr = RAIDArray(level, ndisks=ndisks, chunk_pages=4,
                        pages_per_disk=64, page_size=64)
        seen = set()
        for disk in range(ndisks):
            for disk_page in range(2 * ndisks * 4):  # 2 x ndisks stripes
                seen.add(arr.member_page_role(disk, disk_page)[1])
                ops = arr.reconstruct_read_ops(disk, disk_page)
                assert ops and all(o.is_read for o in ops)
        assert seen == roles


class TestRaid1:
    def test_writes_mirror_everywhere(self):
        arr = RAIDArray(RaidLevel.RAID1, ndisks=3, chunk_pages=2,
                        pages_per_disk=64, page_size=64, store_data=True)
        ops = arr.write(0, data=[page_bytes(0)])
        writes = [o for o in ops if not o.is_read]
        assert {o.disk for o in writes} == {0, 1, 2}

    def test_survives_all_but_one(self):
        arr = RAIDArray(RaidLevel.RAID1, ndisks=3, chunk_pages=2,
                        pages_per_disk=64, page_size=64, store_data=True)
        arr.write(0, data=[page_bytes(9)])
        arr.fail_disk(0)
        arr.fail_disk(1)
        assert arr.read_data(0).tobytes() == page_bytes(9)


@settings(max_examples=25, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 31), st.booleans(), st.integers(0, 2**16)),
        min_size=1,
        max_size=40,
    )
)
def test_property_delayed_parity_always_repairable(writes):
    """Any mix of normal and parity-delayed writes; after parity_update of
    every stale stripe, all stripes verify and payload reads match the
    last written value."""
    arr = r5(store=True, chunk_pages=2, pages_per_disk=16)
    latest: dict[int, bytes] = {}
    for lpage, delayed, seed in writes:
        data = page_bytes(seed)
        if delayed:
            arr.write_without_parity_update(lpage, data=data)
        else:
            arr.write(lpage, data=[data])
        latest[lpage] = data
    for stripe in sorted(arr.stale_stripes):
        arr.parity_update(stripe, cached_pages=list(arr.layout.stripe_pages(stripe)))
    touched_stripes = {arr.layout.stripe_of(p) for p in latest}
    for stripe in touched_stripes:
        assert arr.verify_stripe(stripe)
    for lpage, data in latest.items():
        assert arr.read_data(lpage).tobytes() == data
