"""Tests for the NVRAM staging and metadata buffers."""

import inspect

import pytest

from repro.delta.packer import DELTA_HEADER_BYTES
from repro.errors import ConfigError
from repro.nvram import (
    MappingEntry,
    MetadataBuffer,
    PageState,
    StagedDelta,
    StagingBuffer,
)


class TestStagingBuffer:
    def test_put_get_remove(self):
        b = StagingBuffer(capacity_bytes=4096)
        b.put(1, 100)
        assert 1 in b
        assert b.get(1).size == 100
        assert b.remove(1)
        assert not b.remove(1)

    def test_coalescing_replaces_same_page(self):
        b = StagingBuffer(capacity_bytes=4096)
        b.put(1, 100)
        b.put(1, 200)
        assert len(b) == 1
        assert b.get(1).size == 200
        assert b.coalesced == 1
        assert b.used_bytes == 200 + DELTA_HEADER_BYTES

    def test_capacity_enforced(self):
        b = StagingBuffer(capacity_bytes=256)
        b.put(1, 200)
        with pytest.raises(ConfigError):
            b.put(2, 200)

    def test_would_fit_after_coalesce(self):
        b = StagingBuffer(capacity_bytes=256)
        b.put(1, 200)
        assert b.would_fit_after_coalesce(1, 240)  # replaces the old one
        assert not b.would_fit_after_coalesce(2, 240)

    def test_drain_is_fifo_and_empties(self):
        b = StagingBuffer(capacity_bytes=4096)
        b.put(3, 10)
        b.put(1, 10)
        b.put(2, 10)
        out = b.drain()
        assert [d.lba for d in out] == [3, 1, 2]
        assert len(b) == 0 and b.used_bytes == 0

    def test_snapshot_is_nondestructive(self):
        b = StagingBuffer(capacity_bytes=4096)
        b.put(1, 10)
        assert [d.lba for d in b.snapshot()] == [1]
        assert len(b) == 1

    def test_zero_size_rejected(self):
        b = StagingBuffer(capacity_bytes=4096)
        with pytest.raises(ConfigError):
            b.put(1, 0)

    def test_tiny_capacity_rejected(self):
        with pytest.raises(ConfigError):
            StagingBuffer(capacity_bytes=4)


class TestMetadataBuffer:
    def entry(self, lba, state=PageState.CLEAN):
        return MappingEntry(lba_raid=lba, state=state, lba_daz=lba + 1000)

    def test_capacity_from_page_size(self):
        b = MetadataBuffer(page_size=4096, entry_bytes=12)
        assert b.capacity_entries == 341

    def test_put_and_coalesce(self):
        b = MetadataBuffer(page_size=64, entry_bytes=16)
        b.put(self.entry(1))
        b.put(self.entry(2))
        b.put(self.entry(1, PageState.FREE))
        assert len(b) == 2
        assert b.coalesced == 1
        assert b.get(1).state is PageState.FREE

    def test_full_rejects_new_keys_but_takes_updates(self):
        b = MetadataBuffer(page_size=32, entry_bytes=16)  # 2 entries
        b.put(self.entry(1))
        b.put(self.entry(2))
        assert b.full
        b.put(self.entry(2, PageState.OLD))  # coalesce is fine
        with pytest.raises(ConfigError):
            b.put(self.entry(3))

    def test_drain_preserves_insertion_order(self):
        b = MetadataBuffer(page_size=4096)
        for lba in (5, 3, 9):
            b.put(self.entry(lba))
        assert [e.lba_raid for e in b.drain()] == [5, 3, 9]
        assert len(b) == 0

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigError):
            MetadataBuffer(page_size=8, entry_bytes=16)


def _signature(cls):
    return [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]


class TestRecords:
    """Field names, order, defaults, value equality and immutability of the
    NVRAM records; hot paths build them positionally."""

    def test_mapping_entry_fields(self):
        empty = inspect.Parameter.empty
        assert _signature(MappingEntry) == [
            ("lba_raid", empty), ("state", empty), ("lba_daz", -1),
            ("lba_dez", -1), ("dez_off", -1), ("dez_len", -1),
        ]
        assert MappingEntry.FLASH_BYTES == 12

    def test_mapping_entry_positional_defaults(self):
        e = MappingEntry(5, PageState.FREE)
        assert e == MappingEntry(lba_raid=5, state=PageState.FREE)
        assert (e.lba_daz, e.lba_dez, e.dez_off, e.dez_len) == (-1, -1, -1, -1)
        old = MappingEntry(5, PageState.OLD, 70, 80, 8, 100)
        assert old == MappingEntry(lba_raid=5, state=PageState.OLD, lba_daz=70,
                                   lba_dez=80, dez_off=8, dez_len=100)
        assert old != e

    def test_mapping_entry_is_immutable(self):
        e = MappingEntry(5, PageState.CLEAN, 7)
        with pytest.raises(AttributeError):
            e.state = PageState.FREE
        assert e.state is PageState.CLEAN

    def test_staged_delta_fields(self):
        empty = inspect.Parameter.empty
        assert _signature(StagedDelta) == [
            ("lba", empty), ("size", empty), ("payload", None),
        ]
        d = StagedDelta(3, 100)
        assert d == StagedDelta(lba=3, size=100, payload=None)
        assert d != StagedDelta(3, 101)
        with pytest.raises(AttributeError):
            d.size = 5
