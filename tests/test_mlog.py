"""Tests for the circular persistent metadata log."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.mlog import MetadataLog
from repro.errors import ConfigError, RecoveryError
from repro.nvram import MappingEntry, PageState


def make_log(capacity=8, entries_per_page=4, gc_threshold=0.9):
    # page_size/entry_bytes chooses entries per page
    return MetadataLog(
        None,
        base_lpn=0,
        capacity_pages=capacity,
        entry_bytes=16,
        gc_threshold=gc_threshold,
        page_size=16 * entries_per_page,
    )


def clean(lba):
    return MappingEntry(lba_raid=lba, state=PageState.CLEAN, lba_daz=lba)


def free(lba):
    return MappingEntry(lba_raid=lba, state=PageState.FREE)


def test_buffered_entries_commit_per_page():
    log = make_log(entries_per_page=4)
    for lba in range(4):
        log.record(clean(lba))
    assert log.meta_page_writes == 0  # buffer holds exactly one page
    log.record(clean(4))
    assert log.meta_page_writes == 1
    assert log.used_pages == 1


class _OrderShim:
    """Records the order of the log's crash-point announcements."""

    def __init__(self):
        self.events = []

    def point(self, kind, **ctx):
        self.events.append((kind, ctx))

    def flash_point(self, kind, log, seq, entries):
        self.events.append((kind, {"seq": seq, "n": len(entries)}))


@pytest.mark.parametrize("lba", [9, 2], ids=["new-lba", "buffered-lba"])
def test_record_into_full_buffer_commits_one_page_before_the_put(lba):
    """A full buffer is committed before the put, even when the entry
    could coalesce with one already buffered: exactly one page program,
    then the ``meta_put``, into an empty buffer."""
    log = make_log(entries_per_page=4)
    for i in range(4):
        log.record(clean(i))
    assert log.buffer.full
    shim = _OrderShim()
    log.shim = shim
    log.record(free(lba))
    assert shim.events == [
        ("mlog_commit", {"seq": 0, "n": 4}),
        ("meta_put", {"lba": lba}),
    ]
    assert log.meta_page_writes == 1
    assert log.buffer.coalesced == 0
    assert log.buffer.snapshot() == [free(lba)]


def test_coalescing_in_buffer_saves_writes():
    log = make_log(entries_per_page=4)
    for _ in range(20):
        log.record(clean(7))  # same page over and over
    assert log.meta_page_writes == 0


def test_replay_returns_latest_entry_per_page():
    log = make_log(entries_per_page=2)
    log.record(clean(1))
    log.record(clean(2))
    log.record(free(1))
    log.record(clean(3))
    log.commit()
    mapping = log.replay()
    assert mapping[1].state is PageState.FREE
    assert mapping[2].state is PageState.CLEAN
    assert mapping[3].state is PageState.CLEAN


def test_replay_plus_buffer_equals_full_state():
    log = make_log(entries_per_page=2)
    log.record(clean(1))
    log.record(clean(2))
    log.record(clean(3))  # 1,2 committed; 3 still buffered
    mapping = log.replay()
    assert 3 not in mapping
    for e in log.buffer.snapshot():
        mapping[e.lba_raid] = e
    assert mapping[3].state is PageState.CLEAN


def test_gc_relocates_live_entries():
    log = make_log(capacity=8, entries_per_page=2, gc_threshold=0.5)
    # one cold entry written once, then churn over hot entries: GC must
    # relocate the cold entry when its page reaches the head
    log.record(clean(100))
    for i in range(40):
        log.record(clean(i % 3))
    log.commit()
    log.check_invariants()
    assert log.gc_pages_reclaimed > 0
    assert log.gc_entries_relocated > 0
    mapping = log.replay()
    for e in log.buffer.snapshot():
        mapping[e.lba_raid] = e
    live = {lba for lba, e in mapping.items() if e.state is not PageState.FREE}
    assert live == {0, 1, 2, 100}


def test_free_tombstones_are_dropped_at_gc():
    """Regression test: tombstones must not accumulate until the log
    livelocks at 100% liveness."""
    log = make_log(capacity=6, entries_per_page=4, gc_threshold=0.8)
    # cache churn: allocate + free thousands of distinct pages
    for lba in range(3000):
        log.record(clean(lba))
        log.record(free(lba))
    log.commit()
    log.check_invariants()
    mapping = log.replay()
    for e in log.buffer.snapshot():
        mapping[e.lba_raid] = e
    assert all(e.state is PageState.FREE for e in mapping.values())


def test_log_too_small_for_live_set_raises():
    log = make_log(capacity=4, entries_per_page=2)
    with pytest.raises(RecoveryError):
        for lba in range(200):
            log.record(clean(lba))  # 200 live entries >> 8 slots


def test_utilisation_stays_under_threshold_after_commit():
    log = make_log(capacity=10, entries_per_page=2, gc_threshold=0.6)
    for lba in range(10):
        log.record(clean(lba % 5))
    log.commit()
    assert log.utilisation <= 0.6 + 1e-9


def test_head_tail_monotonic():
    log = make_log(capacity=4, entries_per_page=2)
    for lba in range(16):
        log.record(clean(lba % 3))
    assert 0 <= log.head <= log.tail
    assert log.used_pages <= 4


def test_capacity_validation():
    with pytest.raises(ConfigError):
        make_log(capacity=2)
    with pytest.raises(ConfigError):
        MetadataLog(None, 0, 8, gc_threshold=0.3)


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 30)), min_size=1, max_size=400
    )
)
def test_property_replay_matches_reference(ops):
    """Replay + NVRAM buffer always equals a reference dict of the
    latest state per page."""
    log = make_log(capacity=8, entries_per_page=4, gc_threshold=0.9)
    reference: dict[int, PageState] = {}
    for is_free, lba in ops:
        entry = free(lba) if is_free else clean(lba)
        log.record(entry)
        reference[lba] = entry.state
    log.check_invariants()
    mapping = log.replay()
    for e in log.buffer.snapshot():
        mapping[e.lba_raid] = e
    recovered = {lba: e.state for lba, e in mapping.items()}
    # FREE pages may be absent entirely (dropped tombstones) — both mean free
    for lba, state in reference.items():
        if state is PageState.FREE:
            assert recovered.get(lba, PageState.FREE) is PageState.FREE
        else:
            assert recovered.get(lba) is state
