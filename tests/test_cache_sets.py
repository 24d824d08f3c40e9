"""Tests for the set-associative cache space."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.sets import CacheSets
from repro.errors import CacheError
from repro.nvram import PageState


def test_geometry():
    cs = CacheSets(cache_pages=256, ways=16)
    assert cs.n_sets == 16
    assert cs.capacity_pages == 256


def test_small_cache_clamps_ways():
    cs = CacheSets(cache_pages=8, ways=64)
    assert cs.ways == 8
    assert cs.n_sets == 1


def test_same_stripe_group_maps_to_same_set():
    cs = CacheSets(cache_pages=1024, ways=16, group_pages=64)
    assert cs.set_of(0) == cs.set_of(63)
    # different groups usually differ (hash scatter)
    assert len({cs.set_of(g * 64) for g in range(16)}) > 1


def test_alloc_lookup_remove():
    cs = CacheSets(cache_pages=64, ways=8)
    line = cs.alloc(5, PageState.CLEAN)
    assert line is not None
    assert cs.lookup(5) is line
    assert 5 in cs and len(cs) == 1
    assert cs.count(PageState.CLEAN) == 1
    cs.remove(5)
    assert cs.lookup(5) is None
    cs.check_invariants()


def test_double_alloc_rejected():
    cs = CacheSets(cache_pages=64, ways=8)
    cs.alloc(5, PageState.CLEAN)
    with pytest.raises(CacheError):
        cs.alloc(5, PageState.CLEAN)


def test_alloc_returns_none_when_set_full():
    cs = CacheSets(cache_pages=4, ways=4)  # one set
    for lba in range(4):
        assert cs.alloc(lba, PageState.CLEAN) is not None
    assert cs.alloc(99, PageState.CLEAN) is None


def test_lru_order_and_touch():
    cs = CacheSets(cache_pages=4, ways=4)
    for lba in range(3):
        cs.alloc(lba, PageState.CLEAN)
    cs.touch(0)  # 0 becomes MRU; LRU is now 1
    victim = cs.evict_candidate(0, (PageState.CLEAN,))
    assert victim.lba == 1


def test_evict_candidate_respects_state_filter():
    cs = CacheSets(cache_pages=4, ways=4)
    cs.alloc(0, PageState.OLD)
    cs.alloc(1, PageState.CLEAN)
    assert cs.evict_candidate(0, (PageState.CLEAN,)).lba == 1
    cs.set_state(1, PageState.OLD)
    assert cs.evict_candidate(0, (PageState.CLEAN,)) is None


def test_set_state_updates_counts():
    cs = CacheSets(cache_pages=8, ways=8)
    cs.alloc(1, PageState.CLEAN)
    cs.set_state(1, PageState.OLD)
    assert cs.count(PageState.CLEAN) == 0
    assert cs.count(PageState.OLD) == 1


def test_lpn_unique_per_slot():
    cs = CacheSets(cache_pages=64, ways=8)
    lpns = {cs.lpn_of(s, w) for s in range(cs.n_sets) for w in range(cs.ways)}
    assert len(lpns) == 64


class TestDez:
    def test_alloc_prefers_least_loaded_set(self):
        cs = CacheSets(cache_pages=32, ways=8)  # 4 sets
        locs = [cs.alloc_dez() for _ in range(8)]
        sets_used = [s for s, _ in locs]
        # even spread: every set got exactly 2
        assert sorted(sets_used) == [0, 0, 1, 1, 2, 2, 3, 3]
        assert cs.dez_pages == 8
        cs.check_invariants()

    def test_free_dez_returns_slot(self):
        cs = CacheSets(cache_pages=8, ways=8)
        s, slot = cs.alloc_dez()
        cs.free_dez(s, slot)
        assert cs.dez_pages == 0
        cs.check_invariants()

    def test_free_non_dez_rejected(self):
        cs = CacheSets(cache_pages=8, ways=8)
        with pytest.raises(CacheError):
            cs.free_dez(0, 0)

    def test_alloc_dez_skips_full_sets(self):
        cs = CacheSets(cache_pages=8, ways=4)  # 2 sets
        # fill set 0 with DAZ lines
        filled = 0
        lba = 0
        while filled < 4:
            if cs.set_of(lba) == 0:
                cs.alloc(lba, PageState.CLEAN)
                filled += 1
            lba += 1
        loc = cs.alloc_dez()
        assert loc is not None and loc[0] == 1

    def test_alloc_dez_none_when_everything_full(self):
        cs = CacheSets(cache_pages=4, ways=4)
        for _ in range(4):
            cs.alloc_dez()
        assert cs.alloc_dez() is None

    def test_alloc_dez_at_specific_set(self):
        cs = CacheSets(cache_pages=32, ways=8)
        loc = cs.alloc_dez_at(2)
        assert loc[0] == 2
        cs.check_invariants()


class TestBorrowed:
    def test_borrow_release(self):
        cs = CacheSets(cache_pages=8, ways=8)
        slot = cs.borrow_slot(0)
        assert slot is not None
        assert cs.borrowed_slots == 1
        cs.check_invariants()
        cs.release_slot(0, slot)
        assert cs.borrowed_slots == 0
        cs.check_invariants()

    def test_release_unborrowed_rejected(self):
        cs = CacheSets(cache_pages=8, ways=8)
        with pytest.raises(CacheError):
            cs.release_slot(0, 3)

    def test_adopt_borrowed_swaps_slots(self):
        cs = CacheSets(cache_pages=8, ways=8)
        line = cs.alloc(1, PageState.OLD)
        old_slot = line.slot
        twin = cs.borrow_slot(line.set_idx)
        freed = cs.adopt_borrowed(1, twin)
        assert freed == old_slot
        assert line.slot == twin
        assert cs.borrowed_slots == 0
        cs.check_invariants()


class TestMembership:
    """One residency map: lookups, batch classification and invariants
    all answer from the index."""

    def test_alloc_and_remove_update_index_and_classify(self):
        cs = CacheSets(cache_pages=8, ways=8)
        probe = np.array([1], dtype=np.int64)
        line = cs.alloc(1, PageState.CLEAN)
        assert cs.lookup(1) is line
        assert bool(cs.classify(probe)[0])
        cs.remove(1)
        assert cs.lookup(1) is None
        assert not bool(cs.classify(probe)[0])
        cs.check_invariants()

    def test_slot_moves_and_touches_keep_membership(self):
        # An adopt moves a resident lba to a new slot and a touch only
        # reorders the LRU list: the page stays resident in both views.
        cs = CacheSets(cache_pages=8, ways=8)
        line = cs.alloc(1, PageState.OLD)
        twin = cs.borrow_slot(line.set_idx)
        cs.touch(1)
        cs.adopt_borrowed(1, twin)
        assert cs.lookup(1) is line
        assert bool(cs.classify(np.array([1], dtype=np.int64))[0])
        cs.check_invariants()

    def test_line_missing_from_its_set_fails_invariants(self):
        cs = CacheSets(cache_pages=8, ways=8)
        line = cs.alloc(1, PageState.CLEAN)
        cs.alloc(2, PageState.CLEAN)
        cset = cs._sets[line.set_idx]
        # What a remove that forgot the index would leave behind.
        del cset.entries[1]
        cset.free_slots.append(line.slot)
        with pytest.raises(CacheError, match="index/set entry mismatch"):
            cs.check_invariants()
        # An equal but distinct line in the set is no better: the index
        # must hold the set's own line object.
        cset.free_slots.remove(line.slot)
        cset.entries[1] = dataclasses.replace(line)
        with pytest.raises(CacheError, match="is not its set's line"):
            cs.check_invariants()


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["a", "r", "t", "b"]), st.integers(0, 40)),
        max_size=120,
    )
)
def test_property_classify_matches_membership(ops):
    """Interleaved scalar writes and batch classification always agree.

    For any sequence of alloc/remove/touch/adopt operations ``classify``
    reports exactly the ground-truth membership at every step.
    """
    cs = CacheSets(cache_pages=32, ways=8)
    probe = np.arange(0, 41, dtype=np.int64)
    for kind, lba in ops:
        if kind == "a" and lba not in cs:
            cs.alloc(lba, PageState.CLEAN)  # None when the set is full
        elif kind == "r" and lba in cs:
            cs.remove(lba)
        elif kind == "t" and lba in cs:
            cs.touch(lba)
        elif kind == "b" and lba in cs:
            twin = cs.borrow_slot(cs.set_of(lba))
            if twin is not None:
                cs.adopt_borrowed(lba, twin)
        truth = np.array([p in cs for p in probe.tolist()])
        assert np.array_equal(cs.classify(probe), truth)
    cs.check_invariants()


@settings(max_examples=50, deadline=None)
@given(
    data=st.data(),
    group_pages=st.sampled_from([64, 512, 4096]),
)
def test_property_batch_paths_exact_above_2_31(data, group_pages):
    """``set_of_batch``/``classify`` agree with the scalar path for huge LBAs.

    The scalar hash runs in arbitrary-precision python ints while the
    batch path runs in int64; they must be bit-exact for every address
    the int64 hash can take — including addresses past 2**31, where a
    silent int32 narrowing anywhere in the columnar pipeline (the
    RPR301 hazard) would wrap and misplace pages.  ``MAX_VECTOR_LBA``
    is the conservative ``group_pages=1`` bound; the safe bound for a
    real geometry scales by ``group_pages``, which is what puts the
    probed range above 2**31.
    """
    bound = CacheSets.MAX_VECTOR_LBA * group_pages
    assert bound > 2**31
    lbas = data.draw(st.lists(
        st.integers(2**31, bound), min_size=1, max_size=40, unique=True,
    ))
    cs = CacheSets(cache_pages=256, ways=8, group_pages=group_pages)
    arr = np.array(lbas, dtype=np.int64)
    scalar_sets = np.array([cs.set_of(lba) for lba in lbas], dtype=np.int64)
    assert np.array_equal(cs.set_of_batch(arr), scalar_sets)
    for lba in lbas[: cs.ways]:
        cs.alloc(lba, PageState.CLEAN)  # distinct lbas; None if set full
    truth = np.array([lba in cs for lba in lbas])
    assert truth[0]  # the first alloc into an empty cache always lands
    assert np.array_equal(cs.classify(arr), truth)


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["a", "r", "d", "f"]), st.integers(0, 40)),
        max_size=200,
    )
)
def test_property_slot_accounting(ops):
    """Slots are conserved under any alloc/remove/dez sequence."""
    cs = CacheSets(cache_pages=32, ways=8)
    dez: list[tuple[int, int]] = []
    for kind, lba in ops:
        if kind == "a" and lba not in cs:
            cs.alloc(lba, PageState.CLEAN)
        elif kind == "r" and lba in cs:
            cs.remove(lba)
        elif kind == "d":
            loc = cs.alloc_dez()
            if loc:
                dez.append(loc)
        elif kind == "f" and dez:
            cs.free_dez(*dez.pop())
    cs.check_invariants()
