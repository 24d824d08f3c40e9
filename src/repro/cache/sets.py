"""N-way set-associative cache space management (Section III-B).

The SSD cache is divided into sets of ``ways`` page slots.  DAZ pages
are placed by hashing their *stripe group* (so pages of the same parity
stripe share a set and can be reclaimed together), and looked up per
set with LRU ordering.  DEZ pages are not address-indexed: they are
allocated on demand from whichever set currently holds the fewest DEZ
pages, spreading delta pages evenly across the cache.

Slots map 1:1 to SSD logical pages: ``lpn = data_base + set*ways + slot``,
which is how cache decisions turn into flash traffic.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..contracts import columnar
from ..errors import CacheError, ConfigError
from ..nvram.metabuffer import PageState

#: Knuth's multiplicative hash constant; scatters stripe groups over sets.
_HASH_MULT = 2654435761


@dataclass(slots=True)
class CacheLine:
    """One occupied DAZ slot."""

    lba: int
    slot: int
    set_idx: int
    state: PageState
    aux: Any = None  # policy-specific payload (delta location, twin page, ...)


class _CacheSet:
    __slots__ = ("free_slots", "entries", "dez_slots", "borrowed")

    def __init__(self, ways: int) -> None:
        self.free_slots: list[int] = list(range(ways - 1, -1, -1))
        self.entries: OrderedDict[int, CacheLine] = OrderedDict()
        self.dez_slots: set[int] = set()
        # slots lent out for secondary copies (LeavO's latest versions)
        self.borrowed: set[int] = set()


class CacheSets:
    """The cache space: DAZ lines + DEZ slots over fixed page slots."""

    def __init__(
        self,
        cache_pages: int,
        ways: int = 64,
        group_pages: int = 64,
    ) -> None:
        if cache_pages < 1 or ways < 1:
            raise ConfigError("cache_pages and ways must be >= 1")
        if group_pages < 1:
            raise ConfigError("group_pages must be >= 1")
        self.ways = min(ways, cache_pages)
        self.n_sets = max(1, cache_pages // self.ways)
        self.group_pages = group_pages
        self._sets = [_CacheSet(self.ways) for _ in range(self.n_sets)]
        self._index: dict[int, CacheLine] = {}  # lba -> line (the residency map)
        self._state_counts = {s: 0 for s in PageState}

    # -- placement ----------------------------------------------------------

    @property
    def capacity_pages(self) -> int:
        return self.n_sets * self.ways

    def set_of(self, lba: int) -> int:
        """Cache set for a DAZ page: hash of its stripe group."""
        group = lba // self.group_pages
        return (group * _HASH_MULT) % self.n_sets

    #: Largest lba whose set hash fits :meth:`set_of_batch`'s int64
    #: arithmetic for any group_pages >= 1 (group <= lba); callers use the
    #: scalar :meth:`set_of` past it.
    MAX_VECTOR_LBA = (2**62) // _HASH_MULT

    @columnar(
        dtypes={"lbas": "int64|uint64", "return": "int64"},
        shapes={"lbas": "(n,)", "return": "(n,)"},
    )
    def set_of_batch(self, lbas: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`set_of` for an int64 address batch."""
        return ((lbas // self.group_pages) * _HASH_MULT) % self.n_sets

    @columnar(
        dtypes={"lbas": "int64|uint64", "return": "bool"},
        shapes={"lbas": "(n,)", "return": "(n,)"},
    )
    def classify(self, lbas: np.ndarray) -> np.ndarray:
        """Batched hit/miss classification against the DAZ directory.

        Returns a boolean array: True where the address was resident at
        call time; any later alloc/remove invalidates it for the
        addresses that moved.
        """
        hits = map(self._index.__contains__, lbas.tolist())
        return np.fromiter(hits, bool, len(lbas))

    def resident_in_range(self, start: int, stop: int) -> list[int]:
        """Ascending resident lbas in ``[start, stop)``: one index probe
        per address (stripe cleaners ask for a whole stripe)."""
        return list(filter(self._index.__contains__, range(start, stop)))

    def lpn_of(self, set_idx: int, slot: int) -> int:
        """SSD logical page backing a slot (relative to the data partition)."""
        return set_idx * self.ways + slot

    # -- DAZ lines ---------------------------------------------------------

    def lookup(self, lba: int) -> CacheLine | None:
        return self._index.get(lba)

    def __contains__(self, lba: int) -> bool:
        return lba in self._index

    def __len__(self) -> int:
        return len(self._index)

    def touch(self, lba: int) -> None:
        """Move a line to the MRU end of its set's LRU list."""
        line = self._index[lba]
        self._sets[line.set_idx].entries.move_to_end(lba)

    @columnar(dtypes={"lbas": "list[int]"})
    def touch_many(self, lbas: Iterable[int]) -> None:
        """:meth:`touch` a batch of resident lines, in order."""
        index = self._index
        sets = self._sets
        for lba in lbas:
            sets[index[lba].set_idx].entries.move_to_end(lba)

    def alloc(self, lba: int, state: PageState, aux: Any = None) -> CacheLine | None:
        """Allocate a DAZ line; returns None if the set has no free slot."""
        if lba in self._index:
            raise CacheError(f"page {lba} already cached")
        set_idx = self.set_of(lba)
        cset = self._sets[set_idx]
        if not cset.free_slots:
            return None
        slot = cset.free_slots.pop()
        line = CacheLine(lba, slot, set_idx, state, aux)
        cset.entries[lba] = line
        self._index[lba] = line
        self._state_counts[state] += 1
        return line

    def set_state(self, lba: int, state: PageState) -> CacheLine:
        line = self._index[lba]
        self._state_counts[line.state] -= 1
        line.state = state
        self._state_counts[state] += 1
        return line

    def remove(self, lba: int) -> CacheLine:
        """Free a DAZ line and its slot."""
        line = self._index.pop(lba, None)
        if line is None:
            raise CacheError(f"page {lba} not cached")
        cset = self._sets[line.set_idx]
        del cset.entries[lba]
        cset.free_slots.append(line.slot)
        self._state_counts[line.state] -= 1
        return line

    def evict_candidate(
        self, set_idx: int, states: Iterable[PageState] = (PageState.CLEAN,)
    ) -> CacheLine | None:
        """LRU-most line of the set whose state is evictable."""
        states = tuple(states)
        if len(states) == 1:
            want = states[0]
            for line in self._sets[set_idx].entries.values():  # LRU -> MRU
                if line.state is want:
                    return line
            return None
        wanted = set(states)
        for line in self._sets[set_idx].entries.values():  # LRU -> MRU order
            if line.state in wanted:
                return line
        return None

    def lines_in_set(self, set_idx: int) -> Iterator[CacheLine]:
        return iter(self._sets[set_idx].entries.values())

    def all_lines(self) -> Iterator[CacheLine]:
        return iter(self._index.values())

    def count(self, state: PageState) -> int:
        return self._state_counts[state]

    # -- borrowed slots (secondary copies, e.g. LeavO latest versions) -------

    @property
    def borrowed_slots(self) -> int:
        return sum(len(s.borrowed) for s in self._sets)

    def borrow_slot(self, set_idx: int) -> int | None:
        """Take a free slot for an unindexed secondary copy."""
        cset = self._sets[set_idx]
        if not cset.free_slots:
            return None
        slot = cset.free_slots.pop()
        cset.borrowed.add(slot)
        return slot

    def release_slot(self, set_idx: int, slot: int) -> None:
        """Return a borrowed slot to the free pool."""
        cset = self._sets[set_idx]
        if slot not in cset.borrowed:
            raise CacheError(f"slot {slot} of set {set_idx} is not borrowed")
        cset.borrowed.remove(slot)
        cset.free_slots.append(slot)

    def adopt_borrowed(self, lba: int, borrowed_slot: int) -> int:
        """Make a borrowed slot the line's primary slot, freeing the old one.

        Used by LeavO cleaning: the latest-version copy becomes the
        (clean) cached page and the old-version slot is reclaimed.
        Returns the freed slot.
        """
        line = self._index[lba]
        cset = self._sets[line.set_idx]
        if borrowed_slot not in cset.borrowed:
            raise CacheError(f"slot {borrowed_slot} is not borrowed")
        cset.borrowed.remove(borrowed_slot)
        freed = line.slot
        cset.free_slots.append(freed)
        line.slot = borrowed_slot
        return freed

    # -- DEZ slots -----------------------------------------------------------

    @property
    def dez_pages(self) -> int:
        return self._state_counts[PageState.DELTA]

    def dez_count(self, set_idx: int) -> int:
        return len(self._sets[set_idx].dez_slots)

    def has_free_slot(self, set_idx: int) -> bool:
        return bool(self._sets[set_idx].free_slots)

    def alloc_dez_at(self, set_idx: int) -> tuple[int, int] | None:
        """Allocate a DEZ slot in a specific set (random-placement ablation)."""
        cset = self._sets[set_idx]
        if not cset.free_slots:
            return None
        slot = cset.free_slots.pop()
        cset.dez_slots.add(slot)
        self._state_counts[PageState.DELTA] += 1
        return set_idx, slot

    def alloc_dez(self) -> tuple[int, int] | None:
        """Allocate a DEZ slot from the set with the fewest DEZ pages.

        Returns ``(set_idx, slot)`` or None when no set has a free slot
        (the caller evicts a clean page or triggers cleaning).  Ties go
        to the lowest set index.  The set count is small (tens), so a
        linear scan beats maintaining a priority queue under the churn
        of the commit path.
        """
        best = -1
        best_count = 0
        for set_idx, cset in enumerate(self._sets):
            if not cset.free_slots:
                continue
            count = len(cset.dez_slots)
            if best < 0 or count < best_count:
                best, best_count = set_idx, count
        if best < 0:
            return None
        return self.alloc_dez_at(best)

    def free_dez(self, set_idx: int, slot: int) -> None:
        cset = self._sets[set_idx]
        if slot not in cset.dez_slots:
            raise CacheError(f"slot {slot} of set {set_idx} is not a DEZ page")
        cset.dez_slots.remove(slot)
        cset.free_slots.append(slot)
        self._state_counts[PageState.DELTA] -= 1

    def min_dez_set_with_clean(self) -> CacheLine | None:
        """Fallback for DEZ allocation: the LRU clean line of the least-DEZ
        set that has one (linear scan; only hit when the cache is full)."""
        best: CacheLine | None = None
        best_count = -1
        for set_idx in range(self.n_sets):
            # check the (cheap) DEZ count before scanning the set's LRU
            # list: a set that cannot beat the current best is irrelevant
            count = len(self._sets[set_idx].dez_slots)
            if best is not None and count >= best_count:
                continue
            cand = self.evict_candidate(set_idx, (PageState.CLEAN,))
            if cand is None:
                continue
            best, best_count = cand, count
        return best

    # -- invariants ----------------------------------------------------------

    def check_invariants(self) -> None:
        for state, count in self._state_counts.items():
            if count < 0:
                raise CacheError(f"negative count for state {state}")
        total_lines = 0
        for i, cset in enumerate(self._sets):
            used = (
                len(cset.entries)
                + len(cset.dez_slots)
                + len(cset.free_slots)
                + len(cset.borrowed)
            )
            if used != self.ways:
                raise CacheError(f"set {i} slot accounting is off ({used} != {self.ways})")
            slots = (
                [l.slot for l in cset.entries.values()]
                + list(cset.dez_slots)
                + cset.free_slots
                + list(cset.borrowed)
            )
            if len(set(slots)) != self.ways:
                raise CacheError(f"set {i} has duplicate slots")
            total_lines += len(cset.entries)
        if total_lines != len(self._index):
            raise CacheError("index/set entry mismatch")
        if self.dez_pages != sum(len(s.dez_slots) for s in self._sets):
            raise CacheError("DEZ count mismatch")
        for lba, line in self._index.items():
            if self._sets[line.set_idx].entries.get(lba) is not line:
                raise CacheError(f"index entry for page {lba} is not its set's line")
