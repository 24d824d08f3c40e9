"""NVRAM metadata buffer: the staging area for mapping entries.

New/changed mapping entries accumulate here and are committed to the
on-flash metadata log one full page at a time (Section III-B).  Write
coalescing applies: a newer entry for the same DAZ page overwrites the
buffered one (Section III-C), so bursts of updates to a hot page cost
one log slot.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from ..errors import ConfigError


class PageState(Enum):
    """States a cache page can be in (Section III-B)."""

    FREE = "free"
    CLEAN = "clean"
    OLD = "old"
    DELTA = "delta"
    DIRTY = "dirty"  # write-back baseline only; not used by KDD

    # Members are singletons and equality is identity, so the identity
    # hash is exact; Enum.__hash__ is a Python-level call and state
    # lookups sit on the per-access hot path.  No code iterates a *set*
    # of states (dicts keep insertion order), so run-to-run determinism
    # is unaffected.
    __hash__ = object.__hash__


# The members the per-access paths use, as module globals for them to
# import: on CPython 3.11 a global load is cheaper than ``PageState.X``,
# which goes through the enum metaclass's attribute lookup on every use.
FREE = PageState.FREE
CLEAN = PageState.CLEAN
OLD = PageState.OLD
DELTA = PageState.DELTA


class MappingEntry(NamedTuple):
    """One persistent mapping entry (the fields of Figure 3).

    ``lba_raid`` keys the entry; ``lba_daz`` is the SSD page holding the
    data; for OLD pages the ``(lba_dez, dez_off, dez_len)`` tuple points
    at the associated delta (-1 while it still sits in NVRAM).  A
    ``NamedTuple``: immutable, compared by value, and several times
    cheaper to build than a frozen dataclass — about one is built per
    access.
    """

    lba_raid: int
    state: PageState
    lba_daz: int = -1
    lba_dez: int = -1
    dez_off: int = -1
    dez_len: int = -1

    #: On-flash footprint: state (1) + two LBAs (4+4) + (off,len) (3).
    FLASH_BYTES = 12


class MetadataBuffer:
    """Mapping-entry accumulator sized to one flash page."""

    def __init__(self, page_size: int = 4096,
                 entry_bytes: int = MappingEntry.FLASH_BYTES) -> None:
        if entry_bytes < 1 or page_size < entry_bytes:
            raise ConfigError("page must hold at least one entry")
        self.capacity_entries = page_size // entry_bytes
        # Insertion-ordered; a coalescing put re-inserts at the end.
        self._entries: dict[int, MappingEntry] = {}
        self.coalesced = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, lba_raid: int) -> bool:
        return lba_raid in self._entries

    def get(self, lba_raid: int) -> MappingEntry | None:
        return self._entries.get(lba_raid)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity_entries

    def put(self, entry: MappingEntry) -> None:
        """Buffer an entry, coalescing with any pending one for the page."""
        entries = self._entries
        lba_raid = entry.lba_raid
        if lba_raid in entries:
            self.coalesced += 1
            del entries[lba_raid]
        elif len(entries) >= self.capacity_entries:
            raise ConfigError("metadata buffer full; commit a page first")
        entries[lba_raid] = entry

    def drain(self) -> list[MappingEntry]:
        """Remove and return all buffered entries (one page's worth)."""
        out = list(self._entries.values())
        self._entries.clear()
        return out

    def snapshot(self) -> list[MappingEntry]:
        """Non-destructive copy (what survives a power failure)."""
        return list(self._entries.values())
