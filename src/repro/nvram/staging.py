"""NVRAM staging buffer for freshly generated deltas.

Write hits produce deltas that are first accumulated in a small
battery-backed buffer managed FIFO (Section III-B).  Write coalescing
applies: only the newest delta per DAZ page is kept (Section III-C).
When the buffer cannot take the next delta, its contents are compacted
into a single DEZ page and committed to flash.

Crash durability: the buffer is NVRAM, so its contents survive power
loss and are overlaid onto the replayed metadata log during recovery
(Section III-E1).  A DEZ commit therefore must not *drain* the buffer
before the packed page is durable on flash — deltas are first moved to
a ``flushing`` region (still NVRAM, still part of :meth:`snapshot`) and
released one by one (:meth:`flush_done`) only after the corresponding
*old* mapping entry has reached the NVRAM metadata buffer.  The crash
harness (:mod:`repro.faults.crash`) enumerates a crash point before
every mutation of this buffer.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple

from ..delta.packer import DELTA_HEADER_BYTES
from ..errors import ConfigError


class StagedDelta(NamedTuple):
    """One delta waiting in NVRAM (immutable, compared by value)."""

    lba: int
    size: int
    payload: bytes | None = None


class StagingBuffer:
    """FIFO delta buffer with per-page coalescing and a flush region."""

    #: Crash-point shim (duck-typed, installed by ``repro.faults.crash``).
    shim = None

    def __init__(self, capacity_bytes: int = 4096) -> None:
        if capacity_bytes < DELTA_HEADER_BYTES + 1:
            raise ConfigError("staging buffer too small for any delta")
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[int, StagedDelta] = OrderedDict()
        #: Deltas handed to an in-progress DEZ commit but not yet durable
        #: anywhere else; still NVRAM-resident, still crash-surviving.
        self._flushing: OrderedDict[int, StagedDelta] = OrderedDict()
        self._used = 0
        self.coalesced = 0

    def __len__(self) -> int:
        return len(self._entries) + len(self._flushing)

    def __contains__(self, lba: int) -> bool:
        return lba in self._entries or lba in self._flushing

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def flushing_count(self) -> int:
        return len(self._flushing)

    def get(self, lba: int) -> StagedDelta | None:
        entry = self._entries.get(lba)
        if entry is not None:
            return entry
        return self._flushing.get(lba)

    def _footprint(self, size: int) -> int:
        return size + DELTA_HEADER_BYTES

    def fits(self, size: int) -> bool:
        """Would a new delta of ``size`` bytes fit right now?"""
        return self._used + self._footprint(size) <= self.capacity_bytes

    def would_fit_after_coalesce(self, lba: int, size: int) -> bool:
        used = self._used
        if lba in self._entries:
            used -= self._footprint(self._entries[lba].size)
        return used + self._footprint(size) <= self.capacity_bytes

    def put(self, lba: int, size: int, payload: bytes | None = None) -> None:
        """Insert/overwrite the delta for ``lba``.

        Coalescing is the atomic supersede: the previous delta for the
        page stays crash-recoverable until the very NVRAM write that
        installs its replacement.  Raises :class:`ConfigError` if it
        cannot fit — callers must commit a DEZ page first.
        """
        if size < 1:
            raise ConfigError("delta size must be >= 1 byte")
        entries = self._entries
        old = entries.get(lba)
        used = self._used + size + DELTA_HEADER_BYTES
        if old is not None:
            used -= old.size + DELTA_HEADER_BYTES
        if used > self.capacity_bytes:
            raise ConfigError("staging buffer full; drain before put")
        if self.shim is not None:
            self.shim.point("staging_put", lba=lba)
        if old is not None:
            del entries[lba]
            self.coalesced += 1
        entries[lba] = StagedDelta(lba, size, payload)
        self._used = used

    def remove(self, lba: int) -> bool:
        """Drop the delta for ``lba`` (invalidation); True if present."""
        old = self._entries.pop(lba, None)
        if old is not None:
            self._used -= self._footprint(old.size)
            return True
        return self._flushing.pop(lba, None) is not None

    def begin_flush(self, exclude: int | None = None) -> list[StagedDelta]:
        """Move the staged deltas into the flushing region.

        Returns them in FIFO order.  ``exclude`` keeps one page's delta
        staged (the write-hit path excludes the delta it is about to
        supersede, so it is never wastefully packed).  The move is pure
        NVRAM bookkeeping — nothing leaves the crash-surviving surface.
        """
        if self.shim is not None:
            self.shim.point("staging_flush", exclude=exclude)
        out: list[StagedDelta] = []
        for lba in list(self._entries):
            if lba == exclude:
                continue
            entry = self._entries.pop(lba)
            self._used -= self._footprint(entry.size)
            self._flushing[lba] = entry
            out.append(entry)
        return out

    def flush_done(self, lba: int) -> None:
        """Release one flushing delta: it is durable elsewhere now."""
        self._flushing.pop(lba, None)

    def drain(self) -> list[StagedDelta]:
        """Remove and return all staged deltas in FIFO order.

        Legacy destructive path (the byte-accurate prototype commits
        the packed page in one step); flushing entries come first.
        """
        out = list(self._flushing.values()) + list(self._entries.values())
        self._flushing.clear()
        self._entries.clear()
        self._used = 0
        return out

    def snapshot(self) -> list[StagedDelta]:
        """Non-destructive copy (what survives a power failure).

        Flushing entries first: a staged entry for the same page is
        newer, so dict-overlay order in recovery keeps the newest.
        """
        return list(self._flushing.values()) + list(self._entries.values())
