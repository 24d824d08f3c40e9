"""Circular persistent metadata log on SSD (Section III-B/C).

Mapping entries are accumulated in the NVRAM metadata buffer and
committed to flash one full page at a time, appended at the *tail* of a
fixed metadata partition managed as a circular log.  Garbage collection
is *oldest first*: the page at the *head* is reclaimed by re-inserting
its still-live entries into the buffer (they eventually re-commit at
the tail).  KDD keeps an in-memory list of live entries per metadata
page, so GC never reads flash.

The head and tail counters live in NVRAM; on power failure the mapping
is rebuilt by replaying the log pages from head to tail and then
overlaying the NVRAM buffers (Section III-E1).

Crash ordering
--------------

Flash page programs are the only operations that can tear; every NVRAM
word write is durable the instant it happens.  The protocol therefore
never lets a batch of entries exist *only* in the torn window:

* :meth:`commit` moves the drained batch to a ``_committing`` stack
  (still NVRAM) and advances ``tail`` *before* the page program; the
  batch is released only after the program completed.  Recovery overlays
  :meth:`nvram_entries` — committing batches plus the buffer — over the
  replayed pages, so a crash before, during (torn prefix), or after the
  program always recovers the full batch.
* :meth:`_reclaim_head` moves the reclaimed page's live entries into a
  ``_relocating`` NVRAM retention list in the same journaled step that
  advances ``head``; each entry is released only once its copy is back
  in the buffer, so mid-GC crashes lose nothing.
* :meth:`reserve` pre-commits until the buffer has room, letting callers
  group an NVRAM mutation with its mapping record into one journaled
  transaction with no flash program in between.

The crash harness (:mod:`repro.faults.crash`) enumerates a crash point
at each of these steps via the duck-typed ``shim`` attribute.
"""

from __future__ import annotations

from ..errors import ConfigError, RecoveryError
from ..flash.device import SSD
from ..nvram.metabuffer import MappingEntry, MetadataBuffer, PageState


class MetadataLog:
    """Persistent circular log of mapping entries, with oldest-first GC."""

    #: Crash-point shim (duck-typed, installed by ``repro.faults.crash``).
    shim = None

    def __init__(
        self,
        ssd: SSD | None,
        base_lpn: int,
        capacity_pages: int,
        entry_bytes: int = MappingEntry.FLASH_BYTES,
        gc_threshold: float = 0.9,
        page_size: int = 4096,
    ) -> None:
        if capacity_pages < 4:
            raise ConfigError("metadata partition needs at least 4 pages")
        if not 0.5 <= gc_threshold <= 1.0:
            raise ConfigError("gc_threshold must be in [0.5, 1.0]")
        self.ssd = ssd
        self.base_lpn = base_lpn
        self.capacity_pages = capacity_pages
        self.gc_threshold = gc_threshold
        if ssd is not None:
            page_size = ssd.page_size
        self.buffer = MetadataBuffer(page_size=page_size, entry_bytes=entry_bytes)

        # NVRAM counters: monotonically increasing page sequence numbers.
        self.head = 0
        self.tail = 0
        # NVRAM retention of batches whose page program is in flight
        # (a stack: commits nest through GC relocation).
        self._committing: list[list[MappingEntry]] = []
        # NVRAM retention of live entries leaving a reclaimed head page
        # but not yet re-buffered.
        self._relocating: list[MappingEntry] = []

        # In-memory bookkeeping (rebuilt on recovery):
        self._page_live: dict[int, dict[int, MappingEntry]] = {}
        self._location: dict[int, int] = {}  # lba_raid -> page seq of current entry
        # Simulated persisted page images (what a replay would read back).
        self._page_image: dict[int, list[MappingEntry]] = {}

        self.meta_page_writes = 0
        self.gc_pages_reclaimed = 0
        self.gc_entries_relocated = 0

    # -- queries ----------------------------------------------------------

    @property
    def used_pages(self) -> int:
        return self.tail - self.head

    @property
    def utilisation(self) -> float:
        return self.used_pages / self.capacity_pages

    def _lpn_of(self, seq: int) -> int:
        return self.base_lpn + seq % self.capacity_pages

    # -- the public recording interface -------------------------------------

    def record(self, entry: MappingEntry) -> None:
        """Buffer a new mapping entry; commits a page when the buffer fills.

        A full buffer is committed before the put even when the entry
        would coalesce with a buffered one for the same page.
        """
        lba_raid = entry.lba_raid
        # The current persisted entry for this page (if any) becomes dead.
        seq = self._location.pop(lba_raid, None)
        if seq is not None:
            live = self._page_live.get(seq)
            if live is not None:
                live.pop(lba_raid, None)
        buffer = self.buffer
        if buffer.full:
            self.reserve()
        if self.shim is not None:
            self.shim.point("meta_put", lba=lba_raid)
        buffer.put(entry)

    def reserve(self) -> None:
        """Commit pages until the NVRAM buffer has room for one entry.

        Callers that must pair a mapping record with other NVRAM writes
        in one journaled transaction reserve the room first, so the
        record itself can never trigger a flash program mid-transaction.
        """
        buffer = self.buffer
        if not buffer.full:
            return
        # A commit can refill the buffer with entries its GC relocates.
        for _ in range(2 * self.capacity_pages):
            self.commit()
            if not buffer.full:
                return
        raise RecoveryError("metadata partition too small for the live mapping")

    def commit(self) -> None:
        """Flush the metadata buffer to a new page at the tail of the log."""
        entries = self.buffer.drain()
        if not entries:
            return
        # Atomic NVRAM move: buffer -> committing retention.  The batch
        # stays crash-recoverable (see nvram_entries) until the page
        # program below has completed; on a simulated power failure the
        # stack is deliberately left as-is.
        self._committing.append(entries)
        self._make_room()
        seq = self.tail
        self.tail += 1
        if self.shim is not None:
            # One hook covers the before/torn/after phases of the page
            # program: the harness synthesises the torn prefix image.
            self.shim.flash_point("mlog_commit", self, seq, entries)
        if self.ssd is not None:
            self.ssd.write(self._lpn_of(seq))
        self.meta_page_writes += 1
        self._page_image[seq] = list(entries)
        # Program acknowledged: release the NVRAM retention.
        self._committing.pop()
        self._page_live[seq] = {e.lba_raid: e for e in entries}
        for e in entries:
            # A committed entry supersedes any older copy still sitting in a
            # previous page's live set (possible when the entry was buffered
            # while an even older one was being committed).
            old_seq = self._location.get(e.lba_raid)
            if old_seq is not None and old_seq != seq:
                old_live = self._page_live.get(old_seq)
                if old_live is not None:
                    old_live.pop(e.lba_raid, None)
            self._location[e.lba_raid] = seq
        self._gc_to_threshold()

    # -- garbage collection ----------------------------------------------------

    def _make_room(self) -> None:
        guard = 2 * self.capacity_pages
        while self.used_pages >= self.capacity_pages:
            if guard == 0:
                raise RecoveryError(
                    "metadata partition too small: the log is entirely live"
                )
            guard -= 1
            self._reclaim_head()

    def _gc_to_threshold(self) -> None:
        guard = 2 * self.capacity_pages
        while self.utilisation > self.gc_threshold and self.used_pages > 1:
            if guard == 0:
                raise RecoveryError("metadata log GC cannot reach threshold")
            guard -= 1
            self._reclaim_head()

    def _reclaim_head(self) -> None:
        """Oldest-first GC of one page: re-buffer its live entries.

        Crash-safe ordering: the page leaves the replay window (``head``
        advances) in the same journaled NVRAM step that moves its live
        entries into the ``_relocating`` retention list; each entry is
        released only after its copy is back in the buffer.  At every
        crash point a live entry is durable on its old page, in the
        retention list, or in the buffer — never nowhere.
        """
        seq = self.head
        live = self._page_live.pop(seq, {})
        keep = [e for e in live.values() if e.state is not PageState.FREE]
        if self.shim is not None:
            self.shim.point("gc_head_advance", seq=seq)
        self._relocating.extend(keep)
        self._page_image.pop(seq, None)
        self.head += 1
        self.gc_pages_reclaimed += 1
        for lba_raid, entry in live.items():
            # Invariant: entries in _page_live are current, so they cannot
            # collide with anything newer in the buffer.
            self._location.pop(lba_raid, None)
            if entry.state is PageState.FREE:
                # FREE tombstones guard against older entries for the same
                # page; once the tombstone reaches the log head, every older
                # entry has already been discarded, so it can be dropped
                # instead of relocated (otherwise tombstones accumulate and
                # the log livelocks at 100% liveness).
                continue
            self.gc_entries_relocated += 1
            while self.buffer.full:
                self.commit()
            if self.shim is not None:
                self.shim.point("gc_relocate", lba=lba_raid)
            self.buffer.put(entry)
            self._relocating.remove(entry)

    # -- recovery (Section III-E1) ---------------------------------------------

    def replay(self) -> dict[int, MappingEntry]:
        """Rebuild the mapping by reading the log head..tail in order.

        Returns the latest entry per storage page, exactly what a
        post-power-failure scan would produce (NVRAM buffers are overlaid
        by the caller).  A page whose program never completed reads back
        empty or as a prefix; the NVRAM overlay supersedes it.
        """
        mapping: dict[int, MappingEntry] = {}
        for seq in range(self.head, self.tail):
            for entry in self._page_image.get(seq, ()):
                mapping[entry.lba_raid] = entry
        return mapping

    def nvram_entries(self) -> list[MappingEntry]:
        """Every mapping entry currently held in NVRAM, oldest first.

        Relocating entries (mid-GC), then committing batches (drained
        from the buffer but whose page program has not been
        acknowledged), then the buffer — a dict overlay in that order
        keeps the newest copy.  The three regions never hold *different*
        entries for the same page (see the protocol notes above), so the
        order only matters for documentation.
        """
        out: list[MappingEntry] = list(self._relocating)
        for batch in self._committing:
            out.extend(batch)
        out.extend(self.buffer.snapshot())
        return out

    def check_invariants(self) -> None:
        """Bookkeeping consistency, used by the test suite."""
        if self._committing:
            raise RecoveryError("metadata page program left unacknowledged")
        if self._relocating:
            raise RecoveryError("GC relocation left entries in retention")
        for lba, seq in self._location.items():
            if not self.head <= seq < self.tail:
                raise RecoveryError(f"location of {lba} points outside the log")
            if lba not in self._page_live.get(seq, {}):
                raise RecoveryError(f"entry {lba} missing from its live page")
        for seq, live in self._page_live.items():
            for lba in live:
                if self._location.get(lba) != seq:
                    raise RecoveryError(f"live entry {lba} not indexed at {seq}")
