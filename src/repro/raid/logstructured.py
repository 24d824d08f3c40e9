"""Log-structured RAID writes (Dynamic Striping, related work §V-A).

Mogi & Kitsuregawa's dynamic striping — and LFS-style RAID generally —
eliminates the small-write problem by *never updating in place*: dirty
pages accumulate in an NVRAM buffer until a whole stripe's worth
exists, then one full-stripe write (data + freshly computed parity)
goes out with **zero** pre-reads.  The cost moves to segment cleaning:
overwritten pages leave holes in old stripes, and live pages must be
relocated before a stripe can be reused.

This is the third small-write answer the harness compares with KDD
(besides Parity Logging and AFRAID): it wins on write cost at low space
utilisation and pays increasing cleaning overhead as the array fills —
the classic LFS trade-off, which the tests pin down.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..errors import CapacityError, ConfigError
from .array import DiskOp, OpKind, RAIDArray
from .layout import RaidLevel

FREE = -1


class LogStructuredRaid:
    """RAID-5 with out-of-place full-stripe writes and segment cleaning."""

    #: Free stripes the cleaner keeps after each full-stripe write.
    GC_FREE_STRIPES = 2

    def __init__(
        self,
        array: RAIDArray,
        reserve_stripes: int | None = None,
    ) -> None:
        if array.level is not RaidLevel.RAID5:
            raise ConfigError("log-structured writes implemented for RAID-5")
        layout = array.layout
        assert layout.pages_per_disk is not None
        self.array = array
        self.layout = layout
        self.stripe_pages = layout.stripe_data_pages
        self.total_stripes = layout.pages_per_disk // layout.chunk_pages
        if reserve_stripes is None:
            reserve_stripes = max(2, self.total_stripes // 8)
        if reserve_stripes + self.GC_FREE_STRIPES >= self.total_stripes:
            raise ConfigError("array too small for the requested reserve")
        self.reserve_stripes = reserve_stripes
        #: logical capacity exposed to callers (pages)
        self.exported_pages = (self.total_stripes - reserve_stripes) * self.stripe_pages

        # logical page -> physical slot (stripe * stripe_pages + index)
        self._l2p = np.full(self.exported_pages, FREE, dtype=np.int64)
        self._p2l = np.full(self.total_stripes * self.stripe_pages, FREE, dtype=np.int64)
        self._valid = np.zeros(self.total_stripes, dtype=np.int32)
        self._sealed = np.zeros(self.total_stripes, dtype=bool)
        self._free: deque[int] = deque(range(self.total_stripes))
        self._open_stripe = self._free.popleft()
        self._nvram_pages: list[int] = []  # logical pages buffered for the open stripe

        self.full_stripe_writes = 0
        self.gc_relocations = 0
        self.gc_runs = 0
        self.host_writes = 0
        self.host_reads = 0

    # -- address helpers ---------------------------------------------------

    def _check(self, lpage: int) -> None:
        if not 0 <= lpage < self.exported_pages:
            raise CapacityError(f"logical page {lpage} out of range")

    def _slot_location(self, slot: int) -> tuple[int, int, int]:
        """(stripe, member disk, disk page) of a physical slot."""
        stripe, index = divmod(slot, self.stripe_pages)
        chunk, offset = divmod(index, self.layout.chunk_pages)
        disk = self.layout.data_disk(stripe, chunk)
        disk_page = stripe * self.layout.chunk_pages + offset
        return stripe, disk, disk_page

    @property
    def free_stripes(self) -> int:
        return len(self._free)

    @property
    def space_utilisation(self) -> float:
        mapped = int((self._l2p != FREE).sum()) + len(self._nvram_pages)
        return mapped / (self.total_stripes * self.stripe_pages)

    @property
    def write_amplification(self) -> float:
        if self.host_writes == 0:
            return 1.0
        return (self.host_writes + self.gc_relocations) / self.host_writes

    # -- host operations -----------------------------------------------------

    def read(self, lpage: int) -> list[DiskOp]:
        """One member read (or an NVRAM hit for pages in the open stripe)."""
        self._check(lpage)
        self.host_reads += 1
        if lpage in self._nvram_pages:
            return []  # still buffered in NVRAM
        slot = int(self._l2p[lpage])
        if slot == FREE:
            # never written: read the zeroed home location (plain mapping)
            loc = self.layout.locate(lpage)
            ops = [DiskOp(loc.disk, loc.disk_page, 1, True)]
        else:
            _, disk, disk_page = self._slot_location(slot)
            ops = [DiskOp(disk, disk_page, 1, True)]
        self.array.counters.account(ops)
        return ops

    def write(self, lpage: int) -> list[DiskOp]:
        """Append to the open stripe; flushes a full stripe when ready."""
        self._check(lpage)
        self.host_writes += 1
        self._invalidate(lpage)
        if lpage in self._nvram_pages:
            # overwrite within NVRAM: pure coalescing, no I/O
            return []
        self._nvram_pages.append(lpage)
        ops: list[DiskOp] = []
        if len(self._nvram_pages) >= self.stripe_pages:
            ops = self._flush_open_stripe()
        return ops

    def _invalidate(self, lpage: int) -> None:
        slot = int(self._l2p[lpage])
        if slot == FREE:
            return
        stripe = slot // self.stripe_pages
        self._p2l[slot] = FREE
        self._l2p[lpage] = FREE
        self._valid[stripe] -= 1

    def _flush_open_stripe(self) -> list[DiskOp]:
        """One full-stripe write: data chunks + parity, no pre-reads."""
        stripe = self._open_stripe
        base = stripe * self.stripe_pages
        for i, lpage in enumerate(self._nvram_pages):
            slot = base + i
            self._l2p[lpage] = slot
            self._p2l[slot] = lpage
        self._valid[stripe] = len(self._nvram_pages)
        self._sealed[stripe] = True
        self._nvram_pages = []

        ops: list[DiskOp] = []
        chunk = self.layout.chunk_pages
        for c in range(self.layout.data_disks_per_stripe):
            disk = self.layout.data_disk(stripe, c)
            ops.append(DiskOp(disk, stripe * chunk, chunk, False))
        p_disk = self.layout.parity_disk(stripe)
        assert p_disk is not None
        ops.append(DiskOp(p_disk, stripe * chunk, chunk, False, OpKind.PARITY))
        self.array.counters.account(ops)
        self.full_stripe_writes += 1

        self._open_next_stripe()
        while self.free_stripes < self.GC_FREE_STRIPES:
            more = self._clean_once()
            if more is None:
                break
            ops += more
        return ops

    def _open_next_stripe(self) -> None:
        if not self._free:
            raise CapacityError("log-structured array out of free stripes")
        self._open_stripe = self._free.popleft()
        self._sealed[self._open_stripe] = False

    def _clean_once(self) -> list[DiskOp] | None:
        """Relocate the live pages of the emptiest sealed stripe."""
        candidates = np.flatnonzero(self._sealed)
        candidates = candidates[candidates != self._open_stripe]
        if candidates.size == 0:
            return None
        victim = int(candidates[np.argmin(self._valid[candidates])])
        if self._valid[victim] >= self.stripe_pages:
            return None  # everything fully live: no space reclaimable
        ops: list[DiskOp] = []
        base = victim * self.stripe_pages
        live = [
            int(self._p2l[slot])
            for slot in range(base, base + self.stripe_pages)
            if self._p2l[slot] != FREE
        ]
        for lpage in live:
            _, disk, disk_page = self._slot_location(int(self._l2p[lpage]))
            ops.append(DiskOp(disk, disk_page, 1, True))
            self._invalidate(lpage)
            self.gc_relocations += 1
            if lpage in self._nvram_pages:
                continue
            self._nvram_pages.append(lpage)
            if len(self._nvram_pages) >= self.stripe_pages:
                ops += self._flush_open_stripe()
        self.array.counters.account(op for op in ops if op.is_read)
        self._sealed[victim] = False
        self._valid[victim] = 0
        self._free.append(victim)
        self.gc_runs += 1
        return ops

    def flush(self) -> list[DiskOp]:
        """Force out a partial stripe (short segment), e.g. at shutdown."""
        if not self._nvram_pages:
            return []
        return self._flush_open_stripe()

    def check_invariants(self) -> None:
        mapped = self._l2p[self._l2p != FREE]
        if len(np.unique(mapped)) != len(mapped):
            raise ConfigError("two logical pages share a physical slot")
        for lpage in range(self.exported_pages):
            slot = int(self._l2p[lpage])
            if slot != FREE and self._p2l[slot] != lpage:
                raise ConfigError(f"l2p/p2l mismatch at {lpage}")
        per_stripe = np.bincount(
            mapped // self.stripe_pages, minlength=self.total_stripes
        )
        if not np.array_equal(per_stripe, np.maximum(self._valid, 0)):
            raise ConfigError("stripe valid counts inconsistent")
