"""Classic small-write mitigations from the paper's related work (§V-A).

Implemented as alternative write paths over :class:`RAIDArray`, so the
benchmark harness can compare KDD against the pre-SSD-era answers to
the same problem:

* **Parity Logging** (Stodolsky et al., ISCA'93): a small write reads
  the old data, writes the new data, and appends the *parity update
  image* (old XOR new) to an NVRAM buffer that is flushed in large
  sequential writes to a dedicated log disk.  When the log region
  fills, all images are re-integrated into the parity with large
  sequential reads/writes.  Small-write cost drops from 2r+2w random
  I/Os to 1r+1w plus amortised sequential log traffic.

* **AFRAID** (Savage & Wilkes, ATC'96): writes update only the data
  block; affected stripes are marked non-redundant in NVRAM and their
  parity is recomputed during idle periods.  Fast, but the array is
  *not* always single-fault tolerant — the availability trade-off the
  paper contrasts KDD against (KDD keeps the recovery information in
  the SSD instead).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError, DegradedError
from .array import DiskOp, OpKind, RAIDArray
from .layout import RaidLevel


@dataclass
class SmallWriteCounters:
    """Traffic accounting for the alternative write paths."""

    data_reads: int = 0
    data_writes: int = 0
    log_writes: int = 0          # sequential log appends (pages)
    reintegration_ios: int = 0   # pages moved during parity reintegration
    parity_writes: int = 0

    @property
    def total(self) -> int:
        return (
            self.data_reads
            + self.data_writes
            + self.log_writes
            + self.reintegration_ios
            + self.parity_writes
        )


class ParityLoggingRaid:
    """RAID-5 with a parity update log on a dedicated log disk."""

    def __init__(
        self,
        array: RAIDArray,
        log_pages: int = 4096,
        nvram_pages: int = 64,
    ) -> None:
        if array.level is not RaidLevel.RAID5:
            raise ConfigError("parity logging is defined for RAID-5 here")
        if log_pages < nvram_pages or nvram_pages < 1:
            raise ConfigError("need log_pages >= nvram_pages >= 1")
        self.array = array
        self.log_pages = log_pages
        self.nvram_pages = nvram_pages
        #: the dedicated log disk gets the next member index
        self.log_disk = array.ndisks
        self.counters = SmallWriteCounters()
        self._nvram_images: list[int] = []   # lpages with buffered images
        self._log_used = 0
        self._logged_stripes: set[int] = set()
        self.reintegrations = 0

    def read(self, lpage: int, npages: int = 1) -> list[DiskOp]:
        return self.array.read(lpage, npages)

    def write(self, lpage: int) -> list[DiskOp]:
        """Small write: read old data, write new data, log the image."""
        loc = self.array.layout.locate(lpage)
        ops = [
            DiskOp(loc.disk, loc.disk_page, 1, True),
            DiskOp(loc.disk, loc.disk_page, 1, False),
        ]
        self.counters.data_reads += 1
        self.counters.data_writes += 1
        self.array.counters.account(ops)
        # the parity is now stale until reintegration
        self.array.stale_stripes.add(loc.stripe)
        self._logged_stripes.add(loc.stripe)
        self._nvram_images.append(lpage)
        if len(self._nvram_images) >= self.nvram_pages:
            ops += self._flush_nvram()
        return ops

    def _flush_nvram(self) -> list[DiskOp]:
        """One large sequential append of buffered parity update images."""
        n = len(self._nvram_images)
        if n == 0:
            return []
        op = DiskOp(self.log_disk, self._log_used, n, False)
        self.counters.log_writes += n
        self._log_used += n
        self._nvram_images.clear()
        if self._log_used >= self.log_pages:
            return [op] + self.reintegrate()
        return [op]

    def reintegrate(self) -> list[DiskOp]:
        """Apply all logged images to the parity with sequential I/O."""
        ops: list[DiskOp] = []
        if self._log_used:
            # sequential read of the whole log
            ops.append(DiskOp(self.log_disk, 0, self._log_used, True))
            self.counters.reintegration_ios += self._log_used
        for stripe in sorted(self._logged_stripes):
            p_disk = self.array.layout.parity_disk(stripe)
            assert p_disk is not None
            base = stripe * self.array.layout.chunk_pages
            chunk = self.array.layout.chunk_pages
            ops.append(DiskOp(p_disk, base, chunk, True, OpKind.PARITY))
            ops.append(DiskOp(p_disk, base, chunk, False, OpKind.PARITY))
            self.counters.reintegration_ios += chunk
            self.counters.parity_writes += chunk
            self.array.stale_stripes.discard(stripe)
        self._logged_stripes.clear()
        self._log_used = 0
        self.reintegrations += 1
        return ops

    def flush(self) -> list[DiskOp]:
        """Drain NVRAM and reintegrate everything (orderly shutdown)."""
        ops = self._flush_nvram()
        ops += self.reintegrate()
        return ops


class AfraidRaid:
    """AFRAID: frequently-redundant writes with idle-time parity repair."""

    def __init__(self, array: RAIDArray, max_unredundant_stripes: int = 128) -> None:
        if array.level is not RaidLevel.RAID5:
            raise ConfigError("AFRAID is defined for RAID-5 here")
        if max_unredundant_stripes < 1:
            raise ConfigError("max_unredundant_stripes must be >= 1")
        self.array = array
        self.max_unredundant = max_unredundant_stripes
        self.counters = SmallWriteCounters()
        self.idle_repairs = 0

    @property
    def window_of_vulnerability(self) -> int:
        """Stripes that would lose data if a disk failed right now."""
        return len(self.array.stale_stripes)

    def read(self, lpage: int, npages: int = 1) -> list[DiskOp]:
        return self.array.read(lpage, npages)

    def write(self, lpage: int) -> list[DiskOp]:
        """Data-only write; the stripe joins the NVRAM unredundant list."""
        ops = self.array.write_without_parity_update(lpage)
        self.counters.data_writes += 1
        if len(self.array.stale_stripes) > self.max_unredundant:
            ops = ops + self.idle_repair(len(self.array.stale_stripes) // 2)
        return ops

    def idle_repair(self, max_stripes: int | None = None) -> list[DiskOp]:
        """Recompute parity for pending stripes (the idle-period task)."""
        ops: list[DiskOp] = []
        stripes = sorted(self.array.stale_stripes)
        if max_stripes is not None:
            stripes = stripes[:max_stripes]
        for stripe in stripes:
            stripe_ops = self.array.parity_update(
                stripe, cached_pages=list(self.array.layout.stripe_pages(stripe))
            )
            # reconstruct-write needs the data blocks read back in
            for lpage in self.array.layout.stripe_pages(stripe):
                loc = self.array.layout.locate(lpage)
                if loc.disk in self.array.failed_disks:
                    raise DegradedError(
                        "AFRAID cannot repair parity with a failed disk: "
                        "this is precisely its data-loss window"
                    )
                stripe_ops.append(DiskOp(loc.disk, loc.disk_page, 1, True))
                self.counters.reintegration_ios += 1
            for op in stripe_ops:
                if op.kind in (OpKind.PARITY, OpKind.Q_PARITY) and not op.is_read:
                    self.counters.parity_writes += op.npages
            ops += stripe_ops
        self.idle_repairs += 1
        return ops

    def flush(self) -> list[DiskOp]:
        return self.idle_repair()
