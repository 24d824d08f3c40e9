"""Write-through (WT) caching policy.

The production default the paper compares against: every write goes to
both the SSD cache and the RAID array (with a full parity update), so
an SSD failure loses nothing — but every small write still pays the
RAID-5 read-modify-write penalty, and the cache absorbs the full write
stream (bad for flash endurance).
"""

from __future__ import annotations

from ..nvram.metabuffer import CLEAN
from .base import Outcome
from .common import SetAssocPolicy


class WriteThrough(SetAssocPolicy):
    """Write-allocate, write-through; all pages are clean."""

    name = "wt"

    def write(self, lba: int) -> Outcome:
        disk_ops = self.io.write(lba)
        line = self.sets.lookup(lba)
        if line is not None:
            self.stats.write_hits += 1
            self.sets.touch(lba)
            self.admission.on_cache_hit(lba)
            # overwrite the cached copy in place (same SSD logical page)
            self._ssd_write(self._data_lpn(line), "data")
            return Outcome(
                hit=True, is_read=False, fg_disk_ops=disk_ops, bg_ssd_writes=1
            )
        self.stats.write_misses += 1
        out = Outcome(hit=False, is_read=False, fg_disk_ops=disk_ops)
        line = self._admit_and_alloc(lba, CLEAN)
        if line is not None:
            self._on_line_allocated(line, "data")
            out.bg_ssd_writes += 1
        return out
