"""Nossd: the RAID array without any SSD cache (prototype baseline)."""

from __future__ import annotations

from .base import CachePolicy, Outcome


class Nossd(CachePolicy):
    """Every access goes straight to the RAID array."""

    name = "nossd"

    def read(self, lba: int) -> Outcome:
        self.stats.read_misses += 1
        return Outcome(hit=False, is_read=True, fg_disk_ops=self.io.read(lba))

    def write(self, lba: int) -> Outcome:
        self.stats.write_misses += 1
        return Outcome(hit=False, is_read=False, fg_disk_ops=self.io.write(lba))
