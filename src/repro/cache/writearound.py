"""Write-around (WA) caching policy.

Writes bypass the SSD entirely (only read misses allocate), which makes
WA the gentlest policy on flash endurance — the paper's lower bound for
cache write traffic — at the cost of never accelerating writes and
invalidating cached pages that get overwritten.
"""

from __future__ import annotations

from .base import Outcome
from .common import SetAssocPolicy


class WriteAround(SetAssocPolicy):
    """Allocate on read miss only; writes go around the cache."""

    name = "wa"

    def write(self, lba: int) -> Outcome:
        disk_ops = self.io.write(lba)
        line = self.sets.lookup(lba)
        if line is not None:
            # the cached copy is now stale: drop it
            self.stats.write_hits += 1
            self._drop_line(line)
        else:
            self.stats.write_misses += 1
        return Outcome(hit=line is not None, is_read=False, fg_disk_ops=disk_ops)
