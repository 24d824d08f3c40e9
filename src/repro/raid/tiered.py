"""Two-tier RAID-1/RAID-5 hierarchy (HotMirroring / AutoRAID, §V-A).

Mogi & Kitsuregawa's Hot Mirroring and HP's AutoRAID hide the small-
write penalty by *placement*: actively written (hot) data lives in a
mirrored tier where an update costs two plain writes, while inactive
(cold) data lives in space-efficient RAID-5.  Data migrates between the
tiers as its temperature changes — the cost that bounds the approach,
and the contrast with KDD, which leaves placement alone and absorbs the
penalty in the cache layer instead.

The mirror tier is modelled as a fixed-capacity region managed LRU by
write recency; promotions and demotions are accounted as real member
I/O on the respective arrays.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..errors import CacheError, ConfigError
from .array import DiskOp, RAIDArray
from .layout import RaidLevel


@dataclass
class TierCounters:
    """Migration and placement statistics."""

    mirror_writes: int = 0
    raid5_writes: int = 0
    promotions: int = 0
    demotions: int = 0

    @property
    def migrations(self) -> int:
        return self.promotions + self.demotions


class TieredRaid:
    """Hot data in RAID-1, cold data in RAID-5, write-recency migration."""

    def __init__(
        self,
        parity_array: RAIDArray,
        mirror_pages: int,
        promote_on_write: bool = True,
    ) -> None:
        if parity_array.level is not RaidLevel.RAID5:
            raise ConfigError("the cold tier must be RAID-5")
        if mirror_pages < 1:
            raise ConfigError("mirror tier needs at least one page")
        self.cold = parity_array
        self.mirror_capacity = mirror_pages
        self.hot = RAIDArray(
            RaidLevel.RAID1,
            ndisks=2,
            chunk_pages=parity_array.layout.chunk_pages,
            pages_per_disk=mirror_pages,
            page_size=parity_array.page_size,
        )
        self.promote_on_write = promote_on_write
        # lba -> mirror slot, in LRU order of last write
        self._hot_map: OrderedDict[int, int] = OrderedDict()
        self._free_slots = list(range(mirror_pages - 1, -1, -1))
        self.counters = TierCounters()

    # -- placement -----------------------------------------------------------

    def is_hot(self, lba: int) -> bool:
        return lba in self._hot_map

    @property
    def hot_pages(self) -> int:
        return len(self._hot_map)

    def _check(self, lba: int) -> None:
        if not 0 <= lba < self.cold.capacity_pages:
            raise ConfigError(f"lba {lba} out of range")

    # -- I/O -------------------------------------------------------------------

    def read(self, lba: int) -> list[DiskOp]:
        self._check(lba)
        slot = self._hot_map.get(lba)
        if slot is not None:
            return self.hot.read(slot)
        return self.cold.read(lba)

    def write(self, lba: int) -> list[DiskOp]:
        """Hot write: 2 mirror writes.  Cold write: promote (by default)
        so the page's next writes are cheap, demoting the coldest
        mirrored page if the tier is full."""
        self._check(lba)
        slot = self._hot_map.get(lba)
        if slot is not None:
            self._hot_map.move_to_end(lba)
            self.counters.mirror_writes += 1
            return self.hot.write(slot)
        if not self.promote_on_write:
            self.counters.raid5_writes += 1
            return self.cold.write(lba)
        ops = self._promote(lba)
        slot = self._hot_map[lba]
        self.counters.mirror_writes += 1
        return ops + self.hot.write(slot)

    # -- migration ----------------------------------------------------------------

    def _promote(self, lba: int) -> list[DiskOp]:
        """Move a page into the mirror tier (evicting LRU if needed)."""
        ops: list[DiskOp] = []
        if not self._free_slots:
            ops += self._demote_lru()
        slot = self._free_slots.pop()
        # the current content moves up: read cold copy, write both mirrors
        ops += self.cold.read(lba)
        ops += self.hot.write(slot)
        self._hot_map[lba] = slot
        self.counters.promotions += 1
        return ops

    def _demote_lru(self) -> list[DiskOp]:
        """Push the least-recently-written hot page back to RAID-5."""
        if not self._hot_map:
            raise CacheError("demotion with an empty mirror tier")
        lba, slot = self._hot_map.popitem(last=False)
        ops = self.hot.read(slot)
        ops += self.cold.write(lba)  # pays the small write once, on demotion
        self._free_slots.append(slot)
        self.counters.demotions += 1
        self.counters.raid5_writes += 1
        return ops

    def demote_all(self) -> list[DiskOp]:
        """Flush the mirror tier (e.g. before shrinking it)."""
        ops: list[DiskOp] = []
        while self._hot_map:
            ops += self._demote_lru()
        return ops

    # -- verification ------------------------------------------------------------

    def check_invariants(self) -> None:
        if len(self._hot_map) + len(self._free_slots) != self.mirror_capacity:
            raise CacheError("mirror slot accounting broken")
        slots = list(self._hot_map.values()) + self._free_slots
        if len(set(slots)) != self.mirror_capacity:
            raise CacheError("duplicate mirror slots")

    @property
    def member_ios(self) -> int:
        return self.hot.counters.total + self.cold.counters.total
