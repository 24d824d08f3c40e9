"""Shared machinery for set-associative policies (fill path, eviction)."""

from __future__ import annotations

from ..nvram.metabuffer import CLEAN, PageState
from ..raid.array import RAIDArray
from .admission import make_admission
from .base import CacheConfig, CachePolicy, Outcome
from .sets import CacheLine, CacheSets


class SetAssocPolicy(CachePolicy):
    """A cache policy backed by :class:`CacheSets`.

    Provides the common read-miss fill path: allocate a DAZ line,
    evicting the set's LRU *clean* page if needed; policies with
    unreclaimable states (old/dirty) override :meth:`_make_room` to
    trigger their cleaning machinery.  An optional admission filter
    (Section V-C: LARC / SieveStore are complementary to KDD) gates
    which misses are allowed to allocate at all.
    """

    def __init__(self, config: CacheConfig, raid: RAIDArray) -> None:
        super().__init__(config, raid)
        self.sets = CacheSets(
            config.cache_pages, ways=config.ways, group_pages=config.group_pages
        )
        self.admission = make_admission(config.admission, config.cache_pages)

    # -- allocation --------------------------------------------------------

    def _data_lpn(self, line: CacheLine) -> int:
        """SSD page backing a DAZ line (data partition starts after metadata).

        :meth:`CacheSets.lpn_of`'s arithmetic, spelled out: this runs on
        every fill and write hit.
        """
        return self.meta_pages + line.set_idx * self.sets.ways + line.slot

    def _evict_one_clean(self, set_idx: int) -> bool:
        victim = self.sets.evict_candidate(set_idx, (CLEAN,))
        if victim is None:
            return False
        self._drop_line(victim)
        return True

    def _drop_line(self, line: CacheLine) -> None:
        """Remove a line from the cache (hook for metadata bookkeeping)."""
        self.sets.remove(line.lba)
        if self.ssd is not None:
            self._ssd_trim(self._data_lpn(line))

    def _make_room(self, set_idx: int) -> bool:
        """Try to free a slot in ``set_idx``; False means bypass the cache."""
        return self._evict_one_clean(set_idx)

    def _admit_and_alloc(self, lba: int, state: PageState) -> CacheLine | None:
        """Allocation gated by the admission filter (used on misses)."""
        if not self.admission.should_admit(lba):
            return None
        return self._alloc_line(lba, state)

    def _alloc_line(self, lba: int, state: PageState) -> CacheLine | None:
        """Allocate (evicting if necessary); None when the set is pinned full."""
        line = self.sets.alloc(lba, state)
        if line is not None:
            return line
        if not self._make_room(self.sets.set_of(lba)):
            self.stats.bypasses += 1
            return None
        line = self.sets.alloc(lba, state)
        if line is None:  # pragma: no cover - _make_room guarantees a slot
            self.stats.bypasses += 1
        return line

    def _on_line_allocated(self, line: CacheLine, kind: str) -> None:
        """Hook: account the SSD write that fills the new line."""
        self._ssd_write(self._data_lpn(line), kind)

    # -- the common read path ----------------------------------------------

    def read(self, lba: int) -> Outcome:
        line = self.sets.lookup(lba)
        if line is not None:
            self.stats.read_hits += 1
            self.sets.touch(lba)
            self.admission.on_cache_hit(lba)
            return self._read_hit(line)
        self.stats.read_misses += 1
        disk_ops = self.io.read(lba)
        out = Outcome(hit=False, is_read=True, fg_disk_ops=disk_ops)
        line = self._admit_and_alloc(lba, CLEAN)
        if line is not None:
            self._on_line_allocated(line, "fill")
            out.bg_ssd_writes += 1
        return out

    def _read_hit(self, line: CacheLine) -> Outcome:
        """Serve a read hit (policies with delta state override this)."""
        self._ssd_read(1)
        return Outcome(hit=True, is_read=True, fg_ssd_reads=1)

    def check_invariants(self) -> None:
        self.sets.check_invariants()
