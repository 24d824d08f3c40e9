"""LeavO (Lee et al., SAC'15): keep old *and* new data in the SSD cache.

The closest prior work to KDD: on a write hit the cache retains the old
version of the page (needed to repair parity later) and writes the new
version to a second cache page, dispatching the data to RAID *without*
a parity update.  Two costs KDD eliminates:

* the redundant full-page copies consume cache space (lower hit ratio)
  and cost a full 4 KiB cache write per write hit, where KDD packs a
  compressed delta;
* mapping metadata is persisted to SSD on every update instead of being
  batched through an NVRAM-backed circular log.
"""

from __future__ import annotations

from collections import OrderedDict

from ..nvram.metabuffer import CLEAN, OLD
from ..raid.array import RAIDArray
from .base import CacheConfig, Outcome
from .common import SetAssocPolicy
from .sets import CacheLine


class LeavO(SetAssocPolicy):
    """Old/new page retention with delayed parity updates."""

    name = "leavo"

    #: Bytes of metadata persisted per mapping update (in-place, unbatched).
    meta_bytes_per_update = 512

    def __init__(self, config: CacheConfig, raid: RAIDArray) -> None:
        super().__init__(config, raid)
        self._stale_order: OrderedDict[int, None] = OrderedDict()
        self._meta_byte_acc = 0
        # Hot-path constants: cleaning starts above _pinned_limit pinned
        # slots and stops at _clean_target.
        self._pinned_limit = config.dirty_threshold * config.cache_pages
        self._clean_target = config.low_watermark * config.cache_pages
        self._stripe_data_pages = raid.layout.stripe_data_pages

    # -- metadata accounting ---------------------------------------------------

    def _meta_update(self, n: int = 1) -> None:
        acc = self._meta_byte_acc + n * self.meta_bytes_per_update
        if acc < self.config.page_size:
            self._meta_byte_acc = acc
            return
        pages, self._meta_byte_acc = divmod(acc, self.config.page_size)
        for _ in range(pages):
            self.stats.meta_writes += 1
            if self.ssd is not None:
                # metadata partition page 0..meta_pages-1, round robin
                self.ssd.write(self.stats.meta_writes % self.meta_pages)

    # -- hooks ------------------------------------------------------------------

    def _on_line_allocated(self, line: CacheLine, kind: str) -> None:
        super()._on_line_allocated(line, kind)
        self._meta_update()

    def _drop_line(self, line: CacheLine) -> None:
        super()._drop_line(line)
        self._meta_update()

    def _read_hit(self, line: CacheLine) -> Outcome:
        # the latest version lives in the twin slot for OLD lines
        self._ssd_read(1)
        return Outcome(hit=True, is_read=True, fg_ssd_reads=1)

    # -- writes ---------------------------------------------------------------

    def write(self, lba: int) -> Outcome:
        line = self.sets.lookup(lba)
        if line is None:
            return self._write_miss(lba)
        self.stats.write_hits += 1
        self.sets.touch(lba)
        self.admission.on_cache_hit(lba)
        if line.state is OLD:
            # overwrite the latest-version copy in place
            twin = line.aux
            self._ssd_write(
                self.meta_pages + self.sets.lpn_of(line.set_idx, twin), "data"
            )
            self._meta_update()
            ops = self.io.write_without_parity_update(lba)
            out = Outcome(hit=True, is_read=False, fg_disk_ops=ops, bg_ssd_writes=1)
            self._maybe_clean(out)
            return out
        # clean hit: try to retain the old version and delay parity
        twin = self._acquire_twin_slot(line)
        if twin is None:
            # no space for a second copy: fall back to plain write-through
            self.stats.bypasses += 1
            self._ssd_write(self._data_lpn(line), "data")
            return Outcome(
                hit=True,
                is_read=False,
                fg_disk_ops=self.io.write(lba),
                bg_ssd_writes=1,
            )
        self.sets.set_state(lba, OLD)
        line.aux = twin
        self._ssd_write(self.meta_pages + self.sets.lpn_of(line.set_idx, twin), "data")
        self._meta_update()
        ops = self.io.write_without_parity_update(lba)
        self._stale_order.setdefault(lba // self._stripe_data_pages, None)
        out = Outcome(hit=True, is_read=False, fg_disk_ops=ops, bg_ssd_writes=1)
        self._maybe_clean(out)
        return out

    def _write_miss(self, lba: int) -> Outcome:
        self.stats.write_misses += 1
        disk_ops = self.io.write(lba)
        out = Outcome(hit=False, is_read=False, fg_disk_ops=disk_ops)
        line = self._admit_and_alloc(lba, CLEAN)
        if line is not None:
            self._on_line_allocated(line, "data")
            out.bg_ssd_writes += 1
        return out

    def _acquire_twin_slot(self, line: CacheLine) -> int | None:
        slot = self.sets.borrow_slot(line.set_idx)
        if slot is not None:
            return slot
        # evict the LRU clean page that is not the line being written
        for cand in self.sets.lines_in_set(line.set_idx):
            if cand.state is CLEAN and cand.lba != line.lba:
                self._drop_line(cand)
                return self.sets.borrow_slot(line.set_idx)
        return None

    # -- cleaning ---------------------------------------------------------------

    def _maybe_clean(self, out: Outcome) -> None:
        # each OLD line pins two slots (old + latest)
        count = self.sets.count
        if 2 * count(OLD) <= self._pinned_limit:
            return
        target = self._clean_target
        while self._stale_order and 2 * count(OLD) > target:
            stripe = next(iter(self._stale_order))
            del self._stale_order[stripe]
            self._clean_stripe(stripe, out)

    def _clean_stripe(self, stripe: int, out: Outcome) -> None:
        stripe_lbas = self.raid.layout.stripe_pages(stripe)
        cached = self.sets.resident_in_range(stripe_lbas.start, stripe_lbas.stop)
        old_lines = [
            l for lba in cached
            if (l := self.sets.lookup(lba)).state is OLD
        ]
        if not old_lines:
            self.raid.parity_update(stripe, cached_pages=[])
            return
        all_cached = len(cached) == len(stripe_lbas)
        # SSD reads to source the parity computation: old+new per changed
        # page for rmw, every data page for rcw.
        self._ssd_read(len(stripe_lbas) if all_cached else 2 * len(old_lines))
        ops = self.raid.parity_update(
            stripe, [l.lba for l in old_lines], cached_pages=cached
        )
        out.bg_disk_ops.extend(ops)
        for line in old_lines:
            freed = self.sets.adopt_borrowed(line.lba, line.aux)
            self._ssd_trim(self.meta_pages + self.sets.lpn_of(line.set_idx, freed))
            line.aux = None
            self.sets.set_state(line.lba, CLEAN)
            self._meta_update()

    def _make_room(self, set_idx: int) -> bool:
        if self._evict_one_clean(set_idx):
            return True
        # the set is pinned by old/latest pairs: clean their stripes now
        sink = Outcome(hit=False, is_read=False)
        for line in list(self.sets.lines_in_set(set_idx)):
            if line.state is OLD:
                stripe = line.lba // self._stripe_data_pages
                self._stale_order.pop(stripe, None)
                self._clean_stripe(stripe, sink)
        return self._evict_one_clean(set_idx)

    def finish(self) -> None:
        sink = Outcome(hit=False, is_read=False)
        while self._stale_order:
            stripe = next(iter(self._stale_order))
            del self._stale_order[stripe]
            self._clean_stripe(stripe, sink)

    def check_invariants(self) -> None:
        super().check_invariants()
        for line in self.sets.all_lines():
            if line.state is OLD:
                assert line.aux is not None
            elif line.state is CLEAN:
                assert line.aux is None
