"""KDD — Keeping Data and Deltas in SSD (the paper's contribution).

Cache space is dynamically shared between a Data Zone (DAZ: pages in
state *clean* or *old*) and a Delta Zone (DEZ: packed *delta* pages),
mixed within every cache set.  The protocol per access:

* **read miss / write miss** — allocate a *clean* DAZ page; writes go
  to RAID with a conventional parity update.
* **write hit** — the DAZ page flips to *old* and keeps the previous
  data; the compressed XOR delta goes to the NVRAM staging buffer; the
  new data is dispatched to RAID **without** a parity update (one member
  write instead of the small-write 2r+2w).
* **read hit on old** — data page and latest delta are read (SSD-
  internal parallelism makes this cheap) and combined.
* **staging buffer full** — its deltas are compacted into one DEZ page,
  allocated from the set currently holding the fewest DEZ pages.
* **cleaning** — when old+delta pages exceed a threshold, a background
  pass repairs stale parity per stripe (reconstruct-write when the whole
  stripe is cached, read-modify-write otherwise), then reclaims the old
  pages and invalidates their deltas (the paper's "simple" scheme;
  ``reclaim_merge=True`` implements the alternative that rewrites merged
  pages as clean).

Metadata is persisted through the circular log (:mod:`repro.cache.mlog`),
batched via the NVRAM metadata buffer; DEZ allocation is not logged
because delta locations are embedded in the *old* entries (Figure 3).
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ..cache.base import CacheConfig, Outcome
from ..cache.common import SetAssocPolicy
from ..cache.mlog import MetadataLog
from ..cache.sets import CacheLine
from ..delta.model import GaussianDeltaModel
from ..delta.packer import DELTA_HEADER_BYTES, pack_deltas
from ..errors import CacheError, ConfigError
from ..nvram.metabuffer import CLEAN, DELTA, FREE, OLD, MappingEntry, PageState
from ..nvram.staging import StagingBuffer
from ..raid.array import RAIDArray


@dataclass(slots=True)
class DeltaRef:
    """Location of the latest delta for an *old* DAZ page.

    ``dez_lpn is None`` means the delta still sits in the NVRAM staging
    buffer (the paper's ``lba_dez = -1`` convention).
    """

    size: int
    dez_lpn: int | None = None


@dataclass(slots=True)
class DezPage:
    """One committed Delta Zone page."""

    lpn: int
    set_idx: int
    slot: int
    packed: "object"  # PackedPage

    @property
    def valid_count(self) -> int:
        return self.packed.valid_count


#: Shared no-op context for the un-instrumented (shim-less) fast path.
_NULL_TXN = nullcontext()


class KDD(SetAssocPolicy):
    """The KDD cache management scheme."""

    name = "kdd"

    #: Crash-point shim (duck-typed, installed by ``repro.faults.crash``).
    shim = None

    #: CPU cost of delta (de)compression on the critical path, seconds.
    #: "tens of microseconds" (Section IV-B2) for an lzo-class codec.
    compress_time = 30e-6
    decompress_time = 15e-6

    def __init__(
        self,
        config: CacheConfig,
        raid: RAIDArray,
        reclaim_merge: bool = False,
        fixed_dez_fraction: float | None = None,
        dez_random_placement: bool = False,
    ) -> None:
        super().__init__(config, raid)
        if fixed_dez_fraction is not None and not 0.0 < fixed_dez_fraction < 1.0:
            raise ConfigError("fixed_dez_fraction must be in (0, 1)")
        self.reclaim_merge = reclaim_merge
        self.fixed_dez_fraction = fixed_dez_fraction
        self.dez_random_placement = dez_random_placement
        self._rng = np.random.default_rng(config.seed + 0x5EED)

        self.delta_model = GaussianDeltaModel(
            mean=config.mean_compression,
            sigma=config.compression_sigma,
            page_size=config.page_size,
            seed=config.seed,
        )
        self.staging = StagingBuffer(capacity_bytes=config.nvram_buffer_bytes)
        self.mlog = MetadataLog(
            self.ssd,
            base_lpn=0,
            capacity_pages=self.meta_pages,
            gc_threshold=config.meta_gc_threshold,
            page_size=config.page_size,
        )
        self.dez_pages: dict[int, DezPage] = {}
        self._stale_order: OrderedDict[int, None] = OrderedDict()
        self.cleanings = 0
        self.forced_cleanings = 0
        # Hot-path constants (same expressions the code used inline).
        self._max_delta = config.page_size - DELTA_HEADER_BYTES
        self._dirty_limit = config.dirty_threshold * config.cache_pages
        self._clean_target = config.low_watermark * config.cache_pages
        self._stripe_data_pages = raid.layout.stripe_data_pages

    # -- metadata helpers --------------------------------------------------

    def _txn(self):
        """NVRAM journal transaction: multi-word metadata updates that must
        be atomic with respect to power failure (no crash point fires
        inside; see DESIGN.md section 13).  A no-op without a shim."""
        shim = self.shim
        return shim.txn() if shim is not None else _NULL_TXN

    # Each mapping change is one ``mlog.record`` of a positionally built
    # entry.  ``stats.meta_writes`` counts the page commits that happen
    # inside that call; commits made ahead of time by ``mlog.reserve``
    # are not counted (a known undercount, kept so rows stay pinned).

    def _record_clean(self, line: CacheLine, lpn: int) -> None:
        """Journal ``line`` as CLEAN with its data at SSD page ``lpn``."""
        mlog = self.mlog
        before = mlog.meta_page_writes
        mlog.record(MappingEntry(line.lba, CLEAN, lpn))
        self.stats.meta_writes += mlog.meta_page_writes - before

    def _record_old(self, line: CacheLine, ref: DeltaRef, off: int, length: int) -> None:
        mlog = self.mlog
        before = mlog.meta_page_writes
        dez_lpn = ref.dez_lpn
        mlog.record(MappingEntry(
            line.lba, OLD, self._data_lpn(line),
            dez_lpn if dez_lpn is not None else -1, off, length,
        ))
        self.stats.meta_writes += mlog.meta_page_writes - before

    def _record_free(self, lba: int) -> None:
        mlog = self.mlog
        before = mlog.meta_page_writes
        mlog.record(MappingEntry(lba, FREE))
        self.stats.meta_writes += mlog.meta_page_writes - before

    # -- allocation hooks -------------------------------------------------------
    # Both hooks spell out the base class's body instead of calling it:
    # they run on every fill and eviction.

    def _on_line_allocated(self, line: CacheLine, kind: str) -> None:
        lpn = self._data_lpn(line)
        self._ssd_write(lpn, kind)
        self._record_clean(line, lpn)

    def _drop_line(self, line: CacheLine) -> None:
        # One journaled transaction: directory removal and the FREE
        # tombstone hit NVRAM together, so a crash never sees a dropped
        # line still mapped (or vice versa).  Buffer room is reserved
        # first — the record can then never trigger a page program
        # mid-transaction.
        self.mlog.reserve()
        with self._txn():
            self.sets.remove(line.lba)
            if self.ssd is not None:
                self._ssd_trim(self._data_lpn(line))
            self._record_free(line.lba)

    def _daz_budget_ok(self) -> bool:
        """Fixed-partition ablation: is DAZ quota left?"""
        daz = self.sets.count(CLEAN) + self.sets.count(OLD)
        return daz < (1.0 - self.fixed_dez_fraction) * self.config.cache_pages

    def _alloc_line(self, lba: int, state: PageState) -> CacheLine | None:
        if self.fixed_dez_fraction is not None and not self._daz_budget_ok():
            # fixed-partition ablation: DAZ quota exhausted, evict from DAZ
            if not self._make_room(self.sets.set_of(lba)):
                self.stats.bypasses += 1
                return None
        return super()._alloc_line(lba, state)

    def _make_room(self, set_idx: int) -> bool:
        if self._evict_one_clean(set_idx):
            return True
        # the set is pinned by old/delta pages: clean its stripes now
        sink = Outcome(hit=False, is_read=False)
        stripes = {
            l.lba // self._stripe_data_pages
            for l in self.sets.lines_in_set(set_idx)
            if l.state is OLD
        }
        if not stripes:
            return False
        self.forced_cleanings += 1
        for stripe in sorted(stripes):
            self._stale_order.pop(stripe, None)
            self._clean_stripe(stripe, sink)
        return self.sets.has_free_slot(set_idx) or self._evict_one_clean(set_idx)

    # -- reads -------------------------------------------------------------------

    def _read_hit(self, line: CacheLine) -> Outcome:
        if line.state is OLD:
            ref: DeltaRef = line.aux
            npages = 1 + (1 if ref.dez_lpn is not None else 0)
            self._ssd_read(npages)
            return Outcome(
                hit=True,
                is_read=True,
                fg_ssd_reads=npages,
                fg_compute=self.decompress_time,
            )
        self._ssd_read(1)
        return Outcome(hit=True, is_read=True, fg_ssd_reads=1)

    # -- writes --------------------------------------------------------------------

    def write(self, lba: int) -> Outcome:
        line = self.sets.lookup(lba)
        if line is None:
            return self._write_miss(lba)
        self.stats.write_hits += 1
        self.sets.touch(lba)
        self.admission.on_cache_hit(lba)

        # generate the new delta (size drawn from the content-locality model,
        # capped so any single delta fits one DEZ page with its header)
        size = min(self.delta_model.sample_size(), self._max_delta)
        out = Outcome(
            hit=True,
            is_read=False,
            # While the array is degraded, parity IS the failed member's
            # data — delaying its update would widen the loss window to
            # certainty, so writes fall back to immediate parity updates
            # until the rebuild completes (Section III-E).
            fg_disk_ops=(
                self.io.write(lba)
                if self.raid.degraded
                else self.io.write_without_parity_update(lba)
            ),
            fg_compute=self.compress_time,
        )
        # the old version must be read from SSD to compute the XOR delta
        self._ssd_read(1)
        out.fg_ssd_reads += 1

        self._stale_order.setdefault(lba // self._stripe_data_pages, None)
        if line.state is CLEAN:
            self.sets.set_state(lba, OLD)
            line.aux = DeltaRef(size=size)
            self._stage_delta(lba, size, out)
        else:
            ref: DeltaRef = line.aux
            # Stage the new delta *before* invalidating its predecessor:
            # the coalescing put is the atomic supersede for a staged
            # delta, and a DEZ-resident one stays reachable (ref and the
            # persisted old-entry untouched) until the replacement is in
            # NVRAM — a crash in between loses only the in-flight write.
            if self._stage_delta(lba, size, out):
                if ref.dez_lpn is not None:
                    self._invalidate_dez_delta(lba, ref)
                ref.size = size
                ref.dez_lpn = None
        self._maybe_clean(out)
        return out

    def _write_miss(self, lba: int) -> Outcome:
        self.stats.write_misses += 1
        out = Outcome(hit=False, is_read=False, fg_disk_ops=self.io.write(lba))
        line = self._admit_and_alloc(lba, CLEAN)
        if line is not None:
            self._on_line_allocated(line, "data")
            out.bg_ssd_writes += 1
        self._maybe_clean(out)
        return out

    # -- staging and the Delta Zone ----------------------------------------------

    def _stage_delta(self, lba: int, size: int, out: Outcome) -> bool:
        """Put one delta into NVRAM, committing a DEZ page first if needed.

        Returns whether the delta was actually staged — False when the
        commit force-cleaned this page's stripe, in which case the caller
        must leave its delta reference untouched.
        """
        if not self.staging.would_fit_after_coalesce(lba, size):
            # The delta this put is about to supersede (if staged) is
            # excluded from the flush: it would be dead on arrival in the
            # DEZ page, and it must survive in NVRAM until the coalescing
            # put below atomically replaces it.
            self._commit_staging(out, exclude=lba)
            # The commit may have force-cleaned this page's stripe (cache
            # fully pinned), repairing its parity and reclaiming the line —
            # the fresh delta is then no longer needed.
            line = self.sets.lookup(lba)
            if line is None or line.state is not OLD:
                return False
        self.staging.put(lba, size)
        return True

    def _commit_staging(self, out: Outcome, exclude: int | None = None) -> None:
        """Compact all staged deltas into DEZ pages and flush them.

        With the default one-page staging buffer everything fits one DEZ
        page; larger NVRAM buffers are split greedily into page-sized
        groups.  Deltas move to the staging buffer's *flushing* region —
        still NVRAM, still crash-surviving — and are released only once
        their page's *old* mapping entry (with the DEZ location) is
        durable in the metadata buffer.
        """
        items = self.staging.begin_flush(exclude=exclude)
        if not items:
            return
        # greedy first-fit grouping into page-sized DEZ commits
        groups: list[list] = [[]]
        used = 0
        for d in items:
            need = d.size + DELTA_HEADER_BYTES
            if groups[-1] and used + need > self.config.page_size:
                groups.append([])
                used = 0
            groups[-1].append(d)
            used += need
        for group in groups:
            self._commit_one_dez_page(group, out)
        if self.staging.flushing_count:
            raise CacheError("deltas left in the flushing region after commit")

    def _commit_one_dez_page(self, items: list, out: Outcome) -> None:
        # an earlier group's forced cleaning may have repaired some of these
        # stripes already; drop deltas whose page is no longer old (their
        # flushing copies died with the reclaimed lines)
        kept = [
            d
            for d in items
            if (l := self.sets.lookup(d.lba)) is not None
            and l.state is OLD
            and l.aux is not None
            and l.aux.dez_lpn is None
        ]
        for d in items:
            if d not in kept:
                self.staging.flush_done(d.lba)
        if not kept:
            return
        loc = self._alloc_dez_slot()
        if loc is None:
            # Cache completely pinned: repair the stripes of the staged
            # deltas right now; the deltas then die without a DEZ write
            # (each line's reclaim releases its flushing copy).
            self.forced_cleanings += 1
            stripes = {d.lba // self._stripe_data_pages for d in kept}
            for stripe in sorted(stripes):
                self._stale_order.pop(stripe, None)
                self._clean_stripe(stripe, out)
            return
        set_idx, slot = loc
        lpn = self.meta_pages + self.sets.lpn_of(set_idx, slot)
        packed = pack_deltas(
            [(d.lba, d.size, d.payload) for d in kept], self.config.page_size
        )
        self.dez_pages[lpn] = DezPage(lpn=lpn, set_idx=set_idx, slot=slot, packed=packed)
        if self.shim is not None:
            # A torn DEZ program loses only flash bytes: every delta in
            # the page is still NVRAM-resident (flushing) and every old
            # entry still points at NVRAM, so recovery ignores the page.
            self.shim.point("dez_commit", lpn=lpn)
        self._ssd_write(lpn, "delta")
        out.bg_ssd_writes += 1
        for d in packed.deltas:
            line = self.sets.lookup(d.lba)
            if line is None or line.state is not OLD:
                raise CacheError(f"staged delta for non-old page {d.lba}")
            ref: DeltaRef = line.aux
            # One journaled transaction per delta: the DEZ pointer becomes
            # durable (old-entry in the metadata buffer) in the same
            # instant its NVRAM copy is released — crash on either side
            # recovers the delta from exactly one place.
            self.mlog.reserve()
            with self._txn():
                ref.dez_lpn = lpn
                self._record_old(line, ref, d.offset, d.length)
                self.staging.flush_done(d.lba)

    def _alloc_dez_slot(self) -> tuple[int, int] | None:
        if (
            self.fixed_dez_fraction is not None
            and self.sets.dez_pages >= self.fixed_dez_fraction * self.config.cache_pages
        ):
            return None
        if self.dez_random_placement:
            loc = self._alloc_dez_random()
        else:
            loc = self.sets.alloc_dez()
        if loc is not None:
            return loc
        # no free slot anywhere: evict a clean page from the least-DEZ set
        victim = self.sets.min_dez_set_with_clean()
        if victim is None:
            return None
        self._drop_line(victim)
        return self._alloc_dez_random() if self.dez_random_placement else self.sets.alloc_dez()

    def _alloc_dez_random(self) -> tuple[int, int] | None:
        """Ablation: place DEZ pages in random sets instead of least-loaded."""
        for _ in range(8):
            set_idx = int(self._rng.integers(0, self.sets.n_sets))
            loc = self.sets.alloc_dez_at(set_idx)
            if loc is not None:
                return loc
        return self.sets.alloc_dez()

    def _invalidate_dez_delta(self, lba: int, ref: DeltaRef) -> None:
        dez = self.dez_pages.get(ref.dez_lpn)
        if dez is None:
            raise CacheError(f"dangling DEZ reference for page {lba}")
        if dez.packed.invalidate(lba) == 0:
            del self.dez_pages[dez.lpn]
            self.sets.free_dez(dez.set_idx, dez.slot)
            self._ssd_trim(dez.lpn)

    # -- cleaning (Section III-D) ---------------------------------------------------

    @property
    def dirty_pages(self) -> int:
        """Old + delta pages: what cleaning is triggered on."""
        return self.sets.count(OLD) + self.sets.dez_pages

    def _maybe_clean(self, out: Outcome) -> None:
        # dirty_pages, counted without the property call on every access
        count = self.sets.count
        if count(OLD) + count(DELTA) <= self._dirty_limit:
            return
        target = self._clean_target
        while self._stale_order and count(OLD) + count(DELTA) > target:
            stripe = next(iter(self._stale_order))
            del self._stale_order[stripe]
            self._clean_stripe(stripe, out)

    def _clean_stripe(self, stripe: int, out: Outcome) -> None:
        """Repair one stripe's parity and reclaim its old pages."""
        stripe_lbas = self.raid.layout.stripe_pages(stripe)
        cached = self.sets.resident_in_range(stripe_lbas.start, stripe_lbas.stop)
        old_lines = [
            l for lba in cached
            if (l := self.sets.lookup(lba)).state is OLD
        ]
        if not old_lines:
            if self.shim is not None:
                self.shim.point("cleaner_parity", stripe=stripe)
            out.bg_disk_ops.extend(self.raid.parity_update(stripe, cached_pages=cached))
            return
        self.cleanings += 1

        all_cached = len(cached) == len(stripe_lbas)
        dez_lpns = {
            l.aux.dez_lpn for l in old_lines if l.aux and l.aux.dez_lpn is not None
        }
        # reconstruct-write reads every cached data page; both modes read
        # the committed delta pages (staged deltas are already in NVRAM)
        ssd_reads = (len(cached) if all_cached else 0) + len(dez_lpns)
        if ssd_reads:
            self._ssd_read(ssd_reads)
        if self.shim is not None:
            # A crash here leaves the stripe's parity stale and every
            # delta in place — exactly the state the cleaner found.
            self.shim.point("cleaner_parity", stripe=stripe)
        out.bg_disk_ops.extend(
            self.raid.parity_update(
                stripe, [l.lba for l in old_lines], cached_pages=cached
            )
        )

        for line in old_lines:
            ref: DeltaRef = line.aux
            # Parity is repaired: each line's reclaim (delta invalidation
            # plus its mapping record) is one journaled transaction, with
            # metadata-buffer room reserved up front so the record cannot
            # trigger a page program mid-transaction.
            self.mlog.reserve()
            if self.shim is not None:
                self.shim.point("clean_reclaim", lba=line.lba)
            with self._txn():
                if ref.dez_lpn is None:
                    self.staging.remove(line.lba)
                else:
                    self._invalidate_dez_delta(line.lba, ref)
                if self.reclaim_merge:
                    # alternative scheme: merge old+delta, keep the page clean
                    line.aux = None
                    self.sets.set_state(line.lba, CLEAN)
                    lpn = self._data_lpn(line)
                    self._ssd_write(lpn, "data")
                    out.bg_ssd_writes += 1
                    self._record_clean(line, lpn)
                else:
                    line.aux = None
                    self._drop_line(line)

    def finish(self) -> None:
        """Repair all remaining stale parity (orderly shutdown)."""
        sink = Outcome(hit=False, is_read=False)
        while self._stale_order:
            stripe = next(iter(self._stale_order))
            del self._stale_order[stripe]
            self._clean_stripe(stripe, sink)

    # -- invariants -------------------------------------------------------------

    def check_invariants(self) -> None:
        super().check_invariants()
        self.mlog.check_invariants()
        staged = {d.lba for d in self.staging.snapshot()}
        for line in self.sets.all_lines():
            if line.state is OLD:
                ref: DeltaRef = line.aux
                if ref is None:
                    raise CacheError(f"old page {line.lba} without delta ref")
                if ref.dez_lpn is None:
                    if line.lba not in staged:
                        raise CacheError(f"old page {line.lba}: staged delta missing")
                else:
                    dez = self.dez_pages.get(ref.dez_lpn)
                    if dez is None or line.lba not in dez.packed.valid:
                        raise CacheError(f"old page {line.lba}: DEZ delta missing")
            elif line.state is CLEAN:
                if line.aux is not None:
                    raise CacheError(f"clean page {line.lba} carries a delta ref")
                if line.lba in staged:
                    raise CacheError(f"clean page {line.lba} has a staged delta")
        # every valid DEZ entry must belong to an old line pointing back
        for lpn, dez in self.dez_pages.items():
            if dez.valid_count == 0:
                raise CacheError(f"empty DEZ page {lpn} not reclaimed")
            for lba in dez.packed.valid:
                line = self.sets.lookup(lba)
                if line is None or line.state is not OLD:
                    raise CacheError(f"DEZ delta for non-old page {lba}")
                if line.aux.dez_lpn != lpn:
                    raise CacheError(f"DEZ back-reference mismatch for {lba}")
