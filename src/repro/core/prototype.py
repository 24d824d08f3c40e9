"""The prototype data path: KDD with *real bytes* end to end.

The trace-driven simulator (:class:`repro.core.kdd.KDD`) models delta
sizes statistically, exactly like the paper's simulator.  This module
is the counterpart of the paper's kernel prototype (Section IV-B): a
fully functional data path where

* the RAID array stores real page payloads and maintains real parity,
* the SSD cache stores real data pages in the DAZ,
* write hits compute a real XOR+zlib delta (:class:`repro.delta.DeltaCodec`)
  against the cached old version, pack it into real DEZ page bytes, and
  dispatch the new data to RAID without a parity update,
* read hits on *old* pages reconstruct the latest data from the cached
  old version plus the latest delta — bit for bit.

Every read can be verified against a reference model, which the test
suite does under randomized workloads and failure injection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cache.sets import CacheSets
from ..delta.codec import DeltaCodec, mutate_page
from ..delta.packer import DELTA_HEADER_BYTES
from ..errors import CacheError, ConfigError
from ..flash.device import SSD
from ..flash.geometry import FlashGeometry
from ..nvram.metabuffer import PageState
from ..nvram.staging import StagingBuffer
from ..raid.array import RAIDArray
from ..raid.layout import RaidLevel


@dataclass
class _PrototypeDelta:
    """A real delta: either staged bytes or a slice of a DEZ page."""

    payload: bytes
    dez_lpn: int | None = None


class KDDDataPath:
    """Byte-accurate KDD cache over a payload-carrying RAID array."""

    def __init__(
        self,
        raid: RAIDArray | None = None,
        cache_pages: int = 1024,
        ways: int = 32,
        page_size: int = 4096,
        dirty_limit: float = 0.5,
    ) -> None:
        if raid is None:
            raid = RAIDArray(
                RaidLevel.RAID5,
                ndisks=5,
                chunk_pages=16,
                pages_per_disk=1 << 18,
                page_size=page_size,
                store_data=True,
            )
        if raid._disk_data is None:
            raise ConfigError("the prototype path needs store_data=True RAID")
        if raid.page_size != page_size:
            raise ConfigError("RAID and cache page sizes must match")
        if not 0.0 < dirty_limit <= 1.0:
            raise ConfigError("dirty_limit must be in (0, 1]")
        self.raid = raid
        self.page_size = page_size
        self.codec = DeltaCodec()
        self.sets = CacheSets(cache_pages, ways=ways,
                              group_pages=raid.layout.stripe_data_pages)
        self.ssd = SSD(
            geometry=FlashGeometry.for_capacity(
                int(cache_pages * page_size / 0.9) + (1 << 20),
                page_size=page_size,
            ),
            store_data=True,
        )
        self.staging = StagingBuffer(page_size)
        self.dez_payloads: dict[int, dict[int, bytes]] = {}  # lpn -> lba -> delta
        self.dirty_limit = dirty_limit
        self.read_hits = 0
        self.read_misses = 0
        self.write_hits = 0
        self.write_misses = 0
        self.delta_bytes_total = 0
        self.delta_count = 0
        self.incompressible_writes = 0

    # -- helpers -----------------------------------------------------------

    def _lpn(self, line) -> int:
        return self.sets.lpn_of(line.set_idx, line.slot)

    def _coerce(self, data: bytes) -> bytes:
        if len(data) > self.page_size:
            raise ConfigError("payload exceeds page size")
        return data.ljust(self.page_size, b"\0")

    def _latest_delta(self, lba: int) -> _PrototypeDelta | None:
        staged = self.staging.get(lba)
        if staged is not None:
            return _PrototypeDelta(payload=staged.payload)
        for lpn, table in self.dez_payloads.items():
            if lba in table:
                return _PrototypeDelta(payload=table[lba], dez_lpn=lpn)
        return None

    # -- reads ---------------------------------------------------------------

    def read(self, lba: int) -> bytes:
        """Return the current data of ``lba`` (always bit-exact)."""
        line = self.sets.lookup(lba)
        if line is None:
            self.read_misses += 1
            data = bytes(self.raid.read_data(lba))
            self.raid.counters.data_reads += 1
            self._admit(lba, data)
            return data
        self.read_hits += 1
        self.sets.touch(lba)
        cached = self.ssd.read(self._lpn(line)) or b""
        if line.state is PageState.CLEAN:
            return cached
        delta = self._latest_delta(lba)
        if delta is None:
            raise CacheError(f"old page {lba} has no delta")
        return self.codec.decode(cached, delta.payload)

    # -- writes ----------------------------------------------------------------

    def write(self, lba: int, data: bytes) -> None:
        data = self._coerce(data)
        line = self.sets.lookup(lba)
        if line is None:
            self.write_misses += 1
            self.raid.write(lba, data=[data])
            self._admit(lba, data)
            return
        self.write_hits += 1
        self.sets.touch(lba)
        old_version = self.ssd.read(self._lpn(line)) or b""
        if line.state is PageState.OLD:
            self._invalidate_delta(lba)
        delta = self.codec.encode(old_version, data)
        if len(delta) + DELTA_HEADER_BYTES > self.staging.capacity_bytes:
            # incompressible page: the delta scheme degenerates to plain
            # write-through (update the cached copy, full parity write)
            self.incompressible_writes += 1
            self.ssd.write(self._lpn(line), data)
            self.sets.set_state(lba, PageState.CLEAN)
            self.raid.write(lba, data=[data])
            return
        self.delta_bytes_total += len(delta)
        self.delta_count += 1
        self._stage(lba, delta)
        if self.sets.lookup(lba) is None:
            # the page was evicted/reclaimed while making room for the
            # delta commit: fall back to a plain parity write and re-admit
            self.raid.write(lba, data=[data])
            self._admit(lba, data)
            return
        self.sets.set_state(lba, PageState.OLD)
        self.raid.write_without_parity_update(lba, data=data)
        self._maybe_clean()

    def _stage(self, lba: int, delta: bytes) -> None:
        size = max(1, len(delta))
        if not self.staging.would_fit_after_coalesce(lba, size):
            self._commit_staging()
            if self.sets.lookup(lba) is None:
                return  # forced cleaning reclaimed this page
        self.staging.put(lba, size, payload=delta)

    def _commit_staging(self) -> None:
        items = self.staging.drain()
        if not items:
            return
        loc = self.sets.alloc_dez()
        if loc is None:
            victim = self.sets.min_dez_set_with_clean()
            if victim is not None:
                self._drop_clean(victim)
                loc = self.sets.alloc_dez()
        if loc is None:
            # fully pinned: repair the affected stripes immediately
            for stripe in sorted({self.raid.layout.stripe_of(d.lba) for d in items}):
                self._clean_stripe(stripe)
            return
        lpn = self.sets.lpn_of(*loc)
        self.ssd.write(lpn)
        self.dez_payloads[lpn] = {d.lba: d.payload for d in items}

    def _invalidate_delta(self, lba: int) -> None:
        if self.staging.remove(lba):
            return
        for lpn, table in list(self.dez_payloads.items()):
            if lba in table:
                del table[lba]
                if not table:
                    del self.dez_payloads[lpn]
                    dez_set, slot = divmod(lpn, self.sets.ways)
                    self.sets.free_dez(dez_set, slot)
                    self.ssd.trim(lpn)
                return

    # -- admission and reclamation ------------------------------------------------

    def _admit(self, lba: int, data: bytes) -> None:
        line = self.sets.alloc(lba, PageState.CLEAN)
        if line is None:
            victim = None
            for cand in self.sets.lines_in_set(self.sets.set_of(lba)):
                if cand.state is PageState.CLEAN:
                    victim = cand
                    break
            if victim is None:
                return  # pinned set: serve uncached
            self._drop_clean(victim)
            line = self.sets.alloc(lba, PageState.CLEAN)
            if line is None:
                return
        self.ssd.write(self._lpn(line), data)

    def _drop_clean(self, line) -> None:
        if line.state is not PageState.CLEAN:
            raise CacheError("only clean pages are evictable")
        self.ssd.trim(self._lpn(line))
        self.sets.remove(line.lba)

    @property
    def dirty_pages(self) -> int:
        return self.sets.count(PageState.OLD) + self.sets.dez_pages

    def _maybe_clean(self) -> None:
        limit = self.dirty_limit * self.sets.capacity_pages
        if self.dirty_pages <= limit:
            return
        for stripe in sorted(self.raid.stale_stripes):
            self._clean_stripe(stripe)
            if self.dirty_pages <= limit / 2:
                break

    def _clean_stripe(self, stripe: int) -> None:
        lbas = self.raid.layout.stripe_pages(stripe)
        cached = self.sets.resident_in_range(lbas.start, lbas.stop)
        old_lines = [
            l for lba in cached
            if (l := self.sets.lookup(lba)).state is PageState.OLD
        ]
        self.raid.parity_update(
            stripe, [l.lba for l in old_lines], cached_pages=cached
        )
        for line in old_lines:
            self._invalidate_delta(line.lba)
            self.ssd.trim(self._lpn(line))
            self.sets.remove(line.lba)

    def flush(self) -> None:
        """Repair every delayed parity (orderly shutdown)."""
        for stripe in sorted(self.raid.stale_stripes):
            self._clean_stripe(stripe)

    # -- reporting ----------------------------------------------------------------

    @property
    def mean_delta_ratio(self) -> float:
        """Observed compression ratio across all deltas created."""
        if self.delta_count == 0:
            return 1.0 if self.incompressible_writes else 0.0
        return self.delta_bytes_total / (self.delta_count * self.page_size)


class ContentWorkload:
    """Generates page contents with controlled content locality.

    Each write mutates a fraction of the page's previous content
    (Section II-C: "only 5-20% of bits inside a block are changed on a
    write"), so the real codec produces deltas whose size tracks the
    configured locality.
    """

    def __init__(
        self,
        universe_pages: int,
        change_fraction: float = 0.10,
        page_size: int = 4096,
        seed: int = 0,
    ) -> None:
        if universe_pages < 1:
            raise ConfigError("universe must hold at least one page")
        if not 0.0 <= change_fraction <= 1.0:
            raise ConfigError("change_fraction must be in [0, 1]")
        self.page_size = page_size
        self.change_fraction = change_fraction
        self._rng = np.random.default_rng(seed)
        self._content: dict[int, bytes] = {}
        self.universe_pages = universe_pages

    def current(self, lba: int) -> bytes:
        """Current reference content of a page (zeros if never written)."""
        return self._content.get(lba, b"\0" * self.page_size)

    def initial(self, lba: int) -> bytes:
        """First-ever content: random bytes, recorded as current."""
        data = self._rng.integers(
            0, 256, self.page_size, dtype=np.uint8
        ).tobytes()
        self._content[lba] = data
        return data

    def next_version(self, lba: int) -> bytes:
        """A new version differing in ``change_fraction`` of the page."""
        if lba not in self._content:
            return self.initial(lba)
        data = mutate_page(self._content[lba], self.change_fraction, self._rng)
        self._content[lba] = data
        return data
