"""Page-mapped Flash Translation Layer.

The FTL hides flash's no-in-place-update constraint: logical page
writes are appended to active blocks (one per plane, filled round-robin
so consecutive writes spread across channels), the previous physical
copy is invalidated, and garbage collection reclaims blocks when free
space runs low.  Write amplification (NAND writes / host writes) is the
quantity that couples host-visible cache traffic to real wear.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..errors import CapacityError, ConfigError, FlashError
from .geometry import FlashGeometry
from .wear import WearTracker

FREE = -1
#: Share of the raw pages the FTL keeps back from the host.
OVER_PROVISIONING = 0.07


class PageMappedFTL:
    """Log-structured page-mapping FTL with greedy garbage collection."""

    def __init__(
        self,
        geometry: FlashGeometry,
        over_provisioning: float = OVER_PROVISIONING,
    ) -> None:
        if not 0.0 <= over_provisioning < 0.5:
            raise ConfigError("over_provisioning must be in [0, 0.5)")
        self.geometry = geometry
        self.wear = WearTracker(geometry)
        self.exported_pages = int(geometry.total_pages * (1.0 - over_provisioning))
        if self.exported_pages < geometry.pages_per_block:
            raise ConfigError("geometry too small for requested over-provisioning")

        g = geometry
        self._l2p = np.full(self.exported_pages, FREE, dtype=np.int64)
        self._p2l = np.full(g.total_pages, FREE, dtype=np.int64)
        self._valid_in_block = np.zeros(g.total_blocks, dtype=np.int32)
        self._writeptr_in_block = np.zeros(g.total_blocks, dtype=np.int32)

        # Free-block pools and the currently-filling block, per plane.
        self._free_blocks: list[deque[int]] = [deque() for _ in range(g.planes)]
        for block in range(g.total_blocks):
            self._free_blocks[g.plane_of_block(block)].append(block)
        self._active_block = [self._free_blocks[p].popleft() for p in range(g.planes)]
        #: Blocks across all free pools, kept in step with them: GC checks
        #: it on every host write.
        self._free_count = g.total_blocks - g.planes
        self._next_plane = 0
        self.gc_free_block_threshold = max(2, g.total_blocks // 64)

        # Traffic counters (pages).
        self.host_writes = 0
        self.host_reads = 0
        self.gc_relocations = 0
        self.gc_runs = 0

    # -- queries ---------------------------------------------------------

    @property
    def nand_writes(self) -> int:
        """Total pages programmed, including GC relocations."""
        return self.host_writes + self.gc_relocations

    @property
    def write_amplification(self) -> float:
        return self.nand_writes / self.host_writes if self.host_writes else 1.0

    @property
    def free_block_count(self) -> int:
        return self._free_count

    def physical_of(self, lpn: int) -> int:
        """Physical page of logical page ``lpn`` (FREE if unmapped)."""
        self._check_lpn(lpn)
        return int(self._l2p[lpn])

    def is_mapped(self, lpn: int) -> bool:
        return self.physical_of(lpn) != FREE

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.exported_pages:
            raise CapacityError(
                f"logical page {lpn} out of range [0, {self.exported_pages})"
            )

    # -- host operations ---------------------------------------------------

    def read(self, lpn: int) -> int:
        """Read a logical page; returns the physical page serving it."""
        self._check_lpn(lpn)
        ppn = int(self._l2p[lpn])
        if ppn == FREE:
            raise FlashError(f"read of unmapped logical page {lpn}")
        self.host_reads += 1
        return ppn

    def write(self, lpn: int) -> int:
        """Write a logical page; returns the new physical page."""
        self._check_lpn(lpn)
        old = int(self._l2p[lpn])
        if old != FREE:
            self._invalidate_physical(old)
        ppn = self._allocate_page(for_gc=False)
        self._l2p[lpn] = ppn
        self._p2l[ppn] = lpn
        self.host_writes += 1
        self._maybe_gc()
        return ppn

    def trim(self, lpn: int) -> None:
        """Discard a logical page (cache eviction)."""
        self._check_lpn(lpn)
        old = int(self._l2p[lpn])
        if old != FREE:
            self._invalidate_physical(old)
            self._l2p[lpn] = FREE

    # -- internals --------------------------------------------------------

    def _invalidate_physical(self, ppn: int) -> None:
        block = ppn // self.geometry.pages_per_block
        self._p2l[ppn] = FREE
        self._valid_in_block[block] -= 1
        if self._valid_in_block[block] < 0:
            raise FlashError(f"negative valid count in block {block}")

    def _allocate_page(self, for_gc: bool) -> int:
        g = self.geometry
        for _ in range(g.planes):
            plane = self._next_plane
            self._next_plane = (self._next_plane + 1) % g.planes
            block = self._active_block[plane]
            if block == FREE or self._writeptr_in_block[block] >= g.pages_per_block:
                block = self._new_active_block(plane)
                if block == FREE:
                    continue
            offset = self._writeptr_in_block[block]
            self._writeptr_in_block[block] += 1
            self._valid_in_block[block] += 1
            return block * g.pages_per_block + offset
        raise CapacityError(
            "flash device out of free blocks"
            + ("" if for_gc else " (GC could not keep up)")
        )

    def _new_active_block(self, plane: int) -> int:
        pool = self._free_blocks[plane]
        if not pool:
            self._active_block[plane] = FREE
            return FREE
        if len(pool) > 1:
            # pick the least-worn free block: cheap static wear levelling
            candidates = np.fromiter(pool, dtype=np.int64)
            block = self.wear.least_worn(candidates)
            pool.remove(block)
        else:
            block = pool.popleft()
        self._free_count -= 1
        self._active_block[plane] = block
        return block

    def _maybe_gc(self) -> None:
        while self.free_block_count < self.gc_free_block_threshold:
            if not self._collect_once():
                break

    def _collect_once(self) -> bool:
        """One GC pass: relocate the greedy victim's valid pages, erase it."""
        g = self.geometry
        ppb = g.pages_per_block
        # Candidates: fully-written blocks that are not active.
        full = self._writeptr_in_block >= ppb
        for block in self._active_block:
            if block != FREE:
                full[block] = False
        candidates = np.flatnonzero(full)
        if candidates.size == 0:
            return False
        # greedy: the candidate with the fewest valid pages (first on ties)
        valid = self._valid_in_block[candidates].astype(np.float64)
        victim = int(candidates[np.argmin(valid)])
        if self._valid_in_block[victim] >= ppb:
            return False  # nothing reclaimable anywhere
        base = victim * ppb
        for ppn in range(base, base + ppb):
            lpn = int(self._p2l[ppn])
            if lpn == FREE:
                continue
            new_ppn = self._allocate_page(for_gc=True)
            self._l2p[lpn] = new_ppn
            self._p2l[new_ppn] = lpn
            self._p2l[ppn] = FREE
            self._valid_in_block[victim] -= 1
            self.gc_relocations += 1
        self._erase_block(victim)
        self.gc_runs += 1
        return True

    def _erase_block(self, block: int) -> None:
        if self._valid_in_block[block] != 0:
            raise FlashError(f"erasing block {block} with valid pages")
        self._writeptr_in_block[block] = 0
        self.wear.record_erase(block)
        self._free_blocks[self.geometry.plane_of_block(block)].append(block)
        self._free_count += 1

    def check_invariants(self) -> None:
        """Consistency checks used by the test suite."""
        g = self.geometry
        mapped = self._l2p[self._l2p != FREE]
        if len(np.unique(mapped)) != len(mapped):
            raise FlashError("two logical pages map to one physical page")
        for ppn in mapped:
            if self._l2p[self._p2l[ppn]] != ppn:
                raise FlashError(f"l2p/p2l disagree at physical page {ppn}")
        per_block = np.bincount(
            mapped // g.pages_per_block, minlength=g.total_blocks
        )
        if not np.array_equal(per_block, self._valid_in_block):
            raise FlashError("valid-count bookkeeping is inconsistent")
        if self._free_count != sum(len(q) for q in self._free_blocks):
            raise FlashError("free-block count disagrees with the free pools")
