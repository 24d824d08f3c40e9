"""Deduplicating SSD cache (CacheDedup's D-LRU, related work §V-C).

CacheDedup (Li et al., FAST'16) integrates in-line deduplication with
caching: the cache is indexed twice — a *source-address* index mapping
LBAs to content fingerprints, and a *fingerprint store* mapping each
unique content to one cached data page with a reference count.  A write
whose content already sits in the cache costs only a metadata update;
the D-LRU replacement algorithm keeps the two indices mutually
consistent while evicting in LRU order.

The paper positions this family as *orthogonal* to KDD: dedup removes
writes of duplicate content, KDD shrinks writes of similar-but-new
content.  We reproduce D-LRU so the benchmark harness can measure both
levers on the same stream.

Content identity is supplied by a :class:`ContentModel` (traces carry
no payloads): each write draws a content id with a configurable
duplicate ratio, following how the CacheDedup evaluation parameterises
its workloads.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..errors import CacheError, ConfigError
from ..raid.array import RAIDArray
from .base import CacheConfig, CachePolicy, Outcome


class ContentModel:
    """Assigns content ids to writes with a target duplicate ratio.

    With probability ``dup_ratio`` a write repeats an existing popular
    content (Zipf over previously seen contents); otherwise it creates
    fresh content.  Reads return the last content written to the LBA
    (or a unique cold id).
    """

    def __init__(self, dup_ratio: float = 0.3, seed: int = 0) -> None:
        if not 0.0 <= dup_ratio <= 1.0:
            raise ConfigError("dup_ratio must be in [0, 1]")
        self.dup_ratio = dup_ratio
        self._rng = np.random.default_rng(seed)
        self._next_id = 0
        self._seen: list[int] = []
        self._current: dict[int, int] = {}

    def _fresh(self) -> int:
        cid = self._next_id
        self._next_id += 1
        self._seen.append(cid)
        return cid

    def content_for_write(self, lba: int) -> int:
        if self._seen and self._rng.random() < self.dup_ratio:
            # popular contents repeat more (rank-biased choice)
            rank = int(self._rng.integers(0, min(len(self._seen), 64)))
            cid = self._seen[rank]
        else:
            cid = self._fresh()
        self._current[lba] = cid
        return cid

    def content_for_read(self, lba: int) -> int:
        if lba not in self._current:
            self._current[lba] = self._fresh()
        return self._current[lba]


@dataclass
class _FingerprintEntry:
    content: int
    refcount: int


class DedupWriteThrough(CachePolicy):
    """Write-through cache with in-line deduplication (D-LRU).

    Structure follows CacheDedup: ``_source`` is the LBA index (LRU),
    ``_store`` the fingerprint store (LRU) holding one cache page per
    unique content.  Capacity counts unique contents — data pages —
    matching the real system where metadata lives beside the cache.
    """

    name = "dedup-wt"

    def __init__(
        self,
        config: CacheConfig,
        raid: RAIDArray,
        content: ContentModel | None = None,
    ) -> None:
        super().__init__(config, raid)
        self.content = content or ContentModel(seed=config.seed)
        self._source: OrderedDict[int, int] = OrderedDict()  # lba -> content
        self._store: OrderedDict[int, _FingerprintEntry] = OrderedDict()
        self.capacity = config.cache_pages
        self.dedup_write_hits = 0   # writes served by an existing fingerprint
        self._next_lpn = 0
        self._lpn_of_content: dict[int, int] = {}

    # -- D-LRU primitives -------------------------------------------------------

    def _touch(self, lba: int, content: int) -> None:
        self._source[lba] = content
        self._source.move_to_end(lba)
        self._store.move_to_end(content)

    def _deref(self, content: int) -> None:
        entry = self._store.get(content)
        if entry is None:
            raise CacheError(f"dangling fingerprint {content}")
        entry.refcount -= 1
        # zero-ref fingerprints stay cached (they may dedup future writes)
        if entry.refcount < 0:
            raise CacheError(f"negative refcount for content {content}")

    def _insert_content(self, content: int) -> bool:
        """Ensure content is in the store; True if a data write happened."""
        entry = self._store.get(content)
        if entry is not None:
            self._store.move_to_end(content)
            return False
        while len(self._store) >= self.capacity:
            if not self._evict_one():
                return False  # store pinned by references (cannot happen: see below)
        lpn = self.meta_pages + (self._next_lpn % self.config.cache_pages)
        self._next_lpn += 1
        self._lpn_of_content[content] = lpn
        self._store[content] = _FingerprintEntry(content=content, refcount=0)
        self._ssd_write(self._lpn_of_content[content], "data")
        return True

    def _evict_one(self) -> bool:
        """Evict the LRU fingerprint and every LBA mapping onto it."""
        for content in self._store:
            victims = [l for l, c in self._source.items() if c == content]
            for lba in victims:
                del self._source[lba]
            del self._store[content]
            lpn = self._lpn_of_content.pop(content, None)
            if lpn is not None:
                self._ssd_trim(lpn)
            return True
        return False

    # -- the policy interface ------------------------------------------------------

    def read(self, lba: int) -> Outcome:
        content = self.content.content_for_read(lba)
        cached_content = self._source.get(lba)
        if cached_content is not None and cached_content in self._store:
            self.stats.read_hits += 1
            self._touch(lba, cached_content)
            self._ssd_read(1)
            return Outcome(hit=True, is_read=True, fg_ssd_reads=1)
        self.stats.read_misses += 1
        ops = self.io.read(lba)
        out = Outcome(hit=False, is_read=True, fg_disk_ops=ops)
        # fill: dedup applies to fills too (identical content shares a page)
        wrote = self._insert_content(content)
        if wrote:
            out.bg_ssd_writes += 1
        if lba in self._source:
            self._deref(self._source[lba])
        self._store[content].refcount += 1
        self._touch(lba, content)
        return out

    def write(self, lba: int) -> Outcome:
        content = self.content.content_for_write(lba)
        was_cached = self._source.get(lba) is not None
        if was_cached:
            self.stats.write_hits += 1
        else:
            self.stats.write_misses += 1
        ops = self.io.write(lba)  # write-through: full parity update
        out = Outcome(hit=was_cached, is_read=False, fg_disk_ops=ops)
        if lba in self._source:
            self._deref(self._source[lba])
        wrote = self._insert_content(content)
        if wrote:
            out.bg_ssd_writes += 1
        else:
            self.dedup_write_hits += 1
        self._store[content].refcount += 1
        self._touch(lba, content)
        return out

    # -- verification ---------------------------------------------------------------

    def check_invariants(self) -> None:
        for lba, content in self._source.items():
            if content not in self._store:
                raise CacheError(f"source entry {lba} -> missing content {content}")
        refs: dict[int, int] = {}
        for content in self._source.values():
            refs[content] = refs.get(content, 0) + 1
        for content, entry in self._store.items():
            if refs.get(content, 0) != entry.refcount:
                raise CacheError(
                    f"refcount mismatch for content {content}: "
                    f"{entry.refcount} != {refs.get(content, 0)}"
                )
        if len(self._store) > self.capacity:
            raise CacheError("fingerprint store over capacity")

    @property
    def dedup_ratio(self) -> float:
        """Share of cache-bound writes eliminated by deduplication."""
        total = self.stats.writes + self.stats.read_misses
        return self.dedup_write_hits / total if total else 0.0
