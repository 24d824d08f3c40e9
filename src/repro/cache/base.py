"""Cache policy framework shared by WT / WA / WB / LeavO / KDD / Nossd.

A policy consumes page-granular accesses and decides what the SSD cache
and the RAID array do.  Every access returns an :class:`Outcome`
describing the foreground device work (what the request waits for) and
the background work (cleaning, delta commits, metadata commits) — the
trace-driven simulator only aggregates the counters, while the timing
simulator schedules the ops on device models.

The paper's consistency rule applies everywhere: a write is acknowledged
only after the data reaches the RAID array (RPO = 0 under SSD failure),
which is why foreground write work always contains RAID ops.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..errors import ConfigError
from ..flash.device import SSD, ssd_for_pages
from ..raid.array import DiskOp, FastAccounting, RAIDArray
from ..traces.trace import Trace
from ..units import DEFAULT_PAGE_SIZE


@dataclass
class CacheConfig:
    """Configuration shared by all cache policies.

    Defaults follow the paper's setup: 4 KiB pages, one-page NVRAM
    buffers, metadata partition 0.59 % of the SSD, medium content
    locality (mean delta compression ratio 25 %).
    """

    cache_pages: int
    ways: int = 64
    group_pages: int = 64
    page_size: int = DEFAULT_PAGE_SIZE
    nvram_buffer_bytes: int = DEFAULT_PAGE_SIZE
    meta_partition_frac: float = 0.0059
    meta_gc_threshold: float = 0.9
    #: Cleaning starts when (old + delta) pages exceed this cache fraction.
    dirty_threshold: float = 0.50
    #: ... and stops once they drop below this fraction.
    low_watermark: float = 0.25
    mean_compression: float = 0.25
    compression_sigma: float | None = None
    #: Cache admission filter: "always" (paper default), "larc", "count".
    admission: str = "always"
    seed: int = 0
    #: Attach a real FTL-backed flash device (slower; gives WAF and wear).
    flash_model: bool = False

    def __post_init__(self) -> None:
        if self.cache_pages < 1:
            raise ConfigError("cache_pages must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.meta_partition_frac < 0.2:
            raise ConfigError("meta_partition_frac must be in (0, 0.2)")
        # The watermarks must be strictly ordered: with low_watermark ==
        # dirty_threshold the cleaner oscillates (every access past the
        # threshold triggers a full cleaning pass), and inverted values
        # would silently disable the stop condition entirely.
        if not 0.0 < self.low_watermark < self.dirty_threshold <= 1.0:
            raise ConfigError(
                "need 0 < low_watermark < dirty_threshold <= 1, got "
                f"low_watermark={self.low_watermark} "
                f"dirty_threshold={self.dirty_threshold}"
            )

    @property
    def meta_pages(self) -> int:
        """Metadata partition size in pages.

        Normally ``meta_partition_frac`` of the cache (the paper sweeps
        0.39-0.98 %), with a floor guaranteeing ~1.2 log slots per cache
        page so the circular log can always hold the live mapping — the
        fraction sweep at 4 KiB pages sits above this floor, but tiny
        page sizes (tests) would otherwise make the log unserviceable.
        """
        from ..nvram.metabuffer import MappingEntry

        by_frac = int(round(self.cache_pages * self.meta_partition_frac))
        entries_per_page = max(1, self.page_size // MappingEntry.FLASH_BYTES)
        floor = -(-(12 * self.cache_pages) // (10 * entries_per_page))
        return max(4, floor, by_frac)


@dataclass(slots=True)
class Outcome:
    """Device work caused by one page access."""

    hit: bool
    is_read: bool
    #: SSD pages read while the request waits (data + delta reads).
    fg_ssd_reads: int = 0
    #: RAID member ops the request waits for (e.g. the small write's 2r+2w).
    fg_disk_ops: list[DiskOp] = field(default_factory=list)
    #: Asynchronous SSD page writes (read fills, cache writes, delta/meta commits).
    bg_ssd_writes: int = 0
    #: Asynchronous RAID member ops (cleaning: parity repair I/Os).
    bg_disk_ops: list[DiskOp] = field(default_factory=list)
    #: Microseconds of CPU work (compression etc.) on the critical path.
    fg_compute: float = 0.0


@dataclass
class TrafficCounters:
    """What the trace-driven evaluation aggregates (Figures 5-8, 11)."""

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    #: SSD page writes by cause:
    fill_writes: int = 0      # read-miss fills
    data_writes: int = 0      # write-path data into DAZ
    delta_writes: int = 0     # packed DEZ page commits
    meta_writes: int = 0      # metadata log page commits
    ssd_reads: int = 0
    #: accesses that could not be cached (no allocatable slot).
    bypasses: int = 0

    @property
    def reads(self) -> int:
        return self.read_hits + self.read_misses

    @property
    def writes(self) -> int:
        return self.write_hits + self.write_misses

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def hits(self) -> int:
        return self.read_hits + self.write_hits

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def read_hit_ratio(self) -> float:
        return self.read_hits / self.reads if self.reads else 0.0

    @property
    def ssd_writes(self) -> int:
        """Total SSD write traffic in pages — the paper's headline metric."""
        return self.fill_writes + self.data_writes + self.delta_writes + self.meta_writes

    @property
    def meta_fraction(self) -> float:
        """Metadata I/O share of total cache writes (Figure 4)."""
        total = self.ssd_writes
        return self.meta_writes / total if total else 0.0


class CachePolicy(ABC):
    """Base class: set-associative SSD cache in front of a RAID array."""

    name = "abstract"

    def __init__(self, config: CacheConfig, raid: RAIDArray) -> None:
        self.config = config
        self.raid = raid
        #: Where RAID data I/O goes: the array itself, or a counter-only
        #: sink while a :func:`counter_sinks` drive runs on a healthy array.
        self.io: RAIDArray | FastAccounting = raid
        self.stats = TrafficCounters()
        # meta_pages is a derived property of the config; snapshot it once
        # so the per-access lpn arithmetic does not re-derive it.
        self.meta_pages = config.meta_pages
        self.ssd: SSD | None = None
        if config.flash_model:
            self.ssd = ssd_for_pages(
                config.cache_pages + self.meta_pages, config.page_size
            )

    # -- SSD accounting helpers ------------------------------------------

    def _ssd_write(self, lpn: int, kind: str) -> None:
        """Count one SSD page write; drives the flash model if attached."""
        if kind == "fill":
            self.stats.fill_writes += 1
        elif kind == "data":
            self.stats.data_writes += 1
        elif kind == "delta":
            self.stats.delta_writes += 1
        elif kind == "meta":
            self.stats.meta_writes += 1
        else:  # pragma: no cover - programming error
            raise ConfigError(f"unknown ssd write kind {kind}")
        if self.ssd is not None:
            self.ssd.write(lpn)

    def _ssd_read(self, npages: int = 1) -> None:
        self.stats.ssd_reads += npages

    def _ssd_trim(self, lpn: int) -> None:
        if self.ssd is not None:
            self.ssd.trim(lpn)

    # -- the access interface ----------------------------------------------

    def access(self, lba: int, is_read: bool) -> Outcome:
        """One page access; dispatches to the policy's read/write logic."""
        if is_read:
            return self.read(lba)
        return self.write(lba)

    @abstractmethod
    def read(self, lba: int) -> Outcome:
        """Serve a one-page read."""

    @abstractmethod
    def write(self, lba: int) -> Outcome:
        """Serve a one-page write."""

    def finish(self) -> None:
        """Flush background state at end of run (parity repairs etc.)."""

    def process_trace(self, trace: Trace) -> TrafficCounters:
        """Run a whole trace through the policy and return the counters.

        Only the counters survive the run, so the drive runs under
        :func:`counter_sinks`: on a healthy array the RAID data I/O goes
        to the counter-only sink instead of building member ops nobody
        reads.  The counters, errors and eviction sequence are those of
        the same accesses sent to the array one by one.
        """
        pages, is_read = trace.page_accesses()
        with counter_sinks((self,)):
            access = self.access
            for lba, read in zip(pages.tolist(), is_read.tolist()):
                access(lba, read)
            self.finish()
        return self.stats

    # -- verification ------------------------------------------------------

    def check_invariants(self) -> None:
        """Subclasses extend with their own structural checks."""


@contextmanager
def counter_sinks(policies: Iterable[CachePolicy]) -> Iterator[None]:
    """Send the policies' RAID data I/O to counter-only sinks for a drive.

    For callers that keep only counter totals (``process_trace``, the
    serve drive).  Eligibility is checked once, on entry: each policy
    gets a :meth:`RAIDArray.fast_account` sink over its array's shared
    counters, or keeps the array when it is unhealthy.  The array's
    health must not change until the drive ends, so runs that fail
    members or consume :class:`DiskOp` lists drive the array directly.
    On exit, normal or not, every policy's ``io`` is its array again.
    """
    policies = tuple(policies)
    try:
        for policy in policies:
            policy.io = policy.raid.fast_account() or policy.raid
        yield
    finally:
        for policy in policies:
            policy.io = policy.raid
