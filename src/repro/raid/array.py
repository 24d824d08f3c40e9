"""The RAID array: logical page I/O -> member-disk operations.

The array does two jobs:

* **Accounting / semantics** — every logical read/write is turned into a
  list of :class:`DiskOp` member operations (the small-write problem is
  visible right here: a one-page RAID-5 update is two reads plus two
  writes).  The timing simulator schedules these ops on HDD models; the
  counters feed the evaluation figures.
* **Payload (optional)** — with ``store_data=True`` the array keeps real
  page bytes and maintains parity, so tests can verify reconstruction
  and the delayed-parity protocol bit-for-bit.

Two extended interfaces from Section III-A connect the SSD cache to the
array: :meth:`write_without_parity_update` (used on write hits; leaves
the stripe's parity stale) and :meth:`parity_update` (used by the
background cleaner to repair it, in read-modify-write or
reconstruct-write mode).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from ..errors import ConfigError, DegradedError, RaidError
from .layout import PageLocation, RaidLayout, RaidLevel
from .parity import compute_p, compute_q, xor_blocks


class OpKind(Enum):
    DATA = "data"
    PARITY = "parity"
    Q_PARITY = "q"


class DiskOp(NamedTuple):
    """One member-disk page operation.

    A ``NamedTuple``: immutable, compared by value, and several times
    cheaper to build than a frozen dataclass — a one-page RAID-5 write
    builds four.
    """

    disk: int
    disk_page: int
    npages: int
    is_read: bool
    kind: OpKind = OpKind.DATA


@dataclass
class RaidCounters:
    """Cumulative member-disk traffic, in pages."""

    data_reads: int = 0
    data_writes: int = 0
    parity_reads: int = 0
    parity_writes: int = 0

    @property
    def reads(self) -> int:
        return self.data_reads + self.parity_reads

    @property
    def writes(self) -> int:
        return self.data_writes + self.parity_writes

    @property
    def total(self) -> int:
        return self.reads + self.writes

    def account(self, ops: Iterable[DiskOp]) -> None:
        for op in ops:
            if op.kind is OpKind.DATA:
                if op.is_read:
                    self.data_reads += op.npages
                else:
                    self.data_writes += op.npages
            else:
                if op.is_read:
                    self.parity_reads += op.npages
                else:
                    self.parity_writes += op.npages


def _check_range(lpage: int, npages: int, capacity: int) -> None:
    if npages < 1:
        raise ConfigError("npages must be >= 1")
    if lpage < 0 or lpage + npages > capacity:
        raise ConfigError(f"logical pages [{lpage}, {lpage + npages}) out of range")


def _check_delayed_parity(level: RaidLevel) -> None:
    if level not in (RaidLevel.RAID5, RaidLevel.RAID6):
        raise RaidError("delayed parity requires a parity RAID level")


def _use_rcw(data_disks: int, parity_disks: int, k: int) -> bool:
    """Whether ``k`` pages written at one stripe offset take
    reconstruct-write rather than read-modify-write.

    Classic RAID-5/6 small-write logic, decided from counts alone:
    reconstruct-write reads the ``data_disks - k`` untouched chunks,
    read-modify-write reads the ``k`` old chunks and every parity unit.
    A full-offset write always reconstructs.
    """
    untouched = data_disks - k
    rmw_ios = 2 * k + 2 * parity_disks  # read+write each written chunk & parity
    rcw_ios = untouched + k + parity_disks  # read others, write new + parity
    return rcw_ios < rmw_ios or not untouched


class FastAccounting:
    """Counter-only RAID sink for a healthy array.

    The trace-driven simulators only consume :class:`RaidCounters`; the
    :class:`DiskOp` lists matter solely to the timing engine.  On a
    non-degraded array with no latent sector errors and no stored
    payload, the member I/O of a write depends only on how many pages
    it puts at one stripe offset, so the sink applies counter deltas
    instead of deriving the stripe geometry page by page.  It takes the
    array's :meth:`~RAIDArray.read`, :meth:`~RAIDArray.write` and
    :meth:`~RAIDArray.write_without_parity_update` calls — same
    signatures, range checks and errors — and returns no member ops;
    ``parity_update`` stays on the array.  The deltas follow the
    read-modify-write vs reconstruct-write choice of :func:`_use_rcw`,
    the helper :meth:`RAIDArray._write_group` also calls.  Obtain one
    from :meth:`RAIDArray.fast_account`.
    """

    __slots__ = (
        "counters",
        "stale_stripes",
        "capacity_pages",
        "stripe_data_pages",
        "chunk_pages",
        "level",
        "ndisks",
        "data_disks",
        "parity_disks",
        "_single",
    )

    def __init__(self, array: "RAIDArray") -> None:
        layout = array.layout
        self.counters = array.counters
        self.stale_stripes = array.stale_stripes
        self.capacity_pages = array.capacity_pages
        self.stripe_data_pages = layout.stripe_data_pages
        self.chunk_pages = layout.chunk_pages
        self.level = layout.level
        self.ndisks = array.ndisks
        self.data_disks = layout.data_disks_per_stripe
        self.parity_disks = layout.parity_disks
        self._single = self._group_ios(1)

    def _group_ios(self, k: int) -> tuple[int, int, int, int]:
        """(data reads, parity reads, data writes, parity writes) for
        ``k`` pages written at one stripe offset."""
        if self.level is RaidLevel.RAID0:
            return 0, 0, k, 0
        if self.level is RaidLevel.RAID1:
            return 0, 0, k * self.ndisks, 0
        n_parity = self.parity_disks
        if _use_rcw(self.data_disks, n_parity, k):
            return self.data_disks - k, 0, k, n_parity
        return k, n_parity, k, n_parity

    def _account(self, ios: tuple[int, int, int, int]) -> None:
        c = self.counters
        c.data_reads += ios[0]
        c.parity_reads += ios[1]
        c.data_writes += ios[2]
        c.parity_writes += ios[3]

    def read(self, lpage: int, npages: int = 1) -> list[DiskOp]:
        """Counter-only :meth:`RAIDArray.read`."""
        _check_range(lpage, npages, self.capacity_pages)
        self.counters.data_reads += npages
        return []

    def write(
        self,
        lpage: int,
        npages: int = 1,
        data: Sequence[bytes | np.ndarray] | None = None,
    ) -> list[DiskOp]:
        """Counter-only :meth:`RAIDArray.write` (full parity update)."""
        _check_range(lpage, npages, self.capacity_pages)
        if data is not None and len(data) != npages:
            raise ConfigError("data must contain one payload per page")
        if npages == 1:
            data_reads, parity_reads, data_writes, parity_writes = self._single
            c = self.counters
            c.data_reads += data_reads
            c.parity_reads += parity_reads
            c.data_writes += data_writes
            c.parity_writes += parity_writes
            return []
        # the array groups the pages by (stripe, offset within chunk)
        groups = Counter(
            (page // self.stripe_data_pages, page % self.chunk_pages)
            for page in range(lpage, lpage + npages)
        )
        for k in groups.values():
            self._account(self._group_ios(k))
        return []

    def write_without_parity_update(
        self, lpage: int, data: bytes | np.ndarray | None = None
    ) -> list[DiskOp]:
        """Counter-only :meth:`RAIDArray.write_without_parity_update`."""
        _check_delayed_parity(self.level)
        _check_range(lpage, 1, self.capacity_pages)
        self.counters.data_writes += 1
        self.stale_stripes.add(lpage // self.stripe_data_pages)
        return []


class RAIDArray:
    """A parity-protected disk array with delayed-parity extensions."""

    def __init__(
        self,
        level: RaidLevel = RaidLevel.RAID5,
        ndisks: int = 5,
        chunk_pages: int = 16,
        pages_per_disk: int = 1 << 22,
        page_size: int = 4096,
        store_data: bool = False,
    ) -> None:
        self.layout = RaidLayout(
            level, ndisks, chunk_pages=chunk_pages, pages_per_disk=pages_per_disk
        )
        self.page_size = page_size
        self.counters = RaidCounters()
        self.failed_disks: set[int] = set()
        #: Stripes whose parity is stale because of write_without_parity_update.
        self.stale_stripes: set[int] = set()
        #: Member pages hit by a latent sector error: unreadable until a
        #: scrub/repair rewrites them.  Keyed ``(disk, disk_page)``.
        self.media_errors: set[tuple[int, int]] = set()
        self._store = store_data
        # disk -> disk_page -> page bytes (uint8 arrays); parity included.
        self._disk_data: list[dict[int, np.ndarray]] | None = (
            [dict() for _ in range(ndisks)] if store_data else None
        )

    # -- basic properties -----------------------------------------------------

    @property
    def level(self) -> RaidLevel:
        return self.layout.level

    @property
    def ndisks(self) -> int:
        return self.layout.ndisks

    @property
    def capacity_pages(self) -> int:
        cap = self.layout.capacity_pages
        assert cap is not None
        return cap

    def _check_lpage(self, lpage: int, npages: int = 1) -> None:
        _check_range(lpage, npages, self.capacity_pages)

    # -- payload helpers -------------------------------------------------------

    def _zeros(self) -> np.ndarray:
        return np.zeros(self.page_size, dtype=np.uint8)

    def _get_disk_page(self, disk: int, disk_page: int) -> np.ndarray:
        assert self._disk_data is not None
        return self._disk_data[disk].get(disk_page, self._zeros())

    def _put_disk_page(self, disk: int, disk_page: int, data: np.ndarray) -> None:
        assert self._disk_data is not None
        self._disk_data[disk][disk_page] = np.asarray(data, dtype=np.uint8).copy()

    def _coerce_page(self, data: bytes | np.ndarray) -> np.ndarray:
        arr = np.frombuffer(data, dtype=np.uint8) if isinstance(data, (bytes, bytearray)) else np.asarray(data, np.uint8)
        if len(arr) > self.page_size:
            raise RaidError(f"payload longer than a page ({len(arr)})")
        if len(arr) < self.page_size:
            arr = np.concatenate([arr, np.zeros(self.page_size - len(arr), np.uint8)])
        return arr

    # -- stripe geometry helpers ----------------------------------------------

    def _stripe_parity_locations(self, stripe: int, offset: int) -> list[tuple[int, int, OpKind]]:
        """(disk, disk_page, kind) for each parity unit at chunk ``offset``."""
        out: list[tuple[int, int, OpKind]] = []
        page = stripe * self.layout.chunk_pages + offset
        p = self.layout.parity_disk(stripe)
        if p is not None:
            out.append((p, page, OpKind.PARITY))
        q = self.layout.q_disk(stripe)
        if q is not None:
            out.append((q, page, OpKind.Q_PARITY))
        return out

    def _data_locations_at_offset(self, stripe: int, offset: int) -> list[tuple[int, PageLocation]]:
        """(logical page, location) of every data page at chunk ``offset``."""
        base = stripe * self.layout.stripe_data_pages
        out = []
        for chunk in range(self.layout.data_disks_per_stripe):
            lpage = base + chunk * self.layout.chunk_pages + offset
            out.append((lpage, self.layout.locate(lpage)))
        return out

    # -- failure management -----------------------------------------------------

    def fail_disk(self, disk: int) -> None:
        """Mark a member disk failed (its contents are lost)."""
        if not 0 <= disk < self.ndisks:
            raise ConfigError(f"no such disk {disk}")
        self.failed_disks.add(disk)
        if len(self.failed_disks) > self.layout.fault_tolerance:
            raise DegradedError(
                f"{len(self.failed_disks)} failures exceed "
                f"{self.level.name} tolerance of {self.layout.fault_tolerance}"
            )
        # Latent sector errors on a lost member are subsumed by the loss
        # (the rebuild rewrites every page of the replacement disk).
        self.media_errors = {k for k in self.media_errors if k[0] != disk}
        if self._disk_data is not None:
            self._disk_data[disk] = {}

    @property
    def degraded(self) -> bool:
        return bool(self.failed_disks)

    def fast_account(self) -> FastAccounting | None:
        """Counter-only sink for this array, or None when ineligible.

        Eligibility requires the fixed member-I/O patterns to hold: no
        failed member (degraded reads/writes reroute I/O), no latent
        sector errors (reads reconstruct through peers), and no stored
        payload (payload maintenance reads real pages).  A sink is only
        valid while all three stay true.
        """
        if self.failed_disks or self.media_errors or self._disk_data is not None:
            return None
        return FastAccounting(self)

    # -- media errors (latent sector faults, repro.faults) ----------------------

    def mark_media_error(self, disk: int, disk_page: int) -> None:
        """Record a latent sector error: this member page is unreadable.

        The payload bytes are deliberately *kept* in store_data mode: a
        media error gates the host read path only, while parity repair
        still works — under KDD the cleaner repairs parity from cached
        deltas (read-modify-write on the parity unit) without ever
        reading the failed sector, and the payload-mode parity recompute
        stands in for exactly that delta path (see DESIGN.md).
        """
        if not 0 <= disk < self.ndisks:
            raise ConfigError(f"no such disk {disk}")
        pages = self.layout.pages_per_disk
        if disk_page < 0 or (pages is not None and disk_page >= pages):
            raise ConfigError(f"disk page {disk_page} out of range")
        self.media_errors.add((disk, disk_page))

    def page_readable(self, disk: int, disk_page: int) -> bool:
        """Whether a direct read of one member page can succeed."""
        return (
            disk not in self.failed_disks
            and (disk, disk_page) not in self.media_errors
        )

    def member_page_role(self, disk: int, disk_page: int) -> tuple[int, OpKind]:
        """``(stripe, unit kind)`` of one member page."""
        stripe = disk_page // self.layout.chunk_pages
        if disk == self.layout.parity_disk(stripe):
            return stripe, OpKind.PARITY
        if disk == self.layout.q_disk(stripe):
            return stripe, OpKind.Q_PARITY
        return stripe, OpKind.DATA

    def reconstruct_read_ops(self, disk: int, disk_page: int) -> list[DiskOp]:
        """Member reads that reconstruct one unreadable member page.

        For a data unit this is the classic degraded read (surviving
        peers + parity) and **fails loudly** with :class:`DegradedError`
        while the stripe's parity is stale — the executable form of the
        paper's vulnerability-window argument.  For a parity unit it is
        the data chunks at the same offset.  Ops are *not* accounted;
        the caller decides (repair vs. timing-only reconstruction).
        """
        if self.level is RaidLevel.RAID0:
            raise DegradedError("RAID-0 cannot reconstruct a lost page")
        stripe, kind = self.member_page_role(disk, disk_page)
        offset = disk_page - stripe * self.layout.chunk_pages
        if self.level is RaidLevel.RAID1:
            for mirror in range(self.ndisks):
                if mirror != disk and self.page_readable(mirror, disk_page):
                    return [DiskOp(mirror, disk_page, 1, True)]
            raise DegradedError("no readable mirror left")
        if kind is not OpKind.DATA:
            # rebuild parity from the data chunks at this offset
            ops = []
            for _lpage, loc in self._data_locations_at_offset(stripe, offset):
                if not self.page_readable(loc.disk, loc.disk_page):
                    raise DegradedError(
                        f"data page ({loc.disk},{loc.disk_page}) also "
                        f"unreadable while rebuilding parity of stripe {stripe}"
                    )
                ops.append(DiskOp(loc.disk, loc.disk_page, 1, True))
            return ops
        if stripe in self.stale_stripes:
            raise DegradedError(
                f"stripe {stripe} has stale parity; page ({disk},{disk_page}) "
                "cannot be reconstructed until the cleaner repairs parity "
                "(the vulnerability window the paper closes)"
            )
        ops = []
        for _lpage, other in self._data_locations_at_offset(stripe, offset):
            if other.disk == disk:
                continue
            if not self.page_readable(other.disk, other.disk_page):
                if self.level is RaidLevel.RAID5:
                    raise DegradedError(
                        f"double failure in stripe {stripe}: peer "
                        f"({other.disk},{other.disk_page}) also unreadable"
                    )
                continue  # RAID-6: second loss handled via Q
            ops.append(DiskOp(other.disk, other.disk_page, 1, True))
        for pdisk, ppage, pkind in self._stripe_parity_locations(stripe, offset):
            if not self.page_readable(pdisk, ppage):
                if self.level is RaidLevel.RAID5:
                    raise DegradedError(
                        f"stripe {stripe}: parity ({pdisk},{ppage}) unreadable "
                        "alongside the data page — double failure"
                    )
                continue
            ops.append(DiskOp(pdisk, ppage, 1, True, pkind))
        return ops

    def repair_page(self, disk: int, disk_page: int) -> list[DiskOp]:
        """Reconstruct one media-errored member page and rewrite it.

        Returns the member ops performed (peer reads + one write),
        accounted in :attr:`counters`.  No-op for pages without a
        recorded media error.  Raises :class:`DegradedError` when the
        page is a data unit of a stale-parity stripe; repair the parity
        first (``parity_update`` / the cleaner), then retry.
        """
        key = (disk, disk_page)
        if disk in self.failed_disks:
            raise RaidError(
                "repair_page repairs latent sector errors; a failed member "
                "is rebuilt with rebuild_disk"
            )
        if key not in self.media_errors:
            return []
        stripe, kind = self.member_page_role(disk, disk_page)
        ops = self.reconstruct_read_ops(disk, disk_page)
        ops.append(DiskOp(disk, disk_page, 1, False, kind))
        if self._disk_data is not None:
            offset = disk_page - stripe * self.layout.chunk_pages
            if kind is OpKind.DATA:
                for lpage, loc in self._data_locations_at_offset(stripe, offset):
                    if loc.disk == disk:
                        payload = self._reconstruct_payload(lpage, loc)
                        self.media_errors.discard(key)
                        self._put_disk_page(disk, disk_page, payload)
                        break
            else:
                self.media_errors.discard(key)
                self._recompute_parity_at(
                    stripe, offset, self._stripe_parity_locations(stripe, offset)
                )
        self.media_errors.discard(key)
        self.counters.account(ops)
        return ops

    # -- reads ---------------------------------------------------------------

    def read(self, lpage: int, npages: int = 1) -> list[DiskOp]:
        """Read logical pages, reconstructing through parity if degraded.

        A page is served degraded both when its member disk failed and
        when the page itself carries a latent sector error
        (:meth:`mark_media_error`).
        """
        self._check_lpage(lpage, npages)
        ops: list[DiskOp] = []
        for page in range(lpage, lpage + npages):
            loc = self.layout.locate(page)
            if self.page_readable(loc.disk, loc.disk_page):
                ops.append(DiskOp(loc.disk, loc.disk_page, 1, True))
                continue
            ops.extend(self.reconstruct_read_ops(loc.disk, loc.disk_page))
        self.counters.account(ops)
        return ops

    def read_data(self, lpage: int) -> np.ndarray:
        """Current payload of a logical page (store_data mode only)."""
        if self._disk_data is None:
            raise ConfigError("array was created with store_data=False")
        self._check_lpage(lpage)
        loc = self.layout.locate(lpage)
        if self.page_readable(loc.disk, loc.disk_page):
            return self._get_disk_page(loc.disk, loc.disk_page)
        return self._reconstruct_payload(lpage, loc)

    def _reconstruct_payload(self, lpage: int, loc: PageLocation) -> np.ndarray:
        if self.level is RaidLevel.RAID1:
            for mirror in range(self.ndisks):
                if mirror != loc.disk and self.page_readable(mirror, loc.disk_page):
                    return self._get_disk_page(mirror, loc.disk_page)
            raise DegradedError("no readable mirror left")
        if self.level is RaidLevel.RAID0:
            raise DegradedError("RAID-0 data is unrecoverable")
        if loc.stripe in self.stale_stripes:
            raise DegradedError(f"stale parity on stripe {loc.stripe}")
        offset = loc.disk_page - loc.stripe * self.layout.chunk_pages
        blocks = []
        for _lpage, other in self._data_locations_at_offset(loc.stripe, offset):
            if other.disk == loc.disk:
                continue
            if not self.page_readable(other.disk, other.disk_page):
                raise DegradedError("double data failure needs RAID-6 decode")
            blocks.append(self._get_disk_page(other.disk, other.disk_page))
        p_disk = self.layout.parity_disk(loc.stripe)
        assert p_disk is not None
        parity_page = self.layout.parity_page(loc.stripe, lpage)
        if not self.page_readable(p_disk, parity_page):
            raise DegradedError(
                f"parity ({p_disk},{parity_page}) unreadable alongside the "
                "data page — double failure"
            )
        blocks.append(self._get_disk_page(p_disk, parity_page))
        return xor_blocks(blocks)

    # -- writes with parity update (the small-write path) -----------------------

    def write(
        self,
        lpage: int,
        npages: int = 1,
        data: Sequence[bytes | np.ndarray] | None = None,
    ) -> list[DiskOp]:
        """Write logical pages with a full parity update.

        Pages are grouped per stripe and per chunk offset; each group is
        served by whichever of read-modify-write or reconstruct-write
        needs fewer member I/Os (classic RAID-5 small-write logic).
        """
        self._check_lpage(lpage, npages)
        if data is not None and len(data) != npages:
            raise ConfigError("data must contain one payload per page")
        layout = self.layout
        if npages == 1:  # one page is one group
            loc = layout.locate(lpage)
            group = self._write_group(
                loc.stripe, loc.disk_page - loc.stripe * layout.chunk_pages,
                [loc], None if data is None else [data[0]])
            self.counters.account(group)
            return group
        ops: list[DiskOp] = []
        # Locate each page once and group the placements by (stripe,
        # offset-within-chunk); the groups never locate a page again.
        groups: dict[tuple[int, int], list[int]] = {}
        locs: list[PageLocation] = []
        for i, page in enumerate(range(lpage, lpage + npages)):
            loc = layout.locate(page)
            locs.append(loc)
            offset = loc.disk_page - loc.stripe * layout.chunk_pages
            groups.setdefault((loc.stripe, offset), []).append(i)
        for (stripe, offset), idxs in groups.items():
            payloads = [data[i] for i in idxs] if data is not None else None
            ops.extend(self._write_group(stripe, offset,
                                         [locs[i] for i in idxs], payloads))
        self.counters.account(ops)
        return ops

    def _write_group(
        self,
        stripe: int,
        offset: int,
        locs: list[PageLocation],
        payloads: list[bytes | np.ndarray] | None,
    ) -> list[DiskOp]:
        """Member ops of the pages placed at ``locs``, all at one stripe
        offset."""
        if self.level is RaidLevel.RAID0:
            return self._write_plain(locs, payloads)
        if self.level is RaidLevel.RAID1:
            ops = []
            for i, loc in enumerate(locs):
                for mirror in range(self.ndisks):
                    if mirror in self.failed_disks:
                        continue
                    ops.append(DiskOp(mirror, loc.disk_page, 1, False))
                    if self._disk_data is not None and payloads is not None:
                        self._put_disk_page(mirror, loc.disk_page, self._coerce_page(payloads[i]))
                    elif self._disk_data is not None:
                        self._put_disk_page(mirror, loc.disk_page, self._zeros())
            return ops

        layout = self.layout
        failed = self.failed_disks
        parity = self._stripe_parity_locations(stripe, offset)
        ops: list[DiskOp] = []
        if _use_rcw(layout.data_disks_per_stripe, layout.parity_disks,
                    len(locs)):
            # read the untouched chunks at this offset
            written = {loc.disk for loc in locs}
            for _, loc in self._data_locations_at_offset(stripe, offset):
                if loc.disk in written or loc.disk in failed:
                    continue
                ops.append(DiskOp(loc.disk, loc.disk_page, 1, True))
        else:
            for loc in locs:
                if loc.disk in failed:
                    continue
                ops.append(DiskOp(loc.disk, loc.disk_page, 1, True))
            for disk, dpage, kind in parity:
                if disk in failed:
                    continue
                ops.append(DiskOp(disk, dpage, 1, True, kind))

        self._apply_payload_writes(stripe, offset, locs, payloads, parity)

        for loc in locs:
            if loc.disk in failed:
                continue
            ops.append(DiskOp(loc.disk, loc.disk_page, 1, False))
        for disk, dpage, kind in parity:
            if disk in failed:
                continue
            ops.append(DiskOp(disk, dpage, 1, False, kind))
        return ops

    def _write_plain(
        self, locs: list[PageLocation], payloads: list[bytes | np.ndarray] | None
    ) -> list[DiskOp]:
        ops = []
        for i, loc in enumerate(locs):
            if loc.disk in self.failed_disks:
                raise DegradedError("RAID-0 write to failed disk")
            ops.append(DiskOp(loc.disk, loc.disk_page, 1, False))
            if self._disk_data is not None:
                payload = (
                    self._coerce_page(payloads[i]) if payloads is not None else self._zeros()
                )
                self._put_disk_page(loc.disk, loc.disk_page, payload)
        return ops

    def _apply_payload_writes(
        self,
        stripe: int,
        offset: int,
        locs: list[PageLocation],
        payloads: list[bytes | np.ndarray] | None,
        parity: list[tuple[int, int, OpKind]],
    ) -> None:
        """Store new data bytes and recompute parity (store_data mode)."""
        if self._disk_data is None:
            return
        for i, loc in enumerate(locs):
            payload = (
                self._coerce_page(payloads[i]) if payloads is not None else self._zeros()
            )
            if loc.disk not in self.failed_disks:
                self._put_disk_page(loc.disk, loc.disk_page, payload)
        self._recompute_parity_at(stripe, offset, parity)

    def _recompute_parity_at(
        self, stripe: int, offset: int, parity: list[tuple[int, int, OpKind]]
    ) -> None:
        """Rewrite the ``parity`` units at chunk ``offset`` from the data
        pages (store_data mode)."""
        assert self._disk_data is not None
        blocks = []
        for _, loc in self._data_locations_at_offset(stripe, offset):
            if loc.disk in self.failed_disks:
                raise RaidError(
                    "payload-mode parity recompute needs all data disks; "
                    "repair parity before failing a data disk (in op-counting "
                    "mode rmw applies deltas and does not hit this limit)"
                )
            blocks.append(self._get_disk_page(loc.disk, loc.disk_page))
        for disk, dpage, kind in parity:
            if disk in self.failed_disks:
                continue
            unit = compute_p(blocks) if kind is OpKind.PARITY else compute_q(blocks)
            self._put_disk_page(disk, dpage, unit)

    # -- delayed-parity extended interfaces (Section III-A) ----------------------

    def write_without_parity_update(
        self, lpage: int, data: bytes | np.ndarray | None = None
    ) -> list[DiskOp]:
        """Write one data page only; parity of the stripe becomes stale.

        Used by LeavO/KDD on write hits: the old data needed to repair
        parity later lives in the SSD cache, so the array can skip the
        read-old/read-parity/write-parity I/Os now.
        """
        _check_delayed_parity(self.level)
        self._check_lpage(lpage)
        loc = self.layout.locate(lpage)
        if loc.disk in self.failed_disks:
            raise DegradedError("cannot delay parity while writing to a failed disk")
        ops = [DiskOp(loc.disk, loc.disk_page, 1, False)]
        self.stale_stripes.add(loc.stripe)
        if self._disk_data is not None:
            payload = self._coerce_page(data) if data is not None else self._zeros()
            self._put_disk_page(loc.disk, loc.disk_page, payload)
        self.counters.account(ops)
        return ops

    def parity_update(
        self,
        stripe: int,
        changed_pages: Iterable[int] | None = None,
        cached_pages: Sequence[int] = (),
        force_mode: str | None = None,
    ) -> list[DiskOp]:
        """Repair the stale parity of ``stripe`` (cleaner interface).

        *Reconstruct-write* is used when every data page of the stripe is
        available without disk reads (all cached, per Section III-D);
        otherwise *read-modify-write* reads the stale parity at the
        chunk offsets of ``changed_pages`` (every offset when none of the
        stripe's pages is given) and writes it back with the changes
        XORed in.

        ``changed_pages`` are the logical pages written since the parity
        was last right; pages of other stripes are ignored.  With stored
        data the parity is recomputed from the data pages, so only which
        pages changed matters.  ``cached_pages`` lists the stripe's
        logical pages resident in the SSD cache.
        """
        if stripe not in self.stale_stripes:
            return []
        all_pages = set(self.layout.stripe_pages(stripe))
        use_rcw = force_mode == "rcw" or (
            force_mode is None and all_pages.issubset(set(cached_pages))
        )
        if force_mode == "rmw":
            use_rcw = False

        ops: list[DiskOp] = []
        chunk_pages = self.layout.chunk_pages
        if use_rcw:
            # All data known to the caller: write parity only.
            for offset in range(chunk_pages):
                parity = self._stripe_parity_locations(stripe, offset)
                for disk, dpage, kind in parity:
                    if disk in self.failed_disks:
                        continue
                    ops.append(DiskOp(disk, dpage, 1, False, kind))
                if self._disk_data is not None:
                    self._recompute_parity_at(stripe, offset, parity)
        else:
            # Read stale parity pages, XOR the changes in, write back.
            touched_offsets = sorted(
                {
                    (lp - stripe * self.layout.stripe_data_pages) % chunk_pages
                    for lp in (changed_pages or ())
                    if self.layout.stripe_of(lp) == stripe
                }
            ) or list(range(chunk_pages))
            for offset in touched_offsets:
                parity = self._stripe_parity_locations(stripe, offset)
                for disk, dpage, kind in parity:
                    if disk in self.failed_disks:
                        continue
                    ops.append(DiskOp(disk, dpage, 1, True, kind))
                    ops.append(DiskOp(disk, dpage, 1, False, kind))
                if self._disk_data is not None:
                    # With payload we recompute exactly; the delta-XOR path is
                    # verified equivalent by the test suite.
                    self._recompute_parity_at(stripe, offset, parity)
        self.stale_stripes.discard(stripe)
        self.counters.account(ops)
        return ops

    # -- verification -----------------------------------------------------------

    def verify_stripe(self, stripe: int) -> bool:
        """Parity consistency of one stripe (store_data mode)."""
        if self._disk_data is None:
            raise ConfigError("verification requires store_data=True")
        for offset in range(self.layout.chunk_pages):
            blocks = [
                self._get_disk_page(loc.disk, loc.disk_page)
                for _, loc in self._data_locations_at_offset(stripe, offset)
            ]
            for disk, dpage, kind in self._stripe_parity_locations(stripe, offset):
                if disk in self.failed_disks:
                    continue
                expected = compute_p(blocks) if kind is OpKind.PARITY else compute_q(blocks)
                if not np.array_equal(self._get_disk_page(disk, dpage), expected):
                    return False
        return True
