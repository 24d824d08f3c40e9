"""Array resynchronisation and failed-disk rebuild.

Two recovery flows from Section III-E2:

* **SSD cache failure** — data was always dispatched to RAID, so nothing
  is lost, but stripes with delayed parity must be re-synchronised by
  reconstruct-write before the array is single-fault tolerant again.
* **HDD failure** — the cache first repairs every stale parity via the
  ``parity_update`` interface, then the RAID layer rebuilds the failed
  member from the survivors.

Reports are **count-only by default**: a fault sweep can rebuild
millions of pages, and keeping every :class:`DiskOp` alive would exhaust
memory.  Pass ``keep_ops=True`` to retain the op list (tests, the
timing-simulator rebuild-under-load driver).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from ..errors import DegradedError
from .array import DiskOp, OpKind, RAIDArray
from .layout import RaidLevel


@dataclass
class RebuildReport:
    """What a recovery pass did, for tests and experiment logs.

    Member traffic is tallied in :attr:`member_reads` /
    :attr:`member_writes` (pages); the raw op list is kept only when the
    report was created with ``keep_ops=True``.
    """

    stripes_resynced: int = 0
    pages_rebuilt: int = 0
    member_reads: int = 0
    member_writes: int = 0
    keep_ops: bool = False
    disk_ops: list[DiskOp] = field(default_factory=list)

    def add_ops(self, ops: Iterable[DiskOp]) -> None:
        for op in ops:
            if op.is_read:
                self.member_reads += op.npages
            else:
                self.member_writes += op.npages
            if self.keep_ops:
                self.disk_ops.append(op)

    @property
    def member_ios(self) -> int:
        return self.member_reads + self.member_writes


def resync_stale_parity(array: RAIDArray, keep_ops: bool = False) -> RebuildReport:
    """Recompute parity for every stale stripe (reconstruct-write).

    This is the window-of-vulnerability closer after an SSD cache is
    lost: read all data chunks of each stale stripe, recompute parity,
    write it.
    """
    report = RebuildReport(keep_ops=keep_ops)
    for stripe in sorted(array.stale_stripes):
        data_reads: list[DiskOp] = []
        for lpage in array.layout.stripe_pages(stripe):
            loc = array.layout.locate(lpage)
            if loc.disk in array.failed_disks:
                raise DegradedError(
                    "disk failure with stale parity: data loss "
                    "(the failure mode LeavO is exposed to)"
                )
            data_reads.append(DiskOp(loc.disk, loc.disk_page, 1, True))
        # parity_update accounts its own ops; the data reads are ours.
        array.counters.account(
            op for op in data_reads if op.kind is OpKind.DATA
        )
        report.add_ops(data_reads)
        report.add_ops(array.parity_update(
            stripe, cached_pages=list(array.layout.stripe_pages(stripe))
        ))
        report.stripes_resynced += 1
    return report


def iter_rebuild_ops(
    array: RAIDArray, disk: int
) -> Iterator[tuple[int, list[DiskOp]]]:
    """Lazily yield ``(disk_page, ops)`` reconstructing each page of ``disk``.

    Each batch reads the page's surviving stripe peers and writes the
    reconstructed page to the replacement disk.  Nothing is accounted
    and no array state changes — callers drive the pace (all at once in
    :func:`rebuild_disk`, interleaved with foreground I/O in the
    rebuild-under-load driver) and call :func:`finish_rebuild` when the
    sweep completes.
    """
    if disk not in array.failed_disks:
        raise DegradedError(f"disk {disk} is not failed")
    if array.stale_stripes:
        raise DegradedError(
            "stale parity present: run parity updates before rebuilding "
            "(KDD's HDD-failure flow, Section III-E2)"
        )
    if array.level not in (RaidLevel.RAID1, RaidLevel.RAID5, RaidLevel.RAID6):
        raise DegradedError(f"{array.level.name} cannot rebuild a member")

    layout = array.layout
    pages_per_disk = layout.pages_per_disk or 0
    max_stripe = pages_per_disk // layout.chunk_pages
    for stripe in range(max_stripe):
        unit: OpKind | None = None
        p_disk = layout.parity_disk(stripe)
        q_disk = layout.q_disk(stripe)
        if array.level is RaidLevel.RAID1:
            unit = OpKind.DATA
        elif disk == p_disk:
            unit = OpKind.PARITY
        elif disk == q_disk:
            unit = OpKind.Q_PARITY
        else:
            for chunk in range(layout.data_disks_per_stripe):
                if layout.data_disk(stripe, chunk) == disk:
                    unit = OpKind.DATA
                    break
        if unit is None:
            continue
        for offset in range(layout.chunk_pages):
            dpage = stripe * layout.chunk_pages + offset
            if dpage >= pages_per_disk:
                break
            ops: list[DiskOp] = []
            if array.level is RaidLevel.RAID1:
                source = next(
                    m for m in range(array.ndisks) if m not in array.failed_disks
                )
                ops.append(DiskOp(source, dpage, 1, True))
            else:
                for member in range(array.ndisks):
                    if member == disk or member in array.failed_disks:
                        continue
                    kind = (
                        OpKind.PARITY
                        if member == p_disk
                        else OpKind.Q_PARITY
                        if member == q_disk
                        else OpKind.DATA
                    )
                    ops.append(DiskOp(member, dpage, 1, True, kind))
            ops.append(DiskOp(disk, dpage, 1, False, unit))
            yield dpage, ops


def finish_rebuild(array: RAIDArray, disk: int) -> None:
    """Reinstate the rebuilt member: restore payloads, clear the failure."""
    layout = array.layout
    pages_per_disk = layout.pages_per_disk or 0
    max_stripe = pages_per_disk // layout.chunk_pages
    if array._disk_data is not None:
        # Reconstruct lost data payloads while the disk is still marked
        # failed (so reads go through parity), then restore them.
        restored: dict[int, "object"] = {}
        for lpage in range(array.capacity_pages):
            loc = layout.locate(lpage)
            if loc.disk == disk:
                restored[loc.disk_page] = array._reconstruct_payload(lpage, loc)
        array.failed_disks.discard(disk)
        for dpage, payload in restored.items():
            array._put_disk_page(disk, dpage, payload)  # type: ignore[arg-type]
        # Parity units that lived on the failed disk are recomputed from data.
        for stripe in range(max_stripe):
            if disk in (layout.parity_disk(stripe), layout.q_disk(stripe)):
                for offset in range(layout.chunk_pages):
                    array._recompute_parity_at(
                        stripe, offset,
                        array._stripe_parity_locations(stripe, offset),
                    )
    else:
        array.failed_disks.discard(disk)


def rebuild_disk(
    array: RAIDArray, disk: int, keep_ops: bool = False
) -> RebuildReport:
    """Rebuild a failed member after all parity is up to date.

    Every on-disk page of the failed member is reconstructed by reading
    the rest of its stripe (data + parity) and writing the result to the
    replacement disk.
    """
    report = RebuildReport(keep_ops=keep_ops)
    for _dpage, ops in iter_rebuild_ops(array, disk):
        array.counters.account(ops)
        report.add_ops(ops)
        report.pages_rebuilt += 1
    finish_rebuild(array, disk)
    return report
