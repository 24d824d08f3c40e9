"""Failure handling and recovery (Section III-E).

Three failure classes, all with a recovery point objective of zero:

* **Power failure** — the primary map is rebuilt by replaying the
  metadata log from head to tail, overlaying the NVRAM metadata buffer,
  then overlaying the NVRAM staging buffer (pages with a staged delta
  are *old* with the delta still in NVRAM).
* **SSD failure** — no data lives only in the cache (every write reached
  RAID), but stripes with delayed parity must be re-synchronised before
  the array tolerates a disk loss again.
* **HDD failure** — all stale parity is repaired through the
  ``parity_update`` interface first, then the RAID layer rebuilds the
  failed member.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import RecoveryError
from ..nvram.metabuffer import MappingEntry, PageState
from ..raid.rebuild import RebuildReport, rebuild_disk, resync_stale_parity
from .kdd import KDD, DeltaRef


@dataclass(frozen=True)
class RecoveredPage:
    """Post-recovery view of one cached storage page."""

    lba_raid: int
    state: PageState
    lba_daz: int
    dez_lpn: int | None  # None: no delta, or delta was in NVRAM staging


@dataclass
class RecoveredState:
    """The primary map as rebuilt after a power failure."""

    pages: dict[int, RecoveredPage] = field(default_factory=dict)
    dez_valid_counts: dict[int, int] = field(default_factory=dict)

    @property
    def cached_pages(self) -> int:
        return len(self.pages)


def recover_from_power_failure(kdd: KDD) -> RecoveredState:
    """Rebuild the primary map from persistent + NVRAM state.

    This reads *only* what survives a crash: the metadata log pages on
    flash (via its NVRAM head/tail counters) and the two NVRAM buffers.
    The live in-memory map is never consulted — tests compare the result
    against it to prove the persistence protocol is complete.
    """
    # 1) replay the circular log (head -> tail)
    mapping: dict[int, MappingEntry] = kdd.mlog.replay()
    # 2) overlay every NVRAM-held entry (newer than anything on flash):
    #    batches whose page program was cut short, then the buffer
    for entry in kdd.mlog.nvram_entries():
        mapping[entry.lba_raid] = entry
    # 3) build the page view, dropping FREE tombstones
    state = RecoveredState()
    for lba, entry in mapping.items():
        if entry.state is PageState.FREE:
            continue
        if entry.state not in (PageState.CLEAN, PageState.OLD):
            raise RecoveryError(f"unexpected persisted state {entry.state} for {lba}")
        dez = entry.lba_dez if entry.state is PageState.OLD and entry.lba_dez >= 0 else None
        state.pages[lba] = RecoveredPage(
            lba_raid=lba, state=entry.state, lba_daz=entry.lba_daz, dez_lpn=dez
        )
    # 4) overlay the staging buffer: a staged delta makes its page OLD with
    #    the delta in NVRAM, superseding any persisted DEZ pointer
    for staged in kdd.staging.snapshot():
        prev = state.pages.get(staged.lba)
        if prev is None:
            raw = mapping.get(staged.lba)
            if raw is not None and raw.state is PageState.FREE:
                # The page was reclaimed (its parity repaired) while its
                # delta was still flushing: the FREE tombstone is newer,
                # the orphaned delta is dead weight and is discarded.
                continue
            raise RecoveryError(
                f"staged delta for page {staged.lba} with no persisted mapping"
            )
        state.pages[staged.lba] = RecoveredPage(
            lba_raid=staged.lba,
            state=PageState.OLD,
            lba_daz=prev.lba_daz,
            dez_lpn=None,
        )
    # 5) DEZ valid counts fall out of the old-page entries
    for page in state.pages.values():
        if page.dez_lpn is not None:
            state.dez_valid_counts[page.dez_lpn] = (
                state.dez_valid_counts.get(page.dez_lpn, 0) + 1
            )
    return state


def verify_recovery(kdd: KDD, recovered: RecoveredState) -> None:
    """Compare a recovered map against the live one; raises on mismatch."""
    live: dict[int, tuple[PageState, int | None]] = {}
    for line in kdd.sets.all_lines():
        ref: DeltaRef | None = line.aux
        dez = ref.dez_lpn if (ref is not None and line.state is PageState.OLD) else None
        live[line.lba] = (line.state, dez)
    rec = {lba: (p.state, p.dez_lpn) for lba, p in recovered.pages.items()}
    if live != rec:
        missing = set(live) - set(rec)
        extra = set(rec) - set(live)
        differing = {
            lba for lba in set(live) & set(rec) if live[lba] != rec[lba]
        }
        detail = f" (e.g. {sorted(differing)[:3]})" if differing else ""
        raise RecoveryError(
            f"recovered map mismatch: {len(missing)} missing, "
            f"{len(extra)} extra, {len(differing)} differing{detail}"
        )
    live_dez = {lpn: dez.valid_count for lpn, dez in kdd.dez_pages.items()}
    if live_dez != recovered.dez_valid_counts:
        raise RecoveryError("recovered DEZ valid counts mismatch")


def recover_from_ssd_failure(kdd: KDD, keep_ops: bool = False) -> RebuildReport:
    """The SSD cache died: resynchronise all delayed parity on the array.

    Data is never lost (RPO = 0) because writes were always dispatched
    to RAID; the array just needs its stale stripes reconstructed before
    it is single-fault tolerant again.
    """
    return resync_stale_parity(kdd.raid, keep_ops=keep_ops)


def recover_from_hdd_failure(
    kdd: KDD, disk: int, keep_ops: bool = False
) -> RebuildReport:
    """A member disk died: repair parity first, then rebuild the member."""
    kdd.raid.fail_disk(disk)
    # flush every delayed parity using the cache's deltas (Section III-E2)
    kdd.finish()
    return rebuild_disk(kdd.raid, disk, keep_ops=keep_ops)
