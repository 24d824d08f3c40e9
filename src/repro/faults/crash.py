"""Crash-consistency harness: every persistence boundary, proven RPO=0.

The KDD persistence protocol (Sections III-B/E1) claims a recovery
point objective of zero: after a power failure at *any* instant, the
primary map rebuilt from crash-surviving state — metadata log pages on
flash plus the two NVRAM buffers — equals the live map restricted to
acknowledged writes.  This module makes that claim executable.

Crash model
-----------

* NVRAM word writes are durable the instant they happen; multi-word
  updates that must be atomic are wrapped in a journaled transaction
  (:meth:`CrashPointShim.txn`) inside which no crash point fires and no
  flash program is allowed (callers pre-reserve metadata-buffer room via
  ``mlog.reserve``, which this shim enforces).
* Flash page programs are the only operations that can *tear*: a crash
  mid-program leaves the page empty or holding a prefix of its entries.

Boundary enumeration
--------------------

The production code is instrumented with a duck-typed ``shim``
attribute (default ``None`` — zero import and zero cost when the
harness is not attached) on :class:`~repro.core.kdd.KDD`,
:class:`~repro.cache.mlog.MetadataLog` and
:class:`~repro.nvram.staging.StagingBuffer`.  Each instrumented step
calls ``shim.point(kind, ...)`` just before its NVRAM mutation; the one
flash program (the metadata-page commit) calls ``shim.flash_point``,
from which the harness synthesises three crash phases — *before* the
program (page absent), *torn* (a prefix of the entries persisted) and
*after* (page complete, NVRAM retention not yet released).

Every ``kind`` must be registered in :data:`CRASH_POINT_KINDS`; an
unregistered kind raises immediately, so a newly added persistence step
cannot silently escape matrix coverage, and the matrix report's covered
set is asserted *equal* to the registry by the test suite.

Two modes
---------

* **capture** — at each boundary, snapshot the crash-surviving state
  (:func:`snapshot_crash_image`), run
  :func:`~repro.core.recovery.recover_from_power_failure` over a
  stand-in built from the snapshot, and verify against the live map.
* **armed** — replay the same workload but *raise*
  :class:`~repro.errors.SimulatedPowerFailure` at one chosen boundary
  (writing the torn/complete page image first for flash phases); the
  driver then recovers from the real, mid-operation object.  This
  additionally proves that exception unwinding does not corrupt the
  crash-surviving surface (a well-meaning ``finally`` that "cleans up"
  NVRAM would be exactly such a bug).

Both modes share one verification contract
(:func:`verify_crash_recovery`):

1. recovered map == live map on every page except the single in-flight
   (unacknowledged) access;
2. every recovered DEZ pointer — the in-flight page's included — lands
   on a live DEZ page still holding that delta (the dangling-pointer
   check that forces the stage-before-invalidate write ordering);
3. DEZ valid counts derived from the recovered old entries match the
   live delta references, again excluding the in-flight page.

Failures raise :class:`~repro.errors.RecoveryError` naming the
boundary (kind, phase, index and context).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..cache.base import CacheConfig
from ..core.kdd import KDD
from ..core.recovery import RecoveredState, recover_from_power_failure
from ..errors import RecoveryError, SimulatedPowerFailure, raises
from ..nvram.metabuffer import MappingEntry, PageState
from ..nvram.staging import StagedDelta
from ..raid.array import RAIDArray, RaidLevel

#: Every persistence boundary the production code may announce.  The
#: shim rejects unknown kinds and the crash-matrix test asserts its
#: covered set equals this registry — extending the persistence
#: protocol without extending the matrix is a hard error on both sides.
CRASH_POINT_KINDS = (
    "mlog_commit",      # metadata page program (before / torn / after)
    "meta_put",         # mapping entry into the NVRAM metadata buffer
    "gc_relocate",      # live entry re-buffered during log GC
    "gc_head_advance",  # log head advance (page leaves the replay window)
    "staging_put",      # delta into the NVRAM staging buffer
    "staging_flush",    # staged deltas move to the flushing region
    "dez_commit",       # packed DEZ page program
    "cleaner_parity",   # stripe parity repair (RAID-side, pre-reclaim)
    "clean_reclaim",    # old-page reclaim after its parity is repaired
)

#: Kinds announced through ``flash_point`` (torn phases synthesised).
FLASH_POINT_KINDS = ("mlog_commit",)


@dataclass(frozen=True)
class CrashBoundary:
    """One enumerated crash point: where the simulated failure hits."""

    index: int
    kind: str
    phase: str  # "nvram", "before", "torn[k]", "after"
    context: tuple  # sorted (key, value) pairs from the call site

    def __str__(self) -> str:  # appears in RecoveryError messages
        ctx = ", ".join(f"{k}={v}" for k, v in self.context)
        return f"#{self.index} {self.kind}/{self.phase}({ctx})"

    def same_site(self, other: "CrashBoundary") -> bool:
        return (self.kind, self.phase, self.context) == (
            other.kind, other.phase, other.context
        )


@dataclass(frozen=True)
class CrashImage:
    """Everything that survives a power failure, frozen at one boundary.

    Exactly the surface :func:`recover_from_power_failure` is allowed to
    read (enforced by the RPR207 analyzer rule): the log's NVRAM
    head/tail counters, the flash page images, the committing and
    relocating retention lists, the metadata buffer, and the staging
    buffer (flushing region first).
    """

    head: int
    tail: int
    page_image: dict[int, tuple[MappingEntry, ...]]
    committing: tuple[tuple[MappingEntry, ...], ...]
    relocating: tuple[MappingEntry, ...]
    metabuffer: tuple[MappingEntry, ...]
    staging: tuple[StagedDelta, ...]

    @raises(RecoveryError)
    def recover(self) -> RecoveredState:
        """Run the production recovery path over this image."""
        return recover_from_power_failure(_RecoveryStandin(self))


class _ImageLog:
    """Duck-typed MetadataLog replacement backed by a :class:`CrashImage`."""

    def __init__(self, image: CrashImage) -> None:
        self._image = image

    def replay(self) -> dict[int, MappingEntry]:
        mapping: dict[int, MappingEntry] = {}
        for seq in range(self._image.head, self._image.tail):
            for entry in self._image.page_image.get(seq, ()):
                mapping[entry.lba_raid] = entry
        return mapping

    def nvram_entries(self) -> list[MappingEntry]:
        out = list(self._image.relocating)
        for batch in self._image.committing:
            out.extend(batch)
        out.extend(self._image.metabuffer)
        return out


class _ImageStaging:
    """Duck-typed StagingBuffer replacement backed by a :class:`CrashImage`."""

    def __init__(self, image: CrashImage) -> None:
        self._image = image

    def snapshot(self) -> list[StagedDelta]:
        return list(self._image.staging)


class _RecoveryStandin:
    """What recovery sees after the crash: the image, nothing else."""

    def __init__(self, image: CrashImage) -> None:
        self.mlog = _ImageLog(image)
        self.staging = _ImageStaging(image)


def snapshot_crash_image(
    kdd: KDD, page_override: tuple[int, tuple[MappingEntry, ...]] | None = None
) -> CrashImage:
    """Copy the crash-surviving state out of a live KDD instance.

    ``page_override`` installs a synthetic flash image for one page
    sequence number — how the harness materialises the torn/complete
    phases of a page program that, on the live object, has not happened
    yet at hook time.
    """
    log = kdd.mlog
    page_image = {seq: tuple(img) for seq, img in log._page_image.items()}
    if page_override is not None:
        seq, entries = page_override
        page_image[seq] = tuple(entries)
    return CrashImage(
        head=log.head,
        tail=log.tail,
        page_image=page_image,
        committing=tuple(tuple(batch) for batch in log._committing),
        relocating=tuple(log._relocating),
        metabuffer=tuple(log.buffer.snapshot()),
        staging=tuple(kdd.staging.snapshot()),
    )


# -- verification ------------------------------------------------------------


def live_map_view(kdd: KDD) -> dict[int, tuple[PageState, int | None]]:
    """The live map in recovered-page terms: lba -> (state, dez_lpn)."""
    live: dict[int, tuple[PageState, int | None]] = {}
    for line in kdd.sets.all_lines():
        ref = line.aux
        dez = ref.dez_lpn if (ref is not None and line.state is PageState.OLD) else None
        live[line.lba] = (line.state, dez)
    return live


@raises(RecoveryError)
def verify_crash_recovery(
    kdd: KDD,
    recovered: RecoveredState,
    in_flight: int | None,
    boundary: CrashBoundary,
    expected: dict[int, tuple[PageState, int | None]] | None = None,
) -> None:
    """Prove RPO=0 at one boundary; raise RecoveryError naming it.

    ``expected`` is the live view captured at the moment of the crash
    (armed mode, where the live object has since unwound an exception);
    capture mode reads the live object directly.
    """
    live = live_map_view(kdd) if expected is None else expected
    rec = {lba: (p.state, p.dez_lpn) for lba, p in recovered.pages.items()}
    skip = set() if in_flight is None else {in_flight}

    differing = sorted(
        lba
        for lba in (live.keys() | rec.keys()) - skip
        if live.get(lba) != rec.get(lba)
    )
    if differing:
        lost = [lba for lba in differing if lba not in rec]
        raise RecoveryError(
            f"crash at {boundary}: {len(differing)} acknowledged pages differ "
            f"after recovery ({len(lost)} lost entirely; e.g. {differing[:3]})"
        )

    # Dangling-DEZ check, deliberately NOT exempting the in-flight page:
    # a recovered pointer into a reclaimed (reusable) delta slot is
    # corruption even when the pointing write was never acknowledged.
    for lba, page in recovered.pages.items():
        if page.dez_lpn is None:
            continue
        dez = kdd.dez_pages.get(page.dez_lpn)
        if dez is None or lba not in dez.packed.valid:
            raise RecoveryError(
                f"crash at {boundary}: recovered map points page {lba} at "
                f"DEZ page {page.dez_lpn}, which no longer holds its delta"
            )

    def ref_counts(view: dict[int, tuple[PageState, int | None]]) -> dict[int, int]:
        counts: dict[int, int] = {}
        for lba, (_, dez) in view.items():
            if dez is None or lba in skip:
                continue
            counts[dez] = counts.get(dez, 0) + 1
        return counts

    if ref_counts(rec) != ref_counts(live):
        raise RecoveryError(
            f"crash at {boundary}: recovered DEZ valid counts disagree with "
            "the live delta references"
        )


# -- the shim ----------------------------------------------------------------


class CrashPointShim:
    """Persistence-boundary instrumentation attached to one KDD instance.

    ``capture`` mode verifies recovery in-place at every boundary;
    ``armed`` mode raises :class:`SimulatedPowerFailure` at boundary
    ``arm_index`` (materialising the torn page first where applicable)
    and leaves verification to the driver.  Boundary indexing is
    identical across modes — same workload, same sequence — which the
    driver cross-checks.
    """

    def __init__(
        self, kdd: KDD, mode: str = "capture", arm_index: int | None = None
    ) -> None:
        if mode not in ("capture", "armed"):
            raise RecoveryError(f"unknown shim mode {mode!r}")
        if mode == "armed" and arm_index is None:
            raise RecoveryError("armed mode needs an arm_index")
        self.kdd = kdd
        self.mode = mode
        self.arm_index = arm_index
        #: The page the *current* access targets; its write is not yet
        #: acknowledged, so it is the one permissible recovery difference.
        self.in_flight: int | None = None
        self.index = 0
        self.boundaries: list[CrashBoundary] = []
        self._txn_depth = 0
        # Armed-mode crash record, filled at raise time:
        self.tripped: CrashBoundary | None = None
        self.tripped_in_flight: int | None = None
        self.expected: dict[int, tuple[PageState, int | None]] | None = None

    # -- the journaled-transaction contract ------------------------------

    @contextmanager
    def txn(self):
        """Atomic multi-word NVRAM update: no crash point fires inside."""
        self._txn_depth += 1
        try:
            yield
        finally:
            self._txn_depth -= 1

    # -- hooks called by the production code -----------------------------

    @raises(RecoveryError, SimulatedPowerFailure)
    def point(self, kind: str, **ctx) -> None:
        """A crash point just before one durable NVRAM word write."""
        self._check_kind(kind)
        if self._txn_depth:
            return  # inside a journaled transaction: not a boundary
        self._visit(kind, "nvram", ctx, mutate=None)

    @raises(RecoveryError, SimulatedPowerFailure)
    def flash_point(self, kind: str, log, seq: int, entries) -> None:
        """A crash point spanning one flash page program.

        Synthesises the *before* / *torn prefix* / *after* phases from
        the single call site.  ``tail`` has already advanced and the
        batch sits in NVRAM retention, so all three phases recover the
        full batch.
        """
        self._check_kind(kind)
        if kind not in FLASH_POINT_KINDS:
            raise RecoveryError(f"{kind!r} is not a registered flash point")
        if self._txn_depth:
            raise RecoveryError(
                f"flash program {kind!r} inside an NVRAM transaction "
                "(reserve metadata-buffer room before the txn)"
            )
        entries = tuple(entries)
        ctx = {"seq": seq, "n": len(entries)}
        # before: the program never started — the page reads back empty.
        self._visit(kind, "before", ctx, mutate=None)
        # torn: a strict prefix of the entries persisted.
        n = len(entries)
        for k in sorted({1, n // 2, n - 1}):
            if not 1 <= k < n:
                continue
            self._visit(
                kind, f"torn[{k}]", ctx,
                mutate=(log, seq, entries[:k]),
            )
        # after: page complete, NVRAM retention not yet released.
        self._visit(kind, "after", ctx, mutate=(log, seq, entries))

    # -- internals --------------------------------------------------------

    def _check_kind(self, kind: str) -> None:
        if kind not in CRASH_POINT_KINDS:
            raise RecoveryError(
                f"unregistered crash point kind {kind!r}: add it to "
                "repro.faults.crash.CRASH_POINT_KINDS so the matrix covers it"
            )

    def _visit(self, kind, phase, ctx, mutate) -> None:
        boundary = CrashBoundary(
            index=self.index,
            kind=kind,
            phase=phase,
            context=tuple(sorted(ctx.items())),
        )
        self.index += 1
        if self.mode == "capture":
            self.boundaries.append(boundary)
            override = None if mutate is None else (mutate[1], mutate[2])
            image = snapshot_crash_image(self.kdd, page_override=override)
            verify_crash_recovery(
                self.kdd, image.recover(), self.in_flight, boundary
            )
            return
        if boundary.index != self.arm_index:
            return
        if mutate is not None:
            log, seq, persisted = mutate
            log._page_image[seq] = list(persisted)
        self.tripped = boundary
        self.tripped_in_flight = self.in_flight
        self.expected = live_map_view(self.kdd)
        raise SimulatedPowerFailure(f"power failure injected at {boundary}")


@raises(RecoveryError)
def attach_crash_shim(
    kdd: KDD, mode: str = "capture", arm_index: int | None = None
) -> CrashPointShim:
    """Install a shim on a KDD instance and its persistence components."""
    shim = CrashPointShim(kdd, mode=mode, arm_index=arm_index)
    kdd.shim = shim
    kdd.mlog.shim = shim
    kdd.staging.shim = shim
    return shim


def detach_crash_shim(kdd: KDD) -> None:
    kdd.shim = None
    kdd.mlog.shim = None
    kdd.staging.shim = None


# -- the crash matrix driver -------------------------------------------------


@dataclass
class CrashMatrixReport:
    """Coverage and outcome of one crash-matrix run."""

    accesses: int
    boundaries: int
    kind_counts: dict[str, int] = field(default_factory=dict)
    phase_counts: dict[str, int] = field(default_factory=dict)
    torn_boundaries: int = 0
    armed_runs: int = 0

    @property
    def covered(self) -> set[str]:
        return {k for k, n in self.kind_counts.items() if n > 0}

    def row(self) -> dict:
        """Flat JSON-friendly summary of the run."""
        return {
            "accesses": self.accesses,
            "boundaries": self.boundaries,
            "torn_boundaries": self.torn_boundaries,
            "armed_runs": self.armed_runs,
            "kinds": dict(sorted(self.kind_counts.items())),
            "phases": dict(sorted(self.phase_counts.items())),
        }


def _build_kdd(seed: int) -> KDD:
    """A small KDD stack sized so a short workload exercises every
    persistence mechanism: staging flushes, DEZ commits, cleaning,
    forced cleaning, metadata-log wraparound and GC."""
    raid = RAIDArray(RaidLevel.RAID5, ndisks=5, chunk_pages=4, pages_per_disk=1024)
    config = CacheConfig(
        cache_pages=64,
        ways=16,
        group_pages=16,
        page_size=256,  # tiny pages -> the 4-page metadata log wraps fast
        nvram_buffer_bytes=256,
        mean_compression=0.25,
        seed=seed,
    )
    return KDD(config, raid)


def crash_workload(
    accesses: int, seed: int, universe: int = 128, read_ratio: float = 0.3
) -> list[tuple[int, bool]]:
    """Deterministic page-access sequence with heavy write-hit reuse."""
    rng = np.random.default_rng(seed)
    lbas = rng.integers(0, universe, size=accesses)
    reads = rng.random(accesses) < read_ratio
    return list(zip(lbas.tolist(), reads.tolist()))


@raises(RecoveryError)
def run_crash_matrix(
    accesses: int = 160, seed: int = 0, armed_stride: int = 1
) -> CrashMatrixReport:
    """Enumerate, verify and (selectively) fire every crash boundary.

    Pass 1 (capture) replays the workload once, proving RPO=0 in place
    at every boundary.  Pass 2 (armed) replays it once *per boundary*
    (every ``armed_stride``-th), raising the simulated power failure
    there and recovering from the genuinely crashed object.  Raises
    :class:`RecoveryError` on any violation; returns coverage.
    """
    workload = crash_workload(accesses, seed)

    kdd = _build_kdd(seed)
    shim = attach_crash_shim(kdd, mode="capture")
    for lba, is_read in workload:
        shim.in_flight = lba
        kdd.access(lba, is_read)
    shim.in_flight = None
    kdd.finish()
    detach_crash_shim(kdd)
    kdd.check_invariants()

    report = CrashMatrixReport(accesses=accesses, boundaries=shim.index)
    for kind in CRASH_POINT_KINDS:
        report.kind_counts[kind] = 0
    for boundary in shim.boundaries:
        report.kind_counts[boundary.kind] += 1
        phase = boundary.phase.split("[")[0]
        report.phase_counts[phase] = report.phase_counts.get(phase, 0) + 1
        report.torn_boundaries += phase == "torn"

    for arm_index in range(0, shim.index, armed_stride):
        report.armed_runs += _run_armed(
            workload, seed, arm_index, shim.boundaries[arm_index]
        )
    return report


def _run_armed(
    workload: list[tuple[int, bool]],
    seed: int,
    arm_index: int,
    expected_boundary: CrashBoundary,
) -> int:
    """One armed replay: crash at ``arm_index``, recover, verify."""
    kdd = _build_kdd(seed)
    shim = attach_crash_shim(kdd, mode="armed", arm_index=arm_index)
    try:
        for lba, is_read in workload:
            shim.in_flight = lba
            kdd.access(lba, is_read)
        shim.in_flight = None
        kdd.finish()
    except SimulatedPowerFailure:
        pass
    else:
        raise RecoveryError(
            f"armed boundary {expected_boundary} never fired on replay"
        )
    if shim.tripped is None or not shim.tripped.same_site(expected_boundary):
        raise RecoveryError(
            f"non-deterministic boundary sequence: armed run hit "
            f"{shim.tripped}, capture saw {expected_boundary}"
        )
    # Recover from the real object: its NVRAM/flash state is the crash
    # state, and the unwound exception must not have disturbed it.
    recovered = recover_from_power_failure(kdd)
    verify_crash_recovery(
        kdd,
        recovered,
        shim.tripped_in_flight,
        shim.tripped,
        expected=shim.expected,
    )
    return 1
