"""RAID striping layouts: logical page -> (stripe, disk, disk page).

Implements the layouts the paper's storage substrate needs:

* RAID-0 (striping, no redundancy) — baseline,
* RAID-1 (mirroring),
* RAID-5 left-symmetric (Linux MD default; the testbed config),
* RAID-6 left-symmetric with adjacent P and Q.

Addresses are page-granular; ``chunk_pages`` pages form one chunk (the
paper's 64 KiB chunk = 16 x 4 KiB pages).
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from ..errors import ConfigError


class RaidLevel(Enum):
    RAID0 = 0
    RAID1 = 1
    RAID5 = 5
    RAID6 = 6


class PageLocation(NamedTuple):
    """Physical placement of one logical page.

    A ``NamedTuple``: immutable, compared by value, and several times
    cheaper to build than a frozen dataclass — ``locate`` builds one
    per page on the RAID hot paths.
    """

    stripe: int
    disk: int
    disk_page: int


class RaidLayout:
    """Address arithmetic for a striped array.

    ``ndisks`` is the member count; usable data chunks per stripe is
    ``ndisks - parity_disks`` (RAID-1: capacity of a single member).
    """

    def __init__(
        self,
        level: RaidLevel,
        ndisks: int,
        chunk_pages: int = 16,
        pages_per_disk: int | None = None,
    ) -> None:
        if chunk_pages < 1:
            raise ConfigError("chunk_pages must be >= 1")
        minimum = {
            RaidLevel.RAID0: 2,
            RaidLevel.RAID1: 2,
            RaidLevel.RAID5: 3,
            RaidLevel.RAID6: 4,
        }[level]
        if ndisks < minimum:
            raise ConfigError(f"{level.name} needs at least {minimum} disks")
        self.level = level
        self.ndisks = ndisks
        self.chunk_pages = chunk_pages
        self.pages_per_disk = pages_per_disk
        # Derived parameters, precomputed: the address arithmetic below
        # sits on every per-page hot path.
        #: Parity units per stripe (mirroring is replication, not parity).
        self.parity_disks = {
            RaidLevel.RAID0: 0,
            RaidLevel.RAID1: 0,
            RaidLevel.RAID5: 1,
            RaidLevel.RAID6: 2,
        }[level]
        self.data_disks_per_stripe = (
            1 if level is RaidLevel.RAID1 else ndisks - self.parity_disks
        )
        #: Logical pages covered by one stripe.
        self.stripe_data_pages = self.data_disks_per_stripe * chunk_pages
        self.fault_tolerance = {
            RaidLevel.RAID0: 0,
            RaidLevel.RAID1: ndisks - 1,
            RaidLevel.RAID5: 1,
            RaidLevel.RAID6: 2,
        }[level]
        #: Logical pages the array holds (None: unbounded members).
        self.capacity_pages: int | None = (
            None if pages_per_disk is None
            else pages_per_disk * self.data_disks_per_stripe
        )

    # -- placement ---------------------------------------------------------

    def stripe_of(self, lpage: int) -> int:
        if lpage < 0:
            raise ConfigError(f"negative logical page {lpage}")
        return lpage // self.stripe_data_pages

    def parity_disk(self, stripe: int) -> int | None:
        """P-parity disk of a stripe (None for RAID-0/1)."""
        if not self.parity_disks:
            return None
        return (self.ndisks - 1) - (stripe % self.ndisks)

    def q_disk(self, stripe: int) -> int | None:
        """Q-parity disk (RAID-6 only; follows P with wraparound)."""
        if self.level is not RaidLevel.RAID6:
            return None
        p = self.parity_disk(stripe)
        assert p is not None
        return (p + 1) % self.ndisks

    def _data_disk(self, stripe: int, chunk_index: int) -> int:
        """The stripe rotation: member disk of data chunk ``chunk_index``.

        RAID-0 rotates the first chunk one disk per stripe; RAID-5 data
        follows P and RAID-6 data follows Q (which follows P), with
        wraparound.  No range check: callers pass an in-range chunk.
        """
        n = self.ndisks
        if self.level is RaidLevel.RAID0:
            return (stripe + chunk_index) % n
        if self.level is RaidLevel.RAID1:
            return 0  # primary copy; mirrors are handled by the array
        p = (n - 1) - (stripe % n)
        return (p + self.parity_disks + chunk_index) % n

    def data_disk(self, stripe: int, chunk_index: int) -> int:
        """Member disk holding data chunk ``chunk_index`` of ``stripe``."""
        if not 0 <= chunk_index < self.data_disks_per_stripe:
            raise ConfigError(f"chunk index {chunk_index} out of range")
        return self._data_disk(stripe, chunk_index)

    def locate(self, lpage: int) -> PageLocation:
        """Map a logical page to its stripe, member disk, and on-disk page."""
        if lpage < 0:
            raise ConfigError(f"negative logical page {lpage}")
        stripe_pages = self.stripe_data_pages
        stripe = lpage // stripe_pages
        chunk_index, offset = divmod(lpage - stripe * stripe_pages,
                                     self.chunk_pages)
        disk_page = stripe * self.chunk_pages + offset
        if self.pages_per_disk is not None and disk_page >= self.pages_per_disk:
            raise ConfigError(f"logical page {lpage} beyond array capacity")
        return PageLocation(stripe, self._data_disk(stripe, chunk_index),
                            disk_page)

    def parity_page(self, stripe: int, lpage: int) -> int:
        """On-disk page of the parity block covering ``lpage``'s position."""
        within = lpage - stripe * self.stripe_data_pages
        offset = within % self.chunk_pages
        return stripe * self.chunk_pages + offset

    def stripe_pages(self, stripe: int) -> range:
        """All logical pages belonging to a stripe."""
        start = stripe * self.stripe_data_pages
        return range(start, start + self.stripe_data_pages)
