"""SSD device model: FTL + optional data payload store, and its latencies.

In the trace-driven cache simulator the device *accounts*: host write
traffic, NAND writes, write amplification, erase counts — the inputs to
the lifetime comparison (Figures 6, 8, 11).  It has no clock.
:class:`SSDLatency` holds the MLC-class page and command service times
that the timing simulator's cache resource
(:class:`repro.engine.resources.SSDResource`) serves with; timing lives
only there, where batches exploit channel parallelism (the paper leans
on this for KDD's concurrent data+delta reads, Section IV-B2).

Payload storage is optional: when ``store_data=True`` the device keeps
actual page bytes, which the prototype-path tests use to verify that
delta reconstruction returns bit-exact data.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError, FlashError
from ..units import GiB, MICROSECOND
from .ftl import OVER_PROVISIONING, PageMappedFTL
from .geometry import FlashGeometry
from .wear import LifetimeEstimate


@dataclass(frozen=True)
class SSDLatency:
    """Per-operation service times for an MLC-class SATA SSD."""

    page_read: float = 60 * MICROSECOND
    page_program: float = 200 * MICROSECOND
    #: Controller/bus overhead per host command.
    command_overhead: float = 20 * MICROSECOND

    def __post_init__(self) -> None:
        for field in ("page_read", "page_program", "command_overhead"):
            if getattr(self, field) < 0:
                raise ConfigError(f"{field} must be >= 0")


class SSD:
    """A flash SSD exposed as a page-addressable cache device."""

    def __init__(
        self,
        geometry: FlashGeometry | None = None,
        capacity_bytes: int | None = None,
        store_data: bool = False,
    ) -> None:
        if geometry is None:
            geometry = FlashGeometry.for_capacity(
                1 * GiB if capacity_bytes is None else capacity_bytes
            )
        elif capacity_bytes is not None:
            raise ConfigError("pass either geometry or capacity_bytes, not both")
        self.geometry = geometry
        self.ftl = PageMappedFTL(geometry)
        self._data: dict[int, bytes] | None = {} if store_data else None

    # -- capacity ---------------------------------------------------------

    @property
    def capacity_pages(self) -> int:
        """Host-visible capacity in pages (after over-provisioning)."""
        return self.ftl.exported_pages

    @property
    def page_size(self) -> int:
        return self.geometry.page_size

    # -- host I/O -----------------------------------------------------------

    def write(self, lpn: int, data: bytes | None = None) -> None:
        """Program one logical page."""
        if data is not None:
            if self._data is None:
                raise ConfigError("device was created with store_data=False")
            if len(data) > self.page_size:
                raise FlashError(
                    f"payload of {len(data)} bytes exceeds page size {self.page_size}"
                )
        self.ftl.write(lpn)
        if self._data is not None:
            self._data[lpn] = data if data is not None else b""

    def read(self, lpn: int) -> bytes | None:
        """Read one logical page; returns payload when data is stored."""
        self.ftl.read(lpn)
        if self._data is not None:
            return self._data.get(lpn)
        return None

    def trim(self, lpn: int) -> None:
        self.ftl.trim(lpn)
        if self._data is not None:
            self._data.pop(lpn, None)

    def is_mapped(self, lpn: int) -> bool:
        return self.ftl.is_mapped(lpn)

    # -- endurance accounting --------------------------------------------

    @property
    def host_write_pages(self) -> int:
        return self.ftl.host_writes

    @property
    def host_write_bytes(self) -> int:
        return self.ftl.host_writes * self.page_size

    @property
    def write_amplification(self) -> float:
        return self.ftl.write_amplification

    def lifetime(self, host_writes_per_day: float) -> LifetimeEstimate:
        """Project lifetime for a given daily host write volume (bytes)."""
        return LifetimeEstimate(
            capacity_bytes=self.geometry.capacity_bytes,
            endurance=self.ftl.wear.endurance,
            write_amplification=self.write_amplification,
            host_writes_per_day=host_writes_per_day,
        )


def ssd_for_pages(pages: int, page_size: int) -> SSD:
    """The device that backs ``pages`` host pages of ``page_size`` bytes.

    Sized so the exported capacity, after over-provisioning, holds them
    with 2 % to spare.
    """
    geometry = FlashGeometry.for_capacity(
        int(pages * page_size / (1 - OVER_PROVISIONING) * 1.02),
        page_size=page_size,
    )
    return SSD(geometry=geometry)
