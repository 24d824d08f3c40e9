"""Magnetic disk service-time model.

A 7,200 RPM drive (the paper's testbed uses fifteen of them) is modelled
with the classic three-component service time: seek + rotational latency
+ transfer, where seek time depends on the distance from the previous
head position.  Look-ahead and the on-drive volatile cache are disabled
in the paper (``hdparm``), so we model none either.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..units import MILLISECOND, TiB


@dataclass(frozen=True)
class HDDParams:
    """Mechanical parameters of a 7,200 RPM enterprise SATA drive."""

    capacity_bytes: int = 1 * TiB
    rpm: float = 7200.0
    #: Track-to-track (minimum) seek.
    seek_min: float = 0.5 * MILLISECOND
    #: Average random seek.
    seek_avg: float = 8.5 * MILLISECOND
    #: Full-stroke seek.
    seek_max: float = 16.0 * MILLISECOND
    #: Sustained media transfer rate, bytes/second.
    transfer_rate: float = 120e6

    def __post_init__(self) -> None:
        if self.rpm <= 0 or self.transfer_rate <= 0 or self.capacity_bytes <= 0:
            raise ConfigError("rpm, transfer_rate and capacity must be positive")
        if not self.seek_min <= self.seek_avg <= self.seek_max:
            raise ConfigError("need seek_min <= seek_avg <= seek_max")

    @property
    def rotation_time(self) -> float:
        return 60.0 / self.rpm

    @property
    def avg_rotational_latency(self) -> float:
        return self.rotation_time / 2.0


class HDD:
    """One disk: stateful head position, service-time computation."""

    def __init__(self, params: HDDParams | None = None, page_size: int = 4096) -> None:
        self.params = params or HDDParams()
        self.page_size = page_size
        self.capacity_pages = self.params.capacity_bytes // page_size
        self._head_page = 0

    def _seek_time(self, page: int) -> float:
        """Seek time as a function of head travel distance.

        Square-root seek curve between min and max seek, the standard
        approximation for voice-coil actuators.
        """
        distance = abs(page - self._head_page)
        if distance == 0:
            return 0.0
        frac = (distance / max(1, self.capacity_pages)) ** 0.5
        p = self.params
        return p.seek_min + (p.seek_max - p.seek_min) * frac

    def service_time(self, page: int, npages: int, is_read: bool) -> float:
        """Service time for an ``npages``-long access at ``page``.

        Advances the head; sequential back-to-back accesses pay no seek
        and (approximately) no rotational latency.
        """
        if npages < 1:
            raise ConfigError("npages must be >= 1")
        p = self.params
        seek = self._seek_time(page)
        rot = 0.0 if page == self._head_page and seek == 0.0 else p.avg_rotational_latency
        transfer = npages * self.page_size / p.transfer_rate
        self._head_page = page + npages
        return seek + rot + transfer
