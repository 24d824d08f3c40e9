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
        # The model's constants, derived once: service_time runs on every
        # member-disk op of a timed run.
        p = self.params
        self._seek_min = p.seek_min
        self._seek_span = p.seek_max - p.seek_min
        self._stroke_pages = max(1, self.capacity_pages)
        self._avg_rotation = p.avg_rotational_latency
        self._transfer_rate = p.transfer_rate

    def service_time(self, page: int, npages: int) -> float:
        """Service time for an ``npages``-long access at ``page``.

        Advances the head; sequential back-to-back accesses pay no seek
        and (approximately) no rotational latency.  Seek time follows a
        square-root curve of head travel between the minimum and maximum
        seek, the standard approximation for voice-coil actuators.
        """
        if npages < 1:
            raise ConfigError("npages must be >= 1")
        distance = abs(page - self._head_page)
        self._head_page = page + npages
        transfer = npages * self.page_size / self._transfer_rate
        if distance == 0:
            return transfer
        frac = (distance / self._stroke_pages) ** 0.5
        seek = self._seek_min + self._seek_span * frac
        return seek + self._avg_rotation + transfer
