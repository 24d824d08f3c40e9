"""Wear tracking and SSD lifetime estimation.

Flash blocks endure a limited number of program/erase cycles (about
100 K for SLC, 5-10 K for MLC — Section II-A).  This module tracks
per-block erase counts, detects wear-out, and projects device lifetime
from observed write traffic, which is how the paper converts "fewer SSD
writes" into "up to 5.1x longer lifetime".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, WornOutError
from .geometry import FlashGeometry

#: Typical MLC endurance (erase cycles per block).
MLC_ENDURANCE = 10_000


class WearTracker:
    """Per-block erase counters with an endurance budget."""

    def __init__(self, geometry: FlashGeometry, endurance: int = MLC_ENDURANCE) -> None:
        if endurance < 1:
            raise ConfigError("endurance must be >= 1")
        self.geometry = geometry
        self.endurance = endurance
        self._erases = np.zeros(geometry.total_blocks, dtype=np.int64)

    def record_erase(self, block: int) -> None:
        """Count one erase of ``block``; raises once the budget is exceeded."""
        self._erases[block] += 1
        if self._erases[block] > self.endurance:
            raise WornOutError(
                f"block {block} exceeded endurance "
                f"({self._erases[block]} > {self.endurance} erases)"
            )

    def erases(self, block: int) -> int:
        return int(self._erases[block])

    @property
    def total_erases(self) -> int:
        return int(self._erases.sum())

    @property
    def max_erases(self) -> int:
        return int(self._erases.max()) if len(self._erases) else 0

    @property
    def mean_erases(self) -> float:
        return float(self._erases.mean()) if len(self._erases) else 0.0

    @property
    def wear_imbalance(self) -> float:
        """max/mean erase ratio; 1.0 is perfectly even wear."""
        mean = self.mean_erases
        return self.max_erases / mean if mean > 0 else 1.0

    @property
    def life_consumed(self) -> float:
        """Fraction of endurance consumed by the most-worn block."""
        return self.max_erases / self.endurance

    def least_worn(self, candidates: np.ndarray) -> int:
        """Among ``candidates`` (block indices), the one with fewest erases."""
        if len(candidates) == 0:
            raise ConfigError("no candidate blocks")
        return int(candidates[np.argmin(self._erases[candidates])])


@dataclass(frozen=True)
class LifetimeEstimate:
    """Projected device lifetime from observed traffic.

    ``host_writes_per_day`` is in bytes.  The estimate is the standard
    endurance formula: capacity x endurance / (daily writes x WAF).
    """

    capacity_bytes: int
    endurance: int
    write_amplification: float
    host_writes_per_day: float

    @property
    def total_endurance_bytes(self) -> float:
        return float(self.capacity_bytes) * self.endurance

    @property
    def lifetime_days(self) -> float:
        daily_nand = self.host_writes_per_day * self.write_amplification
        if daily_nand <= 0:
            return float("inf")
        return self.total_endurance_bytes / daily_nand

    @property
    def lifetime_years(self) -> float:
        return self.lifetime_days / 365.25


def relative_lifetime(host_writes_a: float, host_writes_b: float) -> float:
    """Lifetime of scheme A relative to scheme B given their write traffic.

    With identical devices and write amplification, lifetime is inversely
    proportional to bytes written, which is how the paper reports
    "extending the lifetime of SSD by up to 5.1x".
    """
    if host_writes_a <= 0:
        return float("inf")
    return host_writes_b / host_writes_a
