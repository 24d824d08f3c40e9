"""Flash SSD substrate: geometry, FTL, wear tracking, device model."""

from .device import SSD, SSDLatency
from .ftl import FREE, PageMappedFTL
from .geometry import FlashGeometry
from .wear import (
    MLC_ENDURANCE,
    LifetimeEstimate,
    WearTracker,
    relative_lifetime,
)

__all__ = [
    "FlashGeometry",
    "FREE",
    "PageMappedFTL",
    "MLC_ENDURANCE",
    "LifetimeEstimate",
    "WearTracker",
    "relative_lifetime",
    "SSD",
    "SSDLatency",
]
