"""Physical geometry of a NAND flash SSD.

SSDs are arrays of flash packages behind a controller; each package has
dies, each die planes, each plane blocks, each block pages (Section
II-A).  Reads and programs operate on pages, erases on whole blocks.
The geometry fixes the capacity and the degree of parallelism the
device model can exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..units import DEFAULT_PAGE_SIZE


@dataclass(frozen=True)
class FlashGeometry:
    """Structural parameters of the flash array."""

    channels: int = 8
    dies_per_channel: int = 2
    planes_per_die: int = 2
    blocks_per_plane: int = 256
    pages_per_block: int = 64
    page_size: int = DEFAULT_PAGE_SIZE

    def __post_init__(self) -> None:
        for field in (
            "channels",
            "dies_per_channel",
            "planes_per_die",
            "blocks_per_plane",
            "pages_per_block",
            "page_size",
        ):
            if getattr(self, field) < 1:
                raise ConfigError(f"{field} must be >= 1")

    @property
    def planes(self) -> int:
        return self.channels * self.dies_per_channel * self.planes_per_die

    @property
    def total_blocks(self) -> int:
        return self.planes * self.blocks_per_plane

    @property
    def total_pages(self) -> int:
        return self.total_blocks * self.pages_per_block

    @property
    def capacity_bytes(self) -> int:
        return self.total_pages * self.page_size

    def plane_of_block(self, block: int) -> int:
        """Plane index holding physical block ``block`` (blocks interleave
        across planes so consecutive allocations spread over channels)."""
        if not 0 <= block < self.total_blocks:
            raise ConfigError(f"block {block} out of range")
        return block % self.planes

    @classmethod
    def for_capacity(
        cls,
        capacity_bytes: int,
        channels: int = 8,
        pages_per_block: int = 64,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> "FlashGeometry":
        """Smallest standard geometry holding at least ``capacity_bytes``.

        Convenience for tests and experiments ("a 1 GB flash cache").
        """
        if capacity_bytes < 1:
            raise ConfigError("capacity must be positive")
        dies_per_channel, planes_per_die = 2, 2
        planes = channels * dies_per_channel * planes_per_die
        block_bytes = pages_per_block * page_size
        blocks_needed = -(-capacity_bytes // block_bytes)
        # at least 4 blocks per plane: with a single block the plane's only
        # block is always the active one and garbage collection can never
        # find a victim (over-provisioning would be meaningless)
        blocks_per_plane = max(4, -(-blocks_needed // planes))
        return cls(
            channels=channels,
            dies_per_channel=dies_per_channel,
            planes_per_die=planes_per_die,
            blocks_per_plane=blocks_per_plane,
            pages_per_block=pages_per_block,
            page_size=page_size,
        )
