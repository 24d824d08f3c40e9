"""Packing deltas into DEZ pages.

Multiple small deltas are compacted into one flash page before being
committed to the Delta Zone (Section III-B): each packed page has a
small header per delta (logical address + offset + length) followed by
the delta payloads back to back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from ..errors import ConfigError

#: Per-delta header: lba_raid (4) + off (2) + len (2), as in Figure 3.
DELTA_HEADER_BYTES = 8


class PackedDelta(NamedTuple):
    """One delta's placement inside a packed DEZ page (immutable)."""

    lba: int
    offset: int
    length: int
    payload: bytes | None = None


@dataclass
class PackedPage:
    """A DEZ page holding several deltas plus a live-entry count.

    ``valid_count`` is the number of deltas not yet invalidated; the
    page can only be reclaimed once it reaches zero (Section III-C).
    """

    deltas: list[PackedDelta] = field(default_factory=list)
    valid: set[int] = field(default_factory=set)

    @property
    def valid_count(self) -> int:
        return len(self.valid)

    def find(self, lba: int) -> PackedDelta:
        for d in self.deltas:
            if d.lba == lba and lba in self.valid:
                return d
        raise KeyError(lba)

    def invalidate(self, lba: int) -> int:
        """Invalidate the delta for ``lba``; returns remaining valid count."""
        self.valid.discard(lba)
        return self.valid_count


def pack_deltas(
    items: list[tuple[int, int, bytes | None]], page_size: int
) -> PackedPage:
    """Pack ``(lba, size, payload)`` deltas into one page.

    Raises :class:`ConfigError` if they cannot fit; callers size the
    staging buffer to the page size so a full buffer always fits.
    """
    page = PackedPage()
    cursor = 0
    for lba, size, payload in items:
        need = size + DELTA_HEADER_BYTES
        if cursor + need > page_size and page.deltas:
            raise ConfigError(
                f"deltas overflow one {page_size}-byte page at lba {lba}"
            )
        # An incompressible delta may exceed page_size - header alone:
        # store it truncated to the page (it degenerates to a raw copy).
        length = min(size, page_size - DELTA_HEADER_BYTES - cursor)
        if length <= 0:
            raise ConfigError("no room left in DEZ page")
        page.deltas.append(
            PackedDelta(lba, cursor + DELTA_HEADER_BYTES, length, payload)
        )
        page.valid.add(lba)
        cursor += DELTA_HEADER_BYTES + length
    return page
