"""Parser/writer for SPC-1 style trace files (UMass trace repository).

The Storage Performance Council financial traces (``Financial1.spc``,
``Financial2.spc``) are ASCII files with one request per line::

    ASU,LBA,Size,Opcode,Timestamp

where ``ASU`` is an application-specific unit (sub-volume) id, ``LBA``
is a 512-byte-sector address *within* that ASU, ``Size`` is in bytes,
``Opcode`` is ``r``/``R`` or ``w``/``W``, and ``Timestamp`` is seconds
from trace start.  We linearise ASUs into one address space by giving
each ASU a fixed page-aligned region.
"""

from __future__ import annotations

import io
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from ..errors import TraceFormatError
from ..units import DEFAULT_PAGE_SIZE
from .record import empty_records
from .trace import Trace, read_trace_lines

SECTOR_SIZE = 512

#: Pages reserved per ASU when linearising the address space.  The UMass
#: financial traces address well under 64 GiB per ASU.
ASU_REGION_PAGES = (64 * 1024 * 1024 * 1024) // DEFAULT_PAGE_SIZE


def parse_spc(
    source: str | Path | io.TextIOBase,
    name: str = "spc",
    page_size: int = DEFAULT_PAGE_SIZE,
    asu_region_pages: int = ASU_REGION_PAGES,
) -> Trace:
    """Parse an SPC format trace into a page-granular :class:`Trace`."""
    lines = read_trace_lines(source)

    n = len(lines)
    records = empty_records(n)
    count = 0
    sectors_per_page = page_size // SECTOR_SIZE
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) < 5:
            raise TraceFormatError(f"line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            asu = int(parts[0])
            sector = int(parts[1])
            size = int(parts[2])
            opcode = parts[3].strip().lower()
            time = float(parts[4])
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from exc
        if opcode not in ("r", "w"):
            raise TraceFormatError(f"line {lineno}: bad opcode {parts[3]!r}")
        if size <= 0:
            # Some SPC traces contain zero-length markers; skip them.
            continue
        first_page = sector // sectors_per_page
        last_page = (sector * SECTOR_SIZE + size - 1) // page_size
        rec = records[count]
        rec["time"] = time
        rec["lba"] = asu * asu_region_pages + first_page
        rec["npages"] = last_page - first_page + 1
        rec["is_read"] = opcode == "r"
        count += 1
    return Trace(records[:count].copy(), name=name, page_size=page_size)


def write_spc(trace: Trace, dest: str | Path | io.TextIOBase, asu: int = 0) -> None:
    """Write a trace back out in SPC format (single ASU)."""
    own = isinstance(dest, (str, Path))
    fh = open(dest, "w", encoding="ascii") if own else dest
    try:
        sectors_per_page = trace.page_size // SECTOR_SIZE
        for req in trace:
            fh.write(
                f"{asu},{req.lba * sectors_per_page},"
                f"{req.npages * trace.page_size},"
                f"{'r' if req.is_read else 'w'},{req.time:.6f}\n"
            )
    finally:
        if own:
            fh.close()


def concat_spc(traces: Iterable[Trace], name: str = "spc-merged") -> Trace:
    """Merge several traces into one, re-sorted by time."""
    arrays = [t.records for t in traces]
    if not arrays:
        raise TraceFormatError("no traces to merge")
    merged = np.concatenate(arrays)
    merged = merged[np.argsort(merged["time"], kind="stable")]
    return Trace(merged.copy(), name=name)
