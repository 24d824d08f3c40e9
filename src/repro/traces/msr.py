"""Parser for MSR Cambridge (Microsoft Cambridge Server) block traces.

The MSR Cambridge traces (``hm_0.csv``, ``web_0.csv``, ...) are CSV
files with one request per line::

    Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime

``Timestamp`` is in Windows filetime units (100 ns ticks), ``Offset``
and ``Size`` are in bytes, ``Type`` is ``Read`` or ``Write``.
"""

from __future__ import annotations

import io
from pathlib import Path

from ..errors import TraceFormatError
from ..units import DEFAULT_PAGE_SIZE
from .record import empty_records
from .trace import Trace, read_trace_lines

FILETIME_TICK = 1e-7  # 100 ns


def parse_msr(
    source: str | Path | io.TextIOBase,
    name: str = "msr",
    page_size: int = DEFAULT_PAGE_SIZE,
    disk_number: int | None = None,
) -> Trace:
    """Parse an MSR Cambridge CSV trace.

    If ``disk_number`` is given, only requests for that volume are kept
    (the paper uses the first volume of each server, e.g. ``hm_0``).
    """
    lines = read_trace_lines(source)

    records = empty_records(len(lines))
    count = 0
    t0_ticks: int | None = None
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) < 6:
            raise TraceFormatError(f"line {lineno}: expected >=6 fields, got {len(parts)}")
        try:
            ticks = int(parts[0])
            disk = int(parts[2])
            op = parts[3].strip().lower()
            offset = int(parts[4])
            size = int(parts[5])
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from exc
        if disk_number is not None and disk != disk_number:
            continue
        if op not in ("read", "write"):
            raise TraceFormatError(f"line {lineno}: bad request type {parts[3]!r}")
        if size <= 0:
            continue
        if t0_ticks is None:
            t0_ticks = ticks
        # subtract in integer ticks first: raw filetimes exceed float64's
        # integer precision and would quantise relative times to ~2 us
        time = (ticks - t0_ticks) * FILETIME_TICK
        first_page = offset // page_size
        last_page = (offset + size - 1) // page_size
        rec = records[count]
        rec["time"] = time
        rec["lba"] = first_page
        rec["npages"] = last_page - first_page + 1
        rec["is_read"] = op == "read"
        count += 1
    return Trace(records[:count].copy(), name=name, page_size=page_size)
