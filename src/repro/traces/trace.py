"""Trace container.

A :class:`Trace` wraps a time-sorted numpy record array of block-level
requests (see :mod:`repro.traces.record`) together with a name and the
page size the LBAs are expressed in.  It offers vectorised statistics
(used to regenerate Table I) and iteration for the simulators.
"""

from __future__ import annotations

import io
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..contracts import columnar
from ..errors import ConfigError, TraceFormatError
from ..units import DEFAULT_PAGE_SIZE
from .record import IO_DTYPE, IORequest


def read_trace_lines(source: str | Path | io.TextIOBase) -> list[str]:
    """The lines of a trace file, or of an already open text stream."""
    if not isinstance(source, (str, Path)):
        return source.readlines()
    try:
        with open(source, encoding="ascii", errors="replace") as fh:
            return fh.readlines()
    except OSError as exc:
        raise TraceFormatError(
            f"cannot read trace {source}: {exc.strerror or exc}") from exc


@dataclass(frozen=True)
class TraceStats:
    """Aggregate characteristics of a trace (the columns of Table I)."""

    name: str
    unique_pages: int
    unique_read_pages: int
    unique_write_pages: int
    read_requests: int
    write_requests: int

    @property
    def requests(self) -> int:
        return self.read_requests + self.write_requests

    @property
    def read_ratio(self) -> float:
        total = self.requests
        return self.read_requests / total if total else 0.0

    def row(self) -> dict[str, float]:
        """Table I row (page counts in thousands, as the paper prints them)."""
        return {
            "workload": self.name,
            "unique_total_k": round(self.unique_pages / 1000, 1),
            "unique_read_k": round(self.unique_read_pages / 1000, 1),
            "unique_write_k": round(self.unique_write_pages / 1000, 1),
            "read_req_k": round(self.read_requests / 1000, 1),
            "write_req_k": round(self.write_requests / 1000, 1),
            "read_ratio": round(self.read_ratio, 2),
        }


class Trace:
    """A time-ordered sequence of block-level I/O requests."""

    def __init__(
        self,
        records: np.ndarray,
        name: str = "trace",
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> None:
        if records.dtype != IO_DTYPE:
            raise TraceFormatError(
                f"records must have dtype IO_DTYPE, got {records.dtype}"
            )
        time = records["time"]
        finite = np.isfinite(time)
        if not finite.all():
            first = int(np.argmin(finite))
            raise TraceFormatError(
                f"record {first} has a non-finite arrival time "
                f"{float(time[first])}"
            )
        if len(records) and np.any(np.diff(time) < 0):
            records = records[np.argsort(time, kind="stable")]
        if len(records) and np.any(records["npages"] < 1):
            raise TraceFormatError("trace contains zero-length requests")
        self._records = records
        self.name = name
        self.page_size = page_size

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[IORequest]:
        for rec in self._records:
            yield IORequest(
                time=float(rec["time"]),
                lba=int(rec["lba"]),
                npages=int(rec["npages"]),
                is_read=bool(rec["is_read"]),
            )

    def __getitem__(self, idx: int) -> IORequest:
        rec = self._records[idx]
        return IORequest(
            time=float(rec["time"]),
            lba=int(rec["lba"]),
            npages=int(rec["npages"]),
            is_read=bool(rec["is_read"]),
        )

    @property
    def records(self) -> np.ndarray:
        """The underlying structured array (read-only view)."""
        view = self._records.view()
        view.flags.writeable = False
        return view

    # -- derived quantities ---------------------------------------------------

    @property
    def duration(self) -> float:
        """Span between first and last arrival, in seconds."""
        if not len(self._records):
            return 0.0
        return float(self._records["time"][-1] - self._records["time"][0])

    @property
    def max_page(self) -> int:
        """Highest page address touched (exclusive upper bound of footprint)."""
        if not len(self._records):
            return 0
        ends = self._records["lba"] + self._records["npages"]
        return int(ends.max())

    @columnar(dtypes={"return": "(uint64, bool)"})
    def page_accesses(self) -> tuple[np.ndarray, np.ndarray]:
        """Expand requests to per-page accesses.

        Returns ``(pages, is_read)`` arrays with one entry per 4 KiB page
        touched, preserving request order.  This is the stream the cache
        simulator consumes and what Table I counts.
        """
        npages = self._records["npages"].astype(np.int64)
        total = int(npages.sum())
        if total == 0:
            return (np.empty(0, np.uint64), np.empty(0, np.bool_))
        reps = np.repeat(np.arange(len(self._records)), npages)
        # offset of each expanded page within its request
        starts = np.concatenate(([0], np.cumsum(npages)[:-1]))
        offsets = np.arange(total) - starts[reps]
        pages = self._records["lba"][reps] + offsets.astype(np.uint64)
        return pages, self._records["is_read"][reps]

    def stats(self) -> TraceStats:
        """Compute Table I characteristics at page granularity."""
        pages, is_read = self.page_accesses()
        read_pages = pages[is_read]
        write_pages = pages[~is_read]
        return TraceStats(
            name=self.name,
            unique_pages=int(np.unique(pages).size),
            unique_read_pages=int(np.unique(read_pages).size),
            unique_write_pages=int(np.unique(write_pages).size),
            read_requests=int(is_read.sum()),
            write_requests=int((~is_read).sum()),
        )

    # -- transformations ------------------------------------------------------

    def head(self, n: int) -> "Trace":
        """First ``n`` requests as a new trace (for quick experiments)."""
        return Trace(self._records[:n].copy(), name=self.name, page_size=self.page_size)

    def scaled_time(self, factor: float) -> "Trace":
        """Uniformly compress (<1) or stretch (>1) arrival times."""
        if not 0 < factor < float("inf"):
            raise ConfigError(
                f"time scale factor must be positive and finite, got {factor}"
            )
        rec = self._records.copy()
        rec["time"] *= factor
        return Trace(rec, name=self.name, page_size=self.page_size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace({self.name!r}, n={len(self)}, max_page={self.max_page})"
