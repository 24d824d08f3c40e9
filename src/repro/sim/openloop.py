"""Open-loop trace replay (the RAIDmeter experiment, Section IV-B2).

Requests are issued at their trace timestamps regardless of completion
(an open system): response time includes any queueing that builds up
when the device pool falls behind the arrival process.
"""

from __future__ import annotations

import math

from ..engine import SimEngine, TimingReport
from ..errors import ConfigError, SimulationError, raises
from ..traces.trace import Trace

#: Records converted to Python scalars at a time, so a replay holds at
#: most this many rows as lists however long the trace is.
_CHUNK = 4096


def _rows(records):
    """``(time, lba, npages, is_read)`` of each record, read with one
    ``tolist`` per column and chunk."""
    for start in range(0, len(records), _CHUNK):
        chunk = records[start:start + _CHUNK]
        yield from zip(chunk["time"].tolist(), chunk["lba"].tolist(),
                       chunk["npages"].tolist(), chunk["is_read"].tolist())


@raises(SimulationError)
def replay_trace(
    system: SimEngine,
    trace: Trace,
    max_requests: int | None = None,
    max_seconds: float | None = None,
    time_scale: float = 1.0,
) -> TimingReport:
    """Replay ``trace`` through ``system`` by arrival time.

    ``time_scale`` stretches (>1) or compresses (<1) inter-arrival gaps,
    which is how the paper-style "replay for 30 minutes" is shrunk to
    laptop scale without changing the access pattern.  ``max_seconds``
    cuts the replay off after that much simulated time.

    The first ``max_requests`` records are read column by column, a
    chunk at a time, so no per-record request object is built and a
    ``max_seconds`` cut converts little past the last replayed record.
    """
    if not 0.0 < time_scale < math.inf:
        raise ConfigError(
            f"time_scale must be positive and finite, got {time_scale}")
    if max_requests is not None and max_requests < 0:
        raise ConfigError(f"max_requests must be >= 0, got {max_requests}")
    if max_seconds is not None and math.isnan(max_seconds):
        raise ConfigError(f"max_seconds must not be NaN, got {max_seconds}")
    cutoff = math.inf if max_seconds is None else max_seconds
    last_time = 0.0
    last_done = 0.0
    for stamp, lba, npages, is_read in _rows(trace.records[:max_requests]):
        t = stamp * time_scale
        if t > cutoff:
            break
        done = system.submit(lba, npages, is_read, t)
        if done > last_done:
            last_done = done
        last_time = t
    system.policy.finish()
    # The run lasts until the later of the last arrival and the last
    # completion: when the device pool falls behind the open-loop arrival
    # process, requests are still draining after the final arrival, and
    # computing IOPS over arrivals alone would overstate throughput.
    return system.report(workload=trace.name,
                         duration=max(last_time, last_done, 1e-9))
