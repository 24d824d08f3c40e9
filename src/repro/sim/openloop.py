"""Open-loop trace replay (the RAIDmeter experiment, Section IV-B2).

Requests are issued at their trace timestamps regardless of completion
(an open system): response time includes any queueing that builds up
when the device pool falls behind the arrival process.
"""

from __future__ import annotations

from ..engine import SimEngine, TimingReport
from ..errors import ConfigError, SimulationError, raises
from ..traces.trace import Trace


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
    """
    if time_scale <= 0:
        raise ConfigError("time_scale must be positive")
    issued = 0
    last_time = 0.0
    last_done = 0.0
    for req in trace:
        t = req.time * time_scale
        if max_seconds is not None and t > max_seconds:
            break
        if max_requests is not None and issued >= max_requests:
            break
        done = system.submit(req.lba, req.npages, req.is_read, t)
        last_done = max(last_done, done)
        issued += 1
        last_time = t
    system.policy.finish()
    # The run lasts until the later of the last arrival and the last
    # completion: when the device pool falls behind the open-loop arrival
    # process, requests are still draining after the final arrival, and
    # computing IOPS over arrivals alone would overstate throughput.
    return system.report(workload=trace.name,
                         duration=max(last_time, last_done, 1e-9))
