"""Workload sources for the timed system (the 'prototype' measurements).

Each driver decides what to submit to a :class:`repro.engine.SimEngine`
and when; the engine owns every device clock:

* :func:`replay_trace` — open-loop trace replay (Figure 9);
* :func:`run_closed_loop` — the FIO-style closed loop (Figure 10);
* :func:`rebuild_under_load` — a member rebuild interleaved with
  foreground traffic.
"""

from .closedloop import FioConfig, run_closed_loop
from .openloop import replay_trace
from .rebuild import rebuild_under_load

__all__ = [
    "FioConfig",
    "rebuild_under_load",
    "replay_trace",
    "run_closed_loop",
]
