"""Discrete-event simulation engine: the only module advancing simulated time.

Layers (see DESIGN.md "Timing engine"):

* :mod:`repro.engine.core` — deterministic event heap, typed op records;
* :mod:`repro.engine.resources` — device resources (HDD members, SSD
  cache) behind pluggable queue disciplines (FCFS, priority-FCFS);
* :mod:`repro.engine.hooks` — composable middleware: the fault pipeline
  and op-level instrumentation;
* :mod:`repro.engine.system` — :class:`SimEngine`, the request pipeline.

Everything user-facing (``TimedSystem``, ``FaultyTimedSystem``,
``replay_trace``, ``run_closed_loop``, ``rebuild_under_load``) is a thin
source/facade over this package; analyzer rule RPR009 keeps clock
arithmetic from leaking back out.
"""

from .core import Event, EventLoop, OpRecord, Priority, RequestRecord
from .hooks import EngineHook, FaultPipelineHook, InstrumentationHook
from .resources import (
    FCFS,
    DiskResource,
    PriorityFCFS,
    QueueDiscipline,
    Resource,
    ServiceWindow,
    SSDResource,
)
from .system import SimEngine

__all__ = [
    "FCFS",
    "DiskResource",
    "EngineHook",
    "Event",
    "EventLoop",
    "FaultPipelineHook",
    "InstrumentationHook",
    "OpRecord",
    "Priority",
    "PriorityFCFS",
    "QueueDiscipline",
    "RequestRecord",
    "Resource",
    "SSDResource",
    "ServiceWindow",
    "SimEngine",
]
