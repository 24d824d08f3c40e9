"""Discrete-event simulation engine: the only module advancing simulated time.

Layers (see DESIGN.md "Timing engine"):

* :mod:`repro.engine.core` — the simulated clock, a deterministic event
  heap, typed op records;
* :mod:`repro.engine.resources` — device resources (HDD members, SSD
  cache), one FCFS clock each;
* :mod:`repro.engine.hooks` — the hook protocol and its hooks: the
  fault pipeline, op-level instrumentation and stale-stripe exposure;
* :mod:`repro.engine.system` — :class:`SimEngine`, the timed system:
  the request pipeline and its :class:`TimingReport`.

A timed run is one :class:`SimEngine` with hooks installed on it, fed
by a workload source (:mod:`repro.sim`: ``replay_trace``,
``run_closed_loop``, ``rebuild_under_load``); analyzer rule RPR009
keeps clock arithmetic from leaking out of this package.
"""

from .core import Event, EventLoop, OpRecord, Priority, RequestRecord
from .hooks import (
    EngineHook,
    FaultPipelineHook,
    InstrumentationHook,
    StaleExposureHook,
)
from .resources import DiskResource, Resource, ServiceWindow, SSDResource
from .system import SimEngine, TimingReport

__all__ = [
    "DiskResource",
    "EngineHook",
    "Event",
    "EventLoop",
    "FaultPipelineHook",
    "InstrumentationHook",
    "OpRecord",
    "Priority",
    "RequestRecord",
    "Resource",
    "SSDResource",
    "ServiceWindow",
    "SimEngine",
    "StaleExposureHook",
    "TimingReport",
]
