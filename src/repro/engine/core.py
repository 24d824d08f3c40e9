"""Event core of the discrete-event simulation engine.

Everything that advances simulated time in this repository lives in
:mod:`repro.engine` (enforced by analyzer rule RPR009).  This module
holds the two primitives the rest of the engine builds on:

* :class:`EventLoop` — the simulated clock and a deterministic event
  heap.  Events are ordered by ``(time, seq)`` where ``seq`` is a
  monotonically increasing sequence number assigned at scheduling time,
  so equal-time events pop in scheduling order — never in hash or
  identity order.  There is no wall clock anywhere: ``now`` moves only
  when an event is popped or when :meth:`EventLoop.advance` steps it to
  the arrival of work handled directly (sources submit in arrival
  order, so that arrival is the next event).
* :class:`OpRecord` — the typed record of one device operation (who,
  what, when queued, when started, when finished, what went wrong).
  Resources emit one per serve; the instrumentation hook aggregates
  them into op traces, queue-delay summaries, utilisation timelines and
  queue-depth histograms.

The loop is intentionally small: workload drivers (open-loop replay,
closed-loop threads, rebuild batches) are *sources* that submit work
in arrival order; device timing is the resources' job
(:mod:`repro.engine.resources`); cross-cutting behaviour (faults,
instrumentation) hangs off the hook protocol
(:mod:`repro.engine.hooks`).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

from ..errors import ConfigError, SimulationError, raises


class Priority(Enum):
    """Service class of a device operation.

    ``FOREGROUND`` is work a request waits on; ``BACKGROUND`` is
    asynchronous work (read fills, cleaning, rebuild, repair traffic).
    Resources queue every op FCFS whatever its class; the class is the
    ``priority`` label of the op trace.
    """

    FOREGROUND = "fg"
    BACKGROUND = "bg"


@dataclass(frozen=True)
class OpRecord:
    """One device operation, fully resolved.

    ``submitted`` is when the op arrived at the resource (the earliest
    it could have started); ``queue_delay = start - submitted`` is time
    spent waiting for the device.  ``fault`` is the residual fault kind
    value (``"ure"``/``"timeout"``) or ``None``; ``fault_latency`` is
    stall + backoff time already included in ``finish``.
    """

    device: str
    kind: str  # "read" | "write"
    npages: int
    priority: str  # Priority.value
    tag: str  # request phase: "fg", "bg", "reconstruct", "repair", "inject", ...
    submitted: float
    start: float
    finish: float
    fault: str | None = None
    retries: int = 0
    fault_latency: float = 0.0

    @property
    def queue_delay(self) -> float:
        return self.start - self.submitted

    @property
    def service(self) -> float:
        return self.finish - self.start

    def row(self) -> dict[str, object]:
        """JSON-ready dict (the op-trace JSONL line, minus its number)."""
        return {
            "device": self.device,
            "kind": self.kind,
            "npages": self.npages,
            "priority": self.priority,
            "tag": self.tag,
            "submitted": self.submitted,
            "start": self.start,
            "finish": self.finish,
            "queue_delay": self.queue_delay,
            "fault": self.fault,
            "retries": self.retries,
            "fault_latency": self.fault_latency,
        }


@dataclass(frozen=True)
class RequestRecord:
    """One foreground request, as the workload source submitted it."""

    lba: int
    npages: int
    is_read: bool
    arrival: float
    completion: float

    @property
    def response_time(self) -> float:
        return self.completion - self.arrival


@dataclass(order=True)
class Event:
    """One scheduled occurrence.  Orders by ``(time, seq)`` only."""

    time: float
    seq: int
    action: Callable[[float], None] = field(compare=False)


def _check_time(time: float) -> None:
    # A NaN compares false against every bound: it would corrupt the
    # heap order and stall the clock.
    if not 0.0 <= time < math.inf:
        raise ConfigError(
            f"cannot schedule an event at time {time}: "
            "need a finite time >= 0"
        )


class EventLoop:
    """The simulated clock and a deterministic event heap; the only
    thing that moves ``now``.

    ``now`` is monotone: an event or an :meth:`advance` with a
    timestamp behind the current clock (a source handing over late
    work, e.g. a rebuild batch injected while the foreground ran ahead)
    keeps ``now`` where it is — the work still runs at its own time.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[Event] = []
        self._seq = 0

    def advance(self, time: float) -> None:
        """Step ``now`` forward to ``time``, for work run there directly.

        ``time`` must be finite and >= 0, as for :meth:`schedule`; a
        time behind the clock leaves ``now`` where it is.
        """
        _check_time(time)
        if time > self.now:
            self.now = time

    def schedule(self, time: float, action: Callable[[float], None]) -> Event:
        """Schedule ``action(time)`` at ``time``; ties pop in FIFO order.

        ``time`` must be finite and >= 0.
        """
        _check_time(time)
        event = Event(time=time, seq=self._seq, action=action)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    @raises(SimulationError)
    def run(self, max_events: int | None = None) -> int:
        """Pop and run events, earliest first, until the heap drains;
        returns the number of events run."""
        ran = 0
        heap = self._heap
        while heap:
            if max_events is not None and ran >= max_events:
                raise SimulationError(
                    f"event loop exceeded {max_events} events; "
                    "a source is rescheduling itself unboundedly"
                )
            event = heapq.heappop(heap)
            if event.time > self.now:
                self.now = event.time
            event.action(event.time)
            ran += 1
        return ran
