"""Device resources: service-time models behind queue disciplines.

Each member disk and the SSD cache is a *resource*: the substrate's
service-time model (:class:`repro.disk.HDD`, :class:`repro.flash.SSDLatency`)
wrapped behind a :class:`QueueDiscipline` that decides when a queued
operation may start.  The simulation engine feeds operations in global
submission order, so a per-resource clock implements the disciplines
exactly:

* :class:`FCFS` — first come, first served; an op starts when the
  device finished everything submitted before it.  This is the
  historical ``busy_until`` behaviour and the default everywhere.
* :class:`PriorityFCFS` — non-preemptive foreground priority:
  foreground ops queue FCFS, while background ops (cleaning, rebuild,
  repair traffic) are additionally deferred until ``bg_idle_gap``
  seconds after the last foreground service, modelling the classic
  rebuild-rate throttle.  With ``bg_idle_gap=0`` it reduces to FCFS.

Fault surface
-------------

Both resources accept an optional *fault stream*
(:class:`repro.faults.DeviceFaultStream`) and a
:class:`repro.faults.RetryPolicy`.  A serve call then returns a *typed
outcome* instead of assuming success: the :class:`ServiceWindow` carries
the residual :class:`~repro.faults.FaultKind` (``None`` when the command
succeeded), how many transparent retries the device absorbed, and the
latency those stalls and backoffs added.  Transient timeouts are retried
in place (each retry stalls the device — later commands queue behind the
backoff); a leftover ``TIMEOUT`` means retries ran out, and a ``URE`` is
persistent by definition, so both escalate to the caller (the RAID layer
reconstructs, see :mod:`repro.engine.hooks`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..disk.hdd import HDD, HDDParams
from ..errors import ConfigError
from ..faults.retry import RetryPolicy
from ..faults.schedule import DeviceFaultStream, FaultKind
from ..flash.device import SSDLatency
from .core import OpRecord, Priority


@dataclass
class ServiceWindow:
    """When an operation started and finished on a resource — and whether
    it actually succeeded.

    ``fault`` is the *residual* fault after the device's transparent
    retries: ``None`` for success, :attr:`FaultKind.URE` for an
    unrecoverable media error, :attr:`FaultKind.TIMEOUT` when the retry
    budget ran out.  ``fault_latency`` (stalls + backoffs) is already
    included in ``finish``.
    """

    start: float
    finish: float
    fault: FaultKind | None = None
    retries: int = 0
    fault_latency: float = 0.0

    @property
    def ok(self) -> bool:
        return self.fault is None


def _faulted_service(
    stream: DeviceFaultStream | None,
    retry: RetryPolicy | None,
    is_read: bool,
    npages: int,
) -> tuple[FaultKind | None, int, float]:
    """Draw a command's fault outcome and absorb transient retries.

    Returns ``(residual fault, retries used, added latency)``.  Each
    timeout stalls ``timeout_s`` then waits the policy's backoff before
    the retry re-draws from the stream; a URE is persistent and is
    never retried (re-reading bad media returns the same error).
    """
    if stream is None:
        return None, 0, 0.0
    fault = stream.draw(is_read, npages)
    retries = 0
    penalty = 0.0
    timeout_s = stream.config.timeout_s
    while (
        fault is FaultKind.TIMEOUT
        and retry is not None
        and retries < retry.max_retries
    ):
        penalty += timeout_s + retry.backoff(retries)
        retries += 1
        fault = stream.draw(is_read, npages)
    if fault is FaultKind.TIMEOUT:
        penalty += timeout_s  # the final, un-retried stall
    return fault, retries, penalty


class QueueDiscipline:
    """Decides when a newly submitted operation may start service."""

    def start_time(self, resource: "Resource", earliest: float,
                   priority: Priority) -> float:
        raise NotImplementedError


class FCFS(QueueDiscipline):
    """First come, first served: start when the device drains its queue."""

    def start_time(self, resource: "Resource", earliest: float,
                   priority: Priority) -> float:
        return max(earliest, resource.busy_until)


class PriorityFCFS(FCFS):
    """Foreground-priority FCFS with a background idle-gap throttle.

    Non-preemptive: a background op already in service still delays
    foreground arrivals (that is physics), but *queued* background work
    never starts before ``bg_idle_gap`` seconds have passed since the
    last foreground service finished — the engine's rebuild-rate /
    cleaning-throttle knob.
    """

    def __init__(self, bg_idle_gap: float = 0.0) -> None:
        if bg_idle_gap < 0:
            raise ConfigError("bg_idle_gap must be >= 0")
        self.bg_idle_gap = bg_idle_gap

    def start_time(self, resource: "Resource", earliest: float,
                   priority: Priority) -> float:
        start = max(earliest, resource.busy_until)
        if priority is Priority.BACKGROUND:
            start = max(start, resource.last_fg_finish + self.bg_idle_gap)
        return start


#: Observer signature: called with each completed :class:`OpRecord`.
OpObserver = Callable[[OpRecord], None]


class Resource:
    """Shared state and accounting for one device resource.

    ``busy_time`` accumulates the full occupied window of every serve —
    service time *plus* fault stalls and backoffs — because a stalled
    device is every bit as unavailable as a transferring one; the
    separate ``stall_time`` tally isolates the fault-injected share.
    """

    def __init__(self, name: str, discipline: QueueDiscipline | None) -> None:
        self.name = name
        self.discipline = discipline or FCFS()
        self.busy_until = 0.0
        self.busy_time = 0.0
        self.stall_time = 0.0
        self.last_fg_finish = 0.0
        self._observers: list[OpObserver] = []
        self._op_ids: Callable[[], int] = self._local_ids
        self._next_local_id = 0

    def _local_ids(self) -> int:
        """Standalone resources number their own ops from zero."""
        next_id = self._next_local_id
        self._next_local_id += 1
        return next_id

    def add_observer(self, observer: OpObserver) -> None:
        self._observers.append(observer)

    def use_op_ids(self, allocator: Callable[[], int]) -> None:
        """Share an engine-wide op-id sequence (global trace ordering)."""
        self._op_ids = allocator

    def _account(self, window: ServiceWindow, priority: Priority) -> None:
        self.busy_until = window.finish
        self.busy_time += window.finish - window.start
        self.stall_time += window.fault_latency
        if priority is Priority.FOREGROUND:
            self.last_fg_finish = window.finish

    def _emit(self, *, kind: str, npages: int, priority: Priority, tag: str,
              submitted: float, window: ServiceWindow) -> None:
        if not self._observers:
            return
        record = OpRecord(
            op_id=self._op_ids(),
            device=self.name,
            kind=kind,
            npages=npages,
            priority=priority.value,
            tag=tag,
            submitted=submitted,
            start=window.start,
            finish=window.finish,
            fault=window.fault.value if window.fault is not None else None,
            retries=window.retries,
            fault_latency=window.fault_latency,
        )
        for observer in self._observers:
            observer(record)


class DiskResource(Resource):
    """One member disk: the mechanical HDD model behind a discipline."""

    def __init__(
        self,
        params: HDDParams | None = None,
        page_size: int = 4096,
        faults: DeviceFaultStream | None = None,
        retry: RetryPolicy | None = None,
        name: str = "disk",
        discipline: QueueDiscipline | None = None,
    ) -> None:
        super().__init__(name, discipline)
        self.hdd = HDD(params, page_size=page_size)
        self.ops = 0
        self.faults = faults
        self.retry = retry

    def serve(
        self,
        disk_page: int,
        npages: int,
        is_read: bool,
        earliest: float,
        priority: Priority = Priority.FOREGROUND,
        tag: str = "fg",
    ) -> ServiceWindow:
        """Queue one access; returns its service window (typed outcome)."""
        start = self.discipline.start_time(self, earliest, priority)
        service = self.hdd.service_time(disk_page, npages, is_read)
        fault, retries, penalty = _faulted_service(
            self.faults, self.retry, is_read, npages
        )
        window = ServiceWindow(start=start, finish=start + service + penalty,
                               fault=fault, retries=retries,
                               fault_latency=penalty)
        self._account(window, priority)
        self.ops += 1
        self._emit(kind="read" if is_read else "write", npages=npages,
                   priority=priority, tag=tag, submitted=earliest,
                   window=window)
        return window


class SSDResource(Resource):
    """The cache device: channel-parallel page reads/programs, queued.

    Commands are admitted device-FCFS (one outstanding command; the next
    starts when the previous finishes); *within* a command the pages
    fan out over ``channels`` ways.  Page-to-channel assignment is
    deterministic: least-busy channel first, equal ``busy_until`` ties
    broken by the **lowest channel index** — never by dict/hash order —
    so fault draws and timestamps are stable across runs and workers.
    """

    def __init__(
        self,
        latency: SSDLatency | None = None,
        channels: int = 8,
        faults: DeviceFaultStream | None = None,
        retry: RetryPolicy | None = None,
        name: str = "ssd",
        discipline: QueueDiscipline | None = None,
    ) -> None:
        if channels < 1:
            raise ConfigError("channels must be >= 1")
        super().__init__(name, discipline)
        self.latency = latency or SSDLatency()
        self.channels = channels
        self.reads = 0
        self.writes = 0
        self.faults = faults
        self.retry = retry
        #: Per-channel completion clocks (a list, indexed by channel —
        #: the index *is* the tie-break key).
        self.channel_busy = [0.0] * channels
        #: Channel each page of the most recent command landed on.
        self.last_assignment: list[int] = []

    def _batch_time(self, npages: int, per_page: float) -> float:
        rounds = -(-npages // self.channels)
        return self.latency.command_overhead + rounds * per_page

    def _assign_channels(self, npages: int) -> list[int]:
        """Deterministic page->channel placement for one command.

        Channels are ranked by ``(busy_until, index)`` and pages dealt
        round-robin over that ranking, so equally-idle channels fill
        from index 0 upward (the sort is stable over ascending indices,
        so ranking by ``busy_until`` alone keeps that tie-break).
        """
        order = sorted(range(self.channels), key=self.channel_busy.__getitem__)
        assert all(
            self.channel_busy[a] < self.channel_busy[b] or a < b
            for a, b in zip(order, order[1:])
        ), "equal-busy channel ties must break by lowest index"
        return [order[i % self.channels] for i in range(npages)]

    def _serve(self, npages: int, per_page: float, is_read: bool,
               earliest: float, priority: Priority, tag: str) -> ServiceWindow:
        if npages < 1:
            raise ConfigError("npages must be >= 1")
        start = self.discipline.start_time(self, earliest, priority)
        fault, retries, penalty = _faulted_service(
            self.faults, self.retry, is_read, npages
        )
        finish = start + self._batch_time(npages, per_page) + penalty
        assignment = self._assign_channels(npages)
        for channel in assignment:
            self.channel_busy[channel] = max(
                self.channel_busy[channel],
                start + self.latency.command_overhead,
            ) + per_page
        self.last_assignment = assignment
        window = ServiceWindow(start=start, finish=finish, fault=fault,
                               retries=retries, fault_latency=penalty)
        self._account(window, priority)
        if is_read:
            self.reads += npages
        else:
            self.writes += npages
        self._emit(kind="read" if is_read else "write", npages=npages,
                   priority=priority, tag=tag, submitted=earliest,
                   window=window)
        return window

    def serve_read(self, npages: int, earliest: float,
                   priority: Priority = Priority.FOREGROUND,
                   tag: str = "fg") -> ServiceWindow:
        return self._serve(npages, self.latency.page_read, True, earliest,
                           priority, tag)

    def serve_write(self, npages: int, earliest: float,
                    priority: Priority = Priority.FOREGROUND,
                    tag: str = "fg") -> ServiceWindow:
        return self._serve(npages, self.latency.page_program, False, earliest,
                           priority, tag)
