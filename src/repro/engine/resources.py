"""Device resources: one FCFS clock over one service formula each.

Each member disk and the SSD cache is a *resource*: the substrate's
service-time model (:class:`repro.disk.HDD`, :class:`repro.flash.SSDLatency`)
behind a first-come-first-served queue.  The simulation engine feeds
operations in global submission order, so one clock per device is
exact: an op starts at ``max(earliest, busy_until)`` — when the device
finished everything submitted before it — and finishes at ``start +
service + fault penalty``.  The op's :class:`~repro.engine.core.Priority`
does not reorder the queue; it labels the op trace.

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

from ..disk.hdd import HDD
from ..errors import ConfigError
from ..faults.retry import RetryPolicy
from ..faults.schedule import DeviceFaultStream, FaultKind
from ..flash.device import SSDLatency
from .core import OpRecord, Priority


@dataclass(slots=True)
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
    stream: DeviceFaultStream,
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


#: Observer signature: called with each completed :class:`OpRecord`.
OpObserver = Callable[[OpRecord], None]


class Resource:
    """One device's FCFS clock, fault surface and accounting.

    ``busy_time`` accumulates the full occupied window of every serve —
    service time *plus* fault stalls and backoffs — because a stalled
    device is every bit as unavailable as a transferring one; the
    separate ``stall_time`` tally isolates the fault-injected share.
    """

    def __init__(self, name: str, faults: DeviceFaultStream | None,
                 retry: RetryPolicy | None) -> None:
        self.name = name
        self.faults = faults
        self.retry = retry
        self.busy_until = 0.0
        self.busy_time = 0.0
        self.stall_time = 0.0
        self._observers: list[OpObserver] = []

    def add_observer(self, observer: OpObserver) -> None:
        self._observers.append(observer)

    def _queue(self, service: float, npages: int, is_read: bool,
               earliest: float, priority: Priority,
               tag: str) -> ServiceWindow:
        """Serve one ``service``-second command FCFS behind the device.

        A device with no fault stream draws nothing: its window is the
        bare service time.
        """
        busy = self.busy_until
        start = busy if busy > earliest else earliest
        if self.faults is None:
            window = ServiceWindow(start, start + service)
        else:
            fault, retries, penalty = _faulted_service(
                self.faults, self.retry, is_read, npages
            )
            window = ServiceWindow(start, start + service + penalty,
                                   fault=fault, retries=retries,
                                   fault_latency=penalty)
            self.stall_time += penalty
        self.busy_until = window.finish
        self.busy_time += window.finish - start
        if self._observers:
            fault = window.fault
            record = OpRecord(
                device=self.name,
                kind="read" if is_read else "write",
                npages=npages,
                priority=priority.value,
                tag=tag,
                submitted=earliest,
                start=start,
                finish=window.finish,
                fault=fault.value if fault is not None else None,
                retries=window.retries,
                fault_latency=window.fault_latency,
            )
            for observer in self._observers:
                observer(record)
        return window


class DiskResource(Resource):
    """One member disk: the mechanical HDD model, queued FCFS."""

    def __init__(
        self,
        page_size: int = 4096,
        faults: DeviceFaultStream | None = None,
        retry: RetryPolicy | None = None,
        name: str = "disk",
    ) -> None:
        super().__init__(name, faults, retry)
        self.hdd = HDD(page_size=page_size)

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
        service = self.hdd.service_time(disk_page, npages)
        return self._queue(service, npages, is_read, earliest, priority, tag)


class SSDResource(Resource):
    """The cache device: channel-parallel page reads/programs, queued FCFS.

    Commands are admitted device-FCFS (one outstanding command; the next
    starts when the previous finishes); *within* a command the pages
    fan out over :attr:`CHANNELS` ways, so an ``n``-page command takes
    the command overhead plus ``ceil(n / CHANNELS)`` page times.
    """

    #: Flash channels a command's pages fan out over.
    CHANNELS = 8
    #: Per-page and per-command service times.
    LATENCY = SSDLatency()

    def __init__(
        self,
        faults: DeviceFaultStream | None = None,
        retry: RetryPolicy | None = None,
        name: str = "ssd",
    ) -> None:
        super().__init__(name, faults, retry)

    def _batch(self, npages: int, per_page: float, is_read: bool,
               earliest: float, priority: Priority,
               tag: str) -> ServiceWindow:
        if npages < 1:
            raise ConfigError("npages must be >= 1")
        rounds = -(-npages // self.CHANNELS)
        service = self.LATENCY.command_overhead + rounds * per_page
        return self._queue(service, npages, is_read, earliest, priority, tag)

    def serve_read(self, npages: int, earliest: float,
                   priority: Priority = Priority.FOREGROUND,
                   tag: str = "fg") -> ServiceWindow:
        return self._batch(npages, self.LATENCY.page_read, True, earliest,
                           priority, tag)

    def serve_write(self, npages: int, earliest: float,
                    priority: Priority = Priority.FOREGROUND,
                    tag: str = "fg") -> ServiceWindow:
        return self._batch(npages, self.LATENCY.page_program, False,
                           earliest, priority, tag)
