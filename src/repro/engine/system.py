"""The timed system: one request pipeline over events + resources.

:class:`SimEngine` is the discrete-event "prototype" path of Section
IV-B and the single place simulated time advances (rule RPR009): a
policy decides what each access does, the engine schedules the
resulting device operations, measures each request's response time and
summarises a run as a :class:`TimingReport`.  Workload drivers
(:mod:`repro.sim.openloop`, :mod:`repro.sim.closedloop`,
:mod:`repro.sim.rebuild`) are *sources*: they decide what to submit and
when, the engine resolves when it finishes.  Cross-cutting behaviour —
fault escalation, instrumentation — hangs off the engine's hooks
(:mod:`repro.engine.hooks`), called in installation order.  Every
resource queues FCFS.

Request semantics (Section IV-B of the paper, unchanged from the
pre-engine implementation):

* a request is interpreted page by page by the cache policy; each
  page's outcome contributes foreground SSD reads, foreground compute
  (delta compression CPU), and foreground RAID member ops;
* member *reads* proceed in parallel across disks, member *writes*
  start only after the reads finish — the two phases of a
  read-modify-write;
* foreground compute precedes the disk ops that depend on its result
  (the delta must be compressed before it can be written), so dependent
  member ops are submitted at ``arrival + fg_compute``;
* writes are acknowledged only after their RAID member writes complete
  (the paper's RPO=0 consistency rule); asynchronous work (read fills,
  delta/metadata commits, cleaning I/O) starts once the request
  finished and occupies the devices — delaying later requests, but not
  the request that caused it.

Sources submit in global arrival order, so each request is the next
event: :meth:`SimEngine.submit` steps the clock
(:meth:`~repro.engine.core.EventLoop.advance`) to its arrival and
handles it directly, with no heap round trip.  Handling a request
resolves all of its device acquisitions inline against the resource
clocks (lookahead), which implements FCFS exactly for the same reason.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from ..cache.base import CachePolicy, Outcome
from ..errors import ConfigError, SimulationError, raises
from ..raid.array import DiskOp
from ..stats.latency import LatencyRecorder, LatencySummary
from ..traces.record import IORequest
from .core import EventLoop, Priority, RequestRecord
from .hooks import EngineHook
from .resources import DiskResource, Resource, SSDResource


@dataclass(frozen=True)
class TimingReport:
    """Outcome of one timed run."""

    policy: str
    workload: str
    latency: LatencySummary
    duration: float
    requests: int

    @property
    def mean_response_ms(self) -> float:
        return self.latency.mean_ms

    @property
    def iops(self) -> float:
        return self.requests / self.duration if self.duration > 0 else 0.0

    def row(self) -> dict[str, float]:
        out = {"policy": self.policy, "workload": self.workload}
        out.update(self.latency.row())
        out["iops"] = round(self.iops, 1)
        return out


class SimEngine:
    """Discrete-event engine scheduling one policy's device operations."""

    def __init__(self, policy: CachePolicy) -> None:
        self.policy = policy
        self.loop = EventLoop()
        page_size = policy.config.page_size
        self.disks = [
            DiskResource(page_size=page_size, name=f"disk{i}")
            for i in range(policy.raid.ndisks)
        ]
        self.ssd = SSDResource()
        self.recorder = LatencyRecorder()
        self.hooks: list[EngineHook] = []

    # -- plumbing ------------------------------------------------------------

    def resources(self) -> Iterator[Resource]:
        yield from self.disks
        yield self.ssd

    def add_hook(self, hook: EngineHook) -> None:
        """Install ``hook``; hooks run in installation order."""
        self.hooks.append(hook)
        hook.install(self)

    # -- device service ------------------------------------------------------

    def serve_ssd(self, npages: int, is_read: bool, earliest: float,
                  priority: Priority = Priority.FOREGROUND,
                  tag: str = "fg") -> float:
        """Serve one SSD command; returns its finish time."""
        if is_read:
            window = self.ssd.serve_read(npages, earliest, priority, tag)
        else:
            window = self.ssd.serve_write(npages, earliest, priority, tag)
        for hook in self.hooks:
            hook.on_ssd_window(self, window, npages, is_read)
        return window.finish

    def run_disk_phases(self, ops: Sequence[DiskOp], earliest: float,
                        priority: Priority = Priority.FOREGROUND,
                        tag: str = "fg") -> float:
        """Reads in parallel, then writes in parallel; returns finish time.

        One pass over ``ops`` serves the reads and sets the writes
        aside.  A read is done at the latest of its window's finish and
        what each hook's ``on_member_read`` returns (fault escalation
        lives there); each write notifies the hooks after it is served.
        """
        disks = self.disks
        hooks = self.hooks
        writes = []
        phase1_done = earliest
        for op in ops:
            if op.is_read:
                window = disks[op.disk].serve(op.disk_page, op.npages, True,
                                              earliest, priority, tag)
                finish = window.finish
                for hook in hooks:
                    hook_finish = hook.on_member_read(self, op, window)
                    if hook_finish > finish:
                        finish = hook_finish
                if finish > phase1_done:
                    phase1_done = finish
            else:
                writes.append(op)
        done = phase1_done
        for op in writes:
            window = disks[op.disk].serve(op.disk_page, op.npages, False,
                                          phase1_done, priority, tag)
            for hook in hooks:
                hook.on_member_write(self, op, window)
            if window.finish > done:
                done = window.finish
        return done

    # -- the request pipeline ------------------------------------------------

    def _handle_request(self, lba: int, npages: int, is_read: bool,
                        arrival: float) -> float:
        for hook in self.hooks:
            hook.on_request(self, self.loop.now)
        completion = arrival
        backgrounds: list[Outcome] = []
        for page in range(lba, lba + npages):
            out = self.policy.access(page, is_read)
            page_done = arrival
            if out.fg_ssd_reads:
                page_done = self.serve_ssd(out.fg_ssd_reads, True, arrival)
            if out.fg_compute:
                page_done += out.fg_compute
            if out.fg_disk_ops:
                # Compute (delta compression) precedes the member ops
                # that consume its output, so they queue after it.
                disk_done = self.run_disk_phases(out.fg_disk_ops,
                                                 arrival + out.fg_compute)
                if disk_done > page_done:
                    page_done = disk_done
            if page_done > completion:
                completion = page_done
            backgrounds.append(out)
        # background work starts once the foreground finished
        for out in backgrounds:
            if out.bg_ssd_writes:
                self.serve_ssd(out.bg_ssd_writes, False, completion,
                               Priority.BACKGROUND, "bg")
            if out.bg_disk_ops:
                self.run_disk_phases(out.bg_disk_ops, completion,
                                     Priority.BACKGROUND, "bg")
        self.recorder.record(completion - arrival)
        if self.hooks:  # only hooks read the record
            record = RequestRecord(lba=lba, npages=npages, is_read=is_read,
                                   arrival=arrival, completion=completion)
            for hook in self.hooks:
                hook.on_request_done(self, record)
        return completion

    @raises(SimulationError)
    def submit(self, lba: int, npages: int, is_read: bool,
               arrival: float) -> float:
        """Process one foreground request; returns its completion time.

        ``arrival`` must be finite and >= 0.  The clock steps to it
        (never back) and the request is handled at ``arrival``.
        """
        if arrival < 0:
            raise ConfigError("arrival time must be >= 0")
        self.loop.advance(arrival)
        return self._handle_request(lba, npages, is_read, arrival)

    @raises(SimulationError)
    def submit_request(self, req: IORequest) -> float:
        """:meth:`submit` for one trace request."""
        return self.submit(req.lba, req.npages, req.is_read, req.time)

    @raises(SimulationError)
    def inject_disk_ops(self, ops: Sequence[DiskOp], at: float) -> float:
        """Run external member I/O (e.g. rebuild traffic) at ``at``.

        The ops occupy the disks and delay subsequent foreground
        requests, exactly like a rebuild running under load.  They run
        through the full hook pipeline (fault escalation applies) at
        background priority.  Returns the injected batch's finish time.
        """
        if at < 0:
            raise ConfigError("injection time must be >= 0")
        self.loop.advance(at)
        return self.run_disk_phases(ops, at, Priority.BACKGROUND, "inject")

    def utilisation(self, duration: float) -> dict[str, float]:
        """Per-device busy fractions over ``duration`` (bottleneck finder).

        Busy time includes fault stalls and retry backoffs — a stalled
        device is occupied, not idle.
        """
        if duration <= 0:
            raise ConfigError("duration must be positive")
        out = {
            f"disk{i}": min(1.0, d.busy_time / duration)
            for i, d in enumerate(self.disks)
        }
        out["ssd"] = min(1.0, self.ssd.busy_time / duration)
        return out

    def report(self, workload: str, duration: float) -> TimingReport:
        """Summarise every request recorded so far over ``duration``."""
        return TimingReport(
            policy=self.policy.name,
            workload=workload,
            latency=self.recorder.summary(),
            duration=duration,
            requests=len(self.recorder),
        )
