"""Full-system timing composition: cache policy + RAID disks + SSD.

:class:`TimedSystem` is the public face of the discrete-event
"prototype" path (Section IV-B): a policy decides what each access
does; the engine (:class:`repro.engine.SimEngine`) schedules the
resulting device operations and measures the request's response time.
Writes are acknowledged only after their RAID member writes complete
(the paper's RPO=0 consistency rule); asynchronous work (read fills,
delta/metadata commits, cleaning I/O) still occupies the devices and
delays later requests, but not the request that caused it.

RAID member semantics: a request's member *reads* proceed in parallel
across disks, its member *writes* start only after the reads finish —
the two phases of a read-modify-write.

This class is deliberately a thin facade: it owns no clocks and no
scheduling logic (analyzer rule RPR009 enforces that only
:mod:`repro.engine` advances simulated time).  Cross-cutting behaviour
is added by installing engine hooks — see
:class:`repro.faults.FaultyTimedSystem` for the fault pipeline and
:class:`repro.engine.InstrumentationHook` for op-level traces.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..cache.base import CachePolicy
from ..disk.hdd import HDDParams
from ..errors import SimulationError, raises
from ..engine.hooks import EngineHook
from ..engine.resources import QueueDiscipline
from ..engine.system import SimEngine
from ..flash.device import SSDLatency
from ..raid.array import DiskOp
from ..stats.latency import LatencySummary
from ..traces.record import IORequest


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


class TimedSystem:
    """Schedules one policy's device operations on the shared engine."""

    def __init__(
        self,
        policy: CachePolicy,
        hdd_params: HDDParams | None = None,
        ssd_latency: SSDLatency | None = None,
        ssd_channels: int = 8,
        discipline: QueueDiscipline | None = None,
        hooks: Sequence[EngineHook] = (),
    ) -> None:
        self.engine = SimEngine(policy, hdd_params, ssd_latency, ssd_channels,
                                discipline=discipline)
        self.policy = policy
        self.disks = self.engine.disks
        self.ssd = self.engine.ssd
        self.recorder = self.engine.recorder
        for hook in hooks:
            self.engine.add_hook(hook)

    def add_hook(self, hook: EngineHook) -> None:
        """Install an engine hook (fault pipeline, instrumentation, ...)."""
        self.engine.add_hook(hook)

    @raises(SimulationError)
    def submit(self, lba: int, npages: int, is_read: bool, arrival: float) -> float:
        """Process one request; returns its completion time."""
        return self.engine.submit(lba, npages, is_read, arrival)

    @raises(SimulationError)
    def submit_request(self, req: IORequest) -> float:
        return self.submit(req.lba, req.npages, req.is_read, req.time)

    def report(self, workload: str, duration: float) -> TimingReport:
        return TimingReport(
            policy=self.policy.name,
            workload=workload,
            latency=self.recorder.summary(),
            duration=duration,
            requests=len(self.recorder),
        )

    @raises(SimulationError)
    def inject_disk_ops(self, ops: Sequence[DiskOp], at: float) -> float:
        """Schedule external member I/O (e.g. rebuild traffic) at ``at``.

        Used by degraded-mode experiments: the ops occupy the disks and
        delay subsequent foreground requests, exactly like a rebuild
        running under load.  Returns the injected batch's finish time.
        """
        return self.engine.inject_disk_ops(ops, at)

    def utilisation(self, duration: float) -> dict[str, float]:
        """Per-device busy fractions over ``duration`` (bottleneck finder).

        Busy time includes fault stalls and retry backoffs
        (:attr:`~repro.engine.resources.ServiceWindow.fault_latency`) —
        a stalled device is occupied, not idle.
        """
        return self.engine.utilisation(duration)
