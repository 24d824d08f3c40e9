"""Engine hooks: faults and instrumentation as callbacks.

The engine exposes a small hook protocol (:class:`EngineHook`);
cross-cutting behaviour is a list of hooks installed on one engine and
called in installation order:

* :class:`FaultPipelineHook` — the whole fault pipeline: scheduled
  whole-device failures, transparent retries, residual-fault escalation
  to degraded RAID reconstruction, on-demand stale-parity repair, and
  the fault event log.  It sees each member read through
  ``on_member_read`` and escalates a residual fault there, serving the
  nested reconstruction and repair traffic itself.
* :class:`InstrumentationHook` — op-level observability: per-op records
  (device, kind, arrival, start, finish, queue delay, residual fault),
  per-device utilisation timelines, queue-depth histograms, and JSONL
  op-trace export.  It observes the resources directly, so what it
  records is invariant under hook installation order.
* :class:`StaleExposureHook` — samples the stale-stripe count after
  every request, for the fault sweep's vulnerability-window exposure.

Simulated-time arithmetic stays inside :mod:`repro.engine` (rule
RPR009): hooks compute *when* things finish only by serving resources
through the engine, never by touching device clocks themselves.
"""

from __future__ import annotations

import json
from bisect import bisect_right, insort
from collections import Counter
from collections.abc import Iterable
from typing import TYPE_CHECKING, Any

from ..errors import ConfigError, DegradedError
from ..faults.retry import RetryPolicy, retry_policy
from ..faults.schedule import (
    FaultConfig,
    FaultCounters,
    FaultKind,
    FaultSchedule,
)
from ..raid.array import DiskOp
from ..stats.exposure import VulnerabilityExposure
from .core import OpRecord, Priority, RequestRecord
from .resources import ServiceWindow

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .system import SimEngine


class EngineHook:
    """Base hook: every callback is a no-op.  Subclass what you need.

    Hooks execute inside sweep worker processes, so every method of
    every subclass is a worker entry point for the effect analyzer:
    mutating module-level state from a hook is a sweep race
    (RPR205/RPR206, see DESIGN §12).

    Callbacks fire at fixed points of the request pipeline:

    ``install``
        once, when the hook is added to an engine;
    ``on_request``
        before the policy interprets a foreground request (the only
        point where scheduled state changes — e.g. whole-device
        failures — may strike);
    ``on_member_read``
        after each member read the request pipeline scheduled; returns
        when the read is done (a fault escalation can make it later);
    ``on_member_write``
        after each member write the request pipeline scheduled;
    ``on_ssd_window``
        after each SSD cache command;
    ``on_request_done``
        after a foreground request completed.
    """

    def install(self, engine: SimEngine) -> None:
        """Wire the hook into ``engine`` (resources, observers, ...)."""

    def on_request(self, engine: SimEngine, now: float) -> None:
        """A foreground request is about to be interpreted at ``now``."""

    def on_member_read(self, engine: SimEngine, op: DiskOp,
                       window: ServiceWindow) -> float:
        """A member read was served with ``window``; returns when it is
        done (default: ``window.finish``)."""
        return window.finish

    def on_member_write(self, engine: SimEngine, op: DiskOp,
                        window: ServiceWindow) -> None:
        """A member write completed with ``window``."""

    def on_ssd_window(self, engine: SimEngine, window: ServiceWindow,
                      npages: int, is_read: bool) -> None:
        """An SSD cache command completed with ``window``."""

    def on_request_done(self, engine: SimEngine,
                        record: RequestRecord) -> None:
        """A foreground request finished end to end."""


# ---------------------------------------------------------------------------
# Fault pipeline
# ---------------------------------------------------------------------------


class FaultPipelineHook(EngineHook):
    """The fault pipeline as an engine hook.

    ``faults`` is a :class:`FaultConfig`, a ready :class:`FaultSchedule`
    or ``None`` (``FaultConfig()``, which injects nothing); ``retry`` is
    a :class:`RetryPolicy` or the name of one
    (:data:`~repro.faults.retry.RETRY_POLICIES`).

    Semantics:

    * every member disk gets its own seeded fault stream (``disk0``,
      ``disk1``, ...); the SSD cache gets a timeout-only stream
      (``ssd`` — a cache-side media error is a miss, not a data-loss
      hazard, because every write reached RAID);
    * devices absorb transient timeouts with the retry policy (each
      retry stalls the device and delays queued commands);
    * a *residual* member-read fault escalates to the RAID layer: the
      page is read degraded from its surviving stripe peers + parity,
      and a URE additionally triggers a background repair rewrite;
    * a degraded read of a **stale-parity** stripe cannot be served —
      the paper's vulnerability window.  With ``repair_stale_on_demand``
      the hook first charges a parity repair, then reconstructs; with
      it off the :class:`DegradedError` propagates to the caller;
    * whole-device failures strike at their scheduled instants, before
      the next request is interpreted.

    Model simplifications, stated honestly: a fault on a multi-page
    member op is attributed to the op's first page; the nested
    reconstruction / repair traffic bypasses the hooks, so its faults
    add their stall latency but do not re-escalate (no recursive
    reconstruction) and no hook sees its ops.
    """

    def __init__(
        self,
        faults: FaultConfig | FaultSchedule | None = None,
        retry: RetryPolicy | str = "backoff",
        repair_stale_on_demand: bool = True,
    ) -> None:
        if not isinstance(faults, FaultSchedule):
            faults = FaultSchedule(faults or FaultConfig())
        self.schedule = faults
        if not isinstance(retry, RetryPolicy):
            retry = retry_policy(retry)
        self.retry = retry
        self.repair_stale_on_demand = repair_stale_on_demand
        self.counters = FaultCounters()
        self._devices_failed: set[int] = set()

    # -- wiring --------------------------------------------------------------

    def install(self, engine: SimEngine) -> None:
        for i, disk in enumerate(engine.disks):
            disk.faults = self.schedule.stream(f"disk{i}")
            disk.retry = self.retry
        engine.ssd.faults = self.schedule.stream("ssd", media_faults=False)
        engine.ssd.retry = self.retry

    # -- whole-device failures ----------------------------------------------

    def on_request(self, engine: SimEngine, now: float) -> None:
        """Fail any member whose scheduled instant has passed, exactly once.

        Runs *before* the policy interprets a request, so the array is
        already degraded when it emits that request's member ops.
        """
        for disk_idx, resource in enumerate(engine.disks):
            stream = resource.faults
            if (
                stream is None
                or disk_idx in self._devices_failed
                or not stream.failed_by(now)
            ):
                continue
            self._devices_failed.add(disk_idx)
            self.counters.device_failures += 1
            self.schedule.record(
                max(now, stream.fail_at or 0.0),
                f"disk{disk_idx}",
                FaultKind.DEVICE_FAIL.value,
                detail="scheduled whole-device failure",
            )
            engine.policy.raid.fail_disk(disk_idx)

    # -- SSD commands --------------------------------------------------------

    def on_ssd_window(self, engine: SimEngine, window: ServiceWindow,
                      npages: int, is_read: bool) -> None:
        """SSD commands only ever time out; the stall is the whole cost."""
        self.counters.retries += window.retries
        if window.fault is FaultKind.TIMEOUT:
            self.counters.timeouts += 1
            self.schedule.record(
                window.finish, "ssd", FaultKind.TIMEOUT.value,
                detail=f"retries exhausted ({window.retries}); waited out",
            )

    # -- member writes -------------------------------------------------------

    def on_member_write(self, engine: SimEngine, op: DiskOp,
                        window: ServiceWindow) -> None:
        self.counters.retries += window.retries
        if window.fault is not None:
            # A write's residual fault is a stall, already in window.finish;
            # the array would remap the sector on a real device.
            self.counters.timeouts += 1
            self.schedule.record(
                window.finish, f"disk{op.disk}", FaultKind.TIMEOUT.value,
                op.disk_page, detail="write stall (waited out)",
            )

    # -- member reads: the escalation point ----------------------------------

    def on_member_read(self, engine: SimEngine, op: DiskOp,
                       window: ServiceWindow) -> float:
        self.counters.retries += window.retries
        if window.ok:
            return window.finish
        return self._escalate(engine, op, window)

    def _serve_plain(self, engine: SimEngine, ops: Iterable[DiskOp],
                     earliest: float, tag: str,
                     priority: Priority = Priority.FOREGROUND) -> float:
        """Serve nested repair traffic without hooks; returns its finish.

        Every nested batch is one phase (reconstruction reads only,
        parity or media repair writes only), so each op starts at
        ``earliest``.  Fault draws still advance the streams and their
        stalls still count, but residual faults here do not recurse.
        """
        disks = engine.disks
        done = earliest
        for op in ops:
            window = disks[op.disk].serve(op.disk_page, op.npages, op.is_read,
                                          earliest, priority, tag)
            self.counters.retries += window.retries
            if window.finish > done:
                done = window.finish
        return done

    def _repair_stale_parity(self, engine: SimEngine, stripe: int,
                             device: str, now: float) -> float:
        """Charge an on-demand parity repair for ``stripe``; returns finish."""
        raid = engine.policy.raid
        self.counters.stale_escalations += 1
        self.schedule.record(
            now, device, "stale_escalation",
            detail=f"stripe {stripe} parity stale: repair before reconstruction",
        )
        repair_ops = raid.parity_update(
            stripe, cached_pages=list(raid.layout.stripe_pages(stripe))
        )
        done = self._serve_plain(engine, repair_ops, now, tag="repair")
        self.counters.repairs += 1
        self.schedule.record(done, device, "parity_repair",
                             detail=f"stripe {stripe}")
        return done

    def _reconstruction_ops(
        self, engine: SimEngine, op: DiskOp, now: float, device: str
    ) -> tuple[float, list[DiskOp]]:
        """Degraded-read plan for ``op``'s page, repairing stale parity
        on demand; raises :class:`DegradedError` when reconstruction is
        impossible (RAID-0, double failure, or stale parity with
        ``repair_stale_on_demand=False``)."""
        raid = engine.policy.raid
        try:
            return now, raid.reconstruct_read_ops(op.disk, op.disk_page)
        except DegradedError:
            stripe, _kind = raid.member_page_role(op.disk, op.disk_page)
            if not (self.repair_stale_on_demand and stripe in raid.stale_stripes):
                raise
        done = self._repair_stale_parity(engine, stripe, device, now)
        return done, raid.reconstruct_read_ops(op.disk, op.disk_page)

    def _escalate(self, engine: SimEngine, op: DiskOp,
                  window: ServiceWindow) -> float:
        """Resolve a residual member-read fault; returns the read's finish."""
        device = f"disk{op.disk}"
        raid = engine.policy.raid
        if window.fault is FaultKind.TIMEOUT:
            self.counters.timeouts += 1
            self.schedule.record(
                window.finish, device, FaultKind.TIMEOUT.value, op.disk_page,
                detail=f"retries exhausted ({window.retries})",
            )
            try:
                now, recon = self._reconstruction_ops(engine, op,
                                                      window.finish, device)
            except DegradedError:
                # No redundancy to read around a transient stall: the
                # command is simply waited out (the stall already counted).
                return window.finish
            done = self._serve_plain(engine, recon, now, tag="reconstruct")
            self.counters.reconstructions += 1
            return done
        # Residual URE: the media is bad until repaired.
        self.counters.ures += 1
        self.schedule.record(window.finish, device, FaultKind.URE.value,
                             op.disk_page)
        raid.mark_media_error(op.disk, op.disk_page)
        now, recon = self._reconstruction_ops(engine, op, window.finish, device)
        done = self._serve_plain(engine, recon, now, tag="reconstruct")
        self.counters.reconstructions += 1
        # Background repair: rewrite the reconstructed page.  The
        # reconstruction reads were just served; only the write still
        # needs device time, after the foreground read completes.
        repair = raid.repair_page(op.disk, op.disk_page)
        self._serve_plain(engine, [o for o in repair if not o.is_read], done,
                          tag="repair", priority=Priority.BACKGROUND)
        self.counters.repairs += 1
        self.schedule.record(done, device, "media_repair", op.disk_page)
        return done

    # -- results -------------------------------------------------------------

    def fault_row(self) -> dict[str, object]:
        """Counter + event summary for experiment result rows."""
        row: dict[str, object] = dict(self.counters.row())
        row["fault_events"] = len(self.schedule.events)
        return row


class StaleExposureHook(EngineHook):
    """Samples the stale-stripe count after every foreground request.

    The samples reduce to the shared
    :class:`~repro.stats.exposure.VulnerabilityExposure` shape — the
    same block the scrubber and the reliability cells report — so a
    fault sweep's vulnerability-window exposure composes with both.
    Sampling at request completion makes the span unit *accesses*, the
    convention of every workload-driven producer.
    """

    def __init__(self) -> None:
        self._samples: list[int] = []

    def on_request_done(self, engine: SimEngine,
                        record: RequestRecord) -> None:
        self._samples.append(len(engine.policy.raid.stale_stripes))

    @property
    def exposure(self) -> VulnerabilityExposure:
        """The exposure observed so far, in the shared shape."""
        return VulnerabilityExposure.from_samples(self._samples)


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------


class InstrumentationHook(EngineHook):
    """Op-level observability over one engine run.

    Registers an observer on every resource, so each device operation —
    foreground, background, reconstruction, rebuild — lands here as one
    :class:`OpRecord`, in global service order.  Because the records
    come from the resources rather than from other hooks, the collected
    trace is invariant under hook installation order.
    """

    def __init__(self) -> None:
        self.ops: list[OpRecord] = []
        self.requests: list[RequestRecord] = []
        self.devices: list[str] = []

    def install(self, engine: SimEngine) -> None:
        for resource in engine.resources():
            resource.add_observer(self.ops.append)
            self.devices.append(resource.name)

    def on_request_done(self, engine: SimEngine,
                        record: RequestRecord) -> None:
        self.requests.append(record)

    # -- derived views -------------------------------------------------------

    def _by_device(self) -> dict[str, list[OpRecord]]:
        out: dict[str, list[OpRecord]] = {name: [] for name in self.devices}
        for op in self.ops:
            out.setdefault(op.device, []).append(op)
        return out

    def queue_delay_stats(self) -> dict[str, dict[str, float]]:
        """Per-device queue-delay summary (seconds)."""
        out: dict[str, dict[str, float]] = {}
        for device, ops in sorted(self._by_device().items()):
            delays = [op.queue_delay for op in ops]
            out[device] = {
                "ops": float(len(delays)),
                "mean_queue_delay": (sum(delays) / len(delays)) if delays else 0.0,
                "max_queue_delay": max(delays, default=0.0),
            }
        return out

    def queue_depth_histogram(self) -> dict[str, dict[int, int]]:
        """Per-device histogram of queue depth seen at op submission.

        Depth for an op is the number of earlier ops on the same device
        still queued or in service when it was submitted.  Per-device
        finish times are nondecreasing under FCFS, so a sorted insert
        keeps the scan ``O(n log n)``.
        """
        out: dict[str, dict[int, int]] = {}
        for device, ops in sorted(self._by_device().items()):
            finishes: list[float] = []
            depths: Counter[int] = Counter()
            for op in ops:
                depth = len(finishes) - bisect_right(finishes, op.submitted)
                depths[depth] += 1
                insort(finishes, op.finish)
            out[device] = dict(sorted(depths.items()))
        return out

    def utilisation_timeline(
        self, duration: float, bins: int = 20
    ) -> dict[str, list[float]]:
        """Per-device busy fraction over ``bins`` equal slices of
        ``[0, duration]``; includes fault stalls (they occupy the device)."""
        if duration <= 0:
            raise ConfigError("duration must be positive")
        if bins < 1:
            raise ConfigError("bins must be >= 1")
        width = duration / bins
        out: dict[str, list[float]] = {}
        for device, ops in sorted(self._by_device().items()):
            busy = [0.0] * bins
            for op in ops:
                lo = max(0.0, op.start)
                hi = min(duration, op.finish)
                if hi <= lo:
                    continue
                first = min(bins - 1, int(lo / width))
                last = min(bins - 1, int(hi / width))
                for b in range(first, last + 1):
                    overlap = min(hi, (b + 1) * width) - max(lo, b * width)
                    if overlap > 0:
                        busy[b] += overlap
            out[device] = [min(1.0, b / width) for b in busy]
        return out

    def summary(self, duration: float, bins: int = 20) -> dict[str, Any]:
        """One JSON-ready bundle of every derived view."""
        return {
            "ops": len(self.ops),
            "requests": len(self.requests),
            "queue_delay": self.queue_delay_stats(),
            "queue_depth": {
                device: {str(k): v for k, v in hist.items()}
                for device, hist in self.queue_depth_histogram().items()
            },
            "utilisation_timeline": self.utilisation_timeline(duration, bins),
        }

    # -- export --------------------------------------------------------------

    def write_jsonl(self, path: str) -> int:
        """Write the op trace as JSON Lines, each op numbered (``"op"``)
        in global service order; returns the line count."""
        with open(path, "w") as fh:
            for number, op in enumerate(self.ops):
                fh.write(json.dumps({"op": number, **op.row()},
                                    sort_keys=True))
                fh.write("\n")
        return len(self.ops)
