"""Seeded fault schedules: which device misbehaves, when, and how.

Determinism discipline
----------------------

Every device gets its *own* RNG stream, seeded from
``sha256(schedule_seed, device_id)`` — the same hash-derivation rule the
sweep engine uses for per-cell seeds.  A device's draws advance only its
own stream, in its own serve order, so:

* two runs with the same schedule seed produce identical fault
  placements, byte for byte, regardless of ``--jobs`` (cells are
  independent; within a cell the simulation is serial);
* adding or removing one device never shifts the faults seen by
  another.

Whole-device failures are *scheduled instants*, not draws: the config
lists ``(device_id, time)`` pairs and the simulator fails the device the
first time its clock passes the instant.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Any

import numpy as np

from ..errors import ConfigError


class FaultKind(Enum):
    """What went wrong with one device command."""

    #: Unrecoverable read error: the page's media is unreadable
    #: (persistent — retries never help, reconstruction does).
    URE = "ure"
    #: Transient command timeout (a retry may succeed).
    TIMEOUT = "timeout"
    #: Whole-device failure at a scheduled instant.
    DEVICE_FAIL = "device_fail"


@dataclass(frozen=True)
class FaultConfig:
    """Rates and instants of the injected faults.

    Rates are per-event probabilities: ``ure_rate`` per page read on a
    member disk, ``timeout_rate`` per device command (disks and the
    SSD).  ``timeout_s`` is the stall each timeout occurrence adds
    before the command can be retried.  ``device_failures`` schedules
    whole-device losses as ``(device_id, time)`` pairs, e.g.
    ``(("disk2", 0.5),)``.
    """

    seed: int = 0
    ure_rate: float = 0.0
    timeout_rate: float = 0.0
    timeout_s: float = 0.025
    device_failures: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        for name in ("ure_rate", "timeout_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must be a probability, got {rate}")
        if self.timeout_s < 0:
            raise ConfigError("timeout_s must be >= 0")
        for device, instant in self.device_failures:
            if instant < 0:
                raise ConfigError(f"device failure instant for {device!r} "
                                  f"must be >= 0, got {instant}")

    def row(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "ure_rate": self.ure_rate,
            "timeout_rate": self.timeout_rate,
            "timeout_s": self.timeout_s,
            "device_failures": [list(f) for f in self.device_failures],
        }


@dataclass(frozen=True)
class FaultEvent:
    """One entry of the fault/repair event log."""

    time: float
    device: str
    kind: str          # FaultKind value, or a repair action (see engine/hooks.py)
    page: int = -1     # device page the event concerns (-1: whole device)
    detail: str = ""

    def row(self) -> dict[str, Any]:
        return {
            "time": round(self.time, 9),
            "device": self.device,
            "kind": self.kind,
            "page": self.page,
            "detail": self.detail,
        }


def _stream_seed(seed: int, device_id: str) -> int:
    """Per-device stream seed, hash-derived like the sweep cell seeds."""
    digest = hashlib.sha256(f"faults:{seed}:{device_id}".encode()).hexdigest()
    return int(digest[:16], 16)


class DeviceFaultStream:
    """One device's bound view of the schedule: its RNG + its fail instant.

    The device server calls :meth:`draw` once per command attempt (and
    once per page for read media errors); each call advances only this
    device's stream.
    """

    def __init__(self, device_id: str, config: FaultConfig,
                 media_faults: bool = True) -> None:
        self.device_id = device_id
        self.config = config
        #: Whether URE draws apply (member disks yes; the SSD cache
        #: surfaces only timeouts — a cache-side media error is a miss,
        #: not a data-loss hazard, because every write reached RAID).
        self.media_faults = media_faults
        self._rng = np.random.Generator(
            np.random.PCG64(_stream_seed(config.seed, device_id))
        )
        self.fail_at: float | None = None
        for device, instant in config.device_failures:
            if device == device_id:
                self.fail_at = instant if self.fail_at is None \
                    else min(self.fail_at, instant)
        self.draws = 0

    def failed_by(self, now: float) -> bool:
        """Whether the scheduled whole-device failure has struck by ``now``."""
        return self.fail_at is not None and now >= self.fail_at

    def draw(self, is_read: bool, npages: int = 1) -> FaultKind | None:
        """Fault outcome for one command attempt (None: it succeeds).

        A timeout is drawn per command; a URE per page read.  The same
        number of variates is consumed for every command shape, so the
        stream position depends only on the device's serve history.
        """
        cfg = self.config
        self.draws += 1
        timeout = self._rng.random() < cfg.timeout_rate
        ure = False
        if is_read and self.media_faults and cfg.ure_rate > 0.0:
            ure = bool((self._rng.random(npages) < cfg.ure_rate).any())
        elif is_read and self.media_faults:
            self._rng.random(npages)  # keep the stream position shape-stable
        if timeout:
            return FaultKind.TIMEOUT
        if ure:
            return FaultKind.URE
        return None


class FaultSchedule:
    """Factory and registry of per-device fault streams + the event log."""

    def __init__(self, config: FaultConfig | None = None, **kwargs: Any) -> None:
        if config is None:
            config = FaultConfig(**kwargs)
        elif kwargs:
            raise ConfigError("pass either a FaultConfig or keyword rates, not both")
        self.config = config
        self._streams: dict[str, DeviceFaultStream] = {}
        self.events: list[FaultEvent] = []

    def stream(self, device_id: str, media_faults: bool = True) -> DeviceFaultStream:
        """The (memoised) fault stream for one device."""
        if device_id not in self._streams:
            self._streams[device_id] = DeviceFaultStream(
                device_id, self.config, media_faults=media_faults
            )
        return self._streams[device_id]

    def record(self, time: float, device: str, kind: str, page: int = -1,
               detail: str = "") -> FaultEvent:
        event = FaultEvent(time=time, device=device, kind=kind, page=page,
                           detail=detail)
        self.events.append(event)
        return event

    def event_rows(self) -> list[dict[str, Any]]:
        """The event log as JSON-ready rows (already in time order)."""
        return [e.row() for e in self.events]


@dataclass
class FaultCounters:
    """Aggregated event counts for experiment rows."""

    ures: int = 0
    timeouts: int = 0
    retries: int = 0
    reconstructions: int = 0
    stale_escalations: int = 0
    repairs: int = 0
    device_failures: int = 0

    def row(self) -> dict[str, int]:
        return {
            "ures": self.ures,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "reconstructions": self.reconstructions,
            "stale_escalations": self.stale_escalations,
            "repairs": self.repairs,
            "device_failures": self.device_failures,
        }
