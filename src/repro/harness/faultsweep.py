"""Fault-sweep cell executor and fault demo drivers.

This is harness code — it wires the application-layer pieces (policy
builders, sweep cells, trace loaders) around :mod:`repro.faults`.  It
lives here rather than in ``repro.faults`` because the layering
contract (see ``kdd-repro analyze``, RPR102) forbids simulation-layer
packages from importing the harness; the pure vulnerability-window
scenario that needs no harness stays in :mod:`repro.faults.demo`.

:func:`run_faults_cell` is the executor behind the sweep engine's
``faults`` cell kind: one (policy, workload, fault-rate, retry-policy)
point of the grid, replayed on a :class:`~repro.engine.SimEngine` with
a :class:`~repro.engine.FaultPipelineHook` installed and summarised as
one result row.  Determinism inherits from the sweep discipline — the
fault schedule is seeded with the cell's effective seed, so rows are
byte-identical for any ``--jobs``.
"""

from __future__ import annotations

from typing import Any

from ..cache.base import CacheConfig
from ..engine import (
    FaultPipelineHook,
    InstrumentationHook,
    SimEngine,
    StaleExposureHook,
)
from ..faults.retry import RETRY_POLICIES, retry_policy
from ..faults.schedule import FaultConfig
from ..raid.array import RAIDArray
from ..raid.layout import RaidLevel
from ..sim.openloop import replay_trace
from ..traces import uniform_workload
from .runner import build_policy, make_raid_for_trace
from .sweep import SweepCell

#: ``SweepCell.params`` keys consumed by the faults executor
#: (everything else feeds :class:`~repro.cache.base.CacheConfig`).
FAULTS_KEYS = (
    "ure_rate",
    "timeout_rate",
    "timeout_s",
    "retry",
    "repair_stale_on_demand",
    "device_failures",
    "max_requests",
    "max_seconds",
    "time_scale",
    "track_exposure",
)


def run_faults_cell(cell: SweepCell, trace: Any) -> dict[str, Any]:
    """Execute one fault-sweep cell; returns its (deterministic) row."""
    params = dict(cell.params)
    fault_kwargs = {k: params.pop(k) for k in FAULTS_KEYS if k in params}
    replay_kwargs = {
        k: fault_kwargs.pop(k)
        for k in ("max_requests", "max_seconds", "time_scale")
        if k in fault_kwargs
    }
    retry_name = fault_kwargs.pop("retry", "backoff")
    repair_stale = fault_kwargs.pop("repair_stale_on_demand", True)
    track_exposure = fault_kwargs.pop("track_exposure", False)
    device_failures = tuple(
        tuple(f) for f in fault_kwargs.pop("device_failures", ())
    )
    seed = cell.effective_seed()
    faults = FaultConfig(seed=seed, device_failures=device_failures,
                         **fault_kwargs)

    raid = make_raid_for_trace(trace)
    config = CacheConfig(cache_pages=cell.cache_pages, seed=seed, **params)
    system = SimEngine(build_policy(cell.policy, config, raid))
    pipeline = FaultPipelineHook(faults, retry=retry_name,
                                 repair_stale_on_demand=repair_stale)
    system.add_hook(pipeline)
    exposure_hook = None
    if track_exposure:
        exposure_hook = StaleExposureHook()
        system.add_hook(exposure_hook)
    rep = replay_trace(system, trace, **replay_kwargs)
    row: dict[str, Any] = {
        "workload": trace.name,
        "policy": cell.label or cell.policy,
        "retry": retry_name,
        "ure_rate": faults.ure_rate,
        "timeout_rate": faults.timeout_rate,
    }
    row.update(rep.row())
    row.update(pipeline.fault_row())
    if exposure_hook is not None:
        # Same nested block as the reliability report (shared shape).
        row["exposure"] = exposure_hook.exposure.row()
    return row


def faults_cell(
    policy: str,
    trace: tuple,
    cache_pages: int,
    ure_rate: float = 0.0,
    timeout_rate: float = 0.0,
    retry: str = "backoff",
    track_exposure: bool = False,
    seed: int | None = None,
    label: str | None = None,
    **params: Any,
) -> SweepCell:
    """Convenience constructor for a ``faults`` sweep cell.

    ``seed=None`` (the default) opts into hash-derived per-cell seeding,
    the sweep engine's determinism discipline.  ``track_exposure`` adds
    the shared vulnerability-window ``exposure`` block to the row; the
    key enters the cell config (and thus its hash) only when set, so
    existing cell identities are unchanged.
    """
    if retry not in RETRY_POLICIES:
        retry_policy(retry)  # raises the canonical ConfigError
    cell_params = {
        "ure_rate": ure_rate,
        "timeout_rate": timeout_rate,
        "retry": retry,
        **params,
    }
    if track_exposure:
        cell_params["track_exposure"] = True
    return SweepCell(
        kind="faults",
        policy=policy,
        trace=trace,
        cache_pages=cache_pages,
        seed=seed,
        label=label,
        params=tuple(cell_params.items()),
    )


def demo_op_trace(
    path: str,
    requests: int = 300,
    policy: str = "wt",
    seed: int = 11,
) -> dict[str, Any]:
    """Run one derandomized fault-injected replay with op-level
    instrumentation and write the per-op trace to ``path`` as JSONL.

    Everything is seeded, so the exported trace is byte-identical across
    runs — the CI op-trace artifact diffs meaningfully.  Returns the
    instrumentation summary (op/request counts, per-device queue-delay
    stats, queue-depth histograms, utilisation timeline) plus the fault
    counters.
    """
    raid = RAIDArray(RaidLevel.RAID5, ndisks=5, chunk_pages=4,
                     pages_per_disk=4096)
    system = SimEngine(
        build_policy(policy,
                     CacheConfig(cache_pages=128, ways=16, group_pages=16),
                     raid))
    pipeline = FaultPipelineHook(
        FaultConfig(seed=seed, ure_rate=0.01, timeout_rate=0.02))
    system.add_hook(pipeline)
    instrument = InstrumentationHook()
    system.add_hook(instrument)
    trace = uniform_workload(requests, 4096, read_ratio=0.6, seed=seed)
    rep = replay_trace(system, trace)
    nops = instrument.write_jsonl(path)
    summary = instrument.summary(duration=rep.duration)
    summary["ops_written"] = nops
    summary["mean_response_ms"] = rep.latency.mean_ms
    summary["faults"] = pipeline.fault_row()
    return summary
