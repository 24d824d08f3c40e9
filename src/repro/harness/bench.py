"""Result-row baselines (``BENCH_<fig>.json``) for every figure grid.

Each bench runs one figure's experiment grid once at a pinned small
scale through :func:`repro.harness.runner.simulate_policy` — the path
``kdd-repro run`` takes — and emits one machine-readable
``BENCH_<fig>.json`` file:

* ``ops`` / ``wall_s`` / ``ops_per_s`` — page accesses processed and
  the wall time they took, recorded for trajectory only;
* ``row_checksum`` — SHA-256 over the canonical JSON of the result rows;
* for the timed figures (fig9 replay, fig10 fio), an ``engine`` section
  with events processed per wall-second on the discrete-event loop.

:func:`compare_reports` gates a fresh run against the committed
baseline on checksum drift only: the simulation's numerics changed, so
regenerate the baseline deliberately (``kdd-repro bench``) if the change
is intended.  Wall times are never gated here; the end-to-end benchmark
under ``benchmarks/e2e`` measures speed.

This module is deliberately outside :mod:`repro.sim`/:mod:`repro.core`
so it may read the wall clock (the analyzer's RPR002 exempts the harness).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable

from ..errors import ConfigError
from ..traces.workloads import (
    ALL_WORKLOADS,
    READ_DOMINANT,
    WRITE_DOMINANT,
    make_workload,
    workload_spec,
)
from .figures import FIG9_POLICIES, KDD_VARIANTS, _cache_sizes
from .runner import build_policy, make_raid_for_trace, simulate_policy
from .sweep import _canonical

#: Pinned scale for the trace-driven benches (same as benchmarks/).
BENCH_SCALE = 0.004

#: Target IOPS for the fig9 replay bench (mirrors figures.fig9).
_REPLAY_TARGET_IOPS = 120.0
_REPLAY_MAX_REQUESTS = 2000

#: Pinned fig10 fio-bench shape (scaled-down figures.fig10 setup).
_FIO_PARAMS = dict(total_requests=1200, working_set_pages=20_000,
                   nthreads=16)
_FIO_CACHE_PAGES = 8000
_FIO_READ_RATES = (0.0, 0.5)


@dataclass(frozen=True)
class BenchCell:
    """One (policy, workload, cache size, config) benchmark cell."""

    policy: str     # registry name ('kdd', 'wt', ...)
    label: str      # reported name ('kdd-25' for locality variants)
    workload: str
    cache_pages: int
    config: tuple[tuple[str, Any], ...]


def _cell(policy: str, workload: str, cache_pages: int,
          **config: Any) -> BenchCell:
    label = policy
    if policy in KDD_VARIANTS:
        config["mean_compression"] = KDD_VARIANTS[policy]
        policy = "kdd"
    config.setdefault("seed", 0)
    return BenchCell(policy=policy, label=label, workload=workload,
                     cache_pages=cache_pages,
                     config=tuple(sorted(config.items())))


@lru_cache(maxsize=None)
def _trace(name: str, scale: float):
    return make_workload(name, scale)


@lru_cache(maxsize=None)
def _trace_ops(name: str, scale: float) -> int:
    """Page accesses in one pass over the workload."""
    return _trace(name, scale).stats().requests


# ---------------------------------------------------------------------------
# Figure grids (pinned, reduced versions of the figures.py grids)
# ---------------------------------------------------------------------------

def _grid(workloads, policies, scale: float, fraction: float,
          **extra: Any) -> list[BenchCell]:
    cells = []
    for name in workloads:
        cache_pages = _cache_sizes(name, scale, (fraction,))[0]
        for policy in policies:
            cells.append(_cell(policy, name, cache_pages, **extra))
    return cells


def _cells_fig4(scale: float) -> list[BenchCell]:
    return [
        _cell("kdd", name, _cache_sizes(name, scale, (0.20,))[0],
              mean_compression=0.25, meta_partition_frac=frac)
        for name in ALL_WORKLOADS
        for frac in (0.0039, 0.0098)
    ]


_HIT_POLICIES = ("wt", "leavo", "kdd-50", "kdd-25", "kdd-12")
_TRAFFIC_POLICIES = ("wa",) + _HIT_POLICIES

_FIG_GRIDS: dict[str, Callable[[float], list[BenchCell]]] = {
    "fig4": _cells_fig4,
    "fig5": lambda s: _grid(WRITE_DOMINANT, _HIT_POLICIES, s, 0.10),
    "fig6": lambda s: _grid(WRITE_DOMINANT, _TRAFFIC_POLICIES, s, 0.10),
    "fig7": lambda s: _grid(READ_DOMINANT, _HIT_POLICIES, s, 0.10),
    "fig8": lambda s: _grid(READ_DOMINANT, _TRAFFIC_POLICIES, s, 0.10),
    "fig9": lambda s: _grid(ALL_WORKLOADS, FIG9_POLICIES, s, 0.10,
                            mean_compression=0.25),
}


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def _checksum(rows: list[dict[str, Any]]) -> str:
    return "sha256:" + hashlib.sha256(_canonical(rows).encode()).hexdigest()


def _bench_trace_grid(fig: str, cells: list[BenchCell],
                      scale: float) -> dict[str, Any]:
    for cell in cells:  # materialise traces outside the timed region
        _trace(cell.workload, scale)
    ops = sum(_trace_ops(c.workload, scale) for c in cells)
    rows: list[dict[str, Any]] = []
    wall = 0.0
    for cell in cells:
        trace = _trace(cell.workload, scale)
        start = time.perf_counter()
        result = simulate_policy(cell.policy, trace, cell.cache_pages,
                                 **dict(cell.config))
        wall += time.perf_counter() - start
        row = result.row()
        row["meta_writes"] = result.stats.meta_writes
        row.update(result.extras)
        row["policy"] = cell.label
        rows.append(row)
    return {
        "figure": fig,
        "kind": "trace",
        "scale": scale,
        "cells": len(cells),
        "ops": ops,
        "wall_s": round(wall, 4),
        "ops_per_s": round(ops / max(wall, 1e-9)),
        "row_checksum": _checksum(rows),
    }


# ---------------------------------------------------------------------------
# Engine (discrete-event) benches — events per wall-second
# ---------------------------------------------------------------------------

def _bench_replay_engine(scale: float) -> dict[str, Any]:
    """fig9's timed half: open-loop replay on the event engine (Fin1)."""
    from ..cache.base import CacheConfig
    from ..sim.openloop import replay_trace
    from ..sim.system import TimedSystem

    name = "Fin1"
    trace = _trace(name, scale)
    spec = workload_spec(name, scale)
    time_scale = spec.iops / _REPLAY_TARGET_IOPS
    cache_pages = _cache_sizes(name, scale, (0.10,))[0]
    rows: list[dict[str, Any]] = []
    events = 0
    wall = 0.0
    for policy in FIG9_POLICIES:
        raid = make_raid_for_trace(trace)
        config = CacheConfig(cache_pages=cache_pages, seed=0,
                             mean_compression=0.25)
        system = TimedSystem(build_policy(policy, config, raid))
        start = time.perf_counter()
        rep = replay_trace(system, trace,
                           max_requests=_REPLAY_MAX_REQUESTS,
                           time_scale=time_scale)
        wall += time.perf_counter() - start
        events += system.engine.loop.processed
        rows.append({"workload": name, "policy": policy, **rep.row()})
    return {
        "workload": name,
        "max_requests": _REPLAY_MAX_REQUESTS,
        "cache_pages": cache_pages,
        "events": events,
        "wall_s": round(wall, 4),
        "events_per_s": round(events / max(wall, 1e-9)),
        "row_checksum": _checksum(rows),
    }


def _bench_fio_engine() -> dict[str, Any]:
    """fig10: closed-loop fio benchmark on the event engine."""
    from ..cache.base import CacheConfig
    from ..raid.array import RAIDArray
    from ..raid.layout import RaidLevel
    from ..sim.closedloop import FioConfig, run_closed_loop
    from ..sim.system import TimedSystem

    rows: list[dict[str, Any]] = []
    events = 0
    wall = 0.0
    for read_rate in _FIO_READ_RATES:
        for policy in FIG9_POLICIES:
            fio = FioConfig(read_rate=read_rate, seed=0, **_FIO_PARAMS)
            raid = RAIDArray(
                RaidLevel.RAID5,
                ndisks=5,
                chunk_pages=16,
                pages_per_disk=max(1 << 14, 2 * fio.working_set_pages),
            )
            config = CacheConfig(cache_pages=_FIO_CACHE_PAGES, seed=0,
                                 mean_compression=0.25)
            system = TimedSystem(build_policy(policy, config, raid))
            start = time.perf_counter()
            rep = run_closed_loop(system, fio)
            wall += time.perf_counter() - start
            events += system.engine.loop.processed
            rows.append({"read_rate": read_rate, "policy": policy,
                         **rep.row()})
    return {
        "cells": len(rows),
        "cache_pages": _FIO_CACHE_PAGES,
        "params": dict(_FIO_PARAMS, read_rates=list(_FIO_READ_RATES)),
        "events": events,
        "wall_s": round(wall, 4),
        "events_per_s": round(events / max(wall, 1e-9)),
        "row_checksum": _checksum(rows),
    }


# ---------------------------------------------------------------------------
# Robustness bench — crash matrix + reliability models
# ---------------------------------------------------------------------------

#: Pinned shapes for the reliability bench (mirror the test fixtures).
_CRASH_MATRIX_ACCESSES = 160
_RELIABILITY_CFG = dict(accesses=800, universe_pages=128, cache_pages=64,
                        seed=3)
_MC_BENCH_TRIALS = 20_000


def _bench_reliability() -> dict[str, Any]:
    """Crash-matrix and reliability-model throughput, checksummed rows.

    Timed regions: the full crash matrix (capture pass plus one armed
    replay per boundary — the dominant cost of the robustness CI step)
    and the Monte-Carlo estimator alone (trials per wall-second over a
    measured stale-stripe distribution).  The checksum covers only the
    deterministic result rows, never the timings, so the baseline gates
    numerics drift while throughput stays informational.
    """
    from ..faults.crash import run_crash_matrix
    from ..reliability.measure import (
        ExposureRunConfig,
        derive_params,
        measure_exposure,
        run_reliability_point,
    )
    from ..reliability.montecarlo import monte_carlo_loss

    start = time.perf_counter()
    matrix = run_crash_matrix(accesses=_CRASH_MATRIX_ACCESSES, seed=0,
                              armed_stride=1)
    crash_wall = time.perf_counter() - start

    cfg = ExposureRunConfig(**_RELIABILITY_CFG)
    point = run_reliability_point(cfg, trials=2000)
    exposure, _scrub, samples = measure_exposure(cfg)
    params = derive_params(exposure, iops=2.0e4)
    start = time.perf_counter()
    mc = monte_carlo_loss(params, trials=_MC_BENCH_TRIALS, seed=0,
                          stale_samples=samples)
    mc_wall = time.perf_counter() - start

    point_row = point.row()
    rows = [matrix.row(), point_row, mc.row()]
    return {
        "figure": "reliability",
        "kind": "robustness",
        "crash_matrix": {
            "accesses": _CRASH_MATRIX_ACCESSES,
            "boundaries": matrix.boundaries,
            "torn_boundaries": matrix.torn_boundaries,
            "armed_runs": matrix.armed_runs,
            "wall_s": round(crash_wall, 4),
            "boundaries_per_s": round(
                matrix.boundaries / max(crash_wall, 1e-9)
            ),
        },
        "monte_carlo": {
            "trials": _MC_BENCH_TRIALS,
            "wall_s": round(mc_wall, 4),
            "trials_per_s": round(_MC_BENCH_TRIALS / max(mc_wall, 1e-9)),
        },
        "cross_check": {
            "agrees": point_row["agrees"],
            "p_loss_delta": point_row["p_loss_delta"],
            "tolerance": point_row["tolerance"],
        },
        "row_checksum": _checksum(rows),
    }


# ---------------------------------------------------------------------------
# Serving bench — composition throughput + the partitioned pipeline
# ---------------------------------------------------------------------------

#: Pinned composition-scaling shape: a 1M-request stream over a
#: 1000-tenant fleet, metrics-only (the acceptance scale for O(1)
#: online-metric state).
_SERVE_COMPOSE = dict(tenants=1000, max_requests=1_000_000,
                      universe_pages=512, base_iops=2.0,
                      diurnal_amplitude=0.8, diurnal_period_s=3600.0)

#: Pinned full-pipeline shape (static + dynamic partitioning).
_SERVE_DRIVE = dict(n_tenants=32, cache_pages=2048, universe_pages=1024,
                    base_iops=50.0, diurnal_amplitude=0.9,
                    diurnal_period_s=600.0, max_requests=100_000,
                    realloc_period=4000, min_fraction=0.01, ways=16)


def _bench_serve() -> dict[str, Any]:
    """Multi-tenant serving throughput, checksummed deterministic rows.

    Two timed regions: *compose* — the workload multiplexer alone,
    feeding the streaming metrics (composed requests and tenant-epochs
    per wall-second, with the frozen online-metric byte budget asserted
    over the full 1M-request / 1000-tenant stream) — and *drive* — the
    full partitioned-cache pipeline through the serve sweep executor,
    once static and once dynamic.  The checksum covers the
    deterministic result rows only, never the timings.
    """
    from ..serve.composer import WorkloadComposer
    from ..serve.driver import ServeMetrics
    from ..serve.tenants import make_tenant_fleet
    from .servesweep import run_serve_cell, serve_cell

    shape = dict(_SERVE_COMPOSE)
    n_tenants = shape.pop("tenants")
    max_requests = shape.pop("max_requests")
    fleet = make_tenant_fleet(n_tenants, **shape)
    composer = WorkloadComposer(fleet, seed=0, epoch_s=60.0)
    metrics = ServeMetrics(n_tenants, window_s=60.0)
    requests = 0
    epochs = 0
    start = time.perf_counter()
    for batch in composer.compose(max_requests=max_requests):
        metrics.observe_batch(batch)
        requests += len(batch)
        epochs += 1
    compose_wall = time.perf_counter() - start
    metrics.assert_bounded()
    floor = 1e-9
    rows: list[dict[str, Any]] = [metrics.summary()]

    drive_shape = dict(_SERVE_DRIVE)
    drive_rows = []
    drive_wall = 0.0
    for dynamic in (False, True):
        cell = serve_cell(
            policy="wt",
            dynamic=dynamic,
            seed=0,
            label="dynamic" if dynamic else "static",
            **drive_shape,
        )
        start = time.perf_counter()
        drive_rows.append(run_serve_cell(cell))
        drive_wall += time.perf_counter() - start
    rows.extend(drive_rows)
    drive_requests = sum(row["requests"] for row in drive_rows)
    return {
        "figure": "serve",
        "kind": "serve",
        "compose": {
            "tenants": n_tenants,
            "requests": requests,
            "epochs": epochs,
            "wall_s": round(compose_wall, 4),
            "requests_per_s": round(requests / max(compose_wall, floor)),
            "tenants_per_s": round(
                n_tenants * epochs / max(compose_wall, floor)
            ),
            "peak_metric_state_bytes": metrics.state_bytes(),
        },
        "drive": {
            "cells": len(drive_rows),
            "tenants": drive_shape["n_tenants"],
            "requests": drive_requests,
            "wall_s": round(drive_wall, 4),
            "requests_per_s": round(drive_requests / max(drive_wall, floor)),
        },
        "dynamic_hit_gain": round(
            drive_rows[1]["hit_ratio"] - drive_rows[0]["hit_ratio"], 4
        ),
        "row_checksum": _checksum(rows),
    }


# ---------------------------------------------------------------------------
# Per-figure entry points
# ---------------------------------------------------------------------------

def bench_figure(fig: str, scale: float = BENCH_SCALE) -> dict[str, Any]:
    """Run one figure's bench and return its report dict."""
    if fig == "fig10":
        report = {"figure": "fig10", "kind": "engine",
                  "engine": _bench_fio_engine()}
        return report
    if fig == "reliability":
        return _bench_reliability()
    if fig == "serve":
        return _bench_serve()
    if fig not in _FIG_GRIDS:
        raise ConfigError(
            f"unknown bench figure {fig!r}; choose from {sorted(BENCH_FIGURES)}"
        )
    report = _bench_trace_grid(fig, _FIG_GRIDS[fig](scale), scale)
    if fig == "fig9":
        report["engine"] = _bench_replay_engine(scale)
    return report


BENCH_FIGURES = ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
                 "reliability", "serve")


# ---------------------------------------------------------------------------
# Baseline files and regression comparison
# ---------------------------------------------------------------------------

def report_path(fig: str, out_dir: str | Path = ".") -> Path:
    return Path(out_dir) / f"BENCH_{fig}.json"


def write_report(report: dict[str, Any], out_dir: str | Path = ".") -> Path:
    path = report_path(report["figure"], out_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def load_report(fig: str, out_dir: str | Path = ".") -> dict[str, Any] | None:
    """Committed baseline for ``fig``, or None when none is committed.

    A baseline that exists but cannot be read or parsed is a
    :class:`ConfigError` naming the file — a corrupt checkout should
    fail loudly, not look like a missing baseline (or a traceback).
    """
    path = report_path(fig, out_dir)
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(
            f"unreadable bench baseline {path}: {exc}"
        ) from exc


def compare_reports(old: dict[str, Any], new: dict[str, Any]) -> list[str]:
    """Regressions of ``new`` versus baseline ``old`` (empty = clean).

    Gated: row checksums (exact).  Throughput is informational only.
    """
    fig = new.get("figure", "?")
    problems: list[str] = []
    if old.get("row_checksum") != new.get("row_checksum"):
        problems.append(
            f"{fig}: result rows changed (checksum "
            f"{old.get('row_checksum')} -> {new.get('row_checksum')}); "
            f"regenerate the baseline if this is intended"
        )
    old_eng, new_eng = old.get("engine"), new.get("engine")
    if old_eng and new_eng and \
            old_eng.get("row_checksum") != new_eng.get("row_checksum"):
        problems.append(f"{fig}: engine-bench rows changed (checksum "
                        f"mismatch); regenerate the baseline if intended")
    return problems


def run_benches(
    figures: list[str] | None = None,
    out_dir: str | Path = ".",
    scale: float = BENCH_SCALE,
    check_only: bool = False,
    artifact_dir: str | Path | None = None,
    echo: Callable[[str], None] = print,
) -> int:
    """Run benches, compare to committed baselines, rewrite them.

    ``check_only=True`` (CI mode) compares without rewriting and raises
    :class:`ConfigError` up front if any figure has no committed
    baseline.  ``artifact_dir`` gets a copy of every fresh report
    regardless of mode (CI uploads it).  Returns a shell-style exit
    code.
    """
    names = list(figures) if figures else list(BENCH_FIGURES)
    unknown = [n for n in names if n not in BENCH_FIGURES]
    if unknown:
        raise ConfigError(
            f"unknown bench figures {unknown}; choose from {list(BENCH_FIGURES)}"
        )
    if check_only:
        # Fail before the (slow) benches run, naming every absent file.
        missing = [str(report_path(name, out_dir)) for name in names
                   if not report_path(name, out_dir).exists()]
        if missing:
            raise ConfigError(
                "bench --check needs a committed baseline for every "
                "figure; missing: " + ", ".join(missing)
            )
    problems: list[str] = []
    for name in names:
        report = bench_figure(name, scale=scale)
        baseline = load_report(name, out_dir)
        if baseline is not None:
            problems.extend(compare_reports(baseline, report))
        summary = _summary_line(report)
        echo(summary)
        if artifact_dir is not None:
            write_report(report, artifact_dir)
        if not check_only:
            write_report(report, out_dir)
    if problems:
        for problem in problems:
            echo(f"REGRESSION: {problem}")
        return 1
    return 0


def _summary_line(report: dict[str, Any]) -> str:
    fig = report["figure"]
    if report["kind"] == "engine":
        eng = report["engine"]
        return (f"{fig}: engine {eng['events']} events in "
                f"{eng['wall_s']:.2f}s ({eng['events_per_s']:,} events/s)")
    if report["kind"] == "serve":
        comp, drive = report["compose"], report["drive"]
        return (f"{fig}: composed {comp['requests']:,} requests over "
                f"{comp['tenants']} tenants in {comp['wall_s']:.2f}s "
                f"({comp['requests_per_s']:,} req/s, "
                f"{comp['tenants_per_s']:,} tenant-epochs/s, "
                f"{comp['peak_metric_state_bytes']:,} metric bytes); "
                f"drive {drive['requests']:,} requests in "
                f"{drive['wall_s']:.2f}s ({drive['requests_per_s']:,} req/s); "
                f"dynamic hit gain {report['dynamic_hit_gain']:+.4f}")
    if report["kind"] == "robustness":
        cm, mc = report["crash_matrix"], report["monte_carlo"]
        verdict = "agrees" if report["cross_check"]["agrees"] else "DISAGREES"
        return (f"{fig}: crash matrix {cm['boundaries']} boundaries "
                f"({cm['armed_runs']} armed) in {cm['wall_s']:.2f}s; "
                f"MC {mc['trials']:,} trials in {mc['wall_s']:.2f}s "
                f"({mc['trials_per_s']:,} trials/s); cross-check {verdict}")
    line = (
        f"{fig}: {report['cells']} cells, {report['ops']:,} ops in "
        f"{report['wall_s']:.2f}s ({report['ops_per_s']:,} ops/s)"
    )
    if "engine" in report:
        eng = report["engine"]
        line += (f"; engine {eng['events_per_s']:,} events/s")
    return line
