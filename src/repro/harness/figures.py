"""Drivers that regenerate every table and figure of the evaluation.

Each ``figN`` / ``tableN`` function reruns the corresponding experiment
of Section IV at a configurable ``scale`` (footprints, request counts
and cache sizes all shrink by the same factor, preserving per-page
temporal locality and therefore the figures' shapes) and returns a
:class:`FigureResult` whose rows mirror the paper's plotted series.

Every driver expresses its experiment grid as :class:`SweepCell` lists
and submits them through the :class:`SweepEngine` (``engine=`` keyword),
so each one gets process-pool parallelism, cell de-duplication and the
on-disk result cache for free; with no engine given, a plain serial
engine is used and the rows are identical to the historical inline
loops.  The timed cells (``replay`` / ``fio`` / ``faults``) execute on
one :class:`repro.engine.SimEngine` each, the ``faults`` cells with a
:class:`repro.engine.FaultPipelineHook` installed;
``tests/test_engine_equivalence.py`` pins their numerics to the
pre-engine implementation.

The index lives in DESIGN.md; EXPERIMENTS.md records paper-vs-measured.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from ..traces.workloads import (
    ALL_WORKLOADS,
    READ_DOMINANT,
    TABLE1_SPECS,
    WRITE_DOMINANT,
    workload_spec,
)
from .report import FigureResult
from .sweep import SweepCell, SweepEngine, sim_cell, workload_trace

#: KDD variants at the three content-locality levels the paper evaluates.
KDD_VARIANTS = {"kdd-50": 0.50, "kdd-25": 0.25, "kdd-12": 0.12}

#: Cache sizes as fractions of a workload's unique footprint, mirroring
#: the x-axis ranges of Figures 5-8.
CACHE_FRACTIONS = (0.025, 0.05, 0.10, 0.20)

DEFAULT_SCALE = 0.01

#: The columns the hit-ratio / write-traffic figures publish per row.
_SIM_ROW_KEYS = ("policy", "workload", "cache_pages", "hit_ratio",
                 "ssd_write_pages", "meta_fraction", "raid_reads",
                 "raid_writes")

#: Engine-internal FIO columns stripped from the latency figures' rows.
_FIO_EXTRA_KEYS = ("mean_s", "ssd_write_pages", "fills", "data", "delta",
                   "meta")


def _engine(engine: SweepEngine | None) -> SweepEngine:
    return engine if engine is not None else SweepEngine()


def _project(row: dict[str, Any], keys: Sequence[str]) -> dict[str, Any]:
    return {k: row[k] for k in keys if k in row}


def _cache_sizes(workload: str, scale: float,
                 fractions: Sequence[float] = CACHE_FRACTIONS) -> list[int]:
    """Cache sizes for a workload's sweep: unique, monotone, <= footprint.

    The 64-page floor keeps tiny scales meaningful, but it can collapse
    several fractions onto the same value (or overshoot the footprint
    entirely); duplicates are dropped and sizes are clamped to the
    workload's unique footprint so figure x-axes stay monotone.
    """
    unique = workload_spec(workload, scale).unique_pages
    sizes: list[int] = []
    for f in fractions:
        size = max(64, int(unique * f))
        if unique > 0:
            size = min(size, unique)
        if size not in sizes:
            sizes.append(size)
    return sorted(sizes)


def _grid_cell(policy: str, trace: tuple, cache_pages: int, seed: int,
               **config_kw: Any) -> SweepCell:
    """One figure-grid cell; 'kdd-NN' labels map to KDD at that locality."""
    label = None
    if policy in KDD_VARIANTS:
        label = policy
        config_kw["mean_compression"] = KDD_VARIANTS[policy]
        policy = "kdd"
    return sim_cell(policy, trace, cache_pages, seed=seed, label=label,
                    **config_kw)


# ---------------------------------------------------------------------------
# Table I — workload characteristics
# ---------------------------------------------------------------------------

def table1(scale: float = DEFAULT_SCALE,
           engine: SweepEngine | None = None) -> FigureResult:
    """Regenerate Table I from the calibrated synthetic traces."""
    cells = [
        SweepCell(kind="stats", trace=workload_trace(name, scale))
        for name in ALL_WORKLOADS
    ]
    sweep = _engine(engine).run(cells)
    # The note divides by the scale, so build it only after the sweep
    # has rejected a non-positive one.
    result = FigureResult(
        "table1",
        "Characteristics of I/O workload traces (scaled)",
        notes=[
            f"generated at scale={scale}; multiply page/request counts by "
            f"{1 / scale:g} to compare with the paper's absolute numbers",
        ],
    )
    for name, row in zip(ALL_WORKLOADS, sweep.rows):
        spec = TABLE1_SPECS[name]
        row = dict(row)
        row["paper_read_ratio"] = round(
            spec.read_requests / (spec.read_requests + spec.write_requests), 2
        )
        result.rows.append(row)
    result.timing = sweep.stats.row()
    return result


# ---------------------------------------------------------------------------
# Figure 4 — metadata partition size vs metadata I/O share
# ---------------------------------------------------------------------------

def fig4(
    scale: float = DEFAULT_SCALE,
    partition_fracs: Sequence[float] = (0.0039, 0.0059, 0.0078, 0.0098),
    cache_fraction: float = 0.20,
    seed: int = 0,
    engine: SweepEngine | None = None,
) -> FigureResult:
    """Metadata I/O as a share of cache writes vs metadata partition size.

    The paper sweeps 0.39-0.98 % of the SSD for KDD with medium content
    locality and reports the share staying under ~1.8 % at 0.59 %.
    """
    result = FigureResult(
        "fig4",
        "Effect of the metadata partition size on metadata I/Os (KDD-25%)",
    )
    cells: list[SweepCell] = []
    grid: list[tuple[str, int, float]] = []
    for name in ALL_WORKLOADS:
        trace = workload_trace(name, scale)
        cache_pages = _cache_sizes(name, scale, (cache_fraction,))[0]
        for frac in partition_fracs:
            cells.append(sim_cell("kdd", trace, cache_pages, seed=seed,
                                  mean_compression=0.25,
                                  meta_partition_frac=frac))
            grid.append((name, cache_pages, frac))
    sweep = _engine(engine).run(cells)
    for (name, cache_pages, frac), row in zip(grid, sweep.rows):
        result.rows.append(
            {
                "workload": name,
                "cache_pages": cache_pages,
                "meta_partition_pct": round(frac * 100, 2),
                "meta_io_pct": round(row["meta_fraction_exact"] * 100, 3),
                "meta_pages_written": row["meta_writes"],
            }
        )
    result.timing = sweep.stats.row()
    return result


# ---------------------------------------------------------------------------
# Figures 5-8 — hit ratio and SSD write traffic vs cache size
# ---------------------------------------------------------------------------

def _sweep(
    workloads: Sequence[str],
    policies: Sequence[str],
    scale: float,
    fractions: Sequence[float],
    seed: int,
    engine: SweepEngine | None = None,
) -> tuple[list[dict], dict]:
    cells = [
        _grid_cell(policy, workload_trace(name, scale), cache_pages, seed)
        for name in workloads
        for cache_pages in _cache_sizes(name, scale, fractions)
        for policy in policies
    ]
    sweep = _engine(engine).run(cells)
    rows = [_project(row, _SIM_ROW_KEYS) for row in sweep.rows]
    return rows, sweep.stats.row()


def fig5(scale: float = DEFAULT_SCALE, seed: int = 0,
         fractions: Sequence[float] = CACHE_FRACTIONS,
         engine: SweepEngine | None = None) -> FigureResult:
    """Cache hit ratios, write-dominant traces (Fin1, Hm0)."""
    result = FigureResult("fig5", "Hit ratios under write-dominant traces")
    result.rows, result.timing = _sweep(
        WRITE_DOMINANT, ["wt", "leavo", "kdd-50", "kdd-25", "kdd-12"],
        scale, fractions, seed, engine,
    )
    result.notes.append("expected order: WT >= KDD-12 >= KDD-25 >= KDD-50 >= LeavO")
    return result


def fig6(scale: float = DEFAULT_SCALE, seed: int = 0,
         fractions: Sequence[float] = CACHE_FRACTIONS,
         engine: SweepEngine | None = None) -> FigureResult:
    """SSD write traffic, write-dominant traces (adds WA)."""
    result = FigureResult("fig6", "SSD write traffic under write-dominant traces")
    result.rows, result.timing = _sweep(
        WRITE_DOMINANT, ["wa", "wt", "leavo", "kdd-50", "kdd-25", "kdd-12"],
        scale, fractions, seed, engine,
    )
    result.notes.append("expected order: WA < KDD-12 < KDD-25 < KDD-50 < WT < LeavO")
    return result


def fig7(scale: float = DEFAULT_SCALE, seed: int = 0,
         fractions: Sequence[float] = CACHE_FRACTIONS,
         engine: SweepEngine | None = None) -> FigureResult:
    """Cache hit ratios, read-dominant traces (Fin2, Web0)."""
    result = FigureResult("fig7", "Hit ratios under read-dominant traces")
    result.rows, result.timing = _sweep(
        READ_DOMINANT, ["wt", "leavo", "kdd-50", "kdd-25", "kdd-12"],
        scale, fractions, seed, engine,
    )
    result.notes.append(
        "Web0 at small caches: KDD can beat WT (write locality >> read locality)"
    )
    return result


def fig8(scale: float = DEFAULT_SCALE, seed: int = 0,
         fractions: Sequence[float] = CACHE_FRACTIONS,
         engine: SweepEngine | None = None) -> FigureResult:
    """SSD write traffic, read-dominant traces."""
    result = FigureResult("fig8", "SSD write traffic under read-dominant traces")
    result.rows, result.timing = _sweep(
        READ_DOMINANT, ["wa", "wt", "leavo", "kdd-50", "kdd-25", "kdd-12"],
        scale, fractions, seed, engine,
    )
    result.notes.append("gap to WA narrows; KDD-12 can undercut WA at large caches")
    return result


# ---------------------------------------------------------------------------
# Figure 9 — open-loop trace replay response times
# ---------------------------------------------------------------------------

FIG9_POLICIES = ("nossd", "wa", "wt", "leavo", "kdd")


def fig9(
    scale: float = 0.004,
    seed: int = 0,
    cache_fraction: float = 0.10,
    max_requests: int = 15_000,
    target_iops: float = 120.0,
    engine: SweepEngine | None = None,
) -> FigureResult:
    """Average response time replaying each trace (RAIDmeter experiment).

    ``target_iops`` rescales arrival times so a 5-disk RAID-5 runs near
    (not beyond) saturation, like the paper's testbed; KDD uses medium
    content locality (25 %) as in Section IV-B1.
    """
    result = FigureResult("fig9", "Average response time, open-loop trace replay")
    cells: list[SweepCell] = []
    for name in ALL_WORKLOADS:
        trace = workload_trace(name, scale)
        spec = workload_spec(name, scale)
        time_scale = spec.iops / target_iops
        cache_pages = _cache_sizes(name, scale, (cache_fraction,))[0]
        for policy in FIG9_POLICIES:
            cells.append(
                SweepCell(
                    kind="replay",
                    policy=policy,
                    trace=trace,
                    cache_pages=cache_pages,
                    seed=seed,
                    params=(
                        ("max_requests", max_requests),
                        ("mean_compression", 0.25),
                        ("time_scale", time_scale),
                    ),
                )
            )
    sweep = _engine(engine).run(cells)
    result.rows = [dict(row) for row in sweep.rows]
    result.timing = sweep.stats.row()
    result.notes.append(
        "expected: KDD ~ LeavO < WT/WA; WT/WA beat Nossd only on read-heavy Fin2"
    )
    return result


# ---------------------------------------------------------------------------
# Figures 10-11 — FIO closed-loop benchmark
# ---------------------------------------------------------------------------

FIO_READ_RATES = (0.0, 0.25, 0.50, 0.75)


def _fio_cell(
    policy: str,
    read_rate: float,
    total_requests: int,
    working_set_pages: int,
    cache_pages: int,
    nthreads: int,
    seed: int,
) -> SweepCell:
    """One closed-loop FIO cell (Section IV-B3 setup)."""
    return SweepCell(
        kind="fio",
        policy=policy,
        cache_pages=cache_pages,
        seed=seed,
        params=(
            ("mean_compression", 0.25),
            ("nthreads", nthreads),
            ("read_rate", read_rate),
            ("total_requests", total_requests),
            ("working_set_pages", working_set_pages),
        ),
    )


def fig10(
    total_requests: int = 6000,
    working_set_pages: int = 80_000,
    cache_pages: int = 50_000,
    nthreads: int = 16,
    seed: int = 0,
    engine: SweepEngine | None = None,
) -> FigureResult:
    """Average response time under the FIO zipf benchmark (Section IV-B3).

    Paper setup scaled down: working set larger than the cache, 16
    threads, Zipf alpha 1.0001, read rates 0-75 %.
    """
    result = FigureResult("fig10", "Average response time under FIO benchmark")
    cells = [
        _fio_cell(policy, read_rate, total_requests, working_set_pages,
                  cache_pages, nthreads, seed)
        for read_rate in FIO_READ_RATES
        for policy in FIG9_POLICIES
    ]
    sweep = _engine(engine).run(cells)
    result.rows = [
        {k: v for k, v in row.items() if k not in _FIO_EXTRA_KEYS}
        for row in sweep.rows
    ]
    result.timing = sweep.stats.row()
    result.notes.append("expected: KDD ~ LeavO << WT ~ WA ~ Nossd at low read rates")
    return result


def fig11(
    total_requests: int = 6000,
    working_set_pages: int = 80_000,
    cache_pages: int = 50_000,
    nthreads: int = 16,
    seed: int = 0,
    engine: SweepEngine | None = None,
) -> FigureResult:
    """SSD write traffic under the FIO benchmark."""
    result = FigureResult("fig11", "SSD write traffic under FIO benchmark")
    cells = [
        _fio_cell(policy, read_rate, total_requests, working_set_pages,
                  cache_pages, nthreads, seed)
        for read_rate in FIO_READ_RATES
        for policy in ("wa", "wt", "leavo", "kdd")
    ]
    sweep = _engine(engine).run(cells)
    result.rows = [
        _project(row, ("read_rate", "policy", "ssd_write_pages", "fills",
                       "data", "delta", "meta"))
        for row in sweep.rows
    ]
    result.timing = sweep.stats.row()
    result.notes.append("expected: WA least; KDD < WT < LeavO; WA approaches KDD as reads grow")
    return result


# ---------------------------------------------------------------------------
# Table II — qualitative comparison, derived from measurements
# ---------------------------------------------------------------------------

def table2(
    total_requests: int = 4000,
    working_set_pages: int = 40_000,
    cache_pages: int = 25_000,
    nthreads: int = 16,
    seed: int = 0,
    engine: SweepEngine | None = None,
) -> FigureResult:
    """Derive Table II (latency / endurance classes) from measurements.

    A policy gets 'Low' latency if it beats the no-cache baseline by more
    than 25 % on a write-heavy mix, and 'Good' endurance if its cache
    write traffic is within 3x of write-around's.
    """
    policies = ("nossd", "wt", "wa", "leavo", "kdd")
    cells = [
        _fio_cell(policy, 0.25, total_requests, working_set_pages,
                  cache_pages, nthreads, seed)
        for policy in policies
    ]
    sweep = _engine(engine).run(cells)
    by_policy = dict(zip(policies, sweep.rows))
    baseline_mean = by_policy["nossd"]["mean_s"]
    wa_writes = max(1, by_policy["wa"]["ssd_write_pages"])
    result = FigureResult("table2", "Comparison of different caching policies")
    for policy in ("wt", "wa", "leavo", "kdd"):
        row = by_policy[policy]
        speedup = 1.0 - row["mean_s"] / baseline_mean
        writes_vs_wa = row["ssd_write_pages"] / wa_writes
        result.rows.append(
            {
                "policy": policy,
                "io_latency": "Low" if speedup > 0.25 else "High",
                "ssd_endurance": "Good" if writes_vs_wa <= 3.0 else "Bad",
                "latency_reduction_vs_nossd_pct": round(100 * speedup, 1),
                "ssd_writes_vs_wa": round(writes_vs_wa, 2),
            }
        )
    result.timing = sweep.stats.row()
    result.notes.append("paper's Table II: WT/WA high latency; WT/LeavO bad endurance")
    return result


ALL_FIGURES = {
    "table1": table1,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "table2": table2,
}
