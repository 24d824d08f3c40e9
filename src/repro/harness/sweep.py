"""Parallel experiment engine: fan independent simulation cells out to workers.

Every figure/table of the evaluation is a grid of independent
(policy x workload x cache-size) *cells*.  This module turns such a grid
into a list of :class:`SweepCell` descriptors, executes them on a
:class:`~concurrent.futures.ProcessPoolExecutor` (or inline for
``jobs=1``), and reassembles the result rows **in cell order** so the
output is byte-identical no matter how many workers ran or in which
order they finished.

Determinism rules:

* a cell carries its own RNG seed; when ``seed=None`` the seed is
  derived from the cell's stable config hash, so the same cell always
  sees the same randomness regardless of scheduling;
* rows are ordered by cell index, never by completion order;
* result rows are normalised through a JSON round-trip before being
  returned, so fresh and disk-cached runs yield equal rows.

The config hash also keys an optional on-disk result cache
(:class:`ResultCache`): re-running a sweep skips every already-computed
cell, which makes regenerating a figure after an interrupted run (or
re-rendering with one new policy added) nearly free.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any

from ..errors import ConfigError

#: Bump when a change to cell execution invalidates cached rows.
ENGINE_VERSION = 1

#: Trace-descriptor kinds the worker knows how to materialise.
TRACE_KINDS = ("workload", "zipf", "uniform", "sequential")

#: Cell kinds (see the ``_run_*_cell`` executors below).
CELL_KINDS = ("sim", "replay", "fio", "stats", "faults", "reliability",
              "serve")

#: ``params`` keys consumed by the replay executor (not CacheConfig fields).
_REPLAY_KEYS = ("max_requests", "max_seconds", "time_scale")

#: ``params`` keys consumed by the FIO executor (FioConfig fields).
_FIO_KEYS = ("total_requests", "working_set_pages", "zipf_alpha", "read_rate",
             "nthreads")


# ---------------------------------------------------------------------------
# Trace descriptors
# ---------------------------------------------------------------------------

def trace_desc(kind: str, **kwargs: Any) -> tuple:
    """A hashable, picklable description of a trace to build in a worker.

    Cells reference traces by descriptor rather than by object so a cell
    stays cheap to pickle and stable to hash; each worker process
    materialises (and memoises) the trace on first use.
    """
    if kind not in TRACE_KINDS:
        raise ConfigError(
            f"unknown trace kind {kind!r}; choose from {list(TRACE_KINDS)}"
        )
    return (kind, tuple(sorted(kwargs.items())))


def workload_trace(name: str, scale: float = 1.0) -> tuple:
    """Descriptor for one of the calibrated paper workloads."""
    return trace_desc("workload", name=name, scale=scale)


@lru_cache(maxsize=16)
def _trace_for(desc: tuple):
    """Materialise (once per process) the trace a descriptor names.

    Deliberate per-process memoisation: the descriptor tuple captures
    every input, so a cached trace is identical to a fresh one and
    worker determinism is preserved.  This is the one entry on the
    effect analyzer's sweep allowlist (RPR206, ``SWEEP_ALLOWLIST`` in
    :mod:`repro.devtools.analyze.effects`) — any other module-level
    state reachable from a cell worker is flagged.
    """
    from ..traces.synthetic import (
        sequential_workload,
        uniform_workload,
        zipf_workload,
    )
    from ..traces.workloads import make_workload

    kind, items = desc
    kwargs = dict(items)
    if kind == "workload":
        return make_workload(kwargs["name"], scale=kwargs.get("scale", 1.0),
                             seed=kwargs.get("seed"))
    builder = {
        "zipf": zipf_workload,
        "uniform": uniform_workload,
        "sequential": sequential_workload,
    }[kind]
    return builder(**kwargs)


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------

def _json_default(obj: Any):
    if hasattr(obj, "item"):  # numpy scalars
        return obj.item()
    raise TypeError(f"not JSON-serialisable: {obj!r} ({type(obj).__name__})")


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=_json_default)


def _normalize_row(row: dict[str, Any]) -> dict[str, Any]:
    """JSON round-trip a row so fresh and cached results compare equal."""
    return json.loads(json.dumps(row, default=_json_default))


@dataclass(frozen=True)
class SweepCell:
    """One independent simulation: the unit of work the engine schedules.

    ``params`` holds extra keyword arguments as a tuple of ``(key,
    value)`` pairs (sorted on construction, so equal configurations hash
    equally however they were written).  Depending on ``kind`` they feed
    :class:`~repro.cache.base.CacheConfig` and, for ``replay``/``fio``
    cells, the replay/FioConfig knobs named in ``_REPLAY_KEYS`` /
    ``_FIO_KEYS``.

    ``seed=None`` opts into hash-derived per-cell seeding; an explicit
    integer is used verbatim (what the figure drivers do, keeping their
    rows identical to the historical serial implementation).
    """

    kind: str = "sim"
    policy: str = ""
    trace: tuple = ()
    cache_pages: int = 0
    seed: int | None = 0
    label: str | None = None
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in CELL_KINDS:
            raise ConfigError(
                f"unknown cell kind {self.kind!r}; choose from {list(CELL_KINDS)}"
            )
        object.__setattr__(self, "params", tuple(sorted(self.params)))

    def config(self) -> dict[str, Any]:
        """Canonical config dict: what the hash (and cache key) covers."""
        return {
            "engine": ENGINE_VERSION,
            "kind": self.kind,
            "policy": self.policy,
            "trace": self.trace,
            "cache_pages": self.cache_pages,
            "seed": self.seed,
            "label": self.label,
            "params": self.params,
        }

    def config_hash(self) -> str:
        """Stable hex digest of the cell configuration."""
        return hashlib.sha256(_canonical(self.config()).encode()).hexdigest()

    def effective_seed(self) -> int:
        """The explicit seed, or one derived from the config hash."""
        if self.seed is not None:
            return self.seed
        return int(self.config_hash()[:8], 16) % (2**31)


def sim_cell(
    policy: str,
    trace: tuple,
    cache_pages: int,
    seed: int | None = 0,
    label: str | None = None,
    **config_kwargs: Any,
) -> SweepCell:
    """Convenience constructor for a :func:`simulate_policy` cell."""
    return SweepCell(kind="sim", policy=policy, trace=trace,
                     cache_pages=cache_pages, seed=seed, label=label,
                     params=tuple(config_kwargs.items()))


# ---------------------------------------------------------------------------
# Cell executors (run inside worker processes; must stay module-level)
# ---------------------------------------------------------------------------

def _split_params(cell: SweepCell, reserved: Sequence[str]):
    params = dict(cell.params)
    taken = {k: params.pop(k) for k in reserved if k in params}
    return taken, params


def _run_sim_cell(cell: SweepCell) -> dict[str, Any]:
    from .runner import simulate_policy

    trace = _trace_for(cell.trace)
    policy_kwargs, config_kwargs = _split_params(cell, ("policy_kwargs",))
    result = simulate_policy(
        cell.policy,
        trace,
        cell.cache_pages,
        policy_kwargs=dict(policy_kwargs.get("policy_kwargs", ())) or None,
        seed=cell.effective_seed(),
        **config_kwargs,
    )
    row = result.row()
    row["meta_writes"] = result.stats.meta_writes
    # row() rounds meta_fraction for display; keep the exact value too so
    # downstream drivers (fig4) can re-round at their own precision.
    row["meta_fraction_exact"] = result.meta_fraction
    row.update(result.extras)
    if cell.label:
        row["policy"] = cell.label
    return row


def _run_replay_cell(cell: SweepCell) -> dict[str, Any]:
    from ..cache.base import CacheConfig
    from ..engine import SimEngine
    from ..sim.openloop import replay_trace
    from .runner import build_policy, make_raid_for_trace

    trace = _trace_for(cell.trace)
    replay_kwargs, config_kwargs = _split_params(cell, _REPLAY_KEYS)
    raid = make_raid_for_trace(trace)
    config = CacheConfig(cache_pages=cell.cache_pages,
                         seed=cell.effective_seed(), **config_kwargs)
    system = SimEngine(build_policy(cell.policy, config, raid))
    rep = replay_trace(system, trace, **replay_kwargs)
    row = {"workload": trace.name, "policy": cell.label or cell.policy}
    row.update(rep.row())
    return row


def _run_fio_cell(cell: SweepCell) -> dict[str, Any]:
    from ..cache.base import CacheConfig
    from ..engine import SimEngine
    from ..raid.array import RAIDArray
    from ..raid.layout import RaidLevel
    from ..sim.closedloop import FioConfig, run_closed_loop
    from .runner import build_policy

    fio_kwargs, config_kwargs = _split_params(cell, _FIO_KEYS)
    seed = cell.effective_seed()
    fio = FioConfig(seed=seed, **fio_kwargs)
    raid = RAIDArray(
        RaidLevel.RAID5,
        ndisks=5,
        chunk_pages=16,
        pages_per_disk=max(1 << 14, 2 * fio.working_set_pages),
    )
    config = CacheConfig(cache_pages=cell.cache_pages, seed=seed,
                         **config_kwargs)
    system = SimEngine(build_policy(cell.policy, config, raid))
    rep = run_closed_loop(system, fio)
    stats = system.policy.stats
    row = {"read_rate": fio.read_rate, "policy": cell.label or cell.policy}
    row.update(rep.row())
    row.update(
        mean_s=rep.latency.mean,
        ssd_write_pages=stats.ssd_writes,
        fills=stats.fill_writes,
        data=stats.data_writes,
        delta=stats.delta_writes,
        meta=stats.meta_writes,
    )
    return row


def _run_stats_cell(cell: SweepCell) -> dict[str, Any]:
    return _trace_for(cell.trace).stats().row()


def _run_faults_cell(cell: SweepCell) -> dict[str, Any]:
    from .faultsweep import run_faults_cell

    return run_faults_cell(cell, _trace_for(cell.trace))


def _run_reliability_cell(cell: SweepCell) -> dict[str, Any]:
    from .relsweep import run_reliability_cell

    return run_reliability_cell(cell)


def _run_serve_cell(cell: SweepCell) -> dict[str, Any]:
    from .servesweep import run_serve_cell

    return run_serve_cell(cell)


_CELL_RUNNERS: dict[str, Callable[[SweepCell], dict[str, Any]]] = {
    "sim": _run_sim_cell,
    "replay": _run_replay_cell,
    "fio": _run_fio_cell,
    "stats": _run_stats_cell,
    "faults": _run_faults_cell,
    "reliability": _run_reliability_cell,
    "serve": _run_serve_cell,
}


def _execute_cell(cell: SweepCell) -> tuple[dict[str, Any], float]:
    """Worker entry point: run one cell, return (row, wall seconds)."""
    start = time.perf_counter()
    row = _normalize_row(_CELL_RUNNERS[cell.kind](cell))
    return row, time.perf_counter() - start


# ---------------------------------------------------------------------------
# On-disk result cache
# ---------------------------------------------------------------------------

class ResultCache:
    """Directory of ``<config-hash>.json`` files, one per computed cell."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        """The cached row for ``key``, or None on miss/corruption."""
        try:
            payload = json.loads(self._path(key).read_text())
        except (OSError, ValueError):
            return None
        row = payload.get("row")
        return row if isinstance(row, dict) else None

    def put(self, key: str, cell: SweepCell, row: dict[str, Any]) -> None:
        """Atomically persist ``row`` (config kept alongside for debugging)."""
        payload = json.dumps(
            {"config": cell.config(), "row": row}, default=_json_default
        )
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Delete every cached cell; returns the number removed."""
        removed = 0
        for path in self.root.glob("*.json"):
            path.unlink()
            removed += 1
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))


# ---------------------------------------------------------------------------
# Progress / timing instrumentation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepProgress:
    """One progress tick: a cell finished (or was served from cache)."""

    done: int
    total: int
    cell: SweepCell
    seconds: float
    from_cache: bool


@dataclass
class SweepStats:
    """Timing/throughput instrumentation for one :meth:`SweepEngine.run`."""

    total: int = 0
    executed: int = 0
    cached: int = 0
    deduped: int = 0
    jobs: int = 1
    elapsed: float = 0.0
    cell_seconds: list[float] = field(default_factory=list)

    @property
    def cells_per_sec(self) -> float:
        return self.total / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def mean_cell_seconds(self) -> float:
        return (sum(self.cell_seconds) / len(self.cell_seconds)
                if self.cell_seconds else 0.0)

    @property
    def max_cell_seconds(self) -> float:
        return max(self.cell_seconds, default=0.0)

    @property
    def worker_utilisation(self) -> float:
        """Busy worker-seconds over available worker-seconds (0..1)."""
        if self.elapsed <= 0 or self.jobs < 1:
            return 0.0
        return min(1.0, sum(self.cell_seconds) / (self.elapsed * self.jobs))

    def row(self) -> dict[str, Any]:
        return {
            "cells": self.total,
            "executed": self.executed,
            "cached": self.cached,
            "deduped": self.deduped,
            "jobs": self.jobs,
            "elapsed_s": round(self.elapsed, 3),
            "cells_per_sec": round(self.cells_per_sec, 2),
            "mean_cell_s": round(self.mean_cell_seconds, 4),
            "max_cell_s": round(self.max_cell_seconds, 4),
            "worker_utilisation": round(self.worker_utilisation, 3),
        }


@dataclass(frozen=True)
class SweepResult:
    """Rows (in cell order) plus the run's instrumentation."""

    rows: tuple[dict[str, Any], ...]
    stats: SweepStats
    cells: tuple[SweepCell, ...]


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class SweepEngine:
    """Executes sweep cells, optionally in parallel and against a cache.

    ``jobs=1`` runs inline (no subprocesses); ``jobs=N`` fans cells out
    to a process pool.  Rows come back ordered by cell index either way,
    and each cell's seed travels inside the cell, so serial and parallel
    runs are byte-identical.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | str | os.PathLike | None = None,
        force: bool = False,
        progress: Callable[[SweepProgress], None] | None = None,
    ) -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.force = force
        self.progress = progress
        self.last_stats: SweepStats | None = None

    # -- internals ----------------------------------------------------------

    def _tick(self, stats: SweepStats, cell: SweepCell, seconds: float,
              from_cache: bool, done: int) -> None:
        if self.progress is not None:
            self.progress(SweepProgress(done=done, total=stats.total,
                                        cell=cell, seconds=seconds,
                                        from_cache=from_cache))

    def run(self, cells: Iterable[SweepCell]) -> SweepResult:
        cells = tuple(cells)
        stats = SweepStats(total=len(cells), jobs=self.jobs)
        start = time.perf_counter()
        rows: list[dict[str, Any] | None] = [None] * len(cells)

        # Group duplicate cells so identical work runs exactly once.
        groups: dict[str, list[int]] = {}
        for i, cell in enumerate(cells):
            groups.setdefault(cell.config_hash(), []).append(i)
        stats.deduped = len(cells) - len(groups)

        done = 0
        todo: list[tuple[str, int]] = []  # (hash, first cell index)
        for key, indices in groups.items():
            cached = None if (self.cache is None or self.force) \
                else self.cache.get(key)
            if cached is not None:
                for i in indices:
                    rows[i] = dict(cached)
                stats.cached += 1
                done += len(indices)
                self._tick(stats, cells[indices[0]], 0.0, True, done)
            else:
                todo.append((key, indices[0]))

        def _finish(key: str, first: int, row: dict[str, Any],
                    seconds: float) -> None:
            nonlocal done
            if self.cache is not None:
                self.cache.put(key, cells[first], row)
            indices = groups[key]
            for i in indices:
                rows[i] = dict(row)
            stats.executed += 1
            stats.cell_seconds.append(seconds)
            done += len(indices)
            self._tick(stats, cells[first], seconds, False, done)

        if todo:
            if self.jobs == 1 or len(todo) == 1:
                for key, first in todo:
                    row, seconds = _execute_cell(cells[first])
                    _finish(key, first, row, seconds)
            else:
                workers = min(self.jobs, len(todo))
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = {
                        pool.submit(_execute_cell, cells[first]): (key, first)
                        for key, first in todo
                    }
                    pending = set(futures)
                    while pending:
                        ready, pending = wait(pending,
                                              return_when=FIRST_COMPLETED)
                        for fut in ready:
                            key, first = futures[fut]
                            row, seconds = fut.result()
                            _finish(key, first, row, seconds)

        stats.elapsed = time.perf_counter() - start
        self.last_stats = stats
        assert all(r is not None for r in rows)
        return SweepResult(rows=tuple(rows), stats=stats, cells=cells)  # type: ignore[arg-type]


def run_sweep(
    cells: Iterable[SweepCell],
    jobs: int = 1,
    cache: ResultCache | str | os.PathLike | None = None,
    force: bool = False,
    progress: Callable[[SweepProgress], None] | None = None,
) -> SweepResult:
    """One-shot convenience wrapper around :class:`SweepEngine`."""
    return SweepEngine(jobs=jobs, cache=cache, force=force,
                       progress=progress).run(cells)
