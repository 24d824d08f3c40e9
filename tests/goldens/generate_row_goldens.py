"""Generate the pinned row checksums (tests/test_pinned_rows.py).

Three kinds of entry, each stored as the SHA-256 of canonical JSON:

* One tiny sweep cell per path whose numerics no figure driver pins:
  the serve drive (static and dynamic partitioning), the flash model
  (WT and KDD on one trace), the no-cache baseline on the same trace,
  and one reliability point (exposure measurement, Markov model and
  Monte-Carlo estimate).
* ``serve-compose``: the online-metrics summary of the tenant-workload
  composer alone, over 200 tenants and 100,000 requests.
* ``fault-op-trace``: the artifacts ``kdd-repro faults --op-trace
  --events-out`` writes, so a fault-injected run's per-op timing
  (start, finish, queue delay, retries, residual fault) is pinned: the
  SHA-256 of the JSONL bytes ``demo_op_trace`` writes, the summary it
  returns, and ``demo_event_log()``.
* Every ``kdd-repro run`` driver (``ALL_FIGURES``) at a small shape.
  Each runs through a recording :class:`SweepEngine`, so one checksum
  covers the full row of every cell the driver submits and the rows
  and notes it prints.

The timed engine's replay and fio rows are also pinned, at other
shapes, by ``tests/test_engine_equivalence.py`` against
``timing_goldens.json``; ``benchmarks/e2e/expected.json`` pins the
end-to-end workloads' rows at scale 0.004.

Usage::

    PYTHONPATH=src python tests/goldens/generate_row_goldens.py

Regenerate only when a change is meant to move these rows, and say
which rows moved and why in the change that does it.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path
from typing import Any

GOLDEN_PATH = Path(__file__).with_name("row_goldens.json")

_FIO_SHAPE = dict(total_requests=300, working_set_pages=2000,
                  cache_pages=1000)

#: Keyword arguments of every pinned ``ALL_FIGURES`` driver.
FIGURE_SHAPES: dict[str, dict[str, Any]] = {
    "table1": dict(scale=0.001),
    "fig4": dict(scale=0.001, partition_fracs=(0.0039, 0.0098),
                 cache_fraction=0.20),
    "fig5": dict(scale=0.001, fractions=(0.10,)),
    "fig6": dict(scale=0.001, fractions=(0.10,)),
    "fig7": dict(scale=0.001, fractions=(0.10,)),
    "fig8": dict(scale=0.001, fractions=(0.10,)),
    "fig9": dict(scale=0.001, max_requests=400),
    "fig10": dict(_FIO_SHAPE),
    "fig11": dict(_FIO_SHAPE),
    "table2": dict(_FIO_SHAPE, cache_pages=1200),
}


def checksum(rows: Any) -> str:
    """SHA-256 of the canonical JSON of ``rows`` (sorted keys)."""
    from repro.harness.sweep import _canonical

    return "sha256:" + hashlib.sha256(_canonical(rows).encode()).hexdigest()


def cells():
    """Name -> sweep cell, in the order the goldens file lists them."""
    from repro.harness.relsweep import reliability_cell
    from repro.harness.servesweep import serve_cell
    from repro.harness.sweep import sim_cell, workload_trace

    serve = dict(policy="wt", cache_pages=512, n_tenants=6, seed=0,
                 universe_pages=512, base_iops=20.0, max_requests=12000,
                 realloc_period=2000, min_fraction=0.05, ways=16,
                 diurnal_amplitude=0.9, diurnal_period_s=120.0,
                 tenant_rows=True)
    fin1 = workload_trace("Fin1", 0.002)
    return {
        "serve-static": serve_cell(dynamic=False, **serve),
        "serve-dynamic": serve_cell(dynamic=True, **serve),
        "flash-wt": sim_cell("wt", fin1, 256, flash_model=True),
        "flash-kdd": sim_cell("kdd", fin1, 256, flash_model=True,
                              mean_compression=0.25),
        "nossd": sim_cell("nossd", fin1, 256),
        "reliability": reliability_cell(cache_pages=64, accesses=800,
                                        universe_pages=128, seed=3,
                                        trials=2000),
    }


def names() -> list[str]:
    """Every pinned name, in the order the goldens file lists them."""
    return [*cells(), "serve-compose", "fault-op-trace", *FIGURE_SHAPES]


def serve_compose_summary() -> dict[str, Any]:
    """Streaming-metrics summary of the composed stream, no cache."""
    from repro.serve.composer import WorkloadComposer
    from repro.serve.driver import ServeMetrics
    from repro.serve.tenants import make_tenant_fleet

    fleet = make_tenant_fleet(200, universe_pages=512, base_iops=2.0,
                              diurnal_amplitude=0.8, diurnal_period_s=3600.0)
    composer = WorkloadComposer(fleet, seed=0, epoch_s=60.0)
    metrics = ServeMetrics(200, window_s=60.0)
    for batch in composer.compose(max_requests=100_000):
        metrics.observe_batch(batch)
    metrics.assert_bounded()
    return metrics.summary()


def fault_op_trace() -> dict[str, Any]:
    """Op-trace digest and summary of the demo fault run, plus the
    demo event log."""
    from repro.faults import demo_event_log
    from repro.harness.faultsweep import demo_op_trace

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ops.jsonl"
        summary = demo_op_trace(str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"op_trace_sha256": digest, "summary": summary,
            "events": demo_event_log()}


def figure_rows(name: str) -> dict[str, Any]:
    """Full cell rows plus printed rows and notes of one driver run."""
    from repro.harness.figures import ALL_FIGURES
    from repro.harness.sweep import SweepEngine

    class RecordingEngine(SweepEngine):
        def __init__(self) -> None:
            super().__init__(jobs=1)
            self.cell_rows: list[dict[str, Any]] = []

        def run(self, cells):
            result = super().run(cells)
            self.cell_rows.extend(result.rows)
            return result

    engine = RecordingEngine()
    result = ALL_FIGURES[name](engine=engine, **FIGURE_SHAPES[name])
    return {"cells": engine.cell_rows, "rows": result.rows,
            "notes": result.notes}


def collect() -> dict[str, str]:
    """Name -> row checksum for every pinned name, run on this tree."""
    from repro.harness.sweep import SweepEngine

    named = cells()
    rows = SweepEngine(jobs=1).run(list(named.values())).rows
    out = {name: checksum([row]) for name, row in zip(named, rows)}
    out["serve-compose"] = checksum([serve_compose_summary()])
    out["fault-op-trace"] = checksum([fault_op_trace()])
    for name in FIGURE_SHAPES:
        out[name] = checksum(figure_rows(name))
    return out


def main() -> int:
    GOLDEN_PATH.write_text(json.dumps(collect(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
