"""Generate the pinned row checksums (tests/test_pinned_rows.py).

A tiny cell per path whose numerics no other tier-1 test pins exactly:
the serve drive (static and dynamic partitioning), the flash model
(WT and KDD on one trace), and the trace figures fig4-fig8 as
``bench_figure`` grids at scale 0.001.  Each is stored as the row
checksum ``kdd-repro bench`` uses, so any numeric drift on these paths
fails ``pytest`` before the ``kdd-repro bench --check`` job runs.  The
timed engine's replay and fio rows are pinned by
``tests/test_engine_equivalence.py`` against ``timing_goldens.json``.

Usage::

    PYTHONPATH=src python tests/goldens/generate_row_goldens.py

Regenerate only when a change is meant to move these rows, and say
which rows moved and why in the change that does it.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("row_goldens.json")

#: Trace figures pinned as whole ``bench_figure`` grids, at this scale.
FIGURES = ("fig4", "fig5", "fig6", "fig7", "fig8")
FIGURE_SCALE = 0.001


def cells():
    """Name -> sweep cell, in the order the goldens file lists them."""
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
    }


def names() -> list[str]:
    """Every pinned name, in the order the goldens file lists them."""
    return [*cells(), *FIGURES]


def collect() -> dict[str, str]:
    """Name -> row checksum for every pinned name, run on this tree."""
    from repro.harness.bench import _checksum, bench_figure
    from repro.harness.sweep import SweepEngine

    named = cells()
    rows = SweepEngine(jobs=1).run(list(named.values())).rows
    out = {name: _checksum([row]) for name, row in zip(named, rows)}
    for fig in FIGURES:
        out[fig] = bench_figure(fig, scale=FIGURE_SCALE)["row_checksum"]
    return out


def main() -> int:
    GOLDEN_PATH.write_text(json.dumps(collect(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
