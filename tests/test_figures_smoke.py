"""Fast smoke tests for the figure drivers (full runs live in benchmarks/).

Each driver is executed at a micro scale to pin its row schema and the
invariants the harness depends on; the benchmark suite re-runs them at
meaningful scales with the paper-shape assertions.
"""

from repro.harness.figures import (
    ALL_FIGURES,
    _cache_sizes,
    _grid_cell,
    fig4,
    fig5,
    fig9,
    fig10,
    fig11,
    table1,
    table2,
)
from repro.harness.sweep import SweepEngine, workload_trace
from repro.traces.workloads import ALL_WORKLOADS, workload_spec

MICRO = 0.0008


def test_registry_covers_every_table_and_figure():
    assert set(ALL_FIGURES) == {
        "table1", "fig4", "fig5", "fig6", "fig7", "fig8",
        "fig9", "fig10", "fig11", "table2",
    }


def test_kdd_variant_cells_map_to_kdd():
    cell = _grid_cell("kdd-25", workload_trace("Fin1", MICRO), 128, seed=0)
    assert cell.policy == "kdd"
    assert cell.label == "kdd-25"
    assert dict(cell.params)["mean_compression"] == 0.25
    assert cell.seed == 0


def test_table1_micro():
    r = table1(scale=MICRO)
    assert len(r.rows) == 4
    assert {row["workload"] for row in r.rows} == {"Fin1", "Fin2", "Hm0", "Web0"}


def test_fig4_micro():
    r = fig4(scale=MICRO, partition_fracs=(0.0059,), cache_fraction=0.2)
    assert len(r.rows) == 4
    for row in r.rows:
        assert 0.0 <= row["meta_io_pct"] < 100.0


def test_fig5_micro_schema_and_series():
    r = fig5(scale=MICRO, fractions=(0.05, 0.2))
    assert len(r.rows) == 2 * 2 * 5  # workloads x sizes x policies
    series = r.series(x="cache_pages", y="hit_ratio", key="policy")
    assert set(series) == {"wt", "leavo", "kdd-50", "kdd-25", "kdd-12"}


def test_fig9_micro():
    r = fig9(scale=MICRO, max_requests=400, target_iops=200)
    assert len(r.rows) == 4 * 5
    for row in r.rows:
        assert row["mean_ms"] >= 0


def test_fig10_fig11_micro():
    kw = dict(total_requests=200, working_set_pages=2000, cache_pages=1000,
              nthreads=4)
    r10 = fig10(**kw)
    assert len(r10.rows) == 4 * 5
    r11 = fig11(**kw)
    assert len(r11.rows) == 4 * 4
    for row in r11.rows:
        assert row["ssd_write_pages"] == (
            row["fills"] + row["data"] + row["delta"] + row["meta"]
        )


def test_cache_sizes_monotone_and_clamped():
    """At tiny scales the 64-page floor must not yield duplicate or
    larger-than-footprint sizes (the figure x-axes stay monotone)."""
    for scale in (0.0001, 0.0005, 0.001, 0.004, 0.01):
        for name in ALL_WORKLOADS:
            sizes = _cache_sizes(name, scale)
            assert sizes == sorted(sizes)
            assert len(sizes) == len(set(sizes))
            unique = workload_spec(name, scale).unique_pages
            assert all(s <= max(64, unique) for s in sizes)
            assert all(s <= unique for s in sizes if unique >= 64)


def test_cache_sizes_collapse_dedupes():
    # Fin2 at scale 0.0005 has a ~200-page footprint: every fraction
    # collapses onto the 64-page floor, which must yield one size.
    assert _cache_sizes("Fin2", 0.0005) == [64]


def test_fig4_parallel_engine_matches_serial():
    kwargs = dict(scale=MICRO, partition_fracs=(0.0039, 0.0098),
                  cache_fraction=0.2)
    serial = fig4(**kwargs)
    parallel = fig4(engine=SweepEngine(jobs=2), **kwargs)
    assert serial.rows == parallel.rows
    assert parallel.timing["jobs"] == 2
    assert parallel.timing["executed"] == len(parallel.rows)


def test_figures_carry_sweep_timing():
    r = table1(scale=MICRO)
    assert r.timing is not None
    assert r.timing["cells"] == 4
    assert "sweep:" in r.render()


def test_table2_micro():
    r = table2(total_requests=300, working_set_pages=2000, cache_pages=1200)
    assert {row["policy"] for row in r.rows} == {"wt", "wa", "leavo", "kdd"}
    for row in r.rows:
        assert row["io_latency"] in ("Low", "High")
        assert row["ssd_endurance"] in ("Good", "Bad")
